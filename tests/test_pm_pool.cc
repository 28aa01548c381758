/**
 * @file
 * Unit tests for the PM device model: durability of flush+fence and
 * NTI+fence, volatility of unfenced stores, crash injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/logical_clock.hh"
#include "pm/pm_context.hh"
#include "pm/pm_pool.hh"
#include "pm/poff.hh"

namespace whisper
{
namespace
{

struct PoolWorld
{
    pm::PmPool pool{1 << 20};
    LogicalClock clock;
    trace::TraceBuffer tb{0};
    pm::PmContext ctx{pool, clock, 0, &tb};
};

TEST(PmPool, StoreIsVisibleButNotDurable)
{
    PoolWorld w;
    const std::uint64_t v = 0xDEADBEEF;
    w.ctx.store(128, &v, 8);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(128), v);
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(128), 0u);
    EXPECT_TRUE(w.pool.lineDirty(lineOf(128)));
}

TEST(PmPool, FlushAloneIsNotDurable)
{
    PoolWorld w;
    const std::uint64_t v = 7;
    w.ctx.store(0, &v, 8);
    w.ctx.flush(0, 8);
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(0), 0u);
}

TEST(PmPool, FlushPlusFenceIsDurable)
{
    PoolWorld w;
    const std::uint64_t v = 7;
    w.ctx.store(0, &v, 8);
    w.ctx.flush(0, 8);
    w.ctx.fence();
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(0), 7u);
    EXPECT_FALSE(w.pool.lineDirty(0));
}

TEST(PmPool, FenceOnlyDrainsOwnThreadsFlushes)
{
    pm::PmPool pool(1 << 20);
    LogicalClock clock;
    trace::TraceBuffer tb0(0), tb1(1);
    pm::PmContext c0(pool, clock, 0, &tb0);
    pm::PmContext c1(pool, clock, 1, &tb1);
    const std::uint64_t v = 9;
    c0.store(0, &v, 8);
    c0.flush(0, 8);
    c1.fence(); // thread 1's fence must not drain thread 0's clwb
    EXPECT_EQ(*pool.durableAt<std::uint64_t>(0), 0u);
    c0.fence();
    EXPECT_EQ(*pool.durableAt<std::uint64_t>(0), 9u);
}

TEST(PmPool, NtStoreDurableAfterFence)
{
    PoolWorld w;
    const std::uint64_t v = 11;
    w.ctx.ntStore(256, &v, 8);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(256), 11u);
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(256), 0u);
    w.ctx.fence();
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(256), 11u);
}

TEST(PmPool, CrashHardLosesUnfenced)
{
    PoolWorld w;
    const std::uint64_t a = 1, b = 2;
    w.ctx.store(0, &a, 8);
    w.ctx.flush(0, 8);
    w.ctx.fence();
    w.ctx.store(64, &b, 8); // never flushed/fenced
    w.pool.crashHard();
    EXPECT_EQ(*w.pool.at<std::uint64_t>(0), 1u);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(64), 0u);
    EXPECT_EQ(w.pool.dirtyLineCount(), 0u);
}

TEST(PmPool, CrashWithFullSurvivalKeepsDirtyLines)
{
    PoolWorld w;
    const std::uint64_t b = 2;
    w.ctx.store(64, &b, 8);
    Rng rng(1);
    w.pool.crash(rng, 1.0); // every dirty line "was evicted in time"
    EXPECT_EQ(*w.pool.at<std::uint64_t>(64), 2u);
}

TEST(PmPool, CrashWithZeroSurvivalDropsDirtyLines)
{
    PoolWorld w;
    const std::uint64_t b = 2;
    w.ctx.store(64, &b, 8);
    Rng rng(1);
    w.pool.crash(rng, 0.0);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(64), 0u);
}

TEST(PmPool, CrashOutcomeIsPerLine)
{
    // With survival 0.5 and many lines, some persist and some do not.
    PoolWorld w;
    for (Addr off = 0; off < 64 * 256; off += 64) {
        const std::uint64_t v = off + 1;
        w.ctx.store(off, &v, 8);
    }
    Rng rng(99);
    w.pool.crash(rng, 0.5);
    int kept = 0, lost = 0;
    for (Addr off = 0; off < 64 * 256; off += 64) {
        if (*w.pool.at<std::uint64_t>(off) == off + 1)
            kept++;
        else
            lost++;
    }
    EXPECT_GT(kept, 32);
    EXPECT_GT(lost, 32);
}

TEST(PmPool, CrashStatsCountSurvivorsSeparatelyFromEvictions)
{
    // Regression: crash() used to book surviving lines as cache
    // evictions, conflating them with crash luck; survivors have
    // their own counter.
    PoolWorld w;
    for (Addr off = 0; off < 64 * 8; off += 64) {
        const std::uint64_t v = off + 1;
        w.ctx.store(off, &v, 8);
    }
    Rng rng(1);
    w.pool.crash(rng, 1.0); // all 8 dirty lines survive
    EXPECT_EQ(w.pool.stats().linesSurvivedCrash, 8u);
    EXPECT_EQ(w.pool.stats().crashes, 1u);
}

TEST(PmPool, CrashHardSurvivesNothingAndBooksNothing)
{
    PoolWorld w;
    const std::uint64_t v = 7;
    w.ctx.store(0, &v, 8);
    w.pool.crashHard();
    EXPECT_EQ(w.pool.stats().linesSurvivedCrash, 0u);
}

TEST(PmPool, CrashWithSurvivorsKeepsExactlyThatSet)
{
    PoolWorld w;
    for (Addr off = 0; off < 64 * 4; off += 64) {
        const std::uint64_t v = off + 1;
        w.ctx.store(off, &v, 8);
    }
    // Keep lines 0 and 2; line addresses are byte offsets / 64.
    w.pool.crashWithFaults({0, 2}, {});
    EXPECT_EQ(*w.pool.at<std::uint64_t>(0), 1u);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(64), 0u);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(128), 129u);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(192), 0u);
    EXPECT_EQ(w.pool.stats().linesSurvivedCrash, 2u);
    EXPECT_EQ(w.pool.dirtyLineCount(), 0u);
}

TEST(PmPool, PickSurvivorsIsSeedDeterministic)
{
    PoolWorld w;
    for (Addr off = 0; off < 64 * 64; off += 64) {
        const std::uint64_t v = off + 1;
        w.ctx.store(off, &v, 8);
    }
    Rng rng_a(42), rng_b(42);
    const auto a = w.pool.pickSurvivors(rng_a, 0.5);
    const auto b = w.pool.pickSurvivors(rng_b, 0.5);
    EXPECT_EQ(a, b);
    EXPECT_GT(a.size(), 0u);
    EXPECT_LT(a.size(), 64u);
}

TEST(PmPool, PersistRangeSpansLines)
{
    PoolWorld w;
    std::uint8_t buf[200];
    std::fill(buf, buf + sizeof(buf), 0xAB);
    w.ctx.store(60, buf, sizeof(buf)); // spans 4+ lines
    w.pool.persistRange(60, sizeof(buf));
    for (std::size_t i = 0; i < sizeof(buf); i++)
        EXPECT_EQ(w.pool.durableBase()[60 + i], 0xAB);
}

TEST(PmPool, OffsetOfRoundTrips)
{
    PoolWorld w;
    auto *p = w.pool.at<std::uint32_t>(4096);
    EXPECT_EQ(w.pool.offsetOf(p), 4096u);
    EXPECT_TRUE(w.pool.contains(p));
    int local = 0;
    EXPECT_FALSE(w.pool.contains(&local));
}

TEST(PmContext, PersistHelper)
{
    PoolWorld w;
    const std::uint64_t v = 21;
    w.ctx.store(512, &v, 8);
    w.ctx.persist(512, 8);
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(512), 21u);
}

TEST(PmContext, StoreFieldAndLoadField)
{
    PoolWorld w;
    struct Rec { std::uint64_t a; std::uint64_t b; };
    auto *rec = w.pool.at<Rec>(1024);
    w.ctx.storeField(rec->b, std::uint64_t{77});
    EXPECT_EQ(w.ctx.loadField(rec->b), 77u);
    EXPECT_EQ(w.ctx.loadField(rec->a), 0u);
}

TEST(PmContext, TraceEventsEmitted)
{
    PoolWorld w;
    const std::uint64_t v = 1;
    w.ctx.store(0, &v, 8);
    w.ctx.flush(0, 8);
    w.ctx.fence(pm::FenceKind::Durability);
    const auto &events = w.tb.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, trace::EventKind::PmStore);
    EXPECT_EQ(events[1].kind, trace::EventKind::PmFlush);
    EXPECT_EQ(events[2].kind, trace::EventKind::Fence);
    EXPECT_EQ(events[2].fenceKind(), trace::FenceKind::Durability);
    EXPECT_LT(events[0].ts, events[1].ts);
    EXPECT_LT(events[1].ts, events[2].ts);
}

TEST(POff, NullAndDeref)
{
    PoolWorld w;
    pm::POff<std::uint64_t> p;
    EXPECT_TRUE(p.isNull());
    p = pm::POff<std::uint64_t>(64);
    EXPECT_FALSE(p.isNull());
    *p.get(w.pool) = 5;
    EXPECT_EQ(*w.pool.at<std::uint64_t>(64), 5u);
    // Zero-filled PM is not a valid pointer.
    EXPECT_NE(pm::POff<std::uint64_t>(0), pm::POff<std::uint64_t>());
}

TEST(PmPool, BoundsViolationPanics)
{
    pm::PmPool pool(4096);
    EXPECT_DEATH(pool.at<std::uint64_t>(4095), "outside pool");
}

TEST(PmPool, PoisonedLineRaisesMediaErrorUntilScrubbed)
{
    PoolWorld w;
    const std::uint64_t v = 9;
    w.ctx.store(256, &v, 8);
    w.ctx.flush(256, 8);
    w.ctx.fence();

    w.pool.poisonLine(lineOf(256));
    EXPECT_TRUE(w.pool.linePoisoned(lineOf(256)));
    std::uint64_t out = 0;
    EXPECT_THROW(w.ctx.load(256, &out, 8), pm::PmMediaError);
    EXPECT_GE(w.pool.stats().mediaErrors.load(), 1u);

    w.pool.scrubLine(lineOf(256));
    EXPECT_FALSE(w.pool.linePoisoned(lineOf(256)));
    EXPECT_GE(w.pool.stats().linesScrubbed.load(), 1u);
    // A scrubbed line reads zero from both images: content is gone.
    out = ~std::uint64_t(0);
    w.ctx.load(256, &out, 8);
    EXPECT_EQ(out, 0u);
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(256), 0u);
}

TEST(PmPool, StoreReprogramsPoisonedLine)
{
    PoolWorld w;
    w.pool.poisonLine(lineOf(512));
    const std::uint64_t v = 0xABCD;
    w.ctx.store(512, &v, 8);
    EXPECT_FALSE(w.pool.linePoisoned(lineOf(512)));
    EXPECT_GE(w.pool.stats().poisonCleared.load(), 1u);
    std::uint64_t out = 0;
    w.ctx.load(512, &out, 8); // no throw: the line was re-programmed
    EXPECT_EQ(out, v);
}

TEST(PmPool, CrashWithFaultsTearsAtWordGranularity)
{
    PoolWorld w;
    std::uint64_t words[8];
    for (std::uint64_t i = 0; i < 8; i++)
        words[i] = 100 + i;
    w.ctx.store(0, words, sizeof(words));

    // Persist only words 0, 2 and 7 of the surviving line.
    pm::FaultResolution faults;
    faults.torn.push_back({0, 0b10000101});
    w.pool.crashWithFaults({0}, faults);

    for (std::uint64_t i = 0; i < 8; i++) {
        const std::uint64_t expect =
            (i == 0 || i == 2 || i == 7) ? 100 + i : 0;
        EXPECT_EQ(*w.pool.at<std::uint64_t>(i * 8), expect) << i;
    }
    EXPECT_EQ(w.pool.stats().linesTorn.load(), 1u);
}

TEST(PmPool, CrashWithFaultsPoisonsLinesOutright)
{
    PoolWorld w;
    const std::uint64_t v = 41;
    w.ctx.store(64, &v, 8);

    pm::FaultResolution faults;
    faults.poisoned.push_back(lineOf(64));
    w.pool.crashWithFaults({lineOf(64)}, faults);

    EXPECT_TRUE(w.pool.linePoisoned(lineOf(64)));
    EXPECT_EQ(w.pool.poisonedLines(),
              std::vector<LineAddr>{lineOf(64)});
    std::uint64_t out = 0;
    EXPECT_THROW(w.ctx.load(64, &out, 8), pm::PmMediaError);
    EXPECT_EQ(w.pool.stats().linesPoisoned.load(), 1u);
}

TEST(PmPool, ResolveFaultsIsDeterministicAndBounded)
{
    PoolWorld w;
    std::vector<LineAddr> survivors;
    for (Addr off = 0; off < 64 * 64; off += 64) {
        const std::uint64_t v = off + 1;
        w.ctx.store(off, &v, 8);
        if ((off / 64) % 2 == 0)
            survivors.push_back(lineOf(off));
    }
    pm::FaultPlan plan;
    plan.seed = 0x5eed;
    plan.poisonCount = 3;
    plan.tearProb = 0.5;

    const pm::FaultResolution a = w.pool.resolveFaults(plan, survivors);
    const pm::FaultResolution b = w.pool.resolveFaults(plan, survivors);
    ASSERT_EQ(a.poisoned.size(), b.poisoned.size());
    EXPECT_EQ(a.poisoned, b.poisoned);
    ASSERT_EQ(a.torn.size(), b.torn.size());
    for (std::size_t i = 0; i < a.torn.size(); i++) {
        EXPECT_EQ(a.torn[i].line, b.torn[i].line);
        EXPECT_EQ(a.torn[i].mask, b.torn[i].mask);
    }

    // Bounds: at most poisonCount poisoned lines, all from the dirty
    // set; torn lines are survivors not also poisoned, with masks
    // that neither persist nor drop the whole line.
    EXPECT_LE(a.poisoned.size(), plan.poisonCount);
    for (const pm::TornLine &t : a.torn) {
        EXPECT_NE(t.mask, 0u);
        EXPECT_NE(t.mask, 0xFFu);
        EXPECT_TRUE(std::find(survivors.begin(), survivors.end(),
                              t.line) != survivors.end());
        EXPECT_TRUE(std::find(a.poisoned.begin(), a.poisoned.end(),
                              t.line) == a.poisoned.end());
    }
    // A different seed resolves differently (overwhelmingly likely
    // with 32 survivors at 50% tear).
    plan.seed = 0x5eee;
    const pm::FaultResolution c = w.pool.resolveFaults(plan, survivors);
    EXPECT_TRUE(c.poisoned != a.poisoned || c.torn.size() !=
                a.torn.size());
}

TEST(PmPool, TransientFaultsRetryInvisibly)
{
    PoolWorld w;
    const std::uint64_t v = 77;
    w.ctx.store(128, &v, 8);
    pm::FaultPlan plan;
    plan.seed = 1;
    plan.transientEvery = 3;
    w.pool.setFaultPlan(plan);

    std::uint64_t out = 0;
    for (int i = 0; i < 12; i++) {
        w.ctx.load(128, &out, 8); // never throws: retries succeed
        EXPECT_EQ(out, v);
    }
    EXPECT_GE(w.pool.stats().transientFaults.load(), 3u);
    EXPECT_EQ(w.pool.stats().mediaErrors.load(), 0u);
}

/** A word whose halves check each other: any torn mix fails wordOk. */
std::uint64_t
tagWord(std::uint32_t x)
{
    return (std::uint64_t{x} << 32) | static_cast<std::uint32_t>(~x);
}

bool
wordOk(std::uint64_t w)
{
    return static_cast<std::uint32_t>(w >> 32) ==
           static_cast<std::uint32_t>(~w);
}

TEST(PmPoolConcurrency, StoreOfSixtyFourLinesTakesEveryShard)
{
    // Lines 32..95 cover every shard once, wrapping past shard 63.
    pm::PmPool pool(1 << 20);
    std::vector<std::uint64_t> src(64 * kCacheLineSize / 8);
    for (std::size_t i = 0; i < src.size(); i++)
        src[i] = tagWord(static_cast<std::uint32_t>(i));
    const Addr off = 32 * kCacheLineSize;
    pool.applyStore(off, src.data(), src.size() * 8);
    std::vector<std::uint64_t> back(src.size());
    pool.applyLoad(off, back.data(), back.size() * 8);
    EXPECT_EQ(back, src);
    for (LineAddr line = 32; line < 96; line++)
        EXPECT_TRUE(pool.lineDirty(line)) << line;
    EXPECT_FALSE(pool.lineDirty(31));
    EXPECT_FALSE(pool.lineDirty(96));
    EXPECT_EQ(pool.dirtyLineCount(), 64u);
}

TEST(PmPoolConcurrency, WrappingAndFullShardRangesNeverTearAWord)
{
    // Three threads race on lines 63 and 64 (shards 63 and 0): a
    // 128-byte store across them, a 65-line store that takes every
    // shard, and a CAS + load loop on single words of both lines.
    // Each writer fills whole words with tagWord values, so a reader
    // that sees a mix of two writes fails wordOk.
    pm::PmPool pool(1 << 20);
    constexpr std::uint32_t kRounds = 2000;
    const Addr seam = 63 * kCacheLineSize;
    const Addr wide = 32 * kCacheLineSize;
    {
        const std::vector<std::uint64_t> init(65 * kCacheLineSize / 8,
                                              tagWord(0));
        pool.applyStore(wide, init.data(), init.size() * 8);
    }
    std::atomic<std::uint64_t> torn{0};

    std::thread seamWriter([&] {
        std::uint64_t words[16];
        for (std::uint32_t r = 1; r <= kRounds; r++) {
            std::fill(words, words + 16, tagWord(r));
            pool.applyStore(seam, words, sizeof(words));
            std::uint64_t back[16];
            pool.applyLoad(seam, back, sizeof(back));
            for (const std::uint64_t w : back)
                torn += !wordOk(w);
        }
    });
    std::thread wideWriter([&] {
        std::vector<std::uint64_t> words(65 * kCacheLineSize / 8);
        for (std::uint32_t r = 1; r <= kRounds; r++) {
            std::fill(words.begin(), words.end(), tagWord(r << 16));
            pool.applyStore(wide, words.data(), words.size() * 8);
        }
    });
    std::thread casser([&] {
        const Addr slots[2] = {seam + 8, seam + kCacheLineSize + 8};
        for (std::uint32_t r = 1; r <= kRounds; r++) {
            for (const Addr off : slots) {
                std::uint64_t cur = 0;
                pool.applyLoad(off, &cur, 8);
                torn += !wordOk(cur);
                pool.applyCas64(off, cur, tagWord(r | 0x80000000u));
            }
        }
    });
    seamWriter.join();
    wideWriter.join();
    casser.join();

    EXPECT_EQ(torn.load(), 0u);
    std::vector<std::uint64_t> after(65 * kCacheLineSize / 8);
    pool.applyLoad(wide, after.data(), after.size() * 8);
    for (const std::uint64_t w : after)
        EXPECT_TRUE(wordOk(w));
    EXPECT_TRUE(pool.lineDirty(63));
    EXPECT_TRUE(pool.lineDirty(64));
}

} // namespace
} // namespace whisper
