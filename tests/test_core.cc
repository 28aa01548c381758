/**
 * @file
 * Unit tests for the core runtime, the HOPS programming API and the
 * harness life cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/harness.hh"
#include "core/hops.hh"
#include "core/verify_report.hh"

namespace whisper::core
{
namespace
{

TEST(Runtime, ContextsAreIndependentThreads)
{
    Runtime rt(1 << 20, 4);
    EXPECT_EQ(rt.maxThreads(), 4u);
    EXPECT_EQ(rt.ctx(0).tid(), 0u);
    EXPECT_EQ(rt.ctx(3).tid(), 3u);
}

TEST(Runtime, RunThreadsExecutesAll)
{
    Runtime rt(1 << 20, 4);
    std::atomic<unsigned> ran{0};
    std::atomic<std::uint32_t> tid_mask{0};
    rt.runThreads(4, [&](pm::PmContext &ctx, ThreadId tid) {
        (void)ctx;
        ran++;
        tid_mask |= 1u << tid;
    });
    EXPECT_EQ(ran.load(), 4u);
    EXPECT_EQ(tid_mask.load(), 0xFu);
}

TEST(Runtime, ThreadsShareTheClock)
{
    Runtime rt(1 << 20, 2);
    rt.ctx(0).compute(100);
    const Tick t0 = rt.ctx(1).now();
    EXPECT_GE(t0, 100u);
}

TEST(Runtime, CrashClearsPendingState)
{
    Runtime rt(1 << 20, 1);
    pm::PmContext &ctx = rt.ctx(0);
    const std::uint64_t v = 5;
    ctx.store(0, &v, 8);
    ctx.flush(0, 8);
    rt.crashHard();
    EXPECT_TRUE(ctx.pendingFlushes().empty());
    EXPECT_EQ(*rt.pool().at<std::uint64_t>(0), 0u);
}

TEST(Runtime, DuplicateFlushesCoalescePerFenceInterval)
{
    // Regression: flushing the same line twice before a fence used to
    // queue (and trace) two writebacks; hardware writes the line back
    // once per drain, so the second flush must be absorbed.
    Runtime rt(1 << 20, 1);
    pm::PmContext &ctx = rt.ctx(0);
    const std::uint64_t v = 5;
    ctx.store(0, &v, 8);
    ctx.flush(0, 8);
    ctx.flush(0, 8);
    ctx.flush(16, 8); // same line: absorbed too
    EXPECT_EQ(ctx.pendingFlushes().size(), 1u);
    ctx.fence(pm::FenceKind::Durability);
    // The next interval flushes the line afresh.
    ctx.store(0, &v, 8);
    ctx.flush(0, 8);
    EXPECT_EQ(ctx.pendingFlushes().size(), 1u);
}

TEST(Runtime, DuplicateFlushesCoalesceAfterABigDrain)
{
    // A fence drains its own queue line by line; after a drain of
    // thousands of lines the de-duplication must still absorb a
    // repeated flush within one interval and re-queue it in the next.
    constexpr std::size_t kLines = 4096;
    Runtime rt(1 << 20, 1);
    pm::PmContext &ctx = rt.ctx(0);
    ctx.flush(0, kLines * kCacheLineSize);
    ASSERT_EQ(ctx.pendingFlushes().size(), kLines);
    ctx.fence(pm::FenceKind::Durability);
    EXPECT_TRUE(ctx.pendingFlushes().empty());

    const Addr line = 1234 * kCacheLineSize;
    const auto flushes = [&] {
        return rt.traces().totalCounters().pmFlushes;
    };
    const std::uint64_t before = flushes();
    ctx.flush(line, 8);
    ctx.flush(line, 8);
    EXPECT_EQ(ctx.pendingFlushes(), std::vector<LineAddr>{lineOf(line)});
    EXPECT_EQ(flushes(), before + 1);

    ctx.fence(pm::FenceKind::Durability);
    ctx.flush(line, 8);
    EXPECT_EQ(ctx.pendingFlushes(), std::vector<LineAddr>{lineOf(line)});
    EXPECT_EQ(flushes(), before + 2);
}

TEST(Hops, DfenceMakesTrackedStoresDurable)
{
    Runtime rt(1 << 20, 1);
    HopsContext hops(rt.ctx(0));
    const std::uint64_t v = 77;
    hops.store(0, &v, 8);
    hops.ofence();
    EXPECT_EQ(*rt.pool().durableAt<std::uint64_t>(0), 0u);
    hops.dfence();
    EXPECT_EQ(*rt.pool().durableAt<std::uint64_t>(0), 77u);
    EXPECT_EQ(hops.pendingRanges(), 0u);
}

TEST(Hops, BufferedEpochsLostOnCrashBeforeDfence)
{
    Runtime rt(1 << 20, 1);
    HopsContext hops(rt.ctx(0));
    const std::uint64_t v = 1;
    hops.store(0, &v, 8);
    hops.ofence();
    hops.store(64, &v, 8);
    rt.crashHard();
    EXPECT_EQ(*rt.pool().at<std::uint64_t>(0), 0u);
    EXPECT_EQ(*rt.pool().at<std::uint64_t>(64), 0u);
}

TEST(Hops, NoFlushEventsInTrace)
{
    // The Figure 1(e) programming model: no clwb anywhere.
    Runtime rt(1 << 20, 1);
    HopsContext hops(rt.ctx(0));
    const std::uint64_t v = 9;
    hops.store(0, &v, 8);
    hops.ofence();
    hops.store(64, &v, 8);
    hops.dfence();
    const auto counters = rt.traces().totalCounters();
    EXPECT_EQ(counters.pmFlushes, 0u);
    EXPECT_EQ(counters.fences, 2u);
}

TEST(Hops, Figure1eExample)
{
    // The paper's running example: update pt = {x, y}, then set the
    // flag; x/y may reorder with each other but must precede flag.
    Runtime rt(1 << 20, 1);
    HopsContext hops(rt.ctx(0));
    struct Pt { std::uint64_t x; std::uint64_t y; };
    auto *pt = rt.pool().at<Pt>(0);
    auto *flag = rt.pool().at<std::uint64_t>(256);

    hops.set(pt->x, std::uint64_t{10});
    hops.set(pt->y, std::uint64_t{20});
    hops.ofence();                       // order pt before flag
    hops.set(*flag, std::uint64_t{1});
    hops.dfence();                       // durability point

    EXPECT_EQ(*rt.pool().durableAt<std::uint64_t>(0), 10u);
    EXPECT_EQ(*rt.pool().durableAt<std::uint64_t>(8), 20u);
    EXPECT_EQ(*rt.pool().durableAt<std::uint64_t>(256), 1u);
}

TEST(Harness, RunAppProducesTraces)
{
    AppConfig config;
    config.threads = 2;
    config.opsPerThread = 30;
    config.poolBytes = 96 << 20;
    RunResult result = runApp("hashmap", config);
    EXPECT_TRUE(result.verified);
    EXPECT_EQ(result.appName, "hashmap");
    EXPECT_EQ(result.layer, AccessLayer::LibNvml);
    EXPECT_GT(result.lastTick, result.firstTick);
    EXPECT_EQ(result.totalOps, 60u);
}

TEST(Harness, CrashAndVerifyCycle)
{
    AppConfig config;
    config.threads = 2;
    config.opsPerThread = 30;
    config.poolBytes = 96 << 20;
    RunResult result = runApp("ctree", config);
    ASSERT_TRUE(result.verified);
    CrashOptions opts;
    opts.seed = 99;
    opts.survival = 0.3;
    const VerifyReport report = crashAndVerify(result, opts);
    EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(Harness, UnknownAppIsFatal)
{
    AppConfig config;
    EXPECT_DEATH(
        {
            auto app = createApp("definitely-not-an-app", config);
            (void)app;
        },
        "unknown WHISPER application");
}

TEST(AppConfigTest, ScaledRounding)
{
    AppConfig config;
    config.opsPerThread = 1000;
    EXPECT_EQ(config.scaled(0.5).opsPerThread, 500u);
    EXPECT_EQ(config.scaled(0.0001).opsPerThread, 1u);
}

TEST(AppConfigTest, ScaledClampsThreads)
{
    AppConfig config;
    config.opsPerThread = 1000;
    config.threads = 8;
    // Scaling down shrinks the thread count too (never below one);
    // scaling up leaves it alone — threads never exceed the request.
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned half = hw > 0 ? std::min(4u, hw) : 4u;
    EXPECT_EQ(config.scaled(0.5).threads, half);
    EXPECT_EQ(config.scaled(0.0001).threads, 1u);
    EXPECT_LE(config.scaled(4.0).threads, 8u);
    // Whatever the factor, the result fits the machine.
    if (hw > 0) {
        EXPECT_LE(config.scaled(1.0).threads, hw);
    }
}

TEST(AccessLayerNames, AllDistinct)
{
    EXPECT_STREQ(accessLayerName(AccessLayer::Native), "Native");
    EXPECT_STREQ(accessLayerName(AccessLayer::LibNvml),
                 "Library/NVML");
    EXPECT_STREQ(accessLayerName(AccessLayer::LibMnemosyne),
                 "Library/Mnemosyne");
    EXPECT_STREQ(accessLayerName(AccessLayer::Filesystem), "FS/PMFS");
    EXPECT_STREQ(accessLayerName(AccessLayer::LibMod), "Library/MOD");
}

TEST(VerifyReport, JsonRoundTripPreservesAllSeverities)
{
    VerifyReport rep("echo", "native");
    rep.fail("chain-broken", "bucket 17 cycle",
             {LineAddr{64}, LineAddr{128}});
    rep.degrade("echo-log-lost", "2 poisoned log lines dropped",
                {LineAddr{4096}});
    rep.degrade("pm-line-lost", "");
    ASSERT_FALSE(rep.ok());
    ASSERT_TRUE(rep.degraded());

    VerifyReport back;
    ASSERT_TRUE(fromJson(toJson(rep), back));
    EXPECT_EQ(back.app(), "echo");
    EXPECT_EQ(back.layer(), "native");
    EXPECT_EQ(back.ok(), rep.ok());
    EXPECT_EQ(back.degraded(), rep.degraded());
    ASSERT_EQ(back.violations().size(), rep.violations().size());
    for (std::size_t i = 0; i < rep.violations().size(); i++) {
        const VerifyViolation &a = rep.violations()[i];
        const VerifyViolation &b = back.violations()[i];
        EXPECT_EQ(b.invariant, a.invariant);
        EXPECT_EQ(b.detail, a.detail);
        EXPECT_EQ(b.severity, a.severity);
        EXPECT_EQ(b.lines, a.lines);
    }
    // A second trip through the encoder is bit-identical: tooling can
    // canonicalize a --json stream by re-emitting it.
    EXPECT_EQ(toJson(back), toJson(rep));
}

TEST(VerifyReport, JsonRoundTripDegradedOnlyStaysOk)
{
    VerifyReport rep("nstore", "native");
    rep.degrade("nstore-undo-record-lost",
                "active undo segment poisoned", {LineAddr{192}});
    ASSERT_TRUE(rep.ok());

    VerifyReport back;
    ASSERT_TRUE(fromJson(toJson(rep), back));
    EXPECT_TRUE(back.ok());
    EXPECT_TRUE(back.degraded());
    ASSERT_EQ(back.violations().size(), 1u);
    EXPECT_EQ(back.violations()[0].severity, Severity::Degraded);
    EXPECT_EQ(back.violations()[0].lines,
              (std::vector<LineAddr>{LineAddr{192}}));
}

TEST(VerifyReport, JsonEscapesAndRejectsMalformedInput)
{
    VerifyReport rep("q\"app", "l\\ayer");
    rep.fail("inv", "tab\there \"quoted\" back\\slash");
    VerifyReport back;
    ASSERT_TRUE(fromJson(toJson(rep), back));
    EXPECT_EQ(back.app(), "q\"app");
    EXPECT_EQ(back.layer(), "l\\ayer");
    ASSERT_EQ(back.violations().size(), 1u);
    EXPECT_EQ(back.violations()[0].detail,
              "tab\there \"quoted\" back\\slash");

    for (const char *bad :
         {"", "not json", "{\"app\":\"x\"", "[1,2,3]",
          "{\"app\":1,\"layer\":\"l\",\"ok\":true,"
          "\"degraded\":false,\"violations\":[]}"}) {
        VerifyReport out;
        EXPECT_FALSE(fromJson(bad, out)) << bad;
    }
}

} // namespace
} // namespace whisper::core
