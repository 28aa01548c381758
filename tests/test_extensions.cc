/**
 * @file
 * Tests for the features that extend the paper: PMFS rename/truncate,
 * the DPO comparison model, PB epoch coalescing, and the trace-file
 * round trip through the full analysis + simulation pipeline.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/epoch_stats.hh"
#include "common/logical_clock.hh"
#include "core/harness.hh"
#include "pmfs/pmfs.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

namespace whisper
{
namespace
{

struct FsWorld
{
    pm::PmPool pool{64 << 20};
    LogicalClock clock;
    trace::TraceBuffer tb{0};
    pm::PmContext ctx{pool, clock, 0, &tb};
};

// ------------------------------------------------------- pmfs: rename

TEST(PmfsRename, MovesFileAcrossDirectories)
{
    FsWorld w;
    pmfs::Pmfs fs(w.ctx, 0, 32 << 20);
    fs.mkdir(w.ctx, "/a");
    fs.mkdir(w.ctx, "/b");
    const pmfs::Ino ino = fs.create(w.ctx, "/a/f");
    const char data[] = "payload";
    fs.write(w.ctx, ino, 0, data, sizeof(data));

    ASSERT_TRUE(fs.rename(w.ctx, "/a/f", "/b/g"));
    EXPECT_EQ(fs.lookup(w.ctx, "/a/f"), pmfs::kInvalidIno);
    EXPECT_EQ(fs.lookup(w.ctx, "/b/g"), ino);
    char out[sizeof(data)] = {};
    fs.read(w.ctx, ino, 0, out, sizeof(out));
    EXPECT_STREQ(out, "payload");
    std::string why;
    EXPECT_TRUE(fs.fsck(w.ctx, &why)) << why;
}

TEST(PmfsRename, RefusesExistingDestination)
{
    FsWorld w;
    pmfs::Pmfs fs(w.ctx, 0, 32 << 20);
    fs.create(w.ctx, "/x");
    fs.create(w.ctx, "/y");
    EXPECT_FALSE(fs.rename(w.ctx, "/x", "/y"));
    EXPECT_NE(fs.lookup(w.ctx, "/x"), pmfs::kInvalidIno);
}

TEST(PmfsRename, RefusesMoveIntoOwnSubtree)
{
    FsWorld w;
    pmfs::Pmfs fs(w.ctx, 0, 32 << 20);
    fs.mkdir(w.ctx, "/d");
    fs.mkdir(w.ctx, "/d/e");
    EXPECT_FALSE(fs.rename(w.ctx, "/d", "/d/e/d2"));
    std::string why;
    EXPECT_TRUE(fs.fsck(w.ctx, &why)) << why;
}

TEST(PmfsRename, MovesDirectoriesWithContents)
{
    FsWorld w;
    pmfs::Pmfs fs(w.ctx, 0, 32 << 20);
    fs.mkdir(w.ctx, "/src");
    fs.create(w.ctx, "/src/inner");
    fs.mkdir(w.ctx, "/dst");
    ASSERT_TRUE(fs.rename(w.ctx, "/src", "/dst/moved"));
    EXPECT_NE(fs.lookup(w.ctx, "/dst/moved/inner"),
              pmfs::kInvalidIno);
    std::string why;
    EXPECT_TRUE(fs.fsck(w.ctx, &why)) << why;
}

// ----------------------------------------------------- pmfs: truncate

TEST(PmfsTruncate, ShrinksAndFreesBlocks)
{
    FsWorld w;
    pmfs::Pmfs fs(w.ctx, 0, 32 << 20);
    const pmfs::Ino ino = fs.create(w.ctx, "/fat");
    std::vector<std::uint8_t> buf(20 * pmfs::kBlockSize, 0x7E);
    fs.write(w.ctx, ino, 0, buf.data(), buf.size());
    const std::uint64_t free_small = fs.freeBlockCount();

    ASSERT_TRUE(fs.truncate(w.ctx, ino, 3 * pmfs::kBlockSize + 100));
    EXPECT_EQ(fs.fileSize(w.ctx, ino), 3 * pmfs::kBlockSize + 100);
    EXPECT_GT(fs.freeBlockCount(), free_small + 10);

    // Remaining data intact.
    std::uint8_t b = 0;
    fs.read(w.ctx, ino, 2 * pmfs::kBlockSize, &b, 1);
    EXPECT_EQ(b, 0x7E);
    std::string why;
    EXPECT_TRUE(fs.fsck(w.ctx, &why)) << why;
}

TEST(PmfsTruncate, ToZeroLeavesEmptyFile)
{
    FsWorld w;
    pmfs::Pmfs fs(w.ctx, 0, 32 << 20);
    const pmfs::Ino ino = fs.create(w.ctx, "/f");
    std::vector<std::uint8_t> buf(5000, 1);
    fs.write(w.ctx, ino, 0, buf.data(), buf.size());
    ASSERT_TRUE(fs.truncate(w.ctx, ino, 0));
    EXPECT_EQ(fs.fileSize(w.ctx, ino), 0u);
    std::string why;
    EXPECT_TRUE(fs.fsck(w.ctx, &why)) << why;
    // The file can grow again afterwards.
    EXPECT_EQ(fs.write(w.ctx, ino, 0, buf.data(), 100), 100);
}

TEST(PmfsTruncate, RejectsGrowth)
{
    FsWorld w;
    pmfs::Pmfs fs(w.ctx, 0, 32 << 20);
    const pmfs::Ino ino = fs.create(w.ctx, "/f");
    EXPECT_FALSE(fs.truncate(w.ctx, ino, 4096));
}

TEST(PmfsTruncate, SurvivesCrashAfterwards)
{
    FsWorld w;
    pmfs::Pmfs fs(w.ctx, 0, 32 << 20);
    const pmfs::Ino ino = fs.create(w.ctx, "/f");
    std::vector<std::uint8_t> buf(10 * pmfs::kBlockSize, 0x22);
    fs.write(w.ctx, ino, 0, buf.data(), buf.size());
    fs.truncate(w.ctx, ino, pmfs::kBlockSize);

    w.pool.crashHard();
    w.ctx.resetPendingState();
    pmfs::Pmfs fs2(0, 32 << 20);
    fs2.mount(w.ctx);
    std::string why;
    EXPECT_TRUE(fs2.fsck(w.ctx, &why)) << why;
    EXPECT_EQ(fs2.fileSize(w.ctx, fs2.lookup(w.ctx, "/f")),
              pmfs::kBlockSize);
}

// ------------------------------------------------ DPO and coalescing

TEST(SimExtensions, DpoCostsAtLeastHops)
{
    trace::TraceSet traces(true);
    auto *b = traces.createBuffer(0);
    Tick ts = 1;
    // Multi-line epochs are where BSP's serialized flushing hurts.
    for (int i = 0; i < 50; i++) {
        for (int l = 0; l < 6; l++) {
            b->push({ts++, static_cast<Addr>((i * 6 + l) * 64), 8,
                     trace::EventKind::PmStore, trace::DataClass::User,
                     0, 0});
        }
        b->push({ts++, 0, 0, trace::EventKind::Fence,
                 trace::DataClass::None,
                 static_cast<std::uint8_t>(
                     trace::FenceKind::Durability),
                 0});
    }
    sim::Simulator hops(sim::SimParams{}, sim::ModelKind::HopsNvm);
    sim::Simulator dpo(sim::SimParams{}, sim::ModelKind::Dpo);
    const auto r_hops = hops.run(traces);
    const auto r_dpo = dpo.run(traces);
    EXPECT_GT(r_dpo.cycles, r_hops.cycles);
}

TEST(SimExtensions, CoalescingReducesWritebacks)
{
    trace::TraceSet traces(true);
    auto *b = traces.createBuffer(0);
    Tick ts = 1;
    // The same line written across consecutive epochs (the suite's
    // self-dependency pattern) — exactly what coalescing collapses.
    for (int i = 0; i < 200; i++) {
        b->push({ts++, static_cast<Addr>((i % 4) * 64), 8,
                 trace::EventKind::PmStore, trace::DataClass::User, 0,
                 0});
        b->push({ts++, 0, 0, trace::EventKind::Fence,
                 trace::DataClass::None,
                 static_cast<std::uint8_t>(
                     trace::FenceKind::Ordering),
                 0});
    }
    b->push({ts++, 0, 0, trace::EventKind::Fence,
             trace::DataClass::None,
             static_cast<std::uint8_t>(trace::FenceKind::Durability),
             0});

    sim::SimParams plain;
    sim::SimParams coalescing;
    coalescing.pbCoalesce = true;
    sim::Simulator a(plain, sim::ModelKind::HopsNvm);
    sim::Simulator c(coalescing, sim::ModelKind::HopsNvm);
    const auto r_plain = a.run(traces);
    const auto r_coal = c.run(traces);
    EXPECT_LT(r_coal.persist.linesDrained,
              r_plain.persist.linesDrained);
    EXPECT_GT(r_coal.persist.epochsCoalesced, 0u);
}

// ------------------------------------- trace file -> full pipeline

TEST(TracePipeline, FileRoundTripMatchesLiveAnalysis)
{
    core::AppConfig config;
    config.threads = 2;
    config.opsPerThread = 40;
    config.poolBytes = 96 << 20;
    config.recordVolatile = true;
    core::RunResult result = core::runApp("hashmap", config);
    ASSERT_TRUE(result.verified);

    const std::string path = "/tmp/whisper_pipeline_test.bin";
    ASSERT_TRUE(trace::writeTraceFile(path,
                                      result.runtime->traces()));
    trace::TraceSet loaded;
    ASSERT_TRUE(trace::readTraceFile(path, loaded));
    std::remove(path.c_str());

    analysis::EpochBuilder live(result.runtime->traces());
    analysis::EpochBuilder from_file(loaded);
    EXPECT_EQ(live.epochCount(), from_file.epochCount());
    EXPECT_EQ(live.transactions().size(),
              from_file.transactions().size());

    // And the simulator accepts the loaded trace.
    sim::Simulator sim_run(sim::SimParams{},
                           sim::ModelKind::HopsNvm);
    EXPECT_GT(sim_run.run(loaded).cycles, 0u);
}

} // namespace
} // namespace whisper
