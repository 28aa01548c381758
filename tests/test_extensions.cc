/**
 * @file
 * Tests for the features that extend the paper: the DPO comparison
 * model, PB epoch coalescing, and the trace-file round trip through
 * the full analysis + simulation pipeline.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/epoch_stats.hh"
#include "core/harness.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

namespace whisper
{
namespace
{

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
