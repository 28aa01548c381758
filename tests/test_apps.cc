/**
 * @file
 * Integration tests: every WHISPER application runs, verifies its own
 * invariants, produces the expected trace signature, and survives
 * adversarial crash + recovery (parameterized seed sweep).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "analysis/access_mix.hh"
#include "analysis/epoch_stats.hh"
#include "core/harness.hh"
#include "core/runtime.hh"
#include "pm/pm_context.hh"

namespace whisper
{
namespace
{

using core::AppConfig;
using core::RunResult;

AppConfig
smallConfig()
{
    AppConfig config;
    config.threads = 4;
    config.opsPerThread = 120;
    config.poolBytes = 192 << 20;
    config.seed = 7;
    return config;
}

TEST(AppRegistry, AllSuiteWorkloadsRegistered)
{
    const auto names = core::registeredApps();
    const std::vector<std::string> expect = {
        "ctree", "echo", "exim", "halo-hashmap", "hashmap",
        "memcached", "mod-hashmap", "mod-vector", "mysql", "nfs",
        "redis", "tpcc", "vacation", "ycsb"};
    EXPECT_EQ(names, expect);
}

class AppRun : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AppRun, RunsAndVerifies)
{
    RunResult result = core::runApp(GetParam(), smallConfig());
    EXPECT_TRUE(result.verified) << GetParam();
    // Every app produces PM writes, fences and transactions.
    const auto counters = result.runtime->traces().totalCounters();
    EXPECT_GT(counters.pmWrites(), 0u) << GetParam();
    EXPECT_GT(counters.fences, 0u) << GetParam();
    analysis::EpochBuilder builder(result.runtime->traces());
    EXPECT_GT(builder.epochCount(), 0u) << GetParam();
    EXPECT_GT(builder.transactions().size(), 0u) << GetParam();
}

TEST_P(AppRun, SurvivesHardCrash)
{
    RunResult result = core::runApp(GetParam(), smallConfig());
    ASSERT_TRUE(result.verified);
    result.runtime->crashHard();
    result.app->recover(*result.runtime);
    const core::VerifyReport invariants =
        result.app->checkRecoveryInvariants(*result.runtime);
    EXPECT_TRUE(invariants.ok())
        << GetParam() << ": " << invariants.describe();
    const core::VerifyReport recovered =
        result.app->verifyRecovered(*result.runtime);
    EXPECT_TRUE(recovered.ok())
        << GetParam() << ": " << recovered.describe();
}

INSTANTIATE_TEST_SUITE_P(
    Suite, AppRun,
    ::testing::Values("echo", "ycsb", "tpcc", "redis", "ctree",
                      "hashmap", "vacation", "memcached", "nfs",
                      "exim", "mysql", "mod-hashmap", "mod-vector"));

struct CrashCase
{
    std::string app;
    std::uint64_t seed;
};

// Without this gtest prints the raw bytes of the struct, including
// the std::string's heap pointer, so the listed (and ctest-discovered)
// test names would change from one build to the next.
void
PrintTo(const CrashCase &cc, std::ostream *os)
{
    *os << cc.app << " seed " << cc.seed;
}

class AppCrashSweep : public ::testing::TestWithParam<CrashCase>
{
};

TEST_P(AppCrashSweep, AdversarialCrashRecovery)
{
    const CrashCase &cc = GetParam();
    AppConfig config = smallConfig();
    config.opsPerThread = 60;
    config.seed = cc.seed;
    RunResult result = core::runApp(cc.app, config);
    ASSERT_TRUE(result.verified);
    core::CrashOptions opts;
    opts.seed = cc.seed * 1337 + 1;
    opts.survival = 0.5;
    const core::VerifyReport recovered =
        core::crashAndVerify(result, opts);
    EXPECT_TRUE(recovered.ok())
        << cc.app << " seed " << cc.seed << ": "
        << recovered.describe();
    // After recovery the access layer must be quiescent again: logs
    // retired, journal FREE, descriptor protocols settled.
    const core::VerifyReport invariants =
        result.app->checkRecoveryInvariants(*result.runtime);
    EXPECT_TRUE(invariants.ok())
        << cc.app << " seed " << cc.seed << ": "
        << invariants.describe();
}

std::vector<CrashCase>
crashCases()
{
    std::vector<CrashCase> cases;
    for (const char *app :
         {"echo", "ycsb", "tpcc", "redis", "ctree", "hashmap",
          "vacation", "memcached", "nfs", "exim", "mysql",
          "mod-hashmap", "mod-vector"}) {
        for (std::uint64_t seed : {1ull, 2ull, 3ull})
            cases.push_back({app, seed});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AppCrashSweep, ::testing::ValuesIn(crashCases()),
    [](const ::testing::TestParamInfo<CrashCase> &info) {
        std::string name = info.param.app + "_s" +
                           std::to_string(info.param.seed);
        for (char &ch : name) // gtest names reject '-'
            if (ch == '-')
                ch = '_';
        return name;
    });

TEST(AppRunScale, VacationVerifiesAtTwoThousandOps)
{
    // Above 1023 ops per thread the customer table would exceed the
    // slab allocator's largest class; setup caps it instead.
    AppConfig config = smallConfig();
    config.threads = 1;
    config.opsPerThread = 2000;
    config.poolBytes = 64 << 20;
    RunResult result = core::runApp("vacation", config);
    EXPECT_TRUE(result.verified);
}

// --------------------------------------------- behavioural signatures

TEST(AppBehaviour, FsAppsUseNtisHeavily)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 40;
    RunResult nfs = core::runApp("nfs", config);
    const auto nti = analysis::computeNtiUsage(nfs.runtime->traces());
    // PMFS writes user data and zero pages with NTIs (paper: ~96%).
    EXPECT_GT(nti.ntiFraction(), 0.5);
}

TEST(AppBehaviour, NvmlAmplificationExceedsMnemosyne)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 80;
    RunResult hashmap = core::runApp("hashmap", config); // NVML
    RunResult vacation = core::runApp("vacation", config); // Mnemosyne
    const auto nvml_amp =
        analysis::computeAmplification(hashmap.runtime->traces());
    const auto mne_amp =
        analysis::computeAmplification(vacation.runtime->traces());
    // Paper §5.2: NVML ~10x, Mnemosyne 3-6x.
    EXPECT_GT(nvml_amp.ratio(), mne_amp.ratio());
}

TEST(AppBehaviour, LibraryEpochsAreMostlySingletons)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 100;
    RunResult result = core::runApp("hashmap", config);
    analysis::EpochBuilder builder(result.runtime->traces());
    const auto sum =
        analysis::summarizeEpochs(builder, result.runtime->traces());
    // Paper Figure 4: ~75% singletons for library apps.
    EXPECT_GT(sum.singletonFraction, 0.5);
}

TEST(AppBehaviour, PmfsEpochsIncludeBlockSized)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 30;
    RunResult result = core::runApp("nfs", config);
    analysis::EpochBuilder builder(result.runtime->traces());
    const auto sum =
        analysis::summarizeEpochs(builder, result.runtime->traces());
    // Paper Figure 4: PMFS has a >=64-line mode from 4 KB block
    // writes.
    EXPECT_GT(sum.epochSizes.fractionIn(64, ~std::uint64_t(0)), 0.02);
}

TEST(AppBehaviour, EchoTransactionsAreLarge)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 96;
    RunResult result = core::runApp("echo", config);
    analysis::EpochBuilder builder(result.runtime->traces());
    const auto sum =
        analysis::summarizeEpochs(builder, result.runtime->traces());
    // Paper Figure 3: echo has the largest transactions (median 307
    // epochs; ours must at least be far above the library apps).
    EXPECT_GT(sum.epochsPerTx.median(), 50u);
}

TEST(AppBehaviour, DramDominatesWhenInstrumented)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 60;
    config.recordVolatile = true;
    RunResult result = core::runApp("redis", config);
    const auto mix =
        analysis::computeAccessMix(result.runtime->traces());
    // Paper Figure 6: PM is a small minority of accesses.
    EXPECT_LT(mix.pmFraction(), 0.5);
}

/**
 * The device invariant the dirty-only crash reload rests on: a clean
 * line holds the same bytes in the arch and durable images. A write
 * through a raw PmPool::at<T>() pointer that bypasses applyStore()
 * leaves a clean line with arch != durable, and the reload would then
 * keep bytes that never reached the media.
 */
void
expectCleanLinesDurable(const pm::PmPool &pool, const std::string &app,
                        const char *when)
{
    std::uint64_t differing = 0;
    for (LineAddr line = 0; line < pool.lineCount(); line++) {
        if (pool.lineDirty(line))
            continue;
        const Addr base = line << kCacheLineBits;
        const std::size_t n =
            std::min<std::size_t>(kCacheLineSize, pool.size() - base);
        if (std::memcmp(pool.archBase() + base,
                        pool.durableBase() + base, n) == 0)
            continue;
        if (differing++ == 0) // name the first line only
            ADD_FAILURE() << app << " " << when << ": clean line "
                          << line << " differs from the durable image";
    }
    EXPECT_EQ(differing, 0u) << app << " " << when;
}

TEST(DeviceInvariant, CleanLinesMatchDurableInEveryApp)
{
    AppConfig config;
    config.threads = 1;
    config.opsPerThread = 24;
    config.poolBytes = 24 << 20;
    config.seed = 7;
    std::uint64_t torn = 0;
    for (const std::string &name : core::registeredApps()) {
        // A whole run, counting PM ops for the power cut below.
        core::Runtime full(config.poolBytes, config.threads);
        std::unique_ptr<core::WhisperApp> app =
            core::createApp(name, config);
        app->setup(full);
        full.installCrashPlan();
        full.runThreads(1, [&](pm::PmContext &ctx, ThreadId tid) {
            app->run(full, ctx, tid);
        });
        expectCleanLinesDurable(full.pool(), name, "after setup + run");
        const std::uint64_t total = full.pmOpsSeen();
        ASSERT_GT(total, 0u) << name;

        // Cut power half way, so lines are in flight, and let every
        // dirty line survive with word tearing and a poisoned line.
        core::Runtime cut(config.poolBytes, config.threads);
        app = core::createApp(name, config);
        app->setup(cut);
        cut.armCrashPoint(total / 2);
        cut.runThreads(1, [&](pm::PmContext &ctx, ThreadId tid) {
            try {
                app->run(cut, ctx, tid);
            } catch (const pm::CrashPointReached &) {
            }
        });
        ASSERT_TRUE(cut.crashPointFired()) << name;
        pm::PmPool &pool = cut.pool();
        expectCleanLinesDurable(pool, name, "at a mid-run power cut");
        pm::FaultPlan plan;
        plan.seed = 11;
        plan.poisonCount = 1;
        plan.tearProb = 0.5;
        const std::vector<LineAddr> survivors = pool.dirtyLines();
        const pm::FaultResolution faults =
            pool.resolveFaults(plan, survivors);
        torn += faults.torn.size();
        cut.crashWithFaults(survivors, faults);
        EXPECT_EQ(pool.dirtyLineCount(), 0u) << name;
        EXPECT_EQ(std::memcmp(pool.archBase(), pool.durableBase(),
                              pool.size()),
                  0)
            << name << ": arch image differs from the durable image "
            << "after a torn crash";
    }
    // The torn-survivor path really ran.
    EXPECT_GT(torn, 0u);
}

} // namespace
} // namespace whisper
