/**
 * @file
 * Pinned behaviour of the library/native and PMFS paper apps. Each
 * app keeps one persistent structure that drives both run() (the paper
 * workload, crash-fuzzed here) and the generated-workload surface
 * (YCSB mixes, pinned here), so any refactor of that structure must
 * leave these digests bit-identical: a changed digest means a changed
 * PM-op stream, recovery image or latency distribution.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/crash_fuzz.hh"
#include "workload/workload.hh"

namespace whisper
{
namespace
{

const std::vector<std::string> kApps = {
    "echo",    "ycsb",     "tpcc",     "redis",
    "ctree",   "hashmap",  "vacation", "memcached",
    "exim",    "nfs",      "mysql",
};

/** 16-case sweep per app over 8 MB pools, no shrinking. */
std::vector<fuzz::AppSweepReport>
goldenSweep(bool faults)
{
    fuzz::SweepOptions options;
    options.cases = 16;
    options.jobs = 4;
    options.apps = kApps;
    options.config.poolBytes = 8 << 20;
    options.config.faults = faults;
    options.shrinkViolations = false;
    return fuzz::sweep(options);
}

void
expectDigests(const std::vector<fuzz::AppSweepReport> &reports,
              const std::vector<std::uint64_t> &want)
{
    ASSERT_EQ(reports.size(), want.size());
    for (std::size_t i = 0; i < reports.size(); i++) {
        EXPECT_EQ(reports[i].app, kApps[i]);
        EXPECT_EQ(reports[i].digest, want[i]) << reports[i].app;
        EXPECT_EQ(reports[i].violations, 0u) << reports[i].app;
    }
}

TEST(AppGoldens, CrashSweepDigests)
{
    expectDigests(goldenSweep(false), {
        0x23b8ab6f51d196e8ull, 0x4475caea1cc830bbull,
        0x5f0763f020fddb75ull, 0x3d17c749b9defa9dull,
        0x9980c0bfa1dffcfbull, 0x3e8bed252cfecd99ull,
        0x5bdcf7337631ada3ull, 0xf556513734ad2b39ull,
        0x0041f89bde20a9d9ull, 0xe2557b2f760b0a63ull,
        0x5aef79fe174767d9ull,
    });
}

TEST(AppGoldens, FaultSweepDigests)
{
    expectDigests(goldenSweep(true), {
        0xabb34fe0f9aa12e0ull, 0x6489ef8749d39915ull,
        0x140fc36b42606a49ull, 0x6aebbe258c5a1507ull,
        0xa4f3510a156e257full, 0xda2c42635100ec28ull,
        0xda62a4726e8a903bull, 0xf2c828456653d754ull,
        0x922b581330997e0cull, 0xe0156a25827edbabull,
        0x8eabc07bea7d337dull,
    });
}

TEST(AppGoldens, WorkloadDigests)
{
    // Rows follow kApps, columns mixes A, E, F. ycsb and tpcc share
    // nstore's workload surface, so their rows are equal.
    const std::uint64_t want[11][3] = {
        {0x1974038a61343f8dull, 0xfc845eaadf95c064ull,
         0xca6ba2734334e73eull},
        {0x20e54d2688c8f505ull, 0x8ea270694326f487ull,
         0xd48ea79365f421a8ull},
        {0x20e54d2688c8f505ull, 0x8ea270694326f487ull,
         0xd48ea79365f421a8ull},
        {0x8f31b92a6e819ebdull, 0x098d6787beb73861ull,
         0x17c280c3373467c5ull},
        {0x1c6033d9dacd6a41ull, 0x48acad9b9c72944cull,
         0x63783d3c6eb79de0ull},
        {0x123e5fc41a6a792bull, 0xb8496536ec86af6full,
         0xa636dc1528d75ea6ull},
        {0xb9d0eead44eaa37eull, 0x03cf7519e68a0776ull,
         0x76b9ba2ee9409658ull},
        {0x1ee74c12c0ce9bafull, 0x566c351b94621c4dull,
         0xd79099f6c51b9d38ull},
        {0x80e71e821011d1e2ull, 0x3be3ceb4ae26ecb4ull,
         0x68f76294f35ad3a1ull},
        {0x55adc3b877515c61ull, 0x427bfe09bd33ec0full,
         0x9379646353eb3549ull},
        {0x3d69474f9e7494c4ull, 0x2eba2f29334ae0e8ull,
         0xb402058ff27930a2ull},
    };
    const char mixes[3] = {'A', 'E', 'F'};
    for (std::size_t a = 0; a < kApps.size(); a++) {
        for (int m = 0; m < 3; m++) {
            workload::WorkloadOptions opts;
            opts.app = kApps[a];
            opts.mix = workload::MixSpec::ycsb(mixes[m]);
            opts.keys = 2000;
            opts.threads = 2;
            opts.opsPerThread = 2000;
            opts.poolBytes = 32 << 20;
            const workload::WorkloadResult r =
                workload::runWorkload(opts);
            EXPECT_TRUE(r.verified) << kApps[a] << " mix " << mixes[m]
                                    << ":\n" << r.check.describe();
            EXPECT_EQ(r.digest(), want[a][m])
                << kApps[a] << " mix " << mixes[m];
        }
    }
}

} // namespace
} // namespace whisper
