/**
 * @file
 * Pinned behaviour of every registered app: the library/native and
 * PMFS paper apps and the MOD and Halo layers. Each app keeps one
 * persistent structure that drives both run() (the paper workload,
 * crash-fuzzed here) and the generated-workload surface (YCSB mixes,
 * pinned here), so any refactor of that structure must leave these
 * digests bit-identical: a changed digest means a changed PM-op
 * stream, recovery image or latency distribution.
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
    "mod-hashmap", "mod-vector", "halo-hashmap",
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
        0x5aef79fe174767d9ull, 0xc4c99aefe076fb97ull,
        0x2b0baac1195f2f0aull, 0x92afdf402e5ea44dull,
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
        0x8eabc07bea7d337dull, 0xb843821dfb2b77ffull,
        0xc422abd3a2028160ull, 0xf60159df4b1806d1ull,
    });
}

/** Pinned workload digests of one app at one thread count. */
struct WorkloadRow
{
    const char *app;
    unsigned threads;
    std::uint64_t want[3]; //!< mixes A, E, F
};

TEST(AppGoldens, WorkloadDigests)
{
    // ycsb and tpcc share nstore's workload surface, so their rows are
    // equal. The MOD apps are pinned at one thread only: at two, their
    // garbage reclaim depends on the other thread's progress, so the
    // digests vary run to run.
    const WorkloadRow rows[] = {
        {"echo", 2,
         {0x1974038a61343f8dull, 0xfc845eaadf95c064ull,
          0xca6ba2734334e73eull}},
        {"ycsb", 2,
         {0x20e54d2688c8f505ull, 0x8ea270694326f487ull,
          0xd48ea79365f421a8ull}},
        {"tpcc", 2,
         {0x20e54d2688c8f505ull, 0x8ea270694326f487ull,
          0xd48ea79365f421a8ull}},
        {"redis", 2,
         {0x8f31b92a6e819ebdull, 0x098d6787beb73861ull,
          0x17c280c3373467c5ull}},
        {"ctree", 2,
         {0x1c6033d9dacd6a41ull, 0x48acad9b9c72944cull,
          0x63783d3c6eb79de0ull}},
        {"hashmap", 2,
         {0x123e5fc41a6a792bull, 0xb8496536ec86af6full,
          0xa636dc1528d75ea6ull}},
        {"vacation", 2,
         {0xb9d0eead44eaa37eull, 0x03cf7519e68a0776ull,
          0x76b9ba2ee9409658ull}},
        {"memcached", 2,
         {0x1ee74c12c0ce9bafull, 0x566c351b94621c4dull,
          0xd79099f6c51b9d38ull}},
        {"exim", 2,
         {0x80e71e821011d1e2ull, 0x3be3ceb4ae26ecb4ull,
          0x68f76294f35ad3a1ull}},
        {"nfs", 2,
         {0x55adc3b877515c61ull, 0x427bfe09bd33ec0full,
          0x9379646353eb3549ull}},
        {"mysql", 2,
         {0x3d69474f9e7494c4ull, 0x2eba2f29334ae0e8ull,
          0xb402058ff27930a2ull}},
        {"mod-hashmap", 1,
         {0x7b170a71f1b8b52aull, 0x40259388fcb2f4b8ull,
          0x0c677590fb485628ull}},
        {"mod-vector", 1,
         {0x983f03b6401d9665ull, 0x089568783571276aull,
          0x603b07af21f75409ull}},
        {"halo-hashmap", 1,
         {0xc082270f41f632e1ull, 0x667bfaa4260798aaull,
          0xd60ddb7eabc576caull}},
        {"halo-hashmap", 2,
         {0xf401f6b01d53d487ull, 0xcffb810f132d3a2eull,
          0x75c028e7ecbcd6eeull}},
    };
    const char mixes[3] = {'A', 'E', 'F'};
    for (const WorkloadRow &row : rows) {
        for (int m = 0; m < 3; m++) {
            workload::WorkloadOptions opts;
            opts.app = row.app;
            opts.mix = workload::MixSpec::ycsb(mixes[m]);
            opts.keys = 2000;
            opts.threads = row.threads;
            opts.opsPerThread = 2000;
            opts.poolBytes = 32 << 20;
            const workload::WorkloadResult r =
                workload::runWorkload(opts);
            EXPECT_TRUE(r.verified)
                << row.app << " x" << row.threads << " mix " << mixes[m]
                << ":\n" << r.check.describe();
            EXPECT_EQ(r.digest(), row.want[m])
                << row.app << " x" << row.threads << " mix " << mixes[m];
        }
    }
}

} // namespace
} // namespace whisper
