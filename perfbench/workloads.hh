/**
 * @file
 * The benchmark's workloads and the helpers they share.
 *
 * A workload runs in rounds until `--seconds` have passed (and at
 * least kMinRounds times, so set-up is always timed several times).
 * The untraced pass yields the end-to-end metrics. With `--trace 1`
 * the same rounds run again as a traced pass, which times every call
 * into a layer's public functions and checks that the simulated
 * results match the untraced pass exactly.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.hh"
#include "metrics.hh"

namespace perfbench
{

namespace core = whisper::core;
namespace pm = whisper::pm;
using whisper::Addr;
using whisper::ThreadId;
using whisper::Tick;

constexpr unsigned kMinRounds = 3;
/** Client threads or jobs: at most two, so the numbers measure the
 *  program and not the scheduler of a small machine. */
constexpr unsigned kClients = 2;

struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory for files a workload writes (inside the checkout). */
    std::string workDir;
};

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** splitmix64: the benchmark's own input generator. */
struct SplitMix
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
};

/** A seed for one (run seed, stream) pair. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/** FNV-1a fold of @p v into @p h (the benchmark's own digests). */
std::uint64_t fold(std::uint64_t h, std::uint64_t v);

/** Per-op host cost of the PM primitives on one context. */
struct PrimitiveCosts
{
    double storeNs = 0;
    double loadNs = 0;
    double flushNs = 0;
    double fenceNs = 0;
};

/**
 * Time direct PmContext calls on thread 0 of @p rt: 8-byte stores,
 * loads and clwbs over distinct lines, and fences (each draining one
 * pending flush). Runs after the workload is done with the pool.
 */
PrimitiveCosts probePrimitives(core::Runtime &rt);

/** Set the pm.* probe metrics from per-runtime samples. */
void reportPrimitives(Report &report,
                      const std::vector<PrimitiveCosts> &samples,
                      const std::vector<double> &poolCreateMs);

/** @{ Workloads; each fills @p report for its pass(es). */
void runYcsb(const std::string &name, const RunOptions &opts,
             Report &report);
void runCrashSweep(const RunOptions &opts, Report &report);
void runTracePipeline(const RunOptions &opts, Report &report);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
