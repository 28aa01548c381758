/**
 * @file
 * whisper_perfbench: one workload of the host-clock benchmark.
 *
 *   whisper_perfbench --workload <name> --seed <n> --seconds <s>
 *                     --trace <0|1> --work-dir <dir>
 *
 * Prints a table of every metric of the run's scope (name, value,
 * unit, clock, note) and, as its last line, the JSON result. Exits 1
 * when any correctness check failed, 2 on bad arguments.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/app.hh"
#include "workloads.hh"

namespace perfbench
{

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    SplitMix sm{seed ^ (stream * 0xd1342543de82ef95ull)};
    return sm.next();
}

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; b++) {
        h ^= (v >> (b * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

PrimitiveCosts
probePrimitives(core::Runtime &rt)
{
    constexpr std::uint64_t kOps = 8192;
    pm::PmContext &ctx = rt.ctx(0);
    const Addr base = rt.pool().size() / 2;
    auto line = [base](std::uint64_t i) { return base + i * 64; };
    std::uint64_t v = 1;
    auto per_op_ns = [](double t0, double t1) {
        return (t1 - t0) * 1e9 / static_cast<double>(kOps);
    };

    PrimitiveCosts c;
    double t0 = now();
    for (std::uint64_t i = 0; i < kOps; i++)
        ctx.store(line(i), &v, sizeof(v));
    double t1 = now();
    c.storeNs = per_op_ns(t0, t1);

    t0 = now();
    for (std::uint64_t i = 0; i < kOps; i++)
        ctx.load(line(i), &v, sizeof(v));
    t1 = now();
    c.loadNs = per_op_ns(t0, t1);

    t0 = now();
    for (std::uint64_t i = 0; i < kOps; i++)
        ctx.flush(line(i), sizeof(v));
    t1 = now();
    c.flushNs = per_op_ns(t0, t1);
    ctx.fence(pm::FenceKind::Durability);

    // A fence drains one pending flush here; the store + flush part
    // of the loop is the cost measured above.
    t0 = now();
    for (std::uint64_t i = 0; i < kOps; i++) {
        ctx.store(line(kOps + i), &v, sizeof(v));
        ctx.flush(line(kOps + i), sizeof(v));
        ctx.fence(pm::FenceKind::Ordering);
    }
    t1 = now();
    c.fenceNs = per_op_ns(t0, t1) - c.storeNs - c.flushNs;
    return c;
}

void
reportPrimitives(Report &report, const std::vector<PrimitiveCosts> &samples,
                 const std::vector<double> &poolCreateMs)
{
    std::vector<double> st, ld, fl, fe;
    for (const PrimitiveCosts &c : samples) {
        st.push_back(c.storeNs);
        ld.push_back(c.loadNs);
        fl.push_back(c.flushNs);
        fe.push_back(c.fenceNs);
    }
    report.set("pm.store_ns", median(st));
    report.set("pm.load_ns", median(ld));
    report.set("pm.flush_ns", median(fl));
    report.set("pm.fence_ns", median(fe));
    report.set("pm.pool_create_ms", median(poolCreateMs));
    const std::string n = std::to_string(samples.size()) + " probe runs";
    for (const char *m : {"pm.store_ns", "pm.load_ns", "pm.flush_ns",
                          "pm.fence_ns"})
        report.note(m, "median of " + n);
    report.note("pm.pool_create_ms",
                "median of " + std::to_string(poolCreateMs.size()) +
                    " Runtime constructions");
}

} // namespace perfbench

namespace
{

/** Peak resident set of this process, in MB. */
double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
usage()
{
    std::fputs("usage: whisper_perfbench --workload "
               "<ycsb-a-zipf|ycsb-c-uniform|crash-sweep|trace-pipeline>"
               " --seed <n> --seconds <s> --trace <0|1>"
               " --work-dir <dir>\n",
               stderr);
    return 2;
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return end != s && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunOptions opts;
    std::string workload;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *flag = argv[i];
        const char *val = argv[i + 1];
        std::uint64_t n = 0;
        if (std::strcmp(flag, "--workload") == 0) {
            workload = val;
        } else if (std::strcmp(flag, "--seed") == 0 && parseU64(val, n)) {
            opts.seed = n;
        } else if (std::strcmp(flag, "--seconds") == 0 &&
                   parseU64(val, n) && n >= 1 && n <= 600) {
            opts.seconds = static_cast<double>(n);
        } else if (std::strcmp(flag, "--trace") == 0 &&
                   parseU64(val, n) && n <= 1) {
            opts.trace = n == 1;
        } else if (std::strcmp(flag, "--work-dir") == 0) {
            opts.workDir = val;
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || workload.empty() || opts.workDir.empty())
        return usage();
    std::filesystem::create_directories(opts.workDir);

    whisper::core::registerSuiteApps();
    Report report;
    const double t0 = now();
    if (workload == "ycsb-a-zipf" || workload == "ycsb-c-uniform")
        runYcsb(workload, opts, report);
    else if (workload == "crash-sweep")
        runCrashSweep(opts, report);
    else if (workload == "trace-pipeline")
        runTracePipeline(opts, report);
    else
        return usage();

    const Scope scope = opts.trace ? Scope::PerLayer : Scope::EndToEnd;
    if (!opts.trace)
        report.set("peak_rss_mb", peakRssMb());
    for (const MetricSpec &m : catalog())
        if (m.scope == Scope::EndToEnd && !opts.trace)
            report.check(report.value(m.name) > 0.0,
                         "end-to-end metric " + m.name + " is positive");
    report.set("fail_ratio",
               failRatio(report.failed(), report.attempted()));

    std::printf("workload %s seed %llu, %.1f s, %s\n"
                "checks and work items: %llu attempted, %llu failed, "
                "fail_ratio %g\n",
                workload.c_str(),
                static_cast<unsigned long long>(opts.seed), now() - t0,
                opts.trace ? "traced (per-layer metrics)"
                           : "untraced (end-to-end metrics)",
                static_cast<unsigned long long>(report.attempted()),
                static_cast<unsigned long long>(report.failed()),
                report.value("fail_ratio"));
    std::fputs(report.table(scope).c_str(), stdout);
    std::printf("%s\n", report.json(scope).c_str());
    return report.correct() ? 0 : 1;
}
