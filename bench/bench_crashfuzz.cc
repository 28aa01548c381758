/**
 * @file
 * Crash-fuzz throughput: cases/second per access layer, sequential
 * vs fanned out across the deterministic thread pool.
 *
 * One representative application per access layer runs a short sweep
 * at --jobs 1 and at higher job counts; the table reports cases/sec
 * and the speedup, and the run asserts the parallel digests are
 * bit-identical to the sequential ones — the fuzzer's replayability
 * guarantee.
 *
 * A second table times one `hashmap` fault sweep (16 cases, jobs 1)
 * at 8, 48 and 256 MB pools and reports milliseconds per case: device
 * work that follows the pool size rather than the case shows up as a
 * rising column.
 *
 * Scale case counts with WHISPER_OPS (cases per app, default 64);
 * pick job counts with WHISPER_JOBS (comma list, default "2,4").
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.hh"
#include "fuzz/crash_fuzz.hh"

using namespace whisper;

namespace
{

double
timedSweep(fuzz::SweepOptions options, unsigned jobs,
           std::vector<fuzz::AppSweepReport> &out)
{
    options.jobs = jobs;
    const auto start = std::chrono::steady_clock::now();
    out = fuzz::sweep(options);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

} // namespace

int
main()
{
    fuzz::SweepOptions options;
    options.apps = {"echo", "hashmap", "vacation", "nfs"};
    options.cases = 64;
    options.config.opsPerThread = 10;
    options.config.poolBytes = 24 << 20;
    options.shrinkViolations = false;
    if (const char *ops = std::getenv("WHISPER_OPS"))
        options.cases = std::strtoull(ops, nullptr, 10);

    std::vector<unsigned> job_counts = {2, 4};
    if (const char *jobs = std::getenv("WHISPER_JOBS")) {
        job_counts.clear();
        for (const char *p = jobs; *p;) {
            char *end = nullptr;
            job_counts.push_back(
                static_cast<unsigned>(std::strtoul(p, &end, 10)));
            p = *end == ',' ? end + 1 : end;
        }
    }

    std::vector<fuzz::AppSweepReport> sequential;
    const double base =
        timedSweep(options, 1, sequential);
    const double total_cases = static_cast<double>(
        options.cases * options.apps.size());

    TextTable table("crash-fuzz sweep throughput");
    table.header({"jobs", "seconds", "cases/sec", "speedup",
                  "digests"});
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", base);
    table.row({"1", buf,
               TextTable::num(static_cast<std::uint64_t>(
                   total_cases / base)),
               "1.00x", "baseline"});

    int failures = 0;
    for (const unsigned jobs : job_counts) {
        std::vector<fuzz::AppSweepReport> parallel;
        const double secs = timedSweep(options, jobs, parallel);
        bool same = parallel.size() == sequential.size();
        for (std::size_t i = 0; same && i < parallel.size(); i++)
            same = parallel[i].digest == sequential[i].digest;
        if (!same)
            failures++;
        char secs_buf[32], speed_buf[32];
        std::snprintf(secs_buf, sizeof(secs_buf), "%.3f", secs);
        std::snprintf(speed_buf, sizeof(speed_buf), "%.2fx",
                      base / secs);
        table.row({std::to_string(jobs), secs_buf,
                   TextTable::num(static_cast<std::uint64_t>(
                       total_cases / secs)),
                   speed_buf, same ? "identical" : "MISMATCH"});
    }
    table.print();

    fuzz::SweepOptions sized;
    sized.apps = {"hashmap"};
    sized.cases = 16;
    sized.config.faults = true;
    sized.shrinkViolations = false;
    TextTable per_case("crash-fuzz cost per case vs pool size "
                       "(hashmap, faults, jobs 1)");
    per_case.header({"pool MB", "cases", "seconds", "ms/case"});
    std::vector<fuzz::AppSweepReport> reports = sequential;
    for (const std::size_t mb : {8, 48, 256}) {
        sized.config.poolBytes = mb << 20;
        std::vector<fuzz::AppSweepReport> sweep_out;
        const double secs = timedSweep(sized, 1, sweep_out);
        char secs_buf[32], ms_buf[32];
        std::snprintf(secs_buf, sizeof(secs_buf), "%.3f", secs);
        std::snprintf(ms_buf, sizeof(ms_buf), "%.1f",
                      secs * 1000.0 / static_cast<double>(sized.cases));
        per_case.row({std::to_string(mb), std::to_string(sized.cases),
                      secs_buf, ms_buf});
        reports.insert(reports.end(), sweep_out.begin(),
                       sweep_out.end());
    }
    per_case.print();

    for (const auto &r : reports) {
        if (r.violations) {
            std::fprintf(stderr, "unexpected violations in %s\n",
                         r.app.c_str());
            failures++;
        }
    }
    return failures ? 1 : 0;
}
