/**
 * @file
 * The trace-pipeline workload: the paper's record -> analyze ->
 * simulate path, where `analysis` and `sim` do all of the work.
 *
 * Set-up records two traces and writes them with
 * trace::writeTraceFile: hashmap (NVML) under YCSB mix A, about 1.4M
 * events, and the nfs (PMFS) paper workload, whose non-temporal data
 * writes and large journal epochs stress other analysis paths. A
 * timed pass then streams each file through analyzeTraceFile at two
 * jobs, reads it back and replays it through sim::Simulator as
 * x86-nvm and hops-nvm under the Table 3 device and as x86-nvm under
 * the Optane preset. Passes repeat until the run's time is up.
 */

#include <cstring>
#include <filesystem>
#include <fstream>

#include "analysis/pipeline.hh"
#include "core/harness.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"
#include "workload/workload.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

namespace analysis = whisper::analysis;
namespace sim = whisper::sim;
namespace trace = whisper::trace;

constexpr std::size_t kPoolBytes = 256 << 20;

struct Model
{
    const char *name; //!< metric name part
    sim::ModelKind kind;
    bool optane;
};

const Model kModels[] = {
    {"x86-nvm", sim::ModelKind::X86Nvm, false},
    {"hops-nvm", sim::ModelKind::HopsNvm, false},
    {"x86-nvm-optane", sim::ModelKind::X86Nvm, true},
};
constexpr std::size_t kModelCount = sizeof(kModels) / sizeof(kModels[0]);

struct Recorded
{
    std::string path;
    std::uint64_t ops = 0;
    std::uint64_t events = 0;
    std::uint64_t digest = 0; //!< fileDigest() of the written trace
    bool verified = false;
    double writeS = 0;
};

/** Digest of a file's bytes: equal digests mean identical traces. */
std::uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> buf(1 << 20);
    std::uint64_t h = 0xcbf29ce484222325ull;
    while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
           in.gcount() > 0) {
        const std::size_t n = static_cast<std::size_t>(in.gcount());
        for (std::size_t i = 0; i + 8 <= n; i += 8) {
            std::uint64_t w = 0;
            std::memcpy(&w, buf.data() + i, 8);
            h = fold(h, w);
        }
        for (std::size_t i = n - n % 8; i < n; i++)
            h = fold(h, static_cast<unsigned char>(buf[i]));
    }
    return h;
}

std::uint64_t
analysisDigest(const analysis::AnalysisResult &a)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    double eps = a.epochs.epochsPerSecond;
    std::uint64_t eps_bits = 0;
    std::memcpy(&eps_bits, &eps, sizeof(eps));
    for (std::uint64_t v :
         {a.totalEvents, a.epochs.totalEpochs, a.epochs.totalTransactions,
          eps_bits, a.epochs.epochSizes.count(), a.epochs.epochSizes.sum(),
          a.epochs.epochsPerTx.sum(), a.dependencies.selfDependent,
          a.dependencies.crossDependent, a.mix.pmAccesses,
          a.mix.dramAccesses, a.nti.ntBytes, a.amplification.userBytes,
          a.amplification.metaBytes()})
        h = fold(h, v);
    return h;
}

/** Write @p traces to @p path and describe the recording. */
Recorded
save(const std::string &path, const trace::TraceSet &traces,
     std::uint64_t ops, bool verified)
{
    Recorded r;
    r.path = path;
    r.ops = ops;
    const double t0 = now();
    r.verified = trace::writeTraceFile(path, traces) && verified;
    r.writeS = now() - t0;
    r.events = traces.totalEvents();
    return r;
}

/**
 * Record both traces and write them as <work dir>/<name><suffix>. Each
 * recording's runtime is released before the next one starts, so peak
 * memory holds one 256 MB pool at a time.
 *
 * Both recordings use one thread: with two, events carry timestamps of
 * the shared logical clock that depend on how the threads interleave
 * (and the nfs workload's op counts do too), while the pipeline's
 * input must be a function of the seed alone.
 */
std::vector<Recorded>
recordTraces(const RunOptions &opts, const std::string &suffix)
{
    std::vector<Recorded> out;
    const std::uint64_t seed = deriveSeed(opts.seed, 0);
    {
        whisper::workload::WorkloadOptions wo;
        wo.app = "hashmap";
        wo.mix = whisper::workload::MixSpec::ycsb('A');
        wo.keys = 20000;
        wo.threads = 1;
        wo.opsPerThread = 78000;
        wo.seed = seed;
        wo.poolBytes = kPoolBytes;
        const whisper::workload::WorkloadResult wr =
            whisper::workload::runWorkload(wo);
        out.push_back(save(opts.workDir + "/hashmap-a" + suffix,
                           wr.runtime->traces(), wr.ops.total(),
                           wr.verified));
    }
    {
        core::AppConfig cfg;
        cfg.threads = 1;
        cfg.opsPerThread = 2000;
        cfg.seed = seed;
        cfg.poolBytes = kPoolBytes;
        const core::RunResult rr = core::runApp("nfs", cfg);
        out.push_back(save(opts.workDir + "/nfs" + suffix,
                           rr.runtime->traces(), rr.totalOps,
                           rr.verified));
    }
    return out;
}

/** One trace through the pipeline; times are per stage call. */
struct TraceRun
{
    std::uint64_t events = 0;
    std::uint64_t analysisDigest = 0;
    std::uint64_t cycles[kModelCount] = {};
    bool ok = true;
    double analyzeS = 0; //!< analyzeTraceFile at two jobs
    double readS = 0;
    double simS[kModelCount] = {};

    /** @{ Traced pass only. */
    double analyze1S = 0; //!< analyzeTraceFile at one job
    double epochS = 0;
    double summaryS = 0;
    double dependencyS = 0;
    double mixS = 0;
    /** @} */

    double
    pipelineS() const
    {
        double s = analyzeS + readS;
        for (double t : simS)
            s += t;
        return s;
    }
};

template <bool Traced>
TraceRun
runTrace(const std::string &path)
{
    TraceRun r;
    analysis::AnalysisOptions ao;
    ao.jobs = kClients;
    analysis::AnalysisResult ar;
    double t0 = now();
    r.ok = analysis::analyzeTraceFile(path, ar, ao);
    double t1 = now();
    r.analyzeS = t1 - t0;
    r.analysisDigest = analysisDigest(ar);

    trace::TraceSet ts;
    r.ok = trace::readTraceFile(path, ts) && r.ok;
    t0 = now();
    r.readS = t0 - t1;
    r.events = ts.totalEvents();

    for (std::size_t m = 0; m < kModelCount; m++) {
        sim::SimParams params;
        if (kModels[m].optane)
            params.device = sim::PmDeviceParams::optaneCalibrated();
        sim::Simulator simulator(params, kModels[m].kind);
        t0 = now();
        r.cycles[m] = simulator.run(ts).cycles;
        r.simS[m] = now() - t0;
    }

    if constexpr (Traced) {
        ao.jobs = 1;
        analysis::AnalysisResult seq;
        t0 = now();
        r.ok = analysis::analyzeTraceFile(path, seq, ao) && r.ok;
        t1 = now();
        r.analyze1S = t1 - t0;
        r.ok = r.ok && analysisDigest(seq) == r.analysisDigest;

        const analysis::EpochBuilder builder(ts);
        t0 = now();
        r.epochS = t0 - t1;
        analysis::summarizeEpochs(builder, ts);
        t1 = now();
        r.summaryS = t1 - t0;
        analysis::analyzeDependencies(builder);
        t0 = now();
        r.dependencyS = t0 - t1;
        analysis::computeAccessMix(ts);
        r.mixS = now() - t0;
    }
    return r;
}

using Pass = std::vector<TraceRun>;

template <bool Traced>
Pass
runPass(const std::vector<Recorded> &traces)
{
    Pass pass;
    for (const Recorded &t : traces)
        pass.push_back(runTrace<Traced>(t.path));
    return pass;
}

void
checkPass(const Pass &pass, const Pass &reference,
          const std::vector<Recorded> &traces, Report &report)
{
    for (std::size_t i = 0; i < pass.size(); i++) {
        const TraceRun &r = pass[i];
        const TraceRun &ref = reference[i];
        bool same = r.analysisDigest == ref.analysisDigest;
        for (std::size_t m = 0; m < kModelCount; m++)
            same = same && r.cycles[m] == ref.cycles[m];
        report.check(r.ok && r.events == traces[i].events,
                     traces[i].path + ": read back every recorded event");
        report.check(same, traces[i].path +
                               ": analysis and simulated cycles repeat "
                               "exactly");
    }
}

double
passEvents(const Pass &pass)
{
    double events = 0;
    for (const TraceRun &r : pass)
        events += static_cast<double>(r.events) * (1 + kModelCount);
    return events;
}

} // namespace

void
runTracePipeline(const RunOptions &opts, Report &report)
{
    // Set-up, several times: the traces are identical each time.
    std::vector<double> setup;
    std::vector<std::vector<Recorded>> setups;
    for (unsigned i = 0; i < kMinRounds; i++) {
        const double t0 = now();
        setups.push_back(recordTraces(opts, ".trace"));
        setup.push_back(now() - t0);
        for (Recorded &r : setups.back())
            r.digest = fileDigest(r.path);
    }
    const std::vector<Recorded> traces = setups.back();
    for (const auto &s : setups)
        for (std::size_t i = 0; i < s.size(); i++) {
            report.check(s[i].verified, s[i].path + ": recorded run "
                                                    "verified");
            report.check(s[i].digest == traces[i].digest,
                         s[i].path + ": recording repeats exactly");
        }
    report.set("setup_s", median(setup));
    report.note("setup_s", "median of " + std::to_string(setup.size()) +
                               " record + writeTraceFile set-ups");

    // Untraced passes.
    std::vector<Pass> plain;
    double events = 0, pass_s = 0;
    const double start = now();
    while (plain.size() < kMinRounds || now() - start < opts.seconds) {
        const double t0 = now();
        plain.push_back(runPass<false>(traces));
        pass_s += now() - t0;
        events += passEvents(plain.back());
        checkPass(plain.back(), plain.front(), traces, report);
    }
    const double plain_wall = now() - start;
    report.set("items_per_s", events / pass_s);
    report.note("items_per_s",
                "events through analysis + 3 simulations, over " +
                    std::to_string(plain.size()) + " passes");

    // Determinism gate: analysis at one job equals two jobs.
    for (std::size_t i = 0; i < traces.size(); i++) {
        analysis::AnalysisOptions ao;
        ao.jobs = 1;
        analysis::AnalysisResult seq;
        report.check(analysis::analyzeTraceFile(traces[i].path, seq, ao) &&
                         analysisDigest(seq) ==
                             plain.front()[i].analysisDigest,
                     traces[i].path + ": analysis identical at jobs 1 "
                                      "and 2");
    }
    if (!opts.trace)
        return;

    // Traced pass: set-up once more with each call timed, then the
    // same passes with every stage call timed.
    const double tstart = now();
    std::vector<double> pool_ms;
    std::vector<PrimitiveCosts> prims;
    {
        core::Runtime rt(kPoolBytes, kClients);
        pool_ms.push_back((now() - tstart) * 1e3);
        prims.push_back(probePrimitives(rt));
    }
    const std::vector<Recorded> timed_setup =
        recordTraces(opts, ".timed.trace");
    double covered = now() - tstart;
    for (std::size_t i = 0; i < timed_setup.size(); i++)
        report.check(fileDigest(timed_setup[i].path) == traces[i].digest,
                     timed_setup[i].path + ": traced recording equals the "
                                           "untraced one");

    std::vector<Pass> traced;
    double same_calls = 0;
    for (std::size_t p = 0; p < plain.size(); p++) {
        traced.push_back(runPass<true>(traces));
        checkPass(traced.back(), plain.front(), traces, report);
        for (const TraceRun &r : traced.back()) {
            report.check(r.ok, "traced pass: trace read, and analysis "
                               "identical at jobs 1 and 2");
            same_calls += r.pipelineS();
            covered += r.pipelineS() + r.analyze1S + r.epochS +
                       r.summaryS + r.dependencyS + r.mixS;
        }
    }
    const double traced_wall = now() - tstart;

    std::vector<double> epoch, summary, dep, mix, mev, speedup, read;
    std::vector<std::vector<double>> sim_mev(kModelCount);
    for (const Pass &pass : traced) {
        double ev = 0, e = 0, s = 0, d = 0, x = 0, a2 = 0, a1 = 0, rd = 0;
        double sims[kModelCount] = {};
        for (const TraceRun &r : pass) {
            ev += static_cast<double>(r.events);
            e += r.epochS;
            s += r.summaryS;
            d += r.dependencyS;
            x += r.mixS;
            a2 += r.analyzeS;
            a1 += r.analyze1S;
            rd += r.readS;
            for (std::size_t m = 0; m < kModelCount; m++)
                sims[m] += r.simS[m];
        }
        epoch.push_back(e * 1e3);
        summary.push_back(s * 1e3);
        dep.push_back(d * 1e3);
        mix.push_back(x * 1e3);
        mev.push_back(ev / a2 / 1e6);
        speedup.push_back(a1 / a2);
        read.push_back(ev / rd / 1e6);
        for (std::size_t m = 0; m < kModelCount; m++)
            sim_mev[m].push_back(ev / sims[m] / 1e6);
    }
    report.set("analysis.epoch_ms", median(epoch));
    report.set("analysis.summary_ms", median(summary));
    report.set("analysis.dependency_ms", median(dep));
    report.set("analysis.mix_ms", median(mix));
    report.set("analysis.mev_s", median(mev));
    report.set("analysis.jobs2_speedup", median(speedup));
    report.set("trace.read_mev_s", median(read));
    for (const char *m : {"analysis.epoch_ms", "analysis.summary_ms",
                          "analysis.dependency_ms", "analysis.mix_ms"})
        report.note(m, "both traces, in-memory stage call");
    report.note("analysis.mev_s", "analyzeTraceFile at jobs 2");
    for (std::size_t m = 0; m < kModelCount; m++) {
        const std::string p = std::string("sim.") + kModels[m].name;
        report.set(p + ".mev_s", median(sim_mev[m]));
        report.set(p + ".cycles",
                   static_cast<double>(traced.front()[0].cycles[m]));
        report.note(p + ".cycles", "hashmap mix A trace");
    }

    double bytes = 0, write_s = 0, recorded = 0;
    for (const Recorded &t : timed_setup) {
        bytes += static_cast<double>(std::filesystem::file_size(t.path));
        write_s += t.writeS;
        recorded += static_cast<double>(t.events);
    }
    report.set("trace.write_mb_s", bytes / (1 << 20) / write_s);
    report.set("trace.events_per_op",
               static_cast<double>(timed_setup[0].events) /
                   static_cast<double>(timed_setup[0].ops));
    report.note("trace.events_per_op", "hashmap mix A recording");
    report.set("trace.mb",
               recorded * sizeof(trace::TraceEvent) / (1 << 20));
    report.note("trace.mb", "both recorded traces in memory");
    reportPrimitives(report, prims, pool_ms);
    report.set("bench.trace_overhead_s", same_calls - plain_wall);
    report.note("bench.trace_overhead_s",
                "timed calls the untraced pass also makes, minus its "
                "wall time");
    report.set("bench.coverage", covered / traced_wall);
}

} // namespace perfbench
