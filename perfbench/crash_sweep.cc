/**
 * @file
 * The crash-sweep workload: fuzz::sweep crash + media-fault sweeps
 * (faults on, default 48 MB pool, two jobs, no shrinking) over one app
 * per access layer. Each case costs O(pool) host work (image
 * zero-fill, crash reload, dirty-line scan, image hash) against about
 * a millisecond of PM ops, so a device whose cost follows the work
 * rather than the pool size shows here and barely on the YCSB
 * workloads.
 *
 * A round profiles every app (the sweep's set-up: case crash points
 * are drawn from the profiled op count), then sweeps kCasesPerApp
 * cases per app; each round uses its own sweep seed, derived from the
 * run seed, so it draws fresh case parameters.
 */

#include "fuzz/crash_fuzz.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

namespace fuzz = whisper::fuzz;

/** Even, so the two jobs stay busy to the end of each app. */
constexpr std::uint64_t kCasesPerApp = 4;

std::vector<std::string>
fuzzApps()
{
    std::vector<std::string> apps;
    for (const LayerApps &l : layers())
        apps.push_back(l.fuzzApp);
    return apps;
}

fuzz::FuzzConfig
configFor(std::uint64_t seed, unsigned round)
{
    fuzz::FuzzConfig cfg;
    cfg.faults = true;
    cfg.sweepSeed = deriveSeed(seed, round);
    return cfg;
}

fuzz::SweepOptions
sweepFor(std::uint64_t seed, unsigned round, unsigned jobs)
{
    fuzz::SweepOptions so;
    so.cases = kCasesPerApp;
    so.jobs = jobs;
    so.apps = fuzzApps();
    so.config = configFor(seed, round);
    so.shrinkViolations = false;
    return so;
}

struct Round
{
    double profileS = 0;
    double sweepS = 0;
    std::vector<fuzz::AppSweepReport> reports;
};

/** Per-app tallies of one traced (case-at-a-time) round. */
struct TracedApp
{
    double profileS = 0;
    std::uint64_t totalPmOps = 0;
    std::vector<double> caseMs;
    std::uint64_t fired = 0;
    std::uint64_t degraded = 0;
    std::uint64_t violations = 0;
};

} // namespace

void
runCrashSweep(const RunOptions &opts, Report &report)
{
    const std::vector<std::string> apps = fuzzApps();

    // Untraced pass.
    std::vector<Round> plain;
    const double start = now();
    while (plain.size() < kMinRounds || now() - start < opts.seconds) {
        const unsigned r = static_cast<unsigned>(plain.size());
        Round round;
        const fuzz::FuzzConfig cfg = configFor(opts.seed, r);
        double t0 = now();
        for (const std::string &app : apps)
            fuzz::profilePmOps(app, cfg);
        double t1 = now();
        round.profileS = t1 - t0;
        round.reports = fuzz::sweep(sweepFor(opts.seed, r, kClients));
        round.sweepS = now() - t1;
        plain.push_back(std::move(round));
    }

    std::vector<double> setup;
    double sweep_s = 0;
    for (const Round &round : plain) {
        setup.push_back(round.profileS);
        sweep_s += round.sweepS;
        for (const fuzz::AppSweepReport &rep : round.reports)
            report.count(rep.casesRun, rep.violations,
                         rep.app + ": crash cases without violations");
    }
    report.set("setup_s", median(setup));
    report.set("items_per_s",
               static_cast<double>(plain.size() * apps.size() *
                                   kCasesPerApp) /
                   sweep_s);
    const std::string rn =
        "median of " + std::to_string(plain.size()) + " rounds";
    report.note("setup_s", rn + "; profilePmOps over the six apps");
    report.note("items_per_s",
                "crash cases/s over " + std::to_string(plain.size()) +
                    " sweeps of " + std::to_string(kCasesPerApp) +
                    " cases x 6 apps at jobs " + std::to_string(kClients));

    // Determinism gate: round 0 again at one job.
    const double seq0 = now();
    const auto seq = fuzz::sweep(sweepFor(opts.seed, 0, 1));
    const double seq_wall = now() - seq0;
    for (std::size_t i = 0; i < seq.size(); i++)
        report.check(seq[i].digest == plain[0].reports[i].digest,
                     seq[i].app + ": sweep digest identical at jobs 1 "
                                  "and 2");
    if (!opts.trace)
        return;

    // Traced pass: the same rounds, one case at a time, every
    // profilePmOps and runCase call timed.
    std::vector<std::vector<TracedApp>> traced;
    std::vector<double> pool_ms;
    std::vector<PrimitiveCosts> prims;
    const double tstart = now();
    double covered = 0, round0_wall = 0;
    for (unsigned r = 0; r < plain.size(); r++) {
        const double rstart = now();
        const fuzz::FuzzConfig cfg = configFor(opts.seed, r);
        std::vector<TracedApp> round;
        for (const std::string &app : apps) {
            TracedApp ta;
            double t0 = now();
            ta.totalPmOps = fuzz::profilePmOps(app, cfg);
            ta.profileS = now() - t0;
            covered += ta.profileS;
            for (std::uint64_t id = 0; id < kCasesPerApp; id++) {
                const fuzz::FuzzCase c =
                    fuzz::deriveCase(app, id, ta.totalPmOps, cfg);
                t0 = now();
                const fuzz::CaseOutcome out = fuzz::runCase(c, cfg);
                const double d = now() - t0;
                covered += d;
                ta.caseMs.push_back(d * 1e3);
                ta.fired += out.fired ? 1 : 0;
                ta.degraded += out.degraded ? 1 : 0;
                ta.violations += out.ok ? 0 : 1;
            }
            round.push_back(std::move(ta));
        }
        if (r == 0)
            round0_wall = now() - rstart;
        traced.push_back(std::move(round));

        double t0 = now();
        core::Runtime rt(cfg.poolBytes, 1);
        const double t1 = now();
        pool_ms.push_back((t1 - t0) * 1e3);
        prims.push_back(probePrimitives(rt));
        covered += now() - t0;
    }
    const double traced_wall = now() - tstart;

    std::vector<double> profile, all_cases;
    std::vector<std::vector<double>> by_app(apps.size());
    std::uint64_t cases = 0, fired = 0, degraded = 0;
    double seq_sum = 0, sweep_sum = 0;
    for (unsigned r = 0; r < plain.size(); r++) {
        double profile_round = 0;
        for (std::size_t a = 0; a < apps.size(); a++) {
            const TracedApp &ta = traced[r][a];
            const fuzz::AppSweepReport &rep = plain[r].reports[a];
            report.check(ta.totalPmOps == rep.totalPmOps &&
                             ta.fired == rep.casesFired &&
                             ta.degraded == rep.casesDegraded &&
                             ta.violations == rep.violations,
                         apps[a] + ": traced and untraced case outcomes "
                                   "match");
            report.count(ta.caseMs.size(), ta.violations,
                         apps[a] + ": traced crash cases without "
                                   "violations");
            profile_round += ta.profileS;
            seq_sum += ta.profileS;
            for (double ms : ta.caseMs)
                seq_sum += ms / 1e3;
            all_cases.insert(all_cases.end(), ta.caseMs.begin(),
                             ta.caseMs.end());
            by_app[a].insert(by_app[a].end(), ta.caseMs.begin(),
                             ta.caseMs.end());
            if (r < kMinRounds) { // exact: rounds every run makes
                cases += ta.caseMs.size();
                fired += ta.fired;
                degraded += ta.degraded;
            }
        }
        profile.push_back(profile_round * 1e3);
        sweep_sum += plain[r].sweepS;
    }

    report.set("fuzz.profile_ms", median(profile));
    report.note("fuzz.profile_ms", "six apps per round, median of " +
                                       std::to_string(plain.size()) +
                                       " rounds");
    report.set("fuzz.case_ms_p50", quantile(all_cases, 0.5));
    const Tail t90 = tail(all_cases, 0.9);
    report.set("fuzz.case_ms_p90", t90.value);
    char note[96];
    std::snprintf(note, sizeof(note), "p%g of %zu cases",
                  t90.fraction * 100, t90.samples);
    report.note("fuzz.case_ms_p90", note);
    for (std::size_t a = 0; a < apps.size(); a++) {
        const std::string name =
            std::string("fuzz.") + layers()[a].layer + ".case_ms";
        report.set(name, median(by_app[a]));
        report.note(name, "median, app " + apps[a]);
    }
    report.set("fuzz.parallel_eff", seq_sum / sweep_sum);
    report.note("fuzz.parallel_eff",
                "one-at-a-time profile + case time over jobs-2 sweep "
                "wall (ideal 2)");
    report.set("fuzz.fired_frac", static_cast<double>(fired) /
                                      static_cast<double>(cases));
    report.set("fuzz.degraded_frac", static_cast<double>(degraded) /
                                         static_cast<double>(cases));
    const std::string first = "over the " + std::to_string(cases) +
                              " cases of the first " +
                              std::to_string(kMinRounds) + " rounds";
    report.note("fuzz.fired_frac", first);
    report.note("fuzz.degraded_frac", first);
    reportPrimitives(report, prims, pool_ms);
    report.set("bench.trace_overhead_s", round0_wall - seq_wall);
    report.note("bench.trace_overhead_s",
                "round 0 case-at-a-time minus the same sweep at jobs 1");
    report.set("bench.coverage", covered / traced_wall);
}

} // namespace perfbench
