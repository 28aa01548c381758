/**
 * @file
 * The YCSB workloads: one closed-loop key-value mix over each of the
 * six access layers' representative apps, two client threads each.
 *
 *  - ycsb-a-zipf: 50% read / 50% update, zipfian (theta 0.99) over
 *    20k preloaded keys. The write path: undo/redo logging,
 *    allocators, flush/fence and the trace push on every PM op.
 *  - ycsb-c-uniform: 100% read, uniform over 100k preloaded keys. The
 *    same layers on reads only, with no hot set and a 5x larger
 *    preload, so a write-path gain that costs reads shows here.
 *
 * The benchmark generates the op streams itself and calls the apps'
 * per-op workload surface (workloadGet / workloadPut) directly; keys
 * follow the WorkloadKeymap partition, so thread t only sends keys it
 * owns and the simulated results are a pure function of the seed.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "analysis/access_mix.hh"
#include "core/app.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

constexpr std::size_t kPoolBytes = 256 << 20;

/**
 * One YCSB workload. Ops per client thread per round are fixed per
 * layer (in layers() order) and sized so every layer's op phase takes
 * a comparable host time (about 0.4 s on a 4-core x86 machine): the
 * end-to-end rate is a geometric mean that weighs every layer
 * equally. Fixed counts keep trace memory, and so peak RSS,
 * independent of how fast the program runs.
 */
struct Mix
{
    double readFrac;
    bool zipf;
    std::uint64_t keys;
    std::uint64_t opsPerThread[6];
};

Mix
mixFor(const std::string &workload)
{
    if (workload == "ycsb-a-zipf")
        return {0.5, true, 20000,
                {25000, 50000, 20000, 35000, 70000, 240000}};
    if (workload == "ycsb-c-uniform")
        return {1.0, false, 100000,
                {120000, 280000, 18000, 30000, 240000, 300000}};
    throw std::invalid_argument("unknown YCSB workload " + workload);
}

struct Op
{
    std::uint64_t key;
    std::uint64_t value;
    bool put;
};

/**
 * YCSB's zipfian generator (Gray et al.) over [0, n), with ranks
 * scattered by a hash so the hot keys are not adjacent.
 */
class Zipf
{
  public:
    Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta)
    {
        for (std::uint64_t i = 1; i <= n; i++)
            zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
        const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        alpha_ = 1.0 / (1.0 - theta);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n),
                               1.0 - theta)) /
               (1.0 - zeta2 / zetan_);
    }

    std::uint64_t
    next(SplitMix &rng) const
    {
        const double u = rng.unit();
        const double uz = u * zetan_;
        std::uint64_t rank = 0;
        if (uz >= 1.0 && uz < 1.0 + std::pow(0.5, theta_))
            rank = 1;
        else if (uz >= 1.0)
            rank = static_cast<std::uint64_t>(
                static_cast<double>(n_) *
                std::pow(eta_ * u - eta_ + 1.0, alpha_));
        rank = std::min(rank, n_ - 1);
        return SplitMix{rank}.next() % n_;
    }

  private:
    std::uint64_t n_;
    double theta_;
    double zetan_ = 0;
    double alpha_ = 0;
    double eta_ = 0;
};

std::vector<std::vector<Op>>
makeOps(const Mix &mix, const core::WorkloadKeymap &map,
        std::uint64_t seed, std::uint64_t per_thread)
{
    std::vector<std::vector<Op>> ops(map.threads);
    const Zipf zipf(mix.zipf ? map.perThread() : 2, 0.99);
    for (unsigned t = 0; t < map.threads; t++) {
        SplitMix rng{deriveSeed(seed, t)};
        ops[t].reserve(per_thread);
        for (std::uint64_t i = 0; i < per_thread; i++) {
            const bool put = rng.unit() >= mix.readFrac;
            const std::uint64_t idx =
                mix.zipf ? zipf.next(rng) : rng.next() % map.perThread();
            ops[t].push_back({map.lo(t) + idx, rng.next(), put});
        }
    }
    return ops;
}

/** One layer's share of one round. */
struct LayerRun
{
    double poolCreateS = 0;
    double appSetupS = 0; //!< createApp + workloadSetup
    double opS = 0;
    double checkS = 0;
    double teardownS = 0;
    std::uint64_t ops = 0;
    std::uint64_t reads = 0;
    std::uint64_t readsFound = 0;
    bool checkOk = false;
    std::string checkWhy;
    Tick makespan = 0;
    whisper::trace::AccessCounters counters;
    std::size_t events = 0;
    std::uint64_t digest = 0;

    /** @{ Traced pass only. */
    std::vector<double> getUs;
    std::vector<double> putUs;
    double inCallS = 0; //!< per-op call time summed over clients
    PrimitiveCosts prims;
    double probeS = 0;
    /** @} */

    double setupS() const { return poolCreateS + appSetupS; }
};

template <bool Traced>
LayerRun
runLayer(const LayerApps &layer, const core::WorkloadKeymap &map,
         const std::vector<std::vector<Op>> &ops, std::uint64_t app_seed)
{
    LayerRun r;
    core::AppConfig cfg;
    cfg.threads = map.threads;
    cfg.seed = app_seed;
    cfg.poolBytes = kPoolBytes;

    double t0 = now();
    auto rt = std::make_unique<core::Runtime>(kPoolBytes, map.threads);
    double t1 = now();
    r.poolCreateS = t1 - t0;
    std::unique_ptr<core::WhisperApp> app =
        core::createApp(layer.ycsbApp, cfg);
    app->workloadSetup(*rt, map);
    rt->clearTraces();
    t0 = now();
    r.appSetupS = t0 - t1;

    std::vector<Tick> ticks(map.threads, 0);
    std::vector<std::uint64_t> reads(map.threads, 0), found(map.threads, 0);
    std::vector<std::vector<double>> get_us(map.threads),
        put_us(map.threads);
    std::vector<double> in_call(map.threads, 0.0);
    rt->runThreads(map.threads, [&](pm::PmContext &ctx, ThreadId tid) {
        const Tick start = ctx.localTicks();
        if constexpr (Traced) {
            get_us[tid].reserve(ops[tid].size());
            put_us[tid].reserve(ops[tid].size());
        }
        for (const Op &op : ops[tid]) {
            double c0 = 0;
            if constexpr (Traced)
                c0 = now();
            if (op.put) {
                app->workloadPut(ctx, tid, op.key, op.value);
            } else {
                reads[tid]++;
                found[tid] += app->workloadGet(ctx, tid, op.key) ? 1 : 0;
            }
            if constexpr (Traced) {
                const double d = now() - c0;
                in_call[tid] += d;
                (op.put ? put_us : get_us)[tid].push_back(d * 1e6);
            }
        }
        app->workloadThreadDone(ctx, tid);
        ticks[tid] = ctx.localTicks() - start;
    });
    t1 = now();
    r.opS = t1 - t0;

    const core::VerifyReport check = app->workloadCheck(*rt);
    t0 = now();
    r.checkS = t0 - t1;
    r.checkOk = check.ok();
    if (!r.checkOk)
        r.checkWhy = check.describe();

    r.counters = rt->traces().totalCounters();
    r.events = rt->traces().totalEvents();
    r.digest = 0xcbf29ce484222325ull;
    for (unsigned t = 0; t < map.threads; t++) {
        r.ops += ops[t].size();
        r.reads += reads[t];
        r.readsFound += found[t];
        r.makespan = std::max(r.makespan, ticks[t]);
        r.digest = fold(r.digest, ticks[t]);
        r.digest = fold(r.digest, found[t]);
        if constexpr (Traced) {
            r.getUs.insert(r.getUs.end(), get_us[t].begin(),
                           get_us[t].end());
            r.putUs.insert(r.putUs.end(), put_us[t].begin(),
                           put_us[t].end());
            r.inCallS += in_call[t];
        }
    }
    const whisper::trace::AccessCounters &c = r.counters;
    for (std::uint64_t v : {c.pmStores, c.pmNtStores, c.pmLoads,
                            c.pmFlushes, c.fences, c.pmStoreBytes,
                            c.pmNtStoreBytes,
                            static_cast<std::uint64_t>(r.events)})
        r.digest = fold(r.digest, v);

    if constexpr (Traced) {
        t1 = now();
        r.prims = probePrimitives(*rt);
        r.probeS = now() - t1;
    }
    t1 = now();
    app.reset();
    rt.reset();
    r.teardownS = now() - t1;
    return r;
}

/** Every layer once, on one op stream per client. */
template <bool Traced>
std::vector<LayerRun>
runRound(const Mix &mix, std::uint64_t seed, unsigned round)
{
    core::WorkloadKeymap map;
    map.keys = mix.keys;
    map.threads = kClients;
    const std::uint64_t round_seed = deriveSeed(seed, round);
    std::vector<LayerRun> runs;
    for (std::size_t l = 0; l < layers().size(); l++) {
        const auto ops =
            makeOps(mix, map, round_seed, mix.opsPerThread[l]);
        runs.push_back(runLayer<Traced>(layers()[l], map, ops, round_seed));
    }
    return runs;
}

void
checkRound(const std::vector<LayerRun> &runs, Report &report)
{
    for (std::size_t i = 0; i < runs.size(); i++) {
        const LayerRun &r = runs[i];
        const std::string app = layers()[i].ycsbApp;
        report.count(r.ops - r.reads, 0);
        report.count(r.reads, r.reads - r.readsFound,
                     app + ": reads of preloaded keys found");
        report.check(r.checkOk, app + ": workloadCheck " + r.checkWhy);
    }
}

std::string
samplesNote(std::size_t n, double fraction)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p%g of %zu samples",
                  fraction * 100.0, n);
    return buf;
}

/** Per-layer metrics from the traced rounds. */
void
reportLayers(const std::vector<std::vector<LayerRun>> &rounds,
             Report &report)
{
    std::vector<double> op_p50, op_p99, pool_ms;
    std::vector<PrimitiveCosts> prims;
    std::uint64_t events = 0, ops = 0;
    std::size_t max_events = 0;
    for (std::size_t l = 0; l < layers().size(); l++) {
        const std::string p = layers()[l].layer;
        std::vector<double> setup, check, get, put;
        double ops_sum = 0, op_s = 0;
        for (const auto &round : rounds) {
            const LayerRun &r = round[l];
            setup.push_back(r.appSetupS);
            ops_sum += static_cast<double>(r.ops);
            op_s += r.opS;
            check.push_back(r.checkS * 1e3);
            pool_ms.push_back(r.poolCreateS * 1e3);
            prims.push_back(r.prims);
            get.insert(get.end(), r.getUs.begin(), r.getUs.end());
            put.insert(put.end(), r.putUs.begin(), r.putUs.end());
        }
        report.set(p + ".setup_s", median(setup));
        report.set(p + ".ops_per_s", ops_sum / op_s);
        report.set(p + ".check_ms", median(check));
        report.note(p + ".setup_s",
                    "median of " + std::to_string(rounds.size()) +
                        " rounds");
        for (auto [name, v] : {std::pair{"get", &get}, {"put", &put}}) {
            if (v->empty())
                continue;
            report.set(p + "." + name + "_us_p50", quantile(*v, 0.5));
            const Tail t = tail(*v, 0.99);
            report.set(p + "." + name + "_us_p99", t.value);
            report.note(p + "." + name + "_us_p50",
                        samplesNote(v->size(), 0.5));
            report.note(p + "." + name + "_us_p99",
                        samplesNote(t.samples, t.fraction));
        }
        std::vector<double> all = get;
        all.insert(all.end(), put.begin(), put.end());
        op_p50.push_back(quantile(all, 0.5));
        op_p99.push_back(tail(all, 0.99).value);

        // Exact counts from round 0, which every run executes.
        const LayerRun &r0 = rounds[0][l];
        const double n = static_cast<double>(r0.ops);
        const whisper::trace::AccessCounters &c = r0.counters;
        report.set(p + ".pm_stores_per_op",
                   static_cast<double>(c.pmWrites()) / n);
        report.set(p + ".pm_loads_per_op",
                   static_cast<double>(c.pmLoads) / n);
        report.set(p + ".flushes_per_op",
                   static_cast<double>(c.pmFlushes) / n);
        report.set(p + ".fences_per_op", static_cast<double>(c.fences) / n);
        report.set(p + ".write_amp",
                   whisper::analysis::computeAmplification(c).ratio());
        report.set(p + ".sim_kops",
                   n * 1e6 / static_cast<double>(r0.makespan));
        events += r0.events;
        ops += r0.ops;
        max_events = std::max(max_events, r0.events);
    }
    report.set("op_p50_us", geomean(op_p50));
    report.set("op_p99_us", geomean(op_p99));
    report.note("op_p50_us", "geomean over the six layers");
    report.note("op_p99_us", "geomean over the six layers");
    report.set("trace.events_per_op",
               static_cast<double>(events) / static_cast<double>(ops));
    report.set("trace.mb",
               static_cast<double>(max_events *
                                   sizeof(whisper::trace::TraceEvent)) /
                   (1 << 20));
    report.note("trace.mb", "largest op-phase trace of one layer");
    reportPrimitives(report, prims, pool_ms);
}

} // namespace

void
runYcsb(const std::string &name, const RunOptions &opts, Report &report)
{
    const Mix mix = mixFor(name);

    // Untraced pass: end-to-end metrics, and the reference digests.
    std::vector<std::vector<LayerRun>> plain;
    const double start = now();
    while (plain.size() < kMinRounds || now() - start < opts.seconds)
        plain.push_back(runRound<false>(mix, opts.seed,
                                        static_cast<unsigned>(plain.size())));
    const double plain_wall = now() - start;

    // Ops over op-phase time summed across rounds: on a machine whose
    // speed drifts over seconds, the whole-run rate spreads less from
    // run to run than a median of a few short rounds.
    std::vector<double> setup;
    std::vector<double> ops(layers().size(), 0.0), secs(layers().size(), 0.0);
    for (const auto &round : plain) {
        checkRound(round, report);
        double s = 0;
        for (std::size_t l = 0; l < round.size(); l++) {
            s += round[l].setupS();
            ops[l] += static_cast<double>(round[l].ops);
            secs[l] += round[l].opS;
        }
        setup.push_back(s);
    }
    std::vector<double> layer_rates;
    std::string per_layer;
    for (std::size_t l = 0; l < ops.size(); l++) {
        layer_rates.push_back(ops[l] / secs[l]);
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s %.4g", layers()[l].layer,
                      layer_rates.back());
        per_layer += buf;
    }
    report.set("setup_s", median(setup));
    report.set("items_per_s", geomean(layer_rates));
    const std::string rn =
        "median of " + std::to_string(plain.size()) + " rounds";
    report.note("setup_s", rn + "; Runtime + createApp + workloadSetup, "
                                "summed over the six layers");
    report.note("items_per_s",
                "ops/s over " + std::to_string(plain.size()) +
                    " rounds, geomean over the layers:" + per_layer);
    if (!opts.trace)
        return;

    // The traced pass can only be held to the untraced digests where
    // the program repeats itself: run round 0 untraced once more and
    // report every layer whose simulated results depend on how its
    // two client threads interleave.
    const std::vector<LayerRun> again = runRound<false>(mix, opts.seed, 0);
    std::vector<bool> repeats;
    for (std::size_t l = 0; l < layers().size(); l++) {
        repeats.push_back(again[l].digest == plain[0][l].digest);
        if (!repeats.back())
            std::fprintf(stderr,
                         "NOTE: %s: simulated counts differ between two "
                         "untraced runs of one op stream "
                         "(interleaving-dependent)\n",
                         layers()[l].ycsbApp);
    }
    report.set("bench.nondeterministic_layers",
               static_cast<double>(
                   std::count(repeats.begin(), repeats.end(), false)));

    // Traced pass: the same rounds with every layer call timed.
    std::vector<std::vector<LayerRun>> traced;
    const double tstart = now();
    double covered = 0, probes = 0;
    for (unsigned round = 0; round < plain.size(); round++) {
        traced.push_back(runRound<true>(mix, opts.seed, round));
        for (const LayerRun &r : traced.back()) {
            covered += r.setupS() + r.inCallS / kClients + r.checkS +
                       r.teardownS + r.probeS;
            probes += r.probeS;
        }
    }
    const double traced_wall = now() - tstart;
    for (unsigned round = 0; round < plain.size(); round++) {
        checkRound(traced[round], report);
        for (std::size_t l = 0; l < layers().size(); l++)
            if (repeats[l])
                report.check(traced[round][l].digest ==
                                 plain[round][l].digest,
                             std::string(layers()[l].ycsbApp) +
                                 ": traced and untraced simulated "
                                 "digests match");
    }
    reportLayers(traced, report);
    report.set("bench.trace_overhead_s", traced_wall - probes - plain_wall);
    report.note("bench.trace_overhead_s",
                "traced minus untraced wall time, primitive probes "
                "excluded");
    report.set("bench.coverage", covered / traced_wall);
    report.note("bench.coverage",
                "timed layer calls (pool, setup, ops, check, teardown) "
                "over traced wall time");
}

} // namespace perfbench
