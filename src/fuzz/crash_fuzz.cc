#include "fuzz/crash_fuzz.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <atomic>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/app.hh"
#include "core/runtime.hh"
#include "lincheck/checker.hh"
#include "lincheck/history_io.hh"
#include "lincheck/recorder.hh"
#include "txlib/elision.hh"

namespace whisper::fuzz
{

namespace
{

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return mix64(h + v);
}

/** FNV-1a so the app name perturbs the case stream. */
std::uint64_t
hashName(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char ch : s)
        h = (h ^ static_cast<std::uint8_t>(ch)) * 0x100000001b3ull;
    return h;
}

core::AppConfig
caseAppConfig(const FuzzConfig &config)
{
    core::AppConfig cfg;
    cfg.threads = config.threads < 1 ? 1 : config.threads;
    cfg.opsPerThread = config.opsPerThread;
    cfg.seed = config.appSeed;
    cfg.poolBytes = config.poolBytes;
    cfg.recordVolatile = false;
    return cfg;
}

/** Survival-rate classes a case draws from (index 0 = crashHard). */
constexpr double kSurvivalClasses[] = {0.0, 0.1, 0.25, 0.5,
                                       0.75, 0.9, 0.99};
constexpr std::size_t kSurvivalClassCount =
    sizeof(kSurvivalClasses) / sizeof(kSurvivalClasses[0]);

/** Fault-dimension grids (FuzzConfig::faults). All-zero combinations
 *  degenerate to plain crash cases, keeping a control group inside
 *  every fault sweep. */
constexpr std::uint32_t kPoisonClasses[] = {0, 1, 2, 4};
constexpr double kTearClasses[] = {0.0, 0.25, 0.5};
constexpr std::uint32_t kTransientClasses[] = {0, 7, 31};

/** Racing threads are only meaningful where disjoint updates commute. */
void
requireGateable(const core::WhisperApp &app, unsigned threads)
{
    panic_if(threads > 1 &&
                 app.layer() != core::AccessLayer::LibMod &&
                 app.layer() != core::AccessLayer::Hybrid,
             "multi-threaded crash fuzzing needs the MOD or Hybrid "
             "layer, not %s", app.name().c_str());
}

/**
 * Run the (possibly armed) workload on every thread, gate-disciplined;
 * reports whether the crash point fired and the cut's global op index.
 * Threads that finish leave the gate's draw set so the others make
 * progress; the firing thread's throw opens the gate for the rest.
 */
void
runArmed(core::Runtime &rt, core::WhisperApp &app, unsigned threads,
         bool &fired, std::uint64_t &op_index)
{
    std::atomic<bool> hit{false};
    std::atomic<std::uint64_t> at{0};
    rt.runThreads(threads, [&](pm::PmContext &ctx, ThreadId tid) {
        try {
            app.run(rt, ctx, tid);
        } catch (const pm::CrashPointReached &cut) {
            hit.store(true, std::memory_order_relaxed);
            at.store(cut.opIndex, std::memory_order_relaxed);
        }
        if (pm::SchedGate *gate = ctx.schedGate())
            gate->deactivate(tid);
    });
    fired = hit.load(std::memory_order_relaxed);
    op_index = fired ? at.load(std::memory_order_relaxed)
                     : rt.pmOpsSeen();
}

/** @{ \name Lincheck dimension (FuzzConfig::lincheck)
 *
 * The case runs a generated KV workload over the app's lincheck
 * surface (per-thread key partitions, so per-key subhistories are
 * single-writer and verdicts are schedule-deterministic), records
 * every invoke/response plus fence coverage, and after recovery asks
 * the checker for a witness linearization per key.
 */

/** Keys per thread: small enough that keys repeat across ops. */
constexpr std::uint64_t kLcKeysPerThread = 12;

struct LcOp {
    lincheck::OpKind kind;
    std::uint64_t key;
    std::uint64_t arg;
};

core::WorkloadKeymap
lincheckKeymap(const core::AppConfig &cfg)
{
    core::WorkloadKeymap map;
    map.keys = kLcKeysPerThread * cfg.threads;
    map.threads = cfg.threads;
    map.insertsPerThread = 0;
    return map;
}

void
requireLincheckable(const core::WhisperApp &app)
{
    panic_if(!app.supportsLincheck(),
             "lincheck fuzzing needs the lincheck workload surface, "
             "which %s does not implement", app.name().c_str());
}

/**
 * Per-thread op plans, fixed by (app seed, tid) alone: the same ops
 * run in the profile pass and in every case regardless of schedule,
 * so profiled PM-op totals match the cases' op streams.
 */
std::vector<std::vector<LcOp>>
lincheckPlan(const core::WhisperApp &app, const core::AppConfig &cfg,
             const core::WorkloadKeymap &map)
{
    std::vector<std::vector<LcOp>> plan(cfg.threads);
    const bool removes = app.workloadHasRemove();
    for (unsigned t = 0; t < cfg.threads; t++) {
        const ThreadId tid = static_cast<ThreadId>(t);
        Rng rng(mix64(cfg.seed ^ (0x11c0de00ull + tid)));
        plan[t].reserve(cfg.opsPerThread);
        for (std::uint64_t i = 0; i < cfg.opsPerThread; i++) {
            LcOp op;
            op.key = map.lo(tid) + rng.next(kLcKeysPerThread);
            op.arg = 0;
            const std::uint64_t roll = rng.next(100);
            if (roll < 35) {
                op.kind = lincheck::OpKind::Get;
            } else if (roll < 70 || (roll >= 90 && !removes)) {
                op.kind = lincheck::OpKind::Put;
                op.arg = rng();
            } else if (roll < 90) {
                op.kind = lincheck::OpKind::Rmw;
                op.arg = rng.next(1000) + 1;
            } else {
                op.kind = lincheck::OpKind::Remove;
            }
            plan[t].push_back(op);
        }
    }
    return plan;
}

/**
 * Gate-disciplined armed run of the lincheck op plans. Mirrors
 * runArmed(); additionally records invoke/response events. A thread
 * stops recording the moment one of its own PM ops is dropped (the
 * machine is off; its later results never reached the pool) — the
 * drop delta is this thread's own, so the taint point is
 * schedule-deterministic, unlike a racy crashInjected() read. The
 * first tainted op stays recorded as pending: the checker may include
 * its (possibly partial) effect or drop it.
 */
void
runLincheckOps(core::Runtime &rt, core::WhisperApp &app,
               const std::vector<std::vector<LcOp>> &plan,
               unsigned threads, lincheck::HistoryRecorder *rec,
               bool &fired, std::uint64_t &op_index)
{
    std::atomic<bool> hit{false};
    std::atomic<std::uint64_t> at{0};
    rt.runThreads(threads, [&](pm::PmContext &ctx, ThreadId tid) {
        bool tainted = false;
        try {
            for (const LcOp &op : plan[tid]) {
                std::size_t handle = 0;
                if (rec && !tainted) {
                    handle =
                        rec->invoke(tid, op.kind, op.key, op.arg);
                }
                const std::uint64_t dropped0 = ctx.droppedPmOps();
                bool found = false;
                std::uint64_t value = 0;
                switch (op.kind) {
                  case lincheck::OpKind::Get:
                    found = app.workloadProbe(ctx, tid, op.key, value);
                    break;
                  case lincheck::OpKind::Put:
                    app.workloadPut(ctx, tid, op.key, op.arg);
                    break;
                  case lincheck::OpKind::Rmw:
                    found = app.workloadRmw(ctx, tid, op.key, op.arg);
                    break;
                  case lincheck::OpKind::Remove:
                    found = app.workloadRemove(ctx, tid, op.key);
                    break;
                }
                if (rec && !tainted) {
                    if (ctx.droppedPmOps() != dropped0)
                        tainted = true; // leave the op pending
                    else
                        rec->response(tid, handle, found, value);
                }
            }
            // No workloadThreadDone() epilogue: the case power-cuts
            // the pool right after this loop anyway, and the MOD
            // epilogue flips the thread's GC online flag outside any
            // gate turn — a wall-clock race that makes another
            // thread's reclaim count (and so the global PM-op total)
            // nondeterministic. Recovery sweeps the unreclaimed
            // backlog, exactly as after any mid-run cut.
        } catch (const pm::CrashPointReached &cut) {
            hit.store(true, std::memory_order_relaxed);
            at.store(cut.opIndex, std::memory_order_relaxed);
        }
        if (pm::SchedGate *gate = ctx.schedGate())
            gate->deactivate(tid);
    });
    fired = hit.load(std::memory_order_relaxed);
    op_index = fired ? at.load(std::memory_order_relaxed)
                     : rt.pmOpsSeen();
}

/** Probe every key and report it to the recorder. */
void
probeKeys(core::Runtime &rt, core::WhisperApp &app,
          const core::WorkloadKeymap &map,
          lincheck::HistoryRecorder &rec, bool recovered)
{
    for (unsigned t = 0; t < map.threads; t++) {
        const ThreadId tid = static_cast<ThreadId>(t);
        for (std::uint64_t i = 0; i < map.perThread(); i++) {
            const std::uint64_t key = map.lo(tid) + i;
            std::uint64_t value = 0;
            const bool found =
                app.workloadProbe(rt.ctx(tid), tid, key, value);
            if (recovered)
                rec.noteRecovered(key, found, value);
            else
                rec.noteInitial(key, found, value);
        }
    }
}

/**
 * Per-violation dump throttle (the buddy-recovery warn idiom): the
 * first few violating cases each warn one line with the dump path,
 * then a single suppression note — a 512-case sweep stays readable.
 */
std::atomic<unsigned> lincheckDumpWarns{0};
constexpr unsigned kLincheckDumpWarnCap = 4;

std::string
lincheckDumpPath(const FuzzCase &c)
{
    const char *dir = std::getenv("TMPDIR");
    std::string path = dir && *dir ? dir : "/tmp";
    if (!path.empty() && path.back() == '/')
        path.pop_back();
    path += "/whisper-lincheck-" + c.app + "-" +
            std::to_string(c.caseId) + ".hist";
    return path;
}

/** @} */

/**
 * Post-recovery architectural-image fingerprint (replay identity): a
 * fold over every 8-byte word read big-endian, then over the
 * big-endian partial tail word (0 when the size is a multiple of 8).
 */
std::uint64_t
imageHash(const pm::PmPool &pool)
{
    const std::uint8_t *base = pool.archBase();
    const std::size_t full = pool.size() & ~std::size_t(7);
    std::uint64_t h = 0x1316171ull;
    for (std::size_t i = 0; i < full; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, base + i, 8);
        if constexpr (std::endian::native == std::endian::little)
            word = __builtin_bswap64(word);
        h = fold(h, word);
    }
    std::uint64_t word = 0;
    for (std::size_t i = full; i < pool.size(); i++)
        word = (word << 8) | base[i];
    return fold(h, word);
}

} // namespace

std::uint64_t
profilePmOps(const std::string &app, const FuzzConfig &config)
{
    // Racing pool workers store the same value, so the relaxed
    // atomic policy write is race-free across a sweep.
    txlib::setElisionPolicy(config.elide ? txlib::kElideAll
                                         : txlib::kElideNone);
    const core::AppConfig cfg = caseAppConfig(config);
    core::Runtime rt(cfg.poolBytes, cfg.threads, false);
    std::unique_ptr<core::WhisperApp> a = core::createApp(app, cfg);
    requireGateable(*a, cfg.threads);
    bool fired = false;
    std::uint64_t ops = 0;
    if (config.lincheck) {
        requireLincheckable(*a);
        const core::WorkloadKeymap map = lincheckKeymap(cfg);
        a->workloadSetup(rt, map);
        rt.clearTraces();
        rt.installCrashPlan(cfg.threads,
                            mix64(config.sweepSeed ^ hashName(app)));
        const std::vector<std::vector<LcOp>> plan =
            lincheckPlan(*a, cfg, map);
        runLincheckOps(rt, *a, plan, cfg.threads, nullptr, fired,
                       ops);
        return ops;
    }
    a->setup(rt);
    rt.clearTraces();
    // Counts only; crashAt stays at "never". The gate schedule is
    // fixed per (sweep seed, app) so the profile is reproducible.
    rt.installCrashPlan(cfg.threads,
                        mix64(config.sweepSeed ^ hashName(app)));
    runArmed(rt, *a, cfg.threads, fired, ops);
    return ops;
}

FuzzCase
deriveCase(const std::string &app, std::uint64_t case_id,
           std::uint64_t total_pm_ops, const FuzzConfig &config)
{
    FuzzCase c;
    c.app = app;
    c.caseId = case_id;
    std::uint64_t h =
        mix64(config.sweepSeed ^ hashName(app)) + case_id;
    const std::uint64_t h1 = mix64(h);
    const std::uint64_t h2 = mix64(h1);
    const std::uint64_t h3 = mix64(h2);
    c.crashAt = total_pm_ops ? h1 % total_pm_ops : 0;
    c.crash.seed = h2;
    const std::size_t cls = h3 % kSurvivalClassCount;
    c.hard = cls == 0;
    c.crash.survival = kSurvivalClasses[cls];
    c.crash.threads = config.threads < 1 ? 1 : config.threads;
    c.crash.schedule = mix64(h3);
    if (config.faults) {
        // Extend the hash chain; the pre-fault parameters above are
        // untouched, so case K of a fault sweep crashes at the same
        // op as case K of the plain sweep.
        const std::uint64_t h4 = mix64(h3 ^ 0xFA017ull);
        const std::uint64_t h5 = mix64(h4);
        const std::uint64_t h6 = mix64(h5);
        const std::uint64_t h7 = mix64(h6);
        c.fault.seed = h4;
        c.fault.poisonCount =
            kPoisonClasses[h5 % (sizeof(kPoisonClasses) / 4)];
        c.fault.tearProb =
            kTearClasses[h6 % (sizeof(kTearClasses) / 8)];
        c.fault.transientEvery =
            kTransientClasses[h7 % (sizeof(kTransientClasses) / 4)];
    }
    return c;
}

CaseOutcome
runCase(const FuzzCase &c, const FuzzConfig &config,
        const std::vector<LineAddr> *survivor_override,
        std::uint64_t crash_at_override)
{
    txlib::setElisionPolicy(config.elide ? txlib::kElideAll
                                         : txlib::kElideNone);
    const core::AppConfig cfg = caseAppConfig(config);
    const unsigned threads = c.crash.threads < 1 ? 1 : c.crash.threads;
    core::Runtime rt(cfg.poolBytes, threads, false);
    std::unique_ptr<core::WhisperApp> app =
        core::createApp(c.app, cfg);
    requireGateable(*app, threads);
    lincheck::HistoryRecorder rec;
    core::WorkloadKeymap lcMap;
    if (config.lincheck) {
        requireLincheckable(*app);
        lcMap = lincheckKeymap(cfg);
        app->workloadSetup(rt, lcMap);
        // Enable before the baseline probes: noteInitial() is a no-op
        // on a disabled recorder.
        rec.enable(threads);
        probeKeys(rt, *app, lcMap, rec, false);
    } else {
        app->setup(rt);
    }
    rt.clearTraces();

    const std::uint64_t crash_at =
        crash_at_override != ~std::uint64_t(0) ? crash_at_override
                                               : c.crashAt;
    rt.installCrashPlan(threads, c.crash.schedule);
    rt.armCrashPoint(crash_at);
    if (!c.fault.none())
        rt.pool().setFaultPlan(c.fault);

    CaseOutcome out;
    if (config.lincheck) {
        const std::vector<std::vector<LcOp>> plan =
            lincheckPlan(*app, cfg, lcMap);
        for (ThreadId tid = 0; tid < rt.maxThreads(); tid++)
            rt.ctx(tid).setFenceObserver(&rec);
        runLincheckOps(rt, *app, plan, threads, &rec, out.fired,
                       out.opIndex);
    } else {
        runArmed(rt, *app, threads, out.fired, out.opIndex);
    }

    // Resolve the power cut. The survivor set is either dictated (the
    // shrinker), seeded (the sweep), or empty (crashHard class).
    if (survivor_override) {
        out.survivors = *survivor_override;
    } else if (!c.hard) {
        Rng rng(c.crash.seed);
        out.survivors =
            rt.pool().pickSurvivors(rng, c.crash.survival);
    }
    pm::FaultResolution faults;
    if (!c.fault.none())
        faults = rt.pool().resolveFaults(c.fault, out.survivors);
    rt.crashWithFaults(out.survivors, faults);

    // The machine is back on: recovery runs un-counted. Crash plans
    // must be detached BEFORE the scrub — a fired plan keeps dropping
    // PM mutations, which would silently discard the scrub's repairs.
    for (ThreadId tid = 0; tid < rt.maxThreads(); tid++) {
        rt.ctx(tid).setCrashPlan(nullptr);
        // Likewise the fence observer: recovery's fences must not
        // extend the recorded durability coverage.
        rt.ctx(tid).setFenceObserver(nullptr);
    }

    core::VerifyReport verdict = app->scrubRecovered(rt);
    app->recover(rt);

    const core::VerifyReport invariants =
        app->checkRecoveryInvariants(rt);
    verdict.merge(invariants);
    if (invariants.ok())
        verdict.merge(app->verifyRecovered(rt));

    lincheck::CheckResult lc;
    if (config.lincheck) {
        // Every case crashes (at the armed point or at workload end),
        // so the history is a crashed one either way.
        rec.setCrashed(true);
        probeKeys(rt, *app, lcMap, rec, true);
        const lincheck::History hist = rec.finish();
        lc = lincheck::check(hist);
        out.lincheckRan = true;
        out.lincheckOk = lc.ok;
        out.lincheckBudget = lc.budgetExhausted;
        out.lincheckKeys = lc.keys.size();
        // A prior Degraded entry (scrub-named media loss) licenses a
        // missing witness the same way it licenses a verifyRecovered
        // violation: the data really is gone, and the scrub said so.
        const bool excused = verdict.degraded();
        for (const lincheck::KeyVerdict &kv : lc.keys) {
            if (kv.ok)
                continue;
            out.lincheckViolations++;
            char head[40];
            std::snprintf(head, sizeof(head), "key 0x%llx: ",
                          (unsigned long long)kv.key);
            verdict.fail("lincheck", head + kv.why);
        }
        if (lc.budgetExhausted)
            verdict.degrade("lincheck-budget",
                            "witness search budget exhausted; "
                            "verdict incomplete, not a violation");
        if (!lc.ok && !excused) {
            const std::string path = lincheckDumpPath(c);
            if (lincheck::writeHistoryFile(
                    path, lincheck::minimizeViolation(hist)))
                out.lincheckDump = path;
            const unsigned seen = lincheckDumpWarns.fetch_add(
                1, std::memory_order_relaxed);
            if (seen < kLincheckDumpWarnCap) {
                warn("lincheck: %s case %llu: %s (history: %s)",
                     c.app.c_str(), (unsigned long long)c.caseId,
                     lc.brief().c_str(), path.c_str());
            } else if (seen == kLincheckDumpWarnCap) {
                warn("lincheck: more violations; further history "
                     "dump notices suppressed");
            }
        }
    }

    out.degraded = verdict.degraded();
    // A Violation is a finding unless the scrub declared a named loss
    // that explains it; silent corruption (violation with no Degraded
    // entry) always counts.
    out.ok = verdict.ok() || out.degraded;
    if (!verdict.ok()) {
        out.why = verdict.brief().empty() ? "recovery check failed"
                                          : verdict.brief();
    }
    out.imageHash = imageHash(rt.pool());
    out.linesTorn = rt.pool().stats().linesTorn;
    out.linesPoisoned = rt.pool().stats().linesPoisoned;
    out.transientFaults = rt.pool().stats().transientFaults;

    std::uint64_t h = fold(hashName(c.app), c.caseId);
    h = fold(h, crash_at);
    h = fold(h, out.fired ? 1 : 0);
    h = fold(h, out.opIndex);
    h = fold(h, out.survivors.size());
    for (const LineAddr line : out.survivors)
        h = fold(h, line);
    h = fold(h, rt.pool().stats().linesSurvivedCrash);
    h = fold(h, rt.pool().dirtyLineCount());
    h = fold(h, verdict.ok() ? 1 : 0);
    h = fold(h, hashName(out.why));
    h = fold(h, out.imageHash);
    if (!c.fault.none()) {
        // Fold the plan and its resolution: a replay that tears or
        // poisons different lines is a different case.
        h = fold(h, c.fault.seed);
        h = fold(h, c.fault.poisonCount);
        h = fold(h, static_cast<std::uint64_t>(
                        c.fault.tearProb * 256.0));
        h = fold(h, c.fault.transientEvery);
        h = fold(h, faults.torn.size());
        for (const pm::TornLine &t : faults.torn) {
            h = fold(h, t.line);
            h = fold(h, t.mask);
        }
        h = fold(h, faults.poisoned.size());
        for (const LineAddr line : faults.poisoned)
            h = fold(h, line);
        h = fold(h, out.transientFaults);
        h = fold(h, out.degraded ? 1 : 0);
    }
    if (config.lincheck) {
        // Folded only in lincheck mode so plain sweeps stay
        // bit-identical with pre-lincheck builds. Verdicts only, no
        // timestamps: CheckResult::digest() is schedule-determined.
        h = fold(h, out.lincheckOk ? 1 : 0);
        h = fold(h, out.lincheckBudget ? 1 : 0);
        h = fold(h, out.lincheckKeys);
        h = fold(h, lc.digest());
    }
    out.digest = h;
    if (std::getenv("WHISPER_FUZZ_DEBUG")) {
        std::fprintf(stderr,
                     "case %llu at=%llu op=%llu surv=%zu dirty=%llu "
                     "img=%016llx torn=%zu pois=%zu trans=%llu "
                     "digest=%016llx\n",
                     (unsigned long long)c.caseId,
                     (unsigned long long)crash_at,
                     (unsigned long long)out.opIndex,
                     out.survivors.size(),
                     (unsigned long long)rt.pool().dirtyLineCount(),
                     (unsigned long long)out.imageHash,
                     faults.torn.size(), faults.poisoned.size(),
                     (unsigned long long)out.transientFaults,
                     (unsigned long long)out.digest);
    }
    out.report = std::move(verdict);
    return out;
}

std::string
replayCommand(const FuzzCase &c,
              const std::vector<LineAddr> &survivors,
              const FuzzConfig &config)
{
    std::string cmd = "whisper_cli crashfuzz --replay " + c.app + ":" +
                      std::to_string(c.caseId);
    cmd += " --at " + std::to_string(c.crashAt);
    if (survivors.empty()) {
        cmd += " --survivors none";
    } else {
        cmd += " --survivors ";
        for (std::size_t i = 0; i < survivors.size(); i++) {
            if (i)
                cmd += ",";
            cmd += std::to_string(survivors[i]);
        }
    }
    char tail[160];
    std::snprintf(tail, sizeof(tail),
                  " --ops %" PRIu64 " --seed 0x%" PRIx64
                  " --pool-mb %zu",
                  config.opsPerThread, config.sweepSeed,
                  config.poolBytes >> 20);
    cmd += tail;
    if (c.crash.threads > 1) {
        std::snprintf(tail, sizeof(tail),
                      " --threads %u --schedule 0x%" PRIx64,
                      c.crash.threads, c.crash.schedule);
        cmd += tail;
    }
    if (!c.fault.none()) {
        std::snprintf(tail, sizeof(tail),
                      " --fault-plan 0x%" PRIx64 ":%u:%u:%u",
                      c.fault.seed, c.fault.poisonCount,
                      static_cast<unsigned>(c.fault.tearProb * 100.0 +
                                            0.5),
                      c.fault.transientEvery);
        cmd += tail;
    }
    if (config.elide)
        cmd += " --elide";
    if (config.lincheck)
        cmd += " --lincheck";
    return cmd;
}

Reproducer
shrink(const FuzzCase &c, const CaseOutcome &outcome,
       const FuzzConfig &config)
{
    panic_if(outcome.ok, "shrink() needs a failing case");

    // Phase 1: latest failing crash point inside a bounded window
    // after the found one — the closest power cut to the bug.
    constexpr std::uint64_t kProbeWindow = 24;
    FuzzCase best = c;
    for (std::uint64_t k = c.crashAt + kProbeWindow; k > c.crashAt;
         k--) {
        if (!runCase(c, config, nullptr, k).ok) {
            best.crashAt = k;
            break;
        }
    }
    CaseOutcome best_out =
        best.crashAt == c.crashAt ? outcome
                                  : runCase(best, config);
    if (best_out.ok) { // window probe not reproducible; keep original
        best.crashAt = c.crashAt;
        best_out = outcome;
    }

    // Phase 2: ddmin-lite over the surviving lines. Removing a chunk
    // keeps the failure => the chunk was irrelevant; granularity
    // doubles when no chunk can be removed.
    std::vector<LineAddr> s = best_out.survivors;
    std::string why = best_out.why;
    unsigned trials = 0;
    constexpr unsigned kTrialBudget = 48;
    std::size_t chunks = 2;
    while (s.size() >= 2 && chunks <= s.size() &&
           trials < kTrialBudget) {
        bool removed = false;
        const std::size_t chunk_len =
            (s.size() + chunks - 1) / chunks;
        for (std::size_t i = 0;
             i < chunks && trials < kTrialBudget; i++) {
            const std::size_t lo =
                std::min(i * chunk_len, s.size());
            const std::size_t hi =
                std::min(lo + chunk_len, s.size());
            if (lo == hi)
                continue;
            std::vector<LineAddr> candidate;
            candidate.reserve(s.size() - (hi - lo));
            candidate.insert(candidate.end(), s.begin(),
                             s.begin() + lo);
            candidate.insert(candidate.end(), s.begin() + hi,
                             s.end());
            trials++;
            const CaseOutcome probe =
                runCase(best, config, &candidate);
            if (!probe.ok) {
                s = candidate;
                why = probe.why;
                chunks = std::max<std::size_t>(2, chunks - 1);
                removed = true;
                break;
            }
        }
        if (!removed) {
            if (chunks >= s.size())
                break;
            chunks = std::min(s.size(), chunks * 2);
        }
    }
    // The empty set is the global minimum — take it when it fails.
    if (!s.empty() && trials < kTrialBudget + 8) {
        const std::vector<LineAddr> none;
        const CaseOutcome probe = runCase(best, config, &none);
        if (!probe.ok) {
            s = none;
            why = probe.why;
        }
    }

    Reproducer r;
    r.c = best;
    r.survivors = s;
    r.why = why;
    r.command = replayCommand(best, s, config);
    return r;
}

std::vector<AppSweepReport>
sweep(const SweepOptions &options)
{
    std::vector<std::string> apps = options.apps;
    if (apps.empty())
        apps = core::registeredApps();

    ThreadPool pool(options.jobs);
    std::vector<AppSweepReport> reports;
    reports.reserve(apps.size());

    for (const std::string &app : apps) {
        AppSweepReport report;
        report.app = app;
        report.totalPmOps = profilePmOps(app, options.config);

        const std::vector<CaseOutcome> outcomes = pool.map(
            options.cases, [&](std::size_t i) {
                const FuzzCase c =
                    deriveCase(app, i, report.totalPmOps,
                               options.config);
                return runCase(c, options.config);
            });

        std::uint64_t digest = 0x77157e5ull;
        for (std::uint64_t i = 0; i < outcomes.size(); i++) {
            const CaseOutcome &out = outcomes[i];
            report.casesRun++;
            report.casesFired += out.fired ? 1 : 0;
            report.casesDegraded += out.degraded ? 1 : 0;
            if (out.lincheckRan) {
                report.lincheckBudget += out.lincheckBudget ? 1 : 0;
                // Count only unexcused misses: a witness lost to
                // scrub-named media loss rides the degrade convention.
                report.lincheckViolations +=
                    (!out.lincheckOk && !out.ok) ? 1 : 0;
            }
            digest = fold(digest, out.digest);
            if (options.keepReports)
                report.caseReports.push_back(out.report);
            if (out.ok)
                continue;
            report.violations++;
            if (options.shrinkViolations &&
                report.reproducers.size() <
                    options.maxReproducers) {
                const FuzzCase c = deriveCase(
                    app, i, report.totalPmOps, options.config);
                report.reproducers.push_back(
                    shrink(c, out, options.config));
            }
        }
        report.digest = digest;
        reports.push_back(std::move(report));
    }
    return reports;
}

} // namespace whisper::fuzz
