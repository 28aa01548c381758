/**
 * @file
 * WHISPER application interface and registry.
 *
 * Every registered application (the paper suite plus the post-paper
 * MOD and Halo layers; `whisper_cli list`) implements WhisperApp. The
 * harness (harness.hh) drives the common life cycle:
 *
 *   setup(runtime)            — format pool structures, load data
 *   [traces cleared]          — analysis covers steady state only
 *   run(ctx, tid) x threads   — the measured workload
 *   verify(runtime)           — application-level invariants
 *
 * and, for crash testing (src/fuzz/):
 *
 *   crash -> scrubRecovered -> recover -> checkRecoveryInvariants
 *         -> verifyRecovered (default: verify)
 *
 * The generated-workload driver (src/workload/) instead calls
 * workloadSetup(), the per-op workloadGet/Put/Rmw/Scan entry points
 * and workloadCheck() (default: verify + checkRecoveryInvariants).
 * The paper apps keep one vector of persistent-structure instances
 * for both paths: setup() formats one over the whole pool for run()'s
 * shared threads, workloadSetup() formats one private instance per
 * workload thread over disjoint pool slices (see WorkloadKeymap), and
 * every check walks whichever instances exist. The PMFS apps share
 * the volume frame of apps/pmfs_app.hh; the MOD and Halo apps keep
 * one thread-partitioned structure for both paths and share the
 * per-key workload frame of apps/partitioned_app.hh.
 */

#ifndef WHISPER_CORE_APP_HH
#define WHISPER_CORE_APP_HH

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hh"
#include "core/verify_report.hh"

namespace whisper::core
{

/** Knobs common to every application. */
struct AppConfig
{
    unsigned threads = 4;          //!< worker/client threads
    std::uint64_t opsPerThread = 10000;
    std::uint64_t seed = 42;
    std::size_t poolBytes = 256 << 20;
    bool recordVolatile = false;

    /**
     * Scale every op count by @p f (benches use small smoke runs).
     * Threads scale down with @p f too (never up) and are clamped to
     * the hardware concurrency, so smoke sweeps on small CI machines
     * never oversubscribe the cores they have.
     */
    AppConfig
    scaled(double f) const
    {
        AppConfig c = *this;
        c.opsPerThread =
            std::max<std::uint64_t>(1,
                static_cast<std::uint64_t>(
                    static_cast<double>(opsPerThread) * f));
        const double tf = std::min(f, 1.0);
        unsigned t = static_cast<unsigned>(
            static_cast<double>(threads) * tf + 0.5);
        const unsigned hw = std::thread::hardware_concurrency();
        if (hw > 0)
            t = std::min(t, hw);
        c.threads = std::max(1u, t);
        return c;
    }
};

/**
 * Paper access-layer taxonomy (Table 1 "Access Layer" column), plus
 * the post-paper layers the suite grows to quantify the paper's
 * Consequence 3/8 fixes: MOD (minimally ordered durable
 * datastructures) and Hybrid (DRAM index over PM data segments,
 * recovery by scan — src/halo/).
 */
enum class AccessLayer
{
    Native,
    LibNvml,
    LibMnemosyne,
    Filesystem,
    LibMod,
    Hybrid,
};

const char *accessLayerName(AccessLayer layer);

/**
 * Key-space partition convention shared by the workload driver
 * (src/workload/) and the per-app workload adapters.
 *
 * Determinism contract: at a fixed seed and thread count, a workload
 * run must produce bit-identical latency digests regardless of how
 * the OS interleaves the threads. Shared structures cannot give that
 * (chain lengths and allocator state would depend on insert order),
 * so the driver partitions the key space and every adapter backs each
 * thread's slice with *private* structure instances over disjoint
 * pool regions. This mirrors YCSB's one-client-per-thread model: a
 * thread only ever touches keys it owns.
 *
 *  - loaded keys:   thread t owns [lo(t), lo(t) + perThread())
 *  - inserted keys: the j-th key thread t inserts during the run is
 *    insertKey(t, j), disjoint from every loaded key and from every
 *    other thread's inserts.
 *
 * localIndex() folds any owned key (loaded or inserted) back to a
 * dense per-thread index in [0, perThread() + insertsPerThread), which
 * adapters use to address fixed-size per-thread slots.
 */
struct WorkloadKeymap
{
    std::uint64_t keys = 0;        //!< loaded keys, total
    unsigned threads = 1;          //!< worker threads (= partitions)
    std::uint64_t insertsPerThread = 0; //!< upper bound on run inserts

    std::uint64_t perThread() const { return keys / threads; }
    std::uint64_t lo(ThreadId tid) const
    {
        return static_cast<std::uint64_t>(tid) * perThread();
    }
    /** Globally unique id of thread @p tid's @p j-th inserted key. */
    std::uint64_t insertKey(ThreadId tid, std::uint64_t j) const
    {
        return keys + static_cast<std::uint64_t>(tid) *
                          insertsPerThread + j;
    }
    /** Dense per-thread slot index of an owned key. */
    std::uint64_t localIndex(ThreadId tid, std::uint64_t key) const
    {
        if (key < keys)
            return key - lo(tid);
        return perThread() +
               (key - keys -
                static_cast<std::uint64_t>(tid) * insertsPerThread);
    }
    /** Max slots any one thread can ever address. */
    std::uint64_t slotsPerThread() const
    {
        return perThread() + insertsPerThread;
    }
    /**
     * The @p j-th key of a scan starting at @p start_key: consecutive
     * key ids wrapping inside the thread's *loaded* slice (inserted
     * keys fold back onto it), so every adapter iterates ranges the
     * same way and scans never leave the partition.
     */
    std::uint64_t scanKey(ThreadId tid, std::uint64_t start_key,
                          std::uint64_t j) const
    {
        return lo(tid) +
               (localIndex(tid, start_key) + j) % perThread();
    }
};

/**
 * One WHISPER application.
 */
class WhisperApp
{
  public:
    explicit WhisperApp(AppConfig config) : config_(config) {}
    virtual ~WhisperApp() = default;

    virtual std::string name() const = 0;
    virtual AccessLayer layer() const = 0;

    /** Format persistent structures and load initial data. */
    virtual void setup(Runtime &rt) = 0;

    /** Per-thread measured workload body. */
    virtual void run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) = 0;

    /** Invariants after a clean run. */
    virtual VerifyReport verify(Runtime &rt) = 0;

    /** Re-mount and recover after a crash. */
    virtual void recover(Runtime &rt) = 0;

    /**
     * Media-fault scrub, run after a crash and BEFORE recover(): every
     * poisoned line is first zero-filled and un-poisoned at the device
     * (so no later read can take a PmMediaError), then the layer's
     * scrubLayer() hook repairs what its redundancy allows — rewrite a
     * CRC-protected root from attach parameters, drop a torn log tail,
     * truncate a chain at the first corrupt node — and degrades the
     * rest. Lines no layer claims are reported as "pm-line-lost"
     * (content irrecoverably gone, loss named). Returns the scrub
     * report; Degraded entries license matching verifyRecovered()
     * losses, Violations mean the scrub itself found corruption it
     * cannot even name.
     */
    VerifyReport
    scrubRecovered(Runtime &rt)
    {
        VerifyReport rep = report();
        std::vector<LineAddr> lines = rt.pool().poisonedLines();
        for (const LineAddr line : lines)
            rt.pool().scrubLine(line);
        if (!lines.empty())
            scrubLayer(rt, lines, rep);
        if (!lines.empty()) {
            rep.degrade("pm-line-lost",
                        std::to_string(lines.size()) +
                            " poisoned line(s) outside any scrubbed "
                            "structure; content lost",
                        lines);
        }
        return rep;
    }

    /**
     * Invariants that must hold after crash + recover: structural
     * consistency, no torn committed data. (Uncommitted work may be
     * absent — that is the contract.) Default: verify(), for apps
     * whose clean-run invariants already tolerate lost uncommitted
     * work.
     */
    virtual VerifyReport verifyRecovered(Runtime &rt) { return verify(rt); }

    /**
     * Access-layer recovery invariants, checked by the crash fuzzer
     * after recover() in addition to verifyRecovered(): redo logs
     * fully replayed and retired (Mnemosyne), undo logs rolled back
     * and descriptors NONE (NVML), journal FREE and fsck-clean (PMFS),
     * descriptor/status protocols settled (native), garbage lanes
     * quiescent and reachable nodes allocated (MOD). Default: no
     * layer-specific state to check.
     */
    virtual VerifyReport
    checkRecoveryInvariants(Runtime &rt)
    {
        (void)rt;
        return report();
    }

    /** @{ \name Generated-workload surface (src/workload/ driver)
     *
     * Per-op get/put/rmw/scan entry points so the YCSB-style driver
     * can run generated key-value mixes against the app. The driver
     * calls workloadSetup() once (single-threaded) with the key
     * partition plan; the app builds *per-thread* instances of its
     * structure over disjoint pool regions and preloads each thread's
     * slice (see WorkloadKeymap for why sharing would break
     * determinism). The per-op calls then run concurrently, thread
     * @p tid only ever receiving keys it owns. workloadThreadDone()
     * is the per-thread epilogue (e.g. MOD's threadExit);
     * workloadCheck() validates structural invariants after the run.
     * Every suite app implements the surface; the base bodies fatal()
     * for apps that do not (the fuzzer's `faulty` demo).
     */

    /** Build per-thread structures and preload every partition. */
    virtual void workloadSetup(Runtime &rt, const WorkloadKeymap &map);

    /** Point lookup; returns whether @p key was found. */
    virtual bool workloadGet(pm::PmContext &ctx, ThreadId tid,
                             std::uint64_t key);

    /** Insert-or-update @p key := @p value (durably). */
    virtual void workloadPut(pm::PmContext &ctx, ThreadId tid,
                             std::uint64_t key, std::uint64_t value);

    /** Read-modify-write: value += @p delta. Returns found. */
    virtual bool workloadRmw(pm::PmContext &ctx, ThreadId tid,
                             std::uint64_t key, std::uint64_t delta);

    /**
     * Range scan of up to @p len consecutive key ids starting at
     * @p key (wrapping inside the thread's partition); returns the
     * number of keys found. Hash-layer apps emulate it as YCSB does
     * on non-ordered stores: @p len point lookups.
     */
    virtual std::uint64_t workloadScan(pm::PmContext &ctx, ThreadId tid,
                                       std::uint64_t key,
                                       std::uint64_t len);

    /** Per-thread epilogue after its last generated op. */
    virtual void
    workloadThreadDone(pm::PmContext &ctx, ThreadId tid)
    {
        (void)ctx;
        (void)tid;
    }

    /**
     * Structural invariants after a generated-workload run. Default:
     * verify() plus checkRecoveryInvariants() — after a clean run
     * every log is retired just as after recovery.
     */
    virtual VerifyReport
    workloadCheck(Runtime &rt)
    {
        VerifyReport rep = verify(rt);
        rep.merge(checkRecoveryInvariants(rt));
        return rep;
    }

    /** @} */
    /** @{ \name Durable-linearizability surface (src/lincheck/)
     *
     * Apps that additionally opt in (supportsLincheck()) give the
     * history checker two things the generated-workload surface does
     * not: a pure state probe (value read with no padding work, no
     * durability cadence — usable before the run and after recovery)
     * and, where the structure has deletion, a tombstone op. The
     * crash fuzzer's lincheck dimension and the workload driver's
     * recording mode only accept apps with this surface.
     */

    /** Whether this app supports history recording + checking. */
    virtual bool supportsLincheck() const { return false; }

    /**
     * Pure point read of @p key into @p value (untouched when
     * absent); returns found. Must issue no gated PM ops.
     */
    virtual bool workloadProbe(pm::PmContext &ctx, ThreadId tid,
                               std::uint64_t key, std::uint64_t &value);

    /** Whether workloadRemove() is implemented. */
    virtual bool workloadHasRemove() const { return false; }

    /** Durable delete of @p key; returns whether it was present. */
    virtual bool workloadRemove(pm::PmContext &ctx, ThreadId tid,
                                std::uint64_t key);

    /** @} */

    const AppConfig &config() const { return config_; }

  protected:
    /**
     * Layer hook under scrubRecovered(): repair or degrade the
     * poisoned @p lines (already zero-filled and readable) and erase
     * every line handled from @p lines. Default: claim nothing.
     */
    virtual void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &report)
    {
        (void)rt;
        (void)lines;
        (void)report;
    }

    /** Empty report pre-stamped with this app's name and layer. */
    VerifyReport
    report() const
    {
        return VerifyReport(name(), accessLayerName(layer()));
    }

    AppConfig config_;
};

/** Factory signature for the registry. */
using AppFactory =
    std::function<std::unique_ptr<WhisperApp>(const AppConfig &)>;

/** Register an application under @p name (called once per app). */
void registerApp(const std::string &name, AppFactory factory);

/** Instantiate a registered application; fatal() on unknown name. */
std::unique_ptr<WhisperApp> createApp(const std::string &name,
                                      const AppConfig &config);

/** All registered names, sorted. */
std::vector<std::string> registeredApps();

/** Force-register the suite applications (idempotent). */
void registerSuiteApps();

} // namespace whisper::core

#endif // WHISPER_CORE_APP_HH
