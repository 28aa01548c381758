/**
 * @file
 * The frame the partitioned concurrent-layer apps share: mod-hashmap
 * and mod-vector (src/mod) and halo-hashmap (src/halo).
 *
 * Thread @p tid owns every key it is handed and is the only writer of
 * that key's structure partition, so byte counts and recovery images
 * are independent of thread interleaving. PartitionedApp serves the
 * generated-workload surface from three per-key primitives (get, put,
 * remove): each driver op is run()'s DRAM padding, the primitive, and
 * a durability point every kDurabilityInterval ops. An app supplies
 * its run() loop, its preload (default: one put per loaded key), the
 * primitives and its own checks. ModApp adds the MOD heap lifecycle:
 * table at pool offset 0, heap over the rest, mark-and-sweep recovery
 * and the heap's recovery invariants.
 */

#ifndef WHISPER_APPS_PARTITIONED_APP_HH
#define WHISPER_APPS_PARTITIONED_APP_HH

#include <memory>
#include <vector>

#include "common/logging.hh"
#include "core/app.hh"
#include "mod/mod_heap.hh"

namespace whisper::apps
{

/** Ops between durability points (one batched fence each). */
inline constexpr std::uint64_t kDurabilityInterval = 16;

/** WhisperApp over a structure partitioned by owning thread. */
class PartitionedApp : public core::WhisperApp
{
  public:
    using WhisperApp::WhisperApp;

    /** Build the structure for @p map, then preload every partition. */
    void
    workloadSetup(core::Runtime &rt,
                  const core::WorkloadKeymap &map) override
    {
        keymap_ = map;
        formatWorkload(rt, map);
        scratch_.assign(config_.threads,
                        std::vector<std::uint64_t>(2048));
        wlOps_.assign(config_.threads, 0);
        for (ThreadId t = 0; t < map.threads; t++)
            preload(rt.ctx(t), t);
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, tid);
        std::uint64_t value = 0;
        const bool found = get(ctx, tid, key, value);
        opDone(ctx, tid);
        return found;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, tid);
        put(ctx, tid, key, value);
        opDone(ctx, tid);
    }

    /** value += @p delta (from 0 when absent); returns found. */
    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, tid);
        std::uint64_t value = 0;
        const bool found = get(ctx, tid, key, value);
        put(ctx, tid, key, value + delta);
        opDone(ctx, tid);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, tid);
        std::uint64_t found = 0;
        std::uint64_t value = 0;
        for (std::uint64_t j = 0; j < len; j++)
            found += get(ctx, tid, keymap_.scanKey(tid, key, j), value);
        opDone(ctx, tid);
        return found;
    }

    void
    workloadThreadDone(pm::PmContext &ctx, ThreadId tid) override
    {
        threadExit(ctx, tid);
    }

    core::VerifyReport
    workloadCheck(core::Runtime &rt) override
    {
        return verify(rt);
    }

    bool supportsLincheck() const override { return true; }

    bool
    workloadProbe(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                  std::uint64_t &value) override
    {
        return get(ctx, tid, key, value);
    }

    bool
    workloadRemove(pm::PmContext &ctx, ThreadId tid,
                   std::uint64_t key) override
    {
        pad(ctx, tid);
        const bool found = remove(ctx, tid, key);
        opDone(ctx, tid);
        return found;
    }

  protected:
    /** The structure key of thread @p tid's workload key @p key. */
    static std::uint64_t
    partitionKey(ThreadId tid, std::uint64_t key)
    {
        return (static_cast<std::uint64_t>(tid) << 48) | key;
    }

    /** Size and format the structure for workload @p map. */
    virtual void formatWorkload(core::Runtime &rt,
                                const core::WorkloadKeymap &map) = 0;

    /**
     * Load thread @p tid's keys. Default: put key k := k * golden
     * ratio for each, with run()'s durability cadence and a final
     * durability point.
     */
    virtual void
    preload(pm::PmContext &ctx, ThreadId tid)
    {
        for (std::uint64_t i = 0; i < keymap_.perThread(); i++) {
            const std::uint64_t key = keymap_.lo(tid) + i;
            put(ctx, tid, key, key * 0x9e3779b97f4a7c15ull);
            if ((i + 1) % kDurabilityInterval == 0)
                durabilityPoint(ctx, tid);
        }
        durabilityPoint(ctx, tid);
    }

    /**
     * Read @p key into @p value (untouched when absent); returns
     * found. Issues no padding and no durability point.
     */
    virtual bool get(pm::PmContext &ctx, ThreadId tid,
                     std::uint64_t key, std::uint64_t &value) = 0;

    /** Insert-or-update @p key := @p value. */
    virtual void put(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                     std::uint64_t value) = 0;

    /**
     * Delete @p key; returns whether it was present. Only apps whose
     * workloadHasRemove() is true override it.
     */
    virtual bool
    remove(pm::PmContext &ctx, ThreadId tid, std::uint64_t key)
    {
        return WhisperApp::workloadRemove(ctx, tid, key);
    }

    /** Make thread @p tid's writes so far durable. */
    virtual void durabilityPoint(pm::PmContext &ctx, ThreadId tid) = 0;

    /** Thread @p tid's epilogue after its last op. */
    virtual void threadExit(pm::PmContext &ctx, ThreadId tid) = 0;

    core::WorkloadKeymap keymap_;

  private:
    /** run()'s per-op DRAM padding (paper Fig. 6 proportions). */
    void
    pad(pm::PmContext &ctx, ThreadId tid)
    {
        ctx.vBurst(scratch_[tid].data(), 1 << 14, 560, 240);
        ctx.compute(6500);
    }

    void
    opDone(pm::PmContext &ctx, ThreadId tid)
    {
        if (++wlOps_[tid] % kDurabilityInterval == 0)
            durabilityPoint(ctx, tid);
    }

    std::vector<std::vector<std::uint64_t>> scratch_;
    std::vector<std::uint64_t> wlOps_;
};

/**
 * PartitionedApp over a MOD heap and one MOD structure (ModHashmap or
 * ModVector) whose table sits at pool offset 0; the heap fills the
 * rest of the pool.
 */
template <class Structure>
class ModApp : public PartitionedApp
{
  public:
    using PartitionedApp::PartitionedApp;

    core::AccessLayer
    layer() const override
    {
        return core::AccessLayer::LibMod;
    }

    void
    setup(core::Runtime &rt) override
    {
        format(rt.ctx(0));
    }

    core::VerifyReport
    verify(core::Runtime &rt) override
    {
        core::VerifyReport rep = report();
        rep.check(heap_->magicIntact(rt.ctx(0)), "heap-magic",
                  "mod heap magic lost");
        rep.merge(verifyRecovered(rt));
        return rep;
    }

    void
    recover(core::Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        heap_ = std::make_unique<mod::ModHeap>(
            heapBase_, config_.poolBytes - heapBase_, config_.threads);
        s_ = open(nullptr);
        // Mark from the table, then sweep: allocator occupancy becomes
        // exactly the reachable node set and the garbage lanes are
        // cleared (nothing on them can be reachable).
        std::vector<Addr> live;
        s_->reachable(ctx, live);
        heap_->recover(ctx, live);
    }

    core::VerifyReport
    verifyRecovered(core::Runtime &rt) override
    {
        core::VerifyReport rep = report();
        std::string why;
        rep.check(s_->check(rt.ctx(0), &why), "structure-intact", why);
        return rep;
    }

    core::VerifyReport
    checkRecoveryInvariants(core::Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        core::VerifyReport rep = report();
        rep.check(heap_->magicIntact(ctx), "heap-magic",
                  "mod heap magic lost");
        std::string why;
        rep.check(heap_->gcQuiescent(ctx, &why), "gc-quiescent", why);
        // The MOD commit contract: every root names a fully-persisted,
        // still-allocated node — GC must never have reclaimed anything
        // a durable root can reach.
        std::vector<Addr> live;
        s_->reachable(ctx, live);
        for (const Addr node : live) {
            if (!rep.check(heap_->isLiveNode(node), "roots-allocated",
                           "reachable mod node not allocated"))
                break;
        }
        return rep;
    }

  protected:
    /** The table lives at pool offset 0. */
    static constexpr Addr kTableOff = 0;

    void
    scrubLayer(core::Runtime &rt, std::vector<LineAddr> &lines,
               core::VerifyReport &rep) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        // Structure first (table repair and chain truncation need to
        // see which node lines were hit), then the heap claims the
        // remaining arena/lane lines.
        s_->scrub(ctx, lines, rep);
        heap_->scrub(ctx, lines);
    }

    void
    durabilityPoint(pm::PmContext &ctx, ThreadId tid) override
    {
        heap_->durabilityPoint(ctx, tid);
    }

    void
    threadExit(pm::PmContext &ctx, ThreadId tid) override
    {
        heap_->threadExit(ctx, tid);
    }

    /** Size the table for @p entries buckets or slots. */
    void
    sizeTable(std::uint64_t entries)
    {
        entries_ = entries;
        heapBase_ = lineBase(Structure::tableBytes(entries) +
                             2 * kCacheLineSize);
        panic_if(heapBase_ >= config_.poolBytes,
                 "%s: pool too small for its table", name().c_str());
    }

    /** Format the heap and the structure over the sized table. */
    void
    format(pm::PmContext &ctx)
    {
        heap_ = std::make_unique<mod::ModHeap>(
            ctx, heapBase_, config_.poolBytes - heapBase_,
            config_.threads);
        s_ = open(&ctx);
    }

    /**
     * The structure over heap_ at kTableOff with entries_ entries:
     * formatted through @p ctx, or attached after a crash (no writes)
     * when @p ctx is null.
     */
    virtual std::unique_ptr<Structure> open(pm::PmContext *ctx) = 0;

    std::unique_ptr<mod::ModHeap> heap_;
    std::unique_ptr<Structure> s_;
    std::uint64_t entries_ = 0;

  private:
    Addr heapBase_ = 0;
};

} // namespace whisper::apps

#endif // WHISPER_APPS_PARTITIONED_APP_HH
