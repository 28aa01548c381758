/**
 * @file
 * The two MOD applications: mod-hashmap and mod-vector.
 *
 * Both run the suite's standard micro-benchmark shape (a DRAM-heavy
 * op loop in the paper's Figure 6 proportions) against the MOD access
 * layer (src/mod): every update shadow-copies the affected nodes,
 * orders them with a single ofence, and commits with an 8-byte root
 * swap; a dfence is issued only at durability points, every
 * kDurabilityInterval operations. The heap lifecycle and the workload
 * surface come from ModApp (partitioned_app.hh). They are the counterpart of
 * `hashmap` (NVML undo logging) and the array workloads of the
 * log-based layers, built so the analyses can put MOD's epochs/tx and
 * write amplification next to Mnemosyne's and NVML's on like-for-like
 * workloads.
 *
 * Thread discipline: the key space (top 16 bits = tid) and the vector
 * spine (a contiguous slot region per tid) are partitioned so each
 * thread only ever supersedes its own nodes — the per-thread garbage
 * lanes then reclaim strictly behind the owning thread's dfence, and
 * per-thread byte counts are independent of interleaving.
 */

#include <algorithm>

#include "apps/apps.hh"
#include "apps/partitioned_app.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "mod/mod_hashmap.hh"
#include "mod/mod_vector.hh"

namespace whisper::apps
{

using namespace core;

namespace
{

/** Chain buckets per thread partition (load factor well under 1). */
constexpr std::uint64_t kBucketsPerPartition = 16384;

/** Vector spine slots per thread region. */
constexpr std::uint64_t kSlotsPerThread = 256;

class ModHashmapApp : public ModApp<mod::ModHashmap>
{
  public:
    explicit ModHashmapApp(const AppConfig &config) : ModApp(config)
    {
        sizeTable(kBucketsPerPartition * config_.threads);
    }

    std::string name() const override { return "mod-hashmap"; }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Rng rng(config_.seed * 353 + tid);
        // Small enough that keys repeat: a healthy share of the puts
        // are updates, i.e. real shadow path copies.
        const std::uint64_t keyspace = config_.opsPerThread + 64;
        std::vector<std::uint64_t> inserted;
        inserted.reserve(config_.opsPerThread);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            // Paper Fig. 6 proportions: the op is mostly DRAM work.
            ctx.vBurst(inserted.data(), 1 << 14, 560, 240);
            ctx.compute(6500);

            if (!inserted.empty() && rng.chance(0.1)) {
                const std::size_t idx = rng.next(inserted.size());
                s_->remove(ctx, tid, inserted[idx]);
                inserted[idx] = inserted.back();
                inserted.pop_back();
                ctx.vStore(inserted.data() + idx, 8);
            } else {
                const std::uint64_t key =
                    partitionKey(tid, rng.next(keyspace));
                std::uint64_t vals[mod::ModHashmap::kValWords] = {
                    rng(), rng(), rng()};
                bool was_insert = false;
                if (s_->put(ctx, tid, key, vals, was_insert) &&
                    was_insert) {
                    inserted.push_back(key);
                    ctx.vStore(&inserted.back(), 8);
                }
            }
            if ((op + 1) % kDurabilityInterval == 0)
                durabilityPoint(ctx, tid);
        }
        threadExit(ctx, tid);
    }

    bool workloadHasRemove() const override { return true; }

  protected:
    std::unique_ptr<mod::ModHashmap>
    open(pm::PmContext *ctx) override
    {
        if (!ctx)
            return std::make_unique<mod::ModHashmap>(
                *heap_, kTableOff, entries_, config_.threads);
        return std::make_unique<mod::ModHashmap>(
            *ctx, *heap_, kTableOff, entries_, config_.threads);
    }

    /**
     * One chain bucket per potential key keeps lookups O(1) even at
     * millions of keys (partition size must be a power of 2).
     */
    void
    formatWorkload(Runtime &rt, const WorkloadKeymap &map) override
    {
        std::uint64_t per = kBucketsPerPartition;
        while (per < map.slotsPerThread())
            per <<= 1;
        sizeTable(per * config_.threads);
        format(rt.ctx(0));
    }

    /** Entries are {value, key, tid}. */
    bool
    get(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
        std::uint64_t &value) override
    {
        std::uint64_t vals[mod::ModHashmap::kValWords];
        if (!s_->lookup(ctx, partitionKey(tid, key), vals))
            return false;
        value = vals[0];
        return true;
    }

    void
    put(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
        std::uint64_t value) override
    {
        const std::uint64_t vals[mod::ModHashmap::kValWords] = {
            value, key, tid};
        bool inserted = false;
        panic_if(!s_->put(ctx, tid, partitionKey(tid, key), vals,
                          inserted),
                 "mod-hashmap: heap exhausted");
    }

    bool
    remove(pm::PmContext &ctx, ThreadId tid, std::uint64_t key) override
    {
        return s_->remove(ctx, tid, partitionKey(tid, key));
    }
};

/**
 * The workload sees the vector as a dense KV array: thread @p tid's
 * key with local index l lives in chunk tid*slotsPT + l/kElems at
 * element l%kElems — each thread owns a contiguous spine region
 * exactly as in run(), so shadow copies and garbage lanes stay
 * per-thread. Every key maps to a distinct element (no aliasing). A
 * MOD vector has no deletion; the history workloads fold tombstone
 * traffic into puts for this app.
 */
class ModVectorApp : public ModApp<mod::ModVector>
{
  public:
    explicit ModVectorApp(const AppConfig &config) : ModApp(config)
    {
        sizeTable(kSlotsPerThread * config_.threads);
    }

    std::string name() const override { return "mod-vector"; }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Rng rng(config_.seed * 419 + tid);
        std::vector<std::uint64_t> scratch(2048);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            ctx.vBurst(scratch.data(), 1 << 14, 560, 240);
            ctx.compute(6500);

            // One MOD update in the thread's spine region: five fresh
            // elements at a random offset, the rest carried over by
            // the shadow copy.
            const std::uint64_t slot =
                tid * kSlotsPerThread + rng.next(kSlotsPerThread);
            const std::uint64_t first = rng.next(4);
            std::uint64_t vals[5] = {rng(), rng(), rng(), rng(),
                                     rng()};
            s_->write(ctx, tid, slot, first, vals, 5,
                      mod::ModVector::kElems);
            ctx.vStore(scratch.data() + (slot % scratch.size()), 8);

            if ((op + 1) % kDurabilityInterval == 0)
                durabilityPoint(ctx, tid);
        }
        threadExit(ctx, tid);
    }

  protected:
    std::unique_ptr<mod::ModVector>
    open(pm::PmContext *ctx) override
    {
        if (!ctx)
            return std::make_unique<mod::ModVector>(*heap_, kTableOff,
                                                    entries_);
        return std::make_unique<mod::ModVector>(*ctx, *heap_,
                                                kTableOff, entries_);
    }

    void
    formatWorkload(Runtime &rt, const WorkloadKeymap &map) override
    {
        slotsPT_ = (map.slotsPerThread() + mod::ModVector::kElems - 1) /
                   mod::ModVector::kElems;
        slotsPT_ = std::max<std::uint64_t>(slotsPT_, 1);
        // Round each thread's chunk region up to a whole writer
        // stripe. The stripe mutex is held across gated PM ops, so
        // two threads sharing a stripe deadlock under a SchedGate
        // schedule (owner blocked on the mutex, holder waiting for
        // its turn) — run() keeps the same invariant by making
        // kSlotsPerThread a stripe multiple.
        slotsPT_ = (slotsPT_ + mod::ModVector::kSlotsPerStripe - 1) /
                   mod::ModVector::kSlotsPerStripe *
                   mod::ModVector::kSlotsPerStripe;
        sizeTable(slotsPT_ * config_.threads);
        format(rt.ctx(0));
    }

    /** Whole chunks, one shadow write each. */
    void
    preload(pm::PmContext &ctx, ThreadId tid) override
    {
        std::uint64_t written = 0;
        std::uint64_t chunk = 0;
        while (written < keymap_.perThread()) {
            const std::uint64_t k = std::min<std::uint64_t>(
                mod::ModVector::kElems, keymap_.perThread() - written);
            std::uint64_t vals[mod::ModVector::kElems];
            for (std::uint64_t e = 0; e < k; e++)
                vals[e] = (keymap_.lo(tid) + written + e) *
                          0x9e3779b97f4a7c15ull;
            panic_if(!s_->write(ctx, tid, tid * slotsPT_ + chunk, 0,
                                vals, k, k),
                     "mod-vector: heap exhausted during preload");
            written += k;
            chunk++;
            if (chunk % kDurabilityInterval == 0)
                durabilityPoint(ctx, tid);
        }
        durabilityPoint(ctx, tid);
    }

    bool
    get(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
        std::uint64_t &value) override
    {
        return s_->get(ctx, slotOf(tid, key), idxOf(tid, key), value);
    }

    void
    put(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
        std::uint64_t value) override
    {
        const std::uint64_t slot = slotOf(tid, key);
        const std::uint64_t idx = idxOf(tid, key);
        const std::uint64_t count = std::max<std::uint64_t>(
            s_->chunkCount(ctx, slot), idx + 1);
        panic_if(!s_->write(ctx, tid, slot, idx, &value, 1, count),
                 "mod-vector: heap exhausted");
    }

  private:
    std::uint64_t
    slotOf(ThreadId tid, std::uint64_t key) const
    {
        return tid * slotsPT_ +
               keymap_.localIndex(tid, key) / mod::ModVector::kElems;
    }

    std::uint64_t
    idxOf(ThreadId tid, std::uint64_t key) const
    {
        return keymap_.localIndex(tid, key) % mod::ModVector::kElems;
    }

    std::uint64_t slotsPT_ = 0;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeModHashmapApp(const core::AppConfig &config)
{
    return std::make_unique<ModHashmapApp>(config);
}

std::unique_ptr<core::WhisperApp>
makeModVectorApp(const core::AppConfig &config)
{
    return std::make_unique<ModVectorApp>(config);
}

} // namespace whisper::apps
