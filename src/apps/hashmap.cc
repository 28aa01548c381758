/**
 * @file
 * Hashmap: the NVML persistent-hashmap micro-benchmark.
 *
 * Open-chained hashmap over 64-bit keys as in NVML's hashmap_tx
 * example: a persistent bucket array object plus chained entries,
 * every INSERT running in an undo-logged transaction. Four client
 * threads perform INSERT (and some REMOVE) transactions (Table 1).
 */

#include <mutex>

#include "apps/apps.hh"
#include "common/logging.hh"
#include "txlib/nvml.hh"

namespace whisper::apps
{

using namespace core;
using pm::DataClass;
using pm::FenceKind;

namespace
{

constexpr std::uint64_t kBuckets = 16384;

struct MapEntry
{
    std::uint64_t key;
    std::uint64_t value;
    std::uint64_t checksum; //!< key ^ value ^ kSalt
    Addr next;
    static constexpr std::uint64_t kSalt = 0x4A5471ull;
};

struct MapRoot
{
    std::uint64_t magic;
    std::uint64_t count;
    Addr buckets[kBuckets];

    static constexpr std::uint64_t kMagic = 0x4A5244AAull;
};

std::uint64_t
hashKey(std::uint64_t key)
{
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ull;
    key ^= key >> 33;
    return key;
}

/** Result of HashmapApp::put(). */
enum class PutResult { Updated, Inserted, Full };

class HashmapApp : public WhisperApp
{
  public:
    explicit HashmapApp(const AppConfig &config) : WhisperApp(config) {}

    std::string name() const override { return "hashmap"; }
    AccessLayer layer() const override { return AccessLayer::LibNvml; }

    void
    setup(Runtime &rt) override
    {
        shards_.clear();
        format(rt.ctx(0), 0, config_.poolBytes, config_.threads);
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Shard &sh = shards_[0];
        Rng rng(config_.seed * 271 + tid);
        const std::uint64_t keyspace = config_.opsPerThread * 4 + 64;
        std::vector<std::uint64_t> inserted;
        inserted.reserve(config_.opsPerThread);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            pad(ctx, inserted.data());
            std::lock_guard<std::mutex> guard(runLock_);
            if (!inserted.empty() && rng.chance(0.1)) {
                // REMOVE a previously inserted key.
                const std::size_t idx = rng.next(inserted.size());
                remove(ctx, sh, inserted[idx]);
                inserted[idx] = inserted.back();
                inserted.pop_back();
                ctx.vStore(inserted.data() + idx, 8);
            } else {
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(tid) << 48) |
                    rng.next(keyspace);
                if (put(ctx, sh, key, rng()) == PutResult::Inserted) {
                    inserted.push_back(key);
                    ctx.vStore(&inserted.back(), 8);
                }
            }
        }
    }

    VerifyReport
    verify(Runtime &rt) override
    {
        VerifyReport rep = report();
        for (const Shard &sh : shards_) {
            std::string why;
            rep.check(checkMap(rt.ctx(0), sh, &why), "map-intact", why);
        }
        return rep;
    }

    void
    recover(Runtime &rt) override
    {
        for (Shard &sh : shards_)
            sh.pool->recover(rt.ctx(0));
    }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        VerifyReport rep = report();
        for (const Shard &sh : shards_) {
            std::string why;
            rep.check(sh.pool->logsQuiescent(rt.ctx(0), &why),
                      "logs-quiescent", why);
        }
        return rep;
    }

    /** @{ \name Generated-workload surface
     *
     * One private map per worker thread over a disjoint slice of the
     * device — the YCSB one-client-per-thread model. Partitioning
     * keeps chain walks (and thus latencies) independent of
     * scheduling; the undo-log discipline per op is run()'s.
     */

    void
    workloadSetup(Runtime &rt, const WorkloadKeymap &map) override
    {
        keymap_ = map;
        shards_.clear();
        scratch_.assign(config_.threads,
                        std::vector<std::uint64_t>(2048));
        const std::size_t region =
            lineBase(config_.poolBytes / config_.threads);
        panic_if(region <= sizeof(MapRoot) + (2u << 20),
                 "hashmap: pool too small for per-thread workload "
                 "shards");
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            const Addr base = static_cast<Addr>(t) * region;
            format(ctx, base, base + region, 1);
            const ThreadId tid = static_cast<ThreadId>(t);
            for (std::uint64_t i = 0; i < map.perThread(); i++) {
                const std::uint64_t key = map.lo(tid) + i;
                workloadStore(ctx, tid, key, key * 0x9e3779b97f4a7c15ull);
            }
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, scratch_[tid].data());
        std::uint64_t value = 0;
        return find(ctx, shards_[tid], key, value) != kNullAddr;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, scratch_[tid].data());
        workloadStore(ctx, tid, key, value);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, scratch_[tid].data());
        std::uint64_t value = 0;
        const Addr off = find(ctx, shards_[tid], key, value);
        if (off == kNullAddr) {
            workloadStore(ctx, tid, key, delta);
            return false;
        }
        setValue(ctx, shards_[tid], off, key, value + delta);
        return true;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, scratch_[tid].data());
        std::uint64_t found = 0;
        std::uint64_t value = 0;
        for (std::uint64_t j = 0; j < len; j++)
            if (find(ctx, shards_[tid], keymap_.scanKey(tid, key, j),
                     value) != kNullAddr)
                found++;
        return found;
    }

    /** @} */

  protected:
    void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &rep) override
    {
        for (Shard &sh : shards_)
            sh.pool->scrub(rt.ctx(0), lines, rep);
    }

  private:
    /** One map: its root and the NvmlPool its entries live in. */
    struct Shard
    {
        Addr rootOff = 0;
        std::unique_ptr<nvml::NvmlPool> pool;
    };

    /**
     * Format a map over [@p base, @p end): the root at @p base, then
     * an NvmlPool with @p lanes undo-log lanes.
     */
    void
    format(pm::PmContext &ctx, Addr base, Addr end, unsigned lanes)
    {
        Shard sh;
        sh.rootOff = base;
        const Addr pool_base =
            lineBase(base + sizeof(MapRoot) + kCacheLineSize);
        sh.pool = std::make_unique<nvml::NvmlPool>(
            ctx, pool_base, end - pool_base, lanes);
        MapRoot root{};
        root.magic = MapRoot::kMagic;
        for (auto &b : root.buckets)
            b = kNullAddr;
        ctx.store(base, &root, sizeof(root), DataClass::User);
        ctx.flush(base, sizeof(root));
        ctx.fence(FenceKind::Durability);
        shards_.push_back(std::move(sh));
    }

    /** Client-side DRAM work per op (paper Fig. 6: ~2.6% PM). */
    static void
    pad(pm::PmContext &ctx, const void *base)
    {
        ctx.vBurst(base, 1 << 14, 560, 240);
        ctx.compute(6500);
    }

    /** Chain walk; entry offset (value out) or kNullAddr. */
    Addr
    find(pm::PmContext &ctx, const Shard &sh, std::uint64_t key,
         std::uint64_t &value)
    {
        const MapRoot *r = ctx.pool().at<MapRoot>(sh.rootOff);
        Addr cur = r->buckets[hashKey(key) % kBuckets];
        while (cur != kNullAddr) {
            MapEntry probe{};
            ctx.load(cur, &probe, sizeof(probe));
            if (probe.key == key) {
                value = probe.value;
                return cur;
            }
            cur = probe.next;
        }
        return kNullAddr;
    }

    /** Transactional value overwrite of the entry at @p off. */
    void
    setValue(pm::PmContext &ctx, Shard &sh, Addr off, std::uint64_t key,
             std::uint64_t value)
    {
        nvml::TxContext tx(*sh.pool, ctx);
        MapEntry *e = ctx.pool().at<MapEntry>(off);
        tx.set(e->value, value, DataClass::User);
        const std::uint64_t sum = key ^ value ^ MapEntry::kSalt;
        tx.set(e->checksum, sum, DataClass::User);
        tx.commit();
    }

    /** Insert-or-update @p key in one undo-logged transaction. */
    PutResult
    put(pm::PmContext &ctx, Shard &sh, std::uint64_t key,
        std::uint64_t value)
    {
        MapRoot *r = ctx.pool().at<MapRoot>(sh.rootOff);
        Addr &bucket = r->buckets[hashKey(key) % kBuckets];
        std::uint64_t old = 0;
        const Addr existing = find(ctx, sh, key, old);
        if (existing != kNullAddr) {
            setValue(ctx, sh, existing, key, value);
            return PutResult::Updated;
        }
        nvml::TxContext tx(*sh.pool, ctx);
        const Addr off = tx.txAlloc(sizeof(MapEntry));
        if (off == kNullAddr) {
            tx.abort();
            return PutResult::Full;
        }
        MapEntry e{key, value, key ^ value ^ MapEntry::kSalt, bucket};
        tx.directStore(off, &e, sizeof(e), DataClass::User);
        tx.set(bucket, off, DataClass::User);
        const std::uint64_t n = r->count + 1;
        tx.set(r->count, n, DataClass::User);
        tx.commit();
        return PutResult::Inserted;
    }

    /** put() into @p tid's workload shard, which must not fill. */
    void
    workloadStore(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                  std::uint64_t value)
    {
        panic_if(put(ctx, shards_[tid], key, value) == PutResult::Full,
                 "hashmap: workload shard full");
    }

    void
    remove(pm::PmContext &ctx, Shard &sh, std::uint64_t key)
    {
        MapRoot *r = ctx.pool().at<MapRoot>(sh.rootOff);
        Addr holder =
            sh.rootOff + offsetof(MapRoot, buckets) +
            (hashKey(key) % kBuckets) * sizeof(Addr);
        Addr cur = *ctx.pool().at<Addr>(holder);
        while (cur != kNullAddr) {
            MapEntry probe{};
            ctx.load(cur, &probe, sizeof(probe));
            if (probe.key == key) {
                nvml::TxContext tx(*sh.pool, ctx);
                tx.addRange(holder, 8);
                ctx.store(holder, &probe.next, 8, DataClass::User);
                tx.txFree(cur);
                const std::uint64_t n = r->count - 1;
                tx.set(r->count, n, DataClass::User);
                tx.commit();
                return;
            }
            holder = cur + offsetof(MapEntry, next);
            cur = probe.next;
        }
    }

    bool
    checkMap(pm::PmContext &ctx, const Shard &sh, std::string *why)
    {
        MapRoot *r = ctx.pool().at<MapRoot>(sh.rootOff);
        if (r->magic != MapRoot::kMagic) {
            if (why)
                *why = "bad root magic";
            return false;
        }
        std::uint64_t seen = 0;
        for (std::uint64_t b = 0; b < kBuckets; b++) {
            Addr cur = r->buckets[b];
            std::uint64_t guard = 0;
            while (cur != kNullAddr) {
                if (++guard > 10'000'000) {
                    if (why)
                        *why = "bucket cycle";
                    return false;
                }
                const MapEntry *e = ctx.pool().at<MapEntry>(cur);
                if (e->checksum !=
                    (e->key ^ e->value ^ MapEntry::kSalt)) {
                    if (why)
                        *why = "entry checksum mismatch";
                    return false;
                }
                if (hashKey(e->key) % kBuckets != b) {
                    if (why)
                        *why = "entry in wrong bucket";
                    return false;
                }
                seen++;
                cur = e->next;
            }
        }
        if (seen != r->count) {
            if (why)
                *why = "count does not match reachable entries";
            return false;
        }
        return true;
    }

    std::vector<Shard> shards_;
    std::mutex runLock_; //!< run()'s threads share shards_[0]
    WorkloadKeymap keymap_;
    std::vector<std::vector<std::uint64_t>> scratch_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeHashmapApp(const core::AppConfig &config)
{
    return std::make_unique<HashmapApp>(config);
}

} // namespace whisper::apps
