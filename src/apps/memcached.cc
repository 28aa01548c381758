/**
 * @file
 * Memcached: the in-memory object cache, persisted with Mnemosyne
 * (paper §3.2.2).
 *
 * The hash table and the LRU replacement list live in PM segments;
 * all accesses that used to be guarded by memcached's locks execute
 * as Mnemosyne durable transactions instead (the paper's 17-LOC
 * modification). The driving workload is memslap-like: 5% SET / 95%
 * GET — but *every* GET is also a transaction, because a hit splices
 * the item to the LRU head, which mutates persistent state.
 */

#include <mutex>

#include "apps/apps.hh"
#include "common/logging.hh"
#include "txlib/mnemosyne.hh"

namespace whisper::apps
{

using namespace core;
using pm::DataClass;
using pm::FenceKind;

namespace
{

constexpr std::uint64_t kBuckets = 8192;
constexpr std::size_t kValueBytes = 48;
constexpr std::uint64_t kItemSalt = 0x3E3CAC4Eull;

/** Cache item: hash chain + LRU list node. */
struct CacheItem
{
    std::uint64_t key;
    std::uint8_t value[kValueBytes];
    std::uint64_t checksum;
    Addr hnext;   //!< hash chain
    Addr prev;    //!< LRU towards head
    Addr next;    //!< LRU towards tail
};

std::uint64_t
itemChecksum(const CacheItem &it)
{
    return it.key ^ mne::foldChecksum(it.value, sizeof(it.value)) ^
           kItemSalt;
}

struct CacheRoot
{
    std::uint64_t magic;
    std::uint64_t count;
    std::uint64_t capacity;
    Addr lruHead;
    Addr lruTail;
    Addr buckets[kBuckets];

    static constexpr std::uint64_t kMagic = 0x3E3CACEEull;
};

std::uint64_t
hashKey(std::uint64_t key)
{
    key ^= key >> 31;
    key *= 0x7fb5d329728ea185ull;
    key ^= key >> 27;
    return key;
}

class MemcachedApp : public WhisperApp
{
  public:
    explicit MemcachedApp(const AppConfig &config) : WhisperApp(config)
    {
    }

    std::string name() const override { return "memcached"; }
    AccessLayer
    layer() const override
    {
        return AccessLayer::LibMnemosyne;
    }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        shards_.clear();
        const std::uint64_t capacity =
            std::max<std::uint64_t>(1024, config_.opsPerThread / 2);
        format(ctx, 0, config_.poolBytes, config_.threads, capacity);

        // Warm the cache to ~half capacity.
        Rng rng(config_.seed);
        for (std::uint64_t i = 0; i < capacity / 2; i++) {
            const std::uint64_t key = rng.next(keySpace());
            std::uint8_t value[kValueBytes];
            randomValue(rng, value);
            set(ctx, shards_[0], key, value);
        }
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Shard &sh = shards_[0];
        Rng rng(config_.seed * 89 + tid);
        ZipfianGenerator zipf(keySpace());
        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            const std::uint64_t key = zipf.next(rng);
            pad(ctx, key);
            if (rng.chance(0.05)) {
                std::uint8_t value[kValueBytes];
                randomValue(rng, value);
                std::lock_guard<std::mutex> guard(runLock_);
                set(ctx, sh, key, value);
            } else {
                std::lock_guard<std::mutex> guard(runLock_);
                get(ctx, sh, key);
            }
        }
    }

    VerifyReport
    verify(Runtime &rt) override
    {
        VerifyReport rep = report();
        for (const Shard &sh : shards_) {
            std::string why;
            rep.check(checkCache(rt.ctx(0), sh, &why), "cache-intact",
                      why);
        }
        return rep;
    }

    void
    recover(Runtime &rt) override
    {
        for (Shard &sh : shards_)
            sh.heap->recover(rt.ctx(0));
    }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        VerifyReport rep = report();
        for (unsigned t = 0; t < shards_.size(); t++) {
            std::string why;
            rep.check(shards_[t].heap->logsQuiescent(rt.ctx(t), &why),
                      "logs-quiescent", why);
        }
        return rep;
    }

    /** @{ \name Generated-workload surface
     *
     * Each workload thread gets its own cache shard over a disjoint
     * pool slice, mirroring memcached deployments that run one worker
     * per core with partitioned key ownership. The per-shard capacity
     * exceeds the keymap's slot count so workload-owned keys are
     * never evicted: a GET on a loaded or inserted key must always
     * hit.
     */

    void
    workloadSetup(Runtime &rt, const core::WorkloadKeymap &map) override
    {
        keymap_ = map;
        shards_.clear();
        const Addr region = lineBase(config_.poolBytes / map.threads);
        panic_if(region <= sizeof(CacheRoot) + (2u << 20),
                 "memcached workload: pool too small for %u shards",
                 map.threads);
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            const Addr base = static_cast<Addr>(t) * region;
            format(ctx, base, base + region, 1,
                   map.slotsPerThread() + 64);
            for (std::uint64_t i = 0; i < map.perThread(); i++) {
                const std::uint64_t key = map.lo(t) + i;
                std::uint8_t value[kValueBytes];
                expandValue(key * 0x9e3779b97f4a7c15ull, value);
                set(ctx, shards_[t], key, value);
            }
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, key);
        return get(ctx, shards_[tid], key);
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, key);
        std::uint8_t bytes[kValueBytes];
        expandValue(value, bytes);
        set(ctx, shards_[tid], key, bytes);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        Shard &sh = shards_[tid];
        pad(ctx, key);
        const Addr off = find(ctx, sh, key);
        std::uint64_t seed = delta;
        if (off != kNullAddr) {
            std::uint8_t old[kValueBytes];
            ctx.load(off + offsetof(CacheItem, value), old, kValueBytes);
            seed += mne::foldChecksum(old, kValueBytes);
        }
        std::uint8_t bytes[kValueBytes];
        expandValue(seed, bytes);
        set(ctx, sh, key, bytes);
        return off != kNullAddr;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        // Multi-get: point lookups without LRU bumps, like a batched
        // read-only pipeline.
        Shard &sh = shards_[tid];
        pad(ctx, key);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const Addr off =
                find(ctx, sh, keymap_.scanKey(tid, key, j));
            if (off == kNullAddr)
                continue;
            CacheItem copy{};
            ctx.load(off, &copy, sizeof(copy));
            found++;
        }
        return found;
    }

    /** @} */

  protected:
    void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &rep) override
    {
        for (Shard &sh : shards_)
            sh.heap->scrub(rt.ctx(0), lines, rep);
    }

  private:
    /** One cache: its root and the Mnemosyne heap behind it. */
    struct Shard
    {
        Addr rootOff = 0;
        std::unique_ptr<mne::MnemosyneHeap> heap;
    };

    /**
     * Format an empty cache of @p capacity items over [@p base,
     * @p end): the root at @p base, then a Mnemosyne heap with
     * @p lanes redo-log lanes.
     */
    void
    format(pm::PmContext &ctx, Addr base, Addr end, unsigned lanes,
           std::uint64_t capacity)
    {
        Shard sh;
        sh.rootOff = base;
        const Addr heap_base =
            lineBase(base + sizeof(CacheRoot) + kCacheLineSize);
        sh.heap = std::make_unique<mne::MnemosyneHeap>(
            ctx, heap_base, end - heap_base, lanes);

        CacheRoot root{};
        root.magic = CacheRoot::kMagic;
        root.capacity = capacity;
        root.lruHead = root.lruTail = kNullAddr;
        for (auto &b : root.buckets)
            b = kNullAddr;
        ctx.store(base, &root, sizeof(root), DataClass::User);
        ctx.flush(base, sizeof(root));
        ctx.fence(FenceKind::Durability);
        shards_.push_back(std::move(sh));
    }

    std::uint64_t
    keySpace() const
    {
        return std::max<std::uint64_t>(2048, config_.opsPerThread * 2);
    }

    static void
    randomValue(Rng &rng, std::uint8_t out[kValueBytes])
    {
        for (std::size_t i = 0; i < kValueBytes; i++)
            out[i] = static_cast<std::uint8_t>(rng());
    }

    /** Deterministic 48-byte value from a 64-bit seed (splitmix64). */
    static void
    expandValue(std::uint64_t seed, std::uint8_t out[kValueBytes])
    {
        for (std::size_t i = 0; i < kValueBytes; i += 8) {
            const std::uint64_t z = splitmix64(seed);
            std::memcpy(out + i, &z, 8);
        }
    }

    /** Request parsing / response buffers: DRAM traffic per op. */
    static void
    pad(pm::PmContext &ctx, std::uint64_t key)
    {
        char reqbuf[64];
        std::snprintf(reqbuf, sizeof(reqbuf), "get k%llu",
                      static_cast<unsigned long long>(key));
        ctx.vStore(reqbuf, sizeof(reqbuf));
        ctx.vLoad(reqbuf, 16);
        ctx.vBurst(reqbuf, 1 << 13, 160, 70);
        ctx.compute(5500);
    }

    Addr
    find(pm::PmContext &ctx, const Shard &sh, std::uint64_t key)
    {
        Addr cur = ctx.pool().at<CacheRoot>(sh.rootOff)
                       ->buckets[hashKey(key) % kBuckets];
        while (cur != kNullAddr) {
            std::uint64_t probe = 0;
            ctx.load(cur + offsetof(CacheItem, key), &probe, 8);
            if (probe == key)
                return cur;
            cur = ctx.pool().at<CacheItem>(cur)->hnext;
        }
        return kNullAddr;
    }

    /** Unlink @p off from the LRU list inside @p tx. */
    void
    lruUnlink(pm::PmContext &ctx, mne::Transaction &tx, Addr root_off,
              Addr off)
    {
        CacheRoot *r = ctx.pool().at<CacheRoot>(root_off);
        const CacheItem *it = ctx.pool().at<CacheItem>(off);
        const Addr prev = tx.get(it->prev);
        const Addr next = tx.get(it->next);
        if (prev != kNullAddr) {
            tx.set(ctx.pool().at<CacheItem>(prev)->next, next,
                   DataClass::User);
        } else {
            tx.set(r->lruHead, next, DataClass::User);
        }
        if (next != kNullAddr) {
            tx.set(ctx.pool().at<CacheItem>(next)->prev, prev,
                   DataClass::User);
        } else {
            tx.set(r->lruTail, prev, DataClass::User);
        }
    }

    /** Push @p off onto the LRU head inside @p tx. */
    void
    lruPushFront(pm::PmContext &ctx, mne::Transaction &tx,
                 Addr root_off, Addr off)
    {
        CacheRoot *r = ctx.pool().at<CacheRoot>(root_off);
        const Addr old_head = tx.get(r->lruHead);
        const Addr links[2] = {kNullAddr, old_head}; // prev, next
        tx.update(off + offsetof(CacheItem, prev), links,
                  sizeof(links), DataClass::User);
        if (old_head != kNullAddr) {
            tx.set(ctx.pool().at<CacheItem>(old_head)->prev, off,
                   DataClass::User);
        } else {
            tx.set(r->lruTail, off, DataClass::User);
        }
        tx.set(r->lruHead, off, DataClass::User);
    }

    /** GET: a hit bumps the item to the LRU head (a transaction). */
    bool
    get(pm::PmContext &ctx, Shard &sh, std::uint64_t key)
    {
        const Addr root_off = sh.rootOff;
        const Addr off = find(ctx, sh, key);
        if (off == kNullAddr) {
            ctx.compute(60); // miss path: reply formatting only
            return false;
        }
        CacheItem copy{};
        ctx.load(off, &copy, sizeof(copy));
        // LRU bump: a persistent mutation, hence a transaction.
        mne::Transaction tx(*sh.heap, ctx);
        lruUnlink(ctx, tx, root_off, off);
        lruPushFront(ctx, tx, root_off, off);
        tx.commit();
        return true;
    }

    /** SET: insert-or-update, evicting the LRU tail when full. */
    void
    set(pm::PmContext &ctx, Shard &sh, std::uint64_t key,
        const std::uint8_t value[kValueBytes])
    {
        const Addr root_off = sh.rootOff;
        CacheRoot *r = ctx.pool().at<CacheRoot>(root_off);
        const Addr existing = find(ctx, sh, key);

        if (existing != kNullAddr) {
            mne::Transaction tx(*sh.heap, ctx);
            CacheItem *it = ctx.pool().at<CacheItem>(existing);
            tx.update(existing + offsetof(CacheItem, value), value,
                      kValueBytes, DataClass::User);
            CacheItem staged{};
            tx.read(existing, &staged, sizeof(staged));
            const std::uint64_t sum = itemChecksum(staged);
            tx.set(it->checksum, sum, DataClass::User);
            lruUnlink(ctx, tx, root_off, existing);
            lruPushFront(ctx, tx, root_off, existing);
            tx.commit();
            return;
        }

        mne::Transaction tx(*sh.heap, ctx);
        // Evict from the tail when full.
        if (tx.get(r->count) >= tx.get(r->capacity)) {
            const Addr victim = tx.get(r->lruTail);
            if (victim != kNullAddr) {
                lruUnlink(ctx, tx, root_off, victim);
                // Remove from its hash chain.
                const CacheItem *v = ctx.pool().at<CacheItem>(victim);
                const std::uint64_t vkey = v->key;
                Addr holder = root_off + offsetof(CacheRoot, buckets) +
                              (hashKey(vkey) % kBuckets) * sizeof(Addr);
                Addr cur = tx.get(*ctx.pool().at<Addr>(holder));
                while (cur != kNullAddr && cur != victim) {
                    holder = cur + offsetof(CacheItem, hnext);
                    cur = tx.get(*ctx.pool().at<Addr>(holder));
                }
                if (cur == victim) {
                    const Addr vnext =
                        tx.get(ctx.pool().at<CacheItem>(victim)->hnext);
                    tx.update(holder, &vnext, 8, DataClass::User);
                }
                tx.pfree(victim);
                const std::uint64_t n = tx.get(r->count) - 1;
                tx.set(r->count, n, DataClass::User);
            }
        }

        const Addr off = tx.pmalloc(sizeof(CacheItem));
        if (off == kNullAddr) {
            tx.abort();
            return;
        }
        Addr &bucket = r->buckets[hashKey(key) % kBuckets];
        CacheItem it{};
        it.key = key;
        std::memcpy(it.value, value, kValueBytes);
        it.checksum = itemChecksum(it);
        it.hnext = tx.get(bucket);
        it.prev = it.next = kNullAddr;
        tx.update(off, &it, sizeof(it), DataClass::User);
        tx.set(bucket, off, DataClass::User);
        lruPushFront(ctx, tx, root_off, off);
        const std::uint64_t n = tx.get(r->count) + 1;
        tx.set(r->count, n, DataClass::User);
        tx.commit();
    }

    bool
    checkCache(pm::PmContext &ctx, const Shard &sh, std::string *why)
    {
        CacheRoot *r = ctx.pool().at<CacheRoot>(sh.rootOff);
        if (r->magic != CacheRoot::kMagic) {
            if (why)
                *why = "bad root magic";
            return false;
        }

        // Hash side: collect all items, validate checksums.
        std::uint64_t hash_items = 0;
        for (std::uint64_t b = 0; b < kBuckets; b++) {
            Addr cur = r->buckets[b];
            std::uint64_t guard = 0;
            while (cur != kNullAddr) {
                if (++guard > 10'000'000) {
                    if (why)
                        *why = "hash chain cycle";
                    return false;
                }
                const CacheItem *it = ctx.pool().at<CacheItem>(cur);
                if (it->checksum != itemChecksum(*it)) {
                    if (why)
                        *why = "item checksum mismatch";
                    return false;
                }
                if (hashKey(it->key) % kBuckets != b) {
                    if (why)
                        *why = "item in wrong bucket";
                    return false;
                }
                hash_items++;
                cur = it->hnext;
            }
        }

        // LRU side: forward walk must match count and back-links.
        std::uint64_t lru_items = 0;
        Addr prev = kNullAddr;
        Addr cur = r->lruHead;
        std::uint64_t guard = 0;
        while (cur != kNullAddr) {
            if (++guard > 10'000'000) {
                if (why)
                    *why = "LRU cycle";
                return false;
            }
            const CacheItem *it = ctx.pool().at<CacheItem>(cur);
            if (it->prev != prev) {
                if (why)
                    *why = "LRU back-link broken";
                return false;
            }
            lru_items++;
            prev = cur;
            cur = it->next;
        }
        if (r->lruTail != prev) {
            if (why)
                *why = "LRU tail mismatch";
            return false;
        }
        if (hash_items != lru_items || hash_items != r->count) {
            if (why)
                *why = "hash/LRU/count disagree";
            return false;
        }
        return true;
    }

    std::vector<Shard> shards_;
    std::mutex runLock_; //!< run()'s threads share shards_[0]
    core::WorkloadKeymap keymap_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeMemcachedApp(const core::AppConfig &config)
{
    return std::make_unique<MemcachedApp>(config);
}

} // namespace whisper::apps
