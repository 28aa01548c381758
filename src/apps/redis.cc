/**
 * @file
 * Redis: an in-memory dictionary server persisted through NVML.
 *
 * Mirrors the third-party NVML-enhanced Redis the paper used: string
 * keys and values live in a chained hash table allocated from an NVML
 * pool, and every mutation runs in a pmemobj-style undo-logged
 * transaction. Redis is single-threaded: only client 0 executes
 * server commands; the other configured clients generate requests and
 * parse replies, which is volatile (DRAM) work — exactly why redis
 * shows one of the lowest PM fractions in the paper's Figure 6
 * (0.74%).
 *
 * The driving workload is an lru-test-like mix over a large key space
 * (SET-heavy so the LRU cycles), as in Table 1.
 */

#include <atomic>

#include "apps/apps.hh"
#include "common/logging.hh"
#include "txlib/mnemosyne.hh" // foldChecksum
#include "txlib/nvml.hh"

namespace whisper::apps
{

using namespace core;
using pm::DataClass;
using pm::FenceKind;

namespace
{

constexpr std::uint64_t kBuckets = 16384;
constexpr std::size_t kKeyBytes = 32;
constexpr std::size_t kValBytes = 64;

/** One dictionary entry (chained). */
struct DictEntry
{
    char key[kKeyBytes];
    char val[kValBytes];
    std::uint32_t keyLen;
    std::uint32_t valLen;
    std::uint32_t checksum;
    std::uint32_t pad;
    Addr next;
};

/** Persistent dictionary root. */
struct DictRoot
{
    std::uint64_t magic;
    Addr buckets[kBuckets];

    static constexpr std::uint64_t kMagic = 0x4245441500000000ull;
};

std::uint64_t
hashBytes(const char *s, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; i++) {
        h ^= static_cast<std::uint8_t>(s[i]);
        h *= 1099511628211ull;
    }
    return h;
}

std::uint32_t
entryChecksum(const DictEntry &e)
{
    return mne::foldChecksum(e.key, e.keyLen) ^
           mne::foldChecksum(e.val, e.valLen) ^ e.keyLen ^ e.valLen;
}

class RedisApp : public WhisperApp
{
  public:
    explicit RedisApp(const AppConfig &config) : WhisperApp(config) {}

    std::string name() const override { return "redis"; }
    AccessLayer layer() const override { return AccessLayer::LibNvml; }

    void
    setup(Runtime &rt) override
    {
        // Layout: the dict header (bucket array, too large for a slab
        // object) sits in front of the NVML pool, the way the NVML
        // Redis port lays out its dict region.
        shards_.clear();
        format(rt.ctx(0), 0, config_.poolBytes);
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Rng rng(config_.seed * 131 + tid);
        const std::uint64_t keyspace =
            std::max<std::uint64_t>(4096, config_.opsPerThread * 2);

        if (tid != 0) {
            // Client threads: format requests, parse replies — pure
            // DRAM traffic plus think time.
            std::vector<char> reqbuf(128);
            for (std::uint64_t op = 0; op < config_.opsPerThread;
                 op++) {
                const std::string key =
                    "key:" + std::to_string(rng.next(keyspace));
                std::snprintf(reqbuf.data(), reqbuf.size(),
                              "SET %s v", key.c_str());
                ctx.vStore(reqbuf.data(), key.size() + 6);
                for (int i = 0; i < 8; i++)
                    ctx.vLoad(reqbuf.data() + i * 8, 8);
                ctx.compute(150);
            }
            return;
        }

        // Server thread: the whole command stream of all clients is
        // serviced here (Redis's single event loop).
        Shard &sh = shards_[0];
        const std::uint64_t total =
            config_.opsPerThread * config_.threads;
        for (std::uint64_t op = 0; op < total; op++) {
            const std::uint64_t knum = rng.next(keyspace);
            char key[kKeyBytes];
            const int klen = std::snprintf(key, sizeof(key), "key:%llu",
                static_cast<unsigned long long>(knum));
            pad(ctx, key);
            if (rng.chance(0.5)) {
                char val[kValBytes];
                const int vlen = std::snprintf(val, sizeof(val),
                    "value-%llu-%016llx",
                    static_cast<unsigned long long>(knum),
                    static_cast<unsigned long long>(rng()));
                set(ctx, sh, key, klen, val, vlen);
            } else {
                get(ctx, sh, key, klen);
            }
        }
    }

    VerifyReport
    verify(Runtime &rt) override
    {
        VerifyReport rep = report();
        for (const Shard &sh : shards_) {
            std::string why;
            rep.check(checkDict(rt.ctx(0), sh, &why), "dict-intact",
                      why);
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

  protected:
    void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &rep) override
    {
        for (Shard &sh : shards_)
            sh.pool->scrub(rt.ctx(0), lines, rep);
    }

    /** @{ \name Generated-workload surface
     *
     * Real deployments scale single-threaded Redis by running one
     * server instance per core (redis-cluster); the generated
     * workload models exactly that: every worker thread is its own
     * server shard — private dict over a disjoint device slice —
     * executing its clients' commands inline with the run()
     * event-loop padding per command.
     */

    void
    workloadSetup(Runtime &rt, const WorkloadKeymap &map) override
    {
        keymap_ = map;
        shards_.clear();
        const std::size_t region =
            lineBase(config_.poolBytes / config_.threads);
        panic_if(region <= sizeof(DictRoot) + (2u << 20),
                 "redis: pool too small for per-thread workload "
                 "shards");
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            const Addr base = static_cast<Addr>(t) * region;
            format(ctx, base, base + region);
            const ThreadId tid = static_cast<ThreadId>(t);
            for (std::uint64_t i = 0; i < map.perThread(); i++) {
                const std::uint64_t k = map.lo(tid) + i;
                char key[kKeyBytes], val[kValBytes];
                const int klen = formatKey(key, k);
                const int vlen = formatVal(
                    val, k * 0x9e3779b97f4a7c15ull);
                set(ctx, shards_[t], key, klen, val, vlen);
            }
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        char kbuf[kKeyBytes];
        const int klen = formatKey(kbuf, key);
        pad(ctx, kbuf);
        return get(ctx, shards_[tid], kbuf, klen);
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        char kbuf[kKeyBytes], vbuf[kValBytes];
        const int klen = formatKey(kbuf, key);
        const int vlen = formatVal(vbuf, value);
        pad(ctx, kbuf);
        set(ctx, shards_[tid], kbuf, klen, vbuf, vlen);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        char kbuf[kKeyBytes], vbuf[kValBytes];
        const int klen = formatKey(kbuf, key);
        pad(ctx, kbuf);
        const Addr off = find(ctx, shards_[tid], kbuf, klen);
        std::uint64_t fold = delta;
        if (off != kNullAddr) {
            DictEntry e{};
            ctx.load(off, &e, sizeof(e));
            fold += mne::foldChecksum(e.val, e.valLen);
        }
        const int vlen = formatVal(vbuf, fold);
        set(ctx, shards_[tid], kbuf, klen, vbuf, vlen);
        return off != kNullAddr;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        char kbuf[kKeyBytes] = {};
        pad(ctx, kbuf);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const int klen =
                formatKey(kbuf, keymap_.scanKey(tid, key, j));
            const Addr off = find(ctx, shards_[tid], kbuf, klen);
            if (off != kNullAddr) {
                DictEntry e{};
                ctx.load(off, &e, sizeof(e));
                found++;
            }
        }
        ctx.compute(80);
        return found;
    }

    /** @} */

  private:
    /** One dict: its bucket array and the NvmlPool behind it. */
    struct Shard
    {
        Addr dictOff = 0;
        std::unique_ptr<nvml::NvmlPool> pool;
    };

    /**
     * Format an empty dict over [@p base, @p end): the bucket array
     * at @p base, then a one-lane NvmlPool (one server thread).
     */
    void
    format(pm::PmContext &ctx, Addr base, Addr end)
    {
        Shard sh;
        sh.dictOff = base;
        const Addr pool_base =
            lineBase(base + sizeof(DictRoot) + kCacheLineSize);
        sh.pool = std::make_unique<nvml::NvmlPool>(
            ctx, pool_base, end - pool_base, 1);
        DictRoot root{};
        root.magic = DictRoot::kMagic;
        for (auto &b : root.buckets)
            b = kNullAddr;
        ctx.store(base, &root, sizeof(root), DataClass::User);
        ctx.flush(base, sizeof(root));
        ctx.fence(FenceKind::Durability);
        shards_.push_back(std::move(sh));
    }

    static int
    formatKey(char *buf, std::uint64_t key)
    {
        return std::snprintf(buf, kKeyBytes, "key:%llu",
                             static_cast<unsigned long long>(key));
    }

    static int
    formatVal(char *buf, std::uint64_t v)
    {
        return std::snprintf(buf, kValBytes, "value-%016llx",
                             static_cast<unsigned long long>(v));
    }

    /** Event loop, protocol parsing, reply buffers per command:
     *  redis is ~0.7% PM accesses in the paper's Figure 6. */
    static void
    pad(pm::PmContext &ctx, const void *base)
    {
        ctx.vBurst(base, 1 << 14, 500, 250);
        ctx.compute(3500);
    }

    Addr
    find(pm::PmContext &ctx, const Shard &sh, const char *key,
         std::size_t klen)
    {
        DictRoot *d = ctx.pool().at<DictRoot>(sh.dictOff);
        Addr cur = d->buckets[hashBytes(key, klen) % kBuckets];
        while (cur != kNullAddr) {
            DictEntry probe{};
            ctx.load(cur, &probe, 48); // key prefix + lens
            const DictEntry *e = ctx.pool().at<DictEntry>(cur);
            if (e->keyLen == klen &&
                std::memcmp(e->key, key, klen) == 0) {
                return cur;
            }
            cur = e->next;
        }
        return kNullAddr;
    }

    /** SET: insert-or-overwrite in one undo-logged transaction. */
    void
    set(pm::PmContext &ctx, Shard &sh, const char *key,
        std::size_t klen, const char *val, std::size_t vlen)
    {
        const Addr existing = find(ctx, sh, key, klen);
        nvml::TxContext tx(*sh.pool, ctx);
        if (existing != kNullAddr) {
            // Overwrite in place: snapshot the value region, store.
            DictEntry *e = ctx.pool().at<DictEntry>(existing);
            tx.addRange(existing + offsetof(DictEntry, val),
                        kValBytes + 16);
            ctx.store(existing + offsetof(DictEntry, val), val, vlen,
                      DataClass::User);
            const auto vlen32 = static_cast<std::uint32_t>(vlen);
            ctx.store(existing + offsetof(DictEntry, valLen), &vlen32,
                      4, DataClass::User);
            const std::uint32_t sum = entryChecksum(*e);
            ctx.store(existing + offsetof(DictEntry, checksum), &sum,
                      4, DataClass::User);
            tx.commit();
            return;
        }
        const Addr off = tx.txAlloc(sizeof(DictEntry));
        if (off == kNullAddr) {
            tx.abort();
            return;
        }
        // Fresh object: direct stores, no snapshots needed.
        DictEntry e{};
        std::memcpy(e.key, key, klen);
        std::memcpy(e.val, val, vlen);
        e.keyLen = static_cast<std::uint32_t>(klen);
        e.valLen = static_cast<std::uint32_t>(vlen);
        e.checksum = entryChecksum(e);
        DictRoot *d = ctx.pool().at<DictRoot>(sh.dictOff);
        Addr &bucket = d->buckets[hashBytes(key, klen) % kBuckets];
        e.next = bucket;
        tx.directStore(off, &e, sizeof(e), DataClass::User);
        // Linking mutates reachable state: snapshot the bucket head.
        tx.set(bucket, off, DataClass::User);
        tx.commit();
    }

    /** GET: lookup plus value read; returns whether @p key hit. */
    bool
    get(pm::PmContext &ctx, const Shard &sh, const char *key,
        std::size_t klen)
    {
        const Addr off = find(ctx, sh, key, klen);
        if (off != kNullAddr) {
            DictEntry e{};
            ctx.load(off, &e, sizeof(e));
        }
        ctx.compute(80); // reply formatting
        return off != kNullAddr;
    }

    bool
    checkDict(pm::PmContext &ctx, const Shard &sh, std::string *why)
    {
        DictRoot *d = ctx.pool().at<DictRoot>(sh.dictOff);
        if (d->magic != DictRoot::kMagic) {
            if (why)
                *why = "bad dict magic";
            return false;
        }
        for (std::uint64_t b = 0; b < kBuckets; b++) {
            Addr cur = d->buckets[b];
            std::uint64_t guard = 0;
            while (cur != kNullAddr) {
                if (++guard > 10'000'000) {
                    if (why)
                        *why = "bucket cycle";
                    return false;
                }
                const DictEntry *e = ctx.pool().at<DictEntry>(cur);
                if (e->keyLen == 0 || e->keyLen > kKeyBytes ||
                    e->valLen > kValBytes) {
                    if (why)
                        *why = "entry with invalid lengths";
                    return false;
                }
                if (e->checksum != entryChecksum(*e)) {
                    if (why)
                        *why = "entry checksum mismatch";
                    return false;
                }
                if (hashBytes(e->key, e->keyLen) % kBuckets != b) {
                    if (why)
                        *why = "entry in wrong bucket";
                    return false;
                }
                cur = e->next;
            }
        }
        return true;
    }

    std::vector<Shard> shards_;
    WorkloadKeymap keymap_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeRedisApp(const core::AppConfig &config)
{
    return std::make_unique<RedisApp>(config);
}

} // namespace whisper::apps
