/**
 * @file
 * N-store: a persistent-memory RDBMS (native access layer), with the
 * OPTWAL engine and YCSB-like / TPC-C-like drivers.
 *
 * Faithful behavioural details (paper §3.2.1):
 *  - the database is partitioned; each client thread owns one
 *    partition and executes transactions on it independently;
 *  - OPTWAL keeps tables and indexes in PM segments from a global
 *    allocator and uses a per-thread *undo log*: the old tuple image
 *    is logged (store + flush + fence) before each in-place update,
 *    updates are cacheable stores flushed at commit, and the log
 *    entries are cleared one per epoch;
 *  - the single-heap BuddyAllocator supplies tuples; N-store tags
 *    every block FREE / VOLATILE / PERSISTENT, writing the state
 *    variable up to three times per transaction (the paper's
 *    allocator self-dependency example);
 *  - every tuple carries a checksum over its payload, updated in the
 *    same transaction — after any crash + rollback, every reachable
 *    tuple's checksum must validate.
 *
 * The YCSB-like driver issues zipfian single-partition transactions
 * of four operations at 80% writes; the TPC-C-like driver issues
 * new-order (insert order + 5..15 order lines + stock updates),
 * payment, and order-status transactions at 40% writes overall.
 */

#include <algorithm>
#include <unordered_map>

#include "alloc/buddy_alloc.hh"
#include "apps/apps.hh"
#include "common/logging.hh"
#include "txlib/mnemosyne.hh" // foldChecksum

namespace whisper::apps
{

using namespace core;
using pm::DataClass;
using pm::FenceKind;
using mne::foldChecksum;

namespace
{

constexpr std::size_t kTupleValueBytes = 96;
constexpr std::uint64_t kIndexBuckets = 8192;
constexpr std::size_t kUndoLogBytes = 512 << 10;
constexpr unsigned kUndoSegments = 32;
constexpr std::size_t kUndoSegmentBytes = kUndoLogBytes / kUndoSegments;

/** One table row. */
struct Tuple
{
    std::uint64_t key;
    std::uint64_t seq;        //!< bumped each committed update
    std::uint32_t checksum;   //!< folds key, seq and value
    std::uint32_t pad;
    std::uint8_t value[kTupleValueBytes];
    Addr next;                //!< index bucket chain
};

/** Per-partition persistent header. */
struct Partition
{
    std::uint64_t magic;
    std::uint64_t tupleCount;
    /**
     * Offset of the undo-log segment of the in-flight transaction
     * (kNullAddr when none) and its sequence number. OPTWAL is an
     * *optimized* WAL: instead of clearing every record, commit
     * retires the whole log with this single pointer write — one of
     * the reasons the native engines outrun the libraries in Table 1.
     */
    Addr activeLog;
    std::uint64_t activeSeq;
    Addr index[kIndexBuckets];

    static constexpr std::uint64_t kMagic = 0x4E53544Full; // "NSTO"
};

/**
 * Per-partition undo-log record, cache-line aligned. OPTWAL never
 * clears records; instead every record carries the transaction's
 * sequence number and recovery only honours records whose sequence
 * matches the published one — stale records from the segment's
 * previous use fail the check.
 */
struct UndoRec
{
    std::uint32_t magic;
    std::uint32_t size;
    Addr addr;
    std::uint32_t checksum;
    std::uint32_t pad;
    std::uint64_t seq;

    static constexpr std::uint32_t kMagic = 0x4F505457u; // "OPTW"
};

std::uint64_t
hashKey(std::uint64_t key)
{
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ull;
    key ^= key >> 27;
    return key;
}

std::uint32_t
tupleChecksum(const Tuple &t)
{
    return foldChecksum(&t.value, sizeof(t.value)) ^
           static_cast<std::uint32_t>(t.key) ^
           static_cast<std::uint32_t>(t.seq);
}

/** Which driver shapes the transactions. */
enum class NstoreWorkload { Ycsb, Tpcc };

class NstoreApp : public WhisperApp
{
  public:
    NstoreApp(const AppConfig &config, NstoreWorkload workload)
        : WhisperApp(config), workload_(workload)
    {
    }

    std::string
    name() const override
    {
        return workload_ == NstoreWorkload::Ycsb ? "ycsb" : "tpcc";
    }

    AccessLayer layer() const override { return AccessLayer::Native; }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        shards_.clear();
        format(ctx, 0, config_.poolBytes, config_.threads);

        // Load phase: each partition gets its initial tuples.
        const std::uint64_t rows = initialRows();
        for (unsigned p = 0; p < config_.threads; p++) {
            const PartRef pr = part(shards_[0], p);
            Rng rng(config_.seed + p);
            for (std::uint64_t k = 0; k < rows; k++)
                insertTuple(ctx, pr, k, rng, nullptr);
        }
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        const PartRef pr = part(shards_[0], tid);
        Rng rng(config_.seed * 31 + tid);
        const std::uint64_t rows = initialRows();
        ZipfianGenerator zipf(rows);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            pad(ctx, &zipf);
            if (workload_ == NstoreWorkload::Ycsb)
                ycsbTx(ctx, pr, rng, zipf);
            else
                tpccTx(ctx, pr, rng, zipf, op);
        }
    }

    VerifyReport
    verify(Runtime &rt) override
    {
        VerifyReport rep = report();
        for (Shard &sh : shards_) {
            std::string why;
            rep.check(checkShard(rt.ctx(0), sh, &why), "tables-intact",
                      why);
        }
        return rep;
    }

    void
    recover(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        // Roll back every partition's in-flight transaction, then
        // prune half-inserted (VOLATILE) tuples, then let the heap
        // reclaim.
        for (Shard &sh : shards_) {
            for (unsigned p = 0; p < sh.lanes; p++)
                rollbackUndo(ctx, part(sh, p));
            for (unsigned p = 0; p < sh.lanes; p++) {
                Partition *hdr = partition(ctx, part(sh, p));
                for (auto &slot : hdr->index) {
                    while (slot != kNullAddr &&
                           sh.heap->state(ctx, slot) !=
                               alloc::BlockState::Persistent) {
                        const Tuple *t = ctx.pool().at<Tuple>(slot);
                        ctx.storeField(slot, t->next, DataClass::User);
                        ctx.flush(ctx.pool().offsetOf(&slot), 8);
                        ctx.fence(FenceKind::Ordering);
                    }
                }
            }
            sh.heap->recover(ctx);
        }
    }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        // OPTWAL descriptor state: recovery must retire every
        // partition's active undo log (the single pointer write that
        // commits or rolls back the in-flight transaction).
        pm::PmContext &ctx = rt.ctx(0);
        VerifyReport rep = report();
        for (Shard &sh : shards_) {
            for (unsigned p = 0; p < sh.lanes; p++) {
                if (!rep.check(partition(ctx, part(sh, p))->activeLog ==
                                   kNullAddr,
                               "undo-retired",
                               "partition " + std::to_string(p) +
                                   " still publishes an active undo "
                                   "log"))
                    return rep;
            }
        }
        return rep;
    }

    // ---- Generated-workload surface -----------------------------------
    //
    // N-store is partitioned by design; the workload keeps that shape
    // but gives every thread a fully private shard: partition header,
    // undo log *and* buddy heap over a disjoint pool slice (run()
    // shares one global heap, whose allocation cost depends on cross-
    // thread interleaving and would break digest determinism). Each
    // put/rmw runs as a one-operation OPTWAL transaction: publish an
    // undo segment, journal the old images, update in place, flush,
    // fence, retire the log with one pointer write.

    void
    workloadSetup(Runtime &rt, const core::WorkloadKeymap &map) override
    {
        keymap_ = map;
        shards_.clear();
        const Addr region = lineBase(config_.poolBytes / map.threads);
        panic_if(region <= kPartitionBytes + kUndoLogBytes + (4u << 20),
                 "nstore workload: pool too small for %u shards",
                 map.threads);
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            const Addr base = static_cast<Addr>(t) * region;
            format(ctx, base, base + region, 1);
            const PartRef pr = part(shards_[t], 0);
            Rng rng(config_.seed + t);
            for (std::uint64_t i = 0; i < map.perThread(); i++)
                insertTuple(ctx, pr, map.lo(t) + i, rng, nullptr);
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, &key);
        const Addr off = findTuple(ctx, part(shards_[tid], 0), key);
        if (off == kNullAddr)
            return false;
        Tuple t{};
        ctx.load(off, &t, sizeof(t));
        ctx.compute(40);
        return true;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, &key);
        const PartRef pr = part(shards_[tid], 0);
        transact(ctx, pr, [&](Txn &txn) {
            const Addr off = findTuple(ctx, pr, key);
            Rng vrng(value ^ key);
            if (off != kNullAddr)
                updateTuple(ctx, pr, off, vrng, txn, 9);
            else
                insertTuple(ctx, pr, key, vrng, &txn);
        });
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, &key);
        const PartRef pr = part(shards_[tid], 0);
        const Addr off = findTuple(ctx, pr, key);
        if (off == kNullAddr) {
            workloadPut(ctx, tid, key, delta);
            return false;
        }
        Tuple t{};
        ctx.load(off, &t, sizeof(t));
        transact(ctx, pr, [&](Txn &txn) {
            Rng vrng(delta ^ t.seq);
            updateTuple(ctx, pr, off, vrng, txn, 3);
        });
        return true;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, &key);
        const PartRef pr = part(shards_[tid], 0);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const Addr off =
                findTuple(ctx, pr, keymap_.scanKey(tid, key, j));
            if (off == kNullAddr)
                continue;
            Tuple t{};
            ctx.load(off, &t, sizeof(t));
            found++;
        }
        return found;
    }

  protected:
    /**
     * Media scrub (WhisperApp::scrubRecovered). Partition headers are
     * all reconstructible words (magic, counters, pointer slots): a
     * zero-filled line gets its magic back, its index slots re-nulled
     * (0 is not kNullAddr and recovery would chase it) and a lost
     * activeLog descriptor retired — the in-flight transaction can no
     * longer roll back, which the tuple checksums then surface under
     * this Degraded marker. Index chains are truncated at tuples with
     * lost lines, and tupleCount is recounted when its word was hit.
     */
    void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &rep) override
    {
        for (Shard &sh : shards_)
            scrubShard(rt.ctx(0), sh, lines, rep);
    }

  private:
    /** Line-aligned stride of the partition headers. */
    static constexpr Addr kPartitionBytes =
        lineBase(sizeof(Partition) + kCacheLineSize);

    /**
     * One database: [@c lanes partition headers][@c lanes undo logs]
     * [buddy heap], plus each partition's volatile undo-segment
     * cursor and transaction sequence.
     */
    struct Shard
    {
        Addr base = 0;
        Addr undoOff = 0;
        Addr heapOff = 0;
        unsigned lanes = 0;
        std::vector<std::uint32_t> segCursor;
        std::vector<std::uint64_t> txSeq;
        std::unique_ptr<alloc::BuddyAllocator> heap;
    };

    /** Format @p lanes empty partitions over [@p base, @p end). */
    void
    format(pm::PmContext &ctx, Addr base, Addr end, unsigned lanes)
    {
        Shard sh;
        sh.base = base;
        sh.lanes = lanes;
        sh.undoOff = base + static_cast<Addr>(lanes) * kPartitionBytes;
        sh.heapOff = lineBase(
            sh.undoOff + static_cast<Addr>(lanes) * kUndoLogBytes +
            kCacheLineSize);
        sh.heap = std::make_unique<alloc::BuddyAllocator>(
            ctx, sh.heapOff, end - sh.heapOff);
        sh.segCursor.assign(lanes, 0);
        sh.txSeq.assign(lanes, 1);
        shards_.push_back(std::move(sh));

        for (unsigned p = 0; p < lanes; p++) {
            const PartRef pr = part(shards_.back(), p);
            Partition hdr{};
            hdr.magic = Partition::kMagic;
            hdr.activeLog = kNullAddr;
            for (auto &slot : hdr.index)
                slot = kNullAddr;
            ctx.store(pr.part, &hdr, sizeof(hdr), DataClass::User);
            ctx.flush(pr.part, sizeof(hdr));
            UndoRec end_rec{UndoRec::kMagic, 0, 0, 0, 0, 0};
            ctx.store(pr.undo, &end_rec, sizeof(end_rec),
                      DataClass::Log);
            ctx.flush(pr.undo, sizeof(end_rec));
        }
        ctx.fence(FenceKind::Durability);
    }

    std::uint64_t
    initialRows() const
    {
        return std::max<std::uint64_t>(
            512, std::min<std::uint64_t>(config_.opsPerThread, 16384));
    }

    /** Query parsing, plan caching, client buffers per op: N-store
     *  YCSB is ~8.7% PM accesses in the paper's Figure 6. */
    static void
    pad(pm::PmContext &ctx, const void *base)
    {
        ctx.vBurst(base, 1 << 16, 1000, 420);
        ctx.compute(2500);
    }

    /**
     * Everything an OPTWAL partition operation needs: the header and
     * undo-log offsets, the backing allocator and the volatile
     * per-partition cursors.
     */
    struct PartRef
    {
        Addr part;
        Addr undo;
        alloc::BuddyAllocator *heap;
        std::uint32_t *segCursor;
        std::uint64_t *txSeq;
    };

    /** Partition @p p of @p sh. */
    static PartRef
    part(Shard &sh, unsigned p)
    {
        return {sh.base + static_cast<Addr>(p) * kPartitionBytes,
                sh.undoOff + static_cast<Addr>(p) * kUndoLogBytes,
                sh.heap.get(), &sh.segCursor[p], &sh.txSeq[p]};
    }

    /** The in-flight OPTWAL transaction of one partition. */
    struct Txn
    {
        Addr head;         //!< next undo-record slot
        std::uint64_t seq; //!< published sequence number
        std::vector<std::pair<Addr, std::uint32_t>> dirty;
    };

    /**
     * Run @p body as one OPTWAL transaction on @p pr: publish a log
     * segment, let @p body journal and update in place, flush the
     * dirty ranges, fence once, retire the log.
     */
    template <typename Body>
    void
    transact(pm::PmContext &ctx, const PartRef &pr, Body body)
    {
        const TxId tx = ctx.txBegin();
        const Addr undo_seg = acquireUndoSegment(pr);
        const std::uint64_t undo_seq = undoActivate(ctx, pr, undo_seg);
        Txn txn{undo_seg, undo_seq, {}};
        body(txn);
        for (const auto &[off, n] : txn.dirty)
            ctx.flush(off, n);
        ctx.fence(FenceKind::Durability);
        undoRetire(ctx, pr);
        ctx.txEnd(tx);
    }

    /** Rotating log segment for this partition's next transaction. */
    Addr
    acquireUndoSegment(const PartRef &pr)
    {
        const unsigned seg = (*pr.segCursor)++ % kUndoSegments;
        return pr.undo + static_cast<Addr>(seg) * kUndoSegmentBytes;
    }

    static Partition *
    partition(pm::PmContext &ctx, const PartRef &pr)
    {
        return ctx.pool().at<Partition>(pr.part);
    }

    /** @{ \name OPTWAL undo logging (per partition) */

    void
    undoAppend(pm::PmContext &ctx, const PartRef &pr, Txn &txn,
               Addr addr, std::uint32_t size)
    {
        Addr &head = txn.head;
        const Addr seg_base =
            pr.undo +
            (head - pr.undo) / kUndoSegmentBytes * kUndoSegmentBytes;
        panic_if(head + sizeof(UndoRec) + size >
                         seg_base + kUndoSegmentBytes,
                 "OPTWAL undo log overflow");
        std::vector<std::uint8_t> old(size);
        ctx.load(addr, old.data(), size);
        UndoRec rec{UndoRec::kMagic, size, addr,
                    foldChecksum(old.data(), size), 0, txn.seq};
        ctx.store(head, &rec, sizeof(rec), DataClass::Log);
        ctx.store(head + sizeof(rec), old.data(), size, DataClass::Log);
        ctx.flush(head, sizeof(rec) + size);
        // Records are cache-line aligned (as PMFS-era logs are), so
        // consecutive appends never share a line.
        head = lineBase(head + sizeof(rec) + size + kCacheLineSize - 1);
        ctx.fence(FenceKind::Ordering);
    }

    /** Publish the in-flight transaction's log segment + sequence. */
    std::uint64_t
    undoActivate(pm::PmContext &ctx, const PartRef &pr, Addr seg_base)
    {
        Partition *hdr = partition(ctx, pr);
        const std::uint64_t seq = (*pr.txSeq)++;
        const struct { Addr log; std::uint64_t seq; } cell{seg_base,
                                                           seq};
        ctx.store(ctx.pool().offsetOf(&hdr->activeLog), &cell,
                  sizeof(cell), DataClass::TxMeta);
        ctx.flush(ctx.pool().offsetOf(&hdr->activeLog), sizeof(cell));
        ctx.fence(FenceKind::Ordering);
        return seq;
    }

    /** Retire the whole log with one pointer write (OPTWAL). */
    void
    undoRetire(pm::PmContext &ctx, const PartRef &pr)
    {
        Partition *hdr = partition(ctx, pr);
        const Addr none = kNullAddr;
        ctx.storeField(hdr->activeLog, none, DataClass::TxMeta);
        ctx.flush(ctx.pool().offsetOf(&hdr->activeLog), 8);
        ctx.fence(FenceKind::Ordering);
    }

    void
    rollbackUndo(pm::PmContext &ctx, const PartRef &pr)
    {
        // Only the published segment (if any) is live, and only
        // records tagged with the published sequence belong to it.
        Partition *hdr = partition(ctx, pr);
        const Addr seg_base = hdr->activeLog;
        const std::uint64_t seq = hdr->activeSeq;
        if (seg_base == kNullAddr)
            return;
        struct Rec { Addr addr; std::uint32_t size; Addr payload; };
        std::vector<Rec> recs;
        {
        Addr cursor = seg_base;
        const Addr limit = seg_base + kUndoSegmentBytes;
        while (cursor + sizeof(UndoRec) <= limit) {
            UndoRec rec{};
            ctx.load(cursor, &rec, sizeof(rec));
            if (rec.magic != UndoRec::kMagic || rec.size == 0 ||
                rec.seq != seq) {
                break; // stale record from a previous use
            }
            const Addr payload = cursor + sizeof(UndoRec);
            if (payload + rec.size > limit ||
                foldChecksum(ctx.pool().at<std::uint8_t>(payload),
                             rec.size) != rec.checksum) {
                break; // torn tail; its target was never modified
            }
            recs.push_back({rec.addr, rec.size, payload});
            cursor = lineBase(payload + rec.size + kCacheLineSize - 1);
        }
        }
        for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
            std::vector<std::uint8_t> old(it->size);
            ctx.load(it->payload, old.data(), it->size);
            ctx.store(it->addr, old.data(), it->size, DataClass::User);
            ctx.flush(it->addr, it->size);
            ctx.fence(FenceKind::Ordering);
        }
        undoRetire(ctx, pr);
        ctx.fence(FenceKind::Durability);
    }

    /** @} */

    Addr
    findTuple(pm::PmContext &ctx, const PartRef &pr, std::uint64_t key)
    {
        Addr cur = partition(ctx, pr)->index[hashKey(key) % kIndexBuckets];
        while (cur != kNullAddr) {
            std::uint64_t probe_key = 0;
            ctx.load(cur + offsetof(Tuple, key), &probe_key, 8);
            if (probe_key == key)
                return cur;
            cur = ctx.pool().at<Tuple>(cur)->next;
        }
        return kNullAddr;
    }

    /**
     * Insert a fresh tuple. When @p txn is non-null the insert runs
     * inside that transaction (index link journaled); during the
     * load phase it is null and only the allocator's protocol runs.
     */
    Addr
    insertTuple(pm::PmContext &ctx, const PartRef &pr,
                std::uint64_t key, Rng &rng, Txn *txn)
    {
        const Addr off = pr.heap->alloc(ctx, sizeof(Tuple));
        panic_if(off == kNullAddr, "nstore heap exhausted");
        Partition *part = partition(ctx, pr);
        Addr &slot = part->index[hashKey(key) % kIndexBuckets];

        Tuple t{};
        t.key = key;
        t.seq = 0;
        for (auto &b : t.value)
            b = static_cast<std::uint8_t>(rng());
        t.checksum = tupleChecksum(t);
        t.next = ctx.loadField(slot);
        ctx.store(off, &t, sizeof(t), DataClass::User);
        ctx.flush(off, sizeof(t));
        ctx.fence(FenceKind::Ordering);

        if (txn)
            undoAppend(ctx, pr, *txn, ctx.pool().offsetOf(&slot), 8);
        ctx.storeField(slot, off, DataClass::User);
        ctx.flush(ctx.pool().offsetOf(&slot), 8);
        ctx.fence(FenceKind::Ordering);
        pr.heap->setState(ctx, off, alloc::BlockState::Persistent);

        const std::uint64_t n = ctx.loadField(part->tupleCount) + 1;
        if (txn) {
            undoAppend(ctx, pr, *txn,
                       ctx.pool().offsetOf(&part->tupleCount), 8);
        }
        ctx.storeField(part->tupleCount, n, DataClass::User);
        ctx.flush(ctx.pool().offsetOf(&part->tupleCount), 8);
        return off;
    }

    /**
     * In-place update of @p cols columns under the undo log. N-store
     * logs each attribute mutation separately (set_varchar in the
     * paper's Figure 2 is per-column), so an update of several
     * columns fragments into that many undo/data epoch pairs — the
     * alternating-epoch pattern the paper attributes to undo logging.
     */
    void
    updateTuple(pm::PmContext &ctx, const PartRef &pr, Addr off,
                Rng &rng, Txn &txn, unsigned cols)
    {
        Tuple *t = ctx.pool().at<Tuple>(off);
        for (unsigned c = 0; c < cols; c++) {
            const std::uint64_t field =
                rng.next(kTupleValueBytes / 10);
            const Addr field_off =
                off + offsetof(Tuple, value) + field * 10;
            undoAppend(ctx, pr, txn, field_off, 10);
            std::uint8_t bytes[10];
            for (auto &b : bytes)
                b = static_cast<std::uint8_t>(rng());
            ctx.store(field_off, bytes, sizeof(bytes),
                      DataClass::User);
            txn.dirty.emplace_back(field_off, 10);
        }
        // Header (seq + checksum) under one more record.
        undoAppend(ctx, pr, txn, off + offsetof(Tuple, seq), 16);
        const std::uint64_t tuple_seq = t->seq + 1;
        ctx.storeField(t->seq, tuple_seq, DataClass::User);
        const std::uint32_t sum = tupleChecksum(*t);
        ctx.storeField(t->checksum, sum, DataClass::User);
        txn.dirty.emplace_back(off + offsetof(Tuple, seq), 16);
    }

    void
    ycsbTx(pm::PmContext &ctx, const PartRef &pr, Rng &rng,
           const ZipfianGenerator &zipf)
    {
        transact(ctx, pr, [&](Txn &txn) {
            // Four YCSB operations per transaction, 80% writes.
            for (int op = 0; op < 4; op++) {
                const std::uint64_t key = zipf.next(rng);
                const Addr off = findTuple(ctx, pr, key);
                if (off == kNullAddr)
                    continue;
                if (rng.chance(0.8)) {
                    // A YCSB update rewrites the whole 10-field value.
                    updateTuple(ctx, pr, off, rng, txn, 9);
                } else {
                    Tuple t{};
                    ctx.load(off, &t, sizeof(t));
                    ctx.compute(40);
                }
            }
        });
    }

    void
    tpccTx(pm::PmContext &ctx, const PartRef &pr, Rng &rng,
           const ZipfianGenerator &zipf, std::uint64_t op)
    {
        const double pick = rng.nextDouble();
        if (pick < 0.6) {
            // New-order: insert an order tuple plus 5..15 order
            // lines, update 5..15 stock rows.
            transact(ctx, pr, [&](Txn &txn) {
                const std::uint64_t lines = rng.range(5, 15);
                insertTuple(ctx, pr, 1'000'000 + op * 16, rng, &txn);
                for (std::uint64_t l = 0; l < lines; l++) {
                    insertTuple(ctx, pr, 1'000'000 + op * 16 + 1 + l,
                                rng, &txn);
                    const Addr stock =
                        findTuple(ctx, pr, zipf.next(rng));
                    if (stock != kNullAddr)
                        updateTuple(ctx, pr, stock, rng, txn, 8);
                }
            });
        } else if (pick < 0.85) {
            // Payment: update three hot rows.
            transact(ctx, pr, [&](Txn &txn) {
                for (int i = 0; i < 3; i++) {
                    const Addr off =
                        findTuple(ctx, pr, zipf.next(rng));
                    if (off != kNullAddr)
                        updateTuple(ctx, pr, off, rng, txn, 6);
                }
            });
        } else {
            // Order-status: read-only.
            for (int i = 0; i < 8; i++) {
                const Addr off = findTuple(ctx, pr, zipf.next(rng));
                if (off != kNullAddr) {
                    Tuple t{};
                    ctx.load(off, &t, sizeof(t));
                }
            }
            ctx.compute(200);
        }
    }

    /** Every partition of @p sh; stops at the first broken one. */
    bool
    checkShard(pm::PmContext &ctx, Shard &sh, std::string *why)
    {
        for (unsigned p = 0; p < sh.lanes; p++) {
            if (!checkPartition(ctx, part(sh, p), why))
                return false;
        }
        return true;
    }

    bool
    checkPartition(pm::PmContext &ctx, const PartRef &pr,
                   std::string *why)
    {
        const Partition *part = partition(ctx, pr);
        if (part->magic != Partition::kMagic) {
            if (why)
                *why = "bad partition magic";
            return false;
        }
        std::uint64_t seen = 0;
        for (std::uint64_t b = 0; b < kIndexBuckets; b++) {
            Addr cur = part->index[b];
            std::uint64_t guard = 0;
            while (cur != kNullAddr) {
                if (++guard > 10'000'000) {
                    if (why)
                        *why = "index chain cycle";
                    return false;
                }
                const Tuple *t = ctx.pool().at<Tuple>(cur);
                if (t->checksum != tupleChecksum(*t)) {
                    if (why)
                        *why = "tuple checksum mismatch (torn "
                               "update survived recovery)";
                    return false;
                }
                if (hashKey(t->key) % kIndexBuckets != b) {
                    if (why)
                        *why = "tuple in wrong bucket";
                    return false;
                }
                seen++;
                cur = t->next;
            }
        }
        if (seen > part->tupleCount + 1) {
            if (why)
                *why = "tupleCount below reachable tuples";
            return false;
        }
        return true;
    }

    /** scrubLayer() for one shard: claims (and erases from @p lines)
     *  every line of the shard's headers, undo logs and heap. */
    void
    scrubShard(pm::PmContext &ctx, Shard &sh,
               std::vector<LineAddr> &lines, VerifyReport &rep)
    {
        const Addr undo_end =
            sh.undoOff + static_cast<Addr>(sh.lanes) * kUndoLogBytes;
        const Addr heap_end = sh.heapOff + sh.heap->heapSize();
        std::vector<LineAddr> part_lines, undo_lines, heap_lines,
            rest;
        for (const LineAddr line : lines) {
            const Addr off = static_cast<Addr>(line) << kCacheLineBits;
            if (off >= sh.base && off < sh.undoOff)
                part_lines.push_back(line);
            else if (off >= sh.undoOff && off < undo_end)
                undo_lines.push_back(line);
            else if (off >= sh.heapOff && off < heap_end)
                heap_lines.push_back(line);
            else
                rest.push_back(line);
        }

        std::vector<bool> recount(sh.lanes, false);
        bool undo_lost = false;
        for (const LineAddr line : part_lines) {
            const Addr lo = static_cast<Addr>(line) << kCacheLineBits;
            const unsigned p = static_cast<unsigned>(
                (lo - sh.base) / kPartitionBytes);
            const Addr base = part(sh, p).part;
            const Addr hi =
                std::min<Addr>(lo + kCacheLineSize,
                               base + sizeof(Partition));
            for (Addr w = lo; w < hi; w += 8) {
                const Addr rel = w - base;
                if (rel == offsetof(Partition, magic)) {
                    const std::uint64_t magic = Partition::kMagic;
                    ctx.store(w, &magic, 8, DataClass::User);
                } else if (rel == offsetof(Partition, tupleCount)) {
                    recount[p] = true;
                } else if (rel == offsetof(Partition, activeLog)) {
                    const Addr null = kNullAddr;
                    ctx.store(w, &null, 8, DataClass::TxMeta);
                    undo_lost = true;
                } else if (rel == offsetof(Partition, activeSeq)) {
                    // Zero is fine once activeLog is retired.
                } else if (rel >= offsetof(Partition, index)) {
                    const Addr null = kNullAddr;
                    ctx.store(w, &null, 8, DataClass::User);
                }
            }
            if (hi > lo)
                ctx.persist(lo, hi - lo);
        }

        // Undo records matter only inside a published segment; a
        // zero-filled record there stops rollback's walk early and
        // later in-flight updates may persist torn (the checksums
        // report it, covered by the Degraded entry below).
        std::vector<LineAddr> active_lost;
        for (const LineAddr line : undo_lines) {
            const Addr off = static_cast<Addr>(line) << kCacheLineBits;
            const unsigned p = static_cast<unsigned>(
                (off - sh.undoOff) / kUndoLogBytes);
            const Addr seg = partition(ctx, part(sh, p))->activeLog;
            if (seg != kNullAddr && off >= seg &&
                off < seg + kUndoSegmentBytes) {
                active_lost.push_back(line);
            }
        }

        const auto node_lost = [&](Addr off, std::size_t n) {
            if (off < sh.heapOff + sizeof(alloc::BuddyHeader) ||
                off + n > heap_end)
                return true;
            for (LineAddr l = lineOf(off); l <= lineOf(off + n - 1);
                 l++) {
                if (std::find(heap_lines.begin(), heap_lines.end(),
                              l) != heap_lines.end())
                    return true;
            }
            return false;
        };
        std::uint64_t chains_cut = 0;
        for (unsigned p = 0; p < sh.lanes; p++) {
            std::uint64_t reachable = 0;
            for (std::uint64_t b = 0; b < kIndexBuckets; b++) {
                Addr slot = part(sh, p).part +
                            offsetof(Partition, index) + b * sizeof(Addr);
                Addr cur = 0;
                ctx.load(slot, &cur, 8);
                while (cur != kNullAddr) {
                    if (node_lost(cur, sizeof(Tuple))) {
                        const Addr null = kNullAddr;
                        ctx.store(slot, &null, 8, DataClass::User);
                        ctx.persist(slot, 8);
                        chains_cut++;
                        break;
                    }
                    reachable++;
                    const Tuple *t = ctx.pool().at<Tuple>(cur);
                    slot = cur + offsetof(Tuple, next);
                    cur = t->next;
                }
            }
            if (recount[p]) {
                const Addr w =
                    part(sh, p).part + offsetof(Partition, tupleCount);
                ctx.store(w, &reachable, 8, DataClass::User);
                ctx.persist(w, 8);
            }
        }

        if (!part_lines.empty()) {
            rep.degrade(
                "nstore-partition-lost",
                undo_lost
                    ? "partition header repaired; a published undo "
                      "descriptor was lost, so the in-flight "
                      "transaction cannot roll back"
                    : "partition header words repaired on "
                      "zero-filled lines",
                part_lines);
        }
        if (!active_lost.empty()) {
            rep.degrade("nstore-undo-record-lost",
                        "records in a published undo segment "
                        "zero-filled; rollback stops at the first "
                        "lost record",
                        active_lost);
        }
        if (chains_cut > 0) {
            rep.degrade("nstore-chain-lost",
                        std::to_string(chains_cut) +
                            " index chain(s) truncated at "
                            "media-lost tuples",
                        heap_lines);
        }
        lines = std::move(rest);
    }

    NstoreWorkload workload_;
    std::vector<Shard> shards_;
    core::WorkloadKeymap keymap_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeYcsbApp(const core::AppConfig &config)
{
    return std::make_unique<NstoreApp>(config, NstoreWorkload::Ycsb);
}

std::unique_ptr<core::WhisperApp>
makeTpccApp(const core::AppConfig &config)
{
    return std::make_unique<NstoreApp>(config, NstoreWorkload::Tpcc);
}

} // namespace whisper::apps
