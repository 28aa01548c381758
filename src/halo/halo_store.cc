#include "halo/halo_store.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace whisper::halo
{

using pm::DataClass;

namespace
{

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return mix64(h + v);
}

} // namespace

HaloStore::HaloStore(const Config &config)
    : config_(config),
      alloc_(HaloSegmentAllocator::Config{config.base, config.bytes,
                                          config.threads,
                                          config.placement,
                                          config.dimms})
{
    dirs_.reserve(config.threads);
    for (unsigned t = 0; t < config.threads; t++)
        dirs_.push_back(std::make_unique<HaloDirectory>());
    threads_.resize(config.threads);
}

bool
HaloStore::appendRecord(pm::PmContext &ctx, ThreadId tid,
                        std::uint64_t key, const std::uint64_t *vals,
                        bool tombstone)
{
    panic_if(tid >= threads_.size(), "halo: tid out of range");
    panic_if(partitionOf(key) != tid,
             "halo: thread %u mutating foreign key", tid);
    PerThread &pt = threads_[tid];

    bool sealed = false;
    const Addr slot = alloc_.append(ctx, tid, pt.nextCounter, sealed);
    if (sealed)
        promote(tid);
    if (slot == kNullAddr)
        return false;

    const std::uint64_t seq =
        HaloRecord::makeSeq(tid, pt.nextCounter);
    HaloRecord rec{};
    rec.flags = tombstone ? kRecFlagTombstone : kRecFlagPut;
    rec.owner = static_cast<std::uint16_t>(tid);
    rec.seq = seq;
    rec.key = key;
    if (!tombstone) {
        for (std::size_t i = 0; i < kValWords; i++)
            rec.vals[i] = vals[i];
    }
    rec.crc = rec.computeCrc();

    // Journal the op BEFORE touching PM: a crash mid-append can leave
    // a fully-written (CRC-valid) record on media via cache eviction,
    // and the genuineness oracle must know about it.
    WrittenOp w;
    w.key = key;
    w.tombstone = tombstone;
    for (std::size_t i = 0; i < kValWords; i++)
        w.vals[i] = rec.vals[i];
    pt.written.emplace(pt.nextCounter, w);
    pt.nextCounter++;

    {
        pm::OriginScope origin(ctx, trace::Origin::HaloAppend);
        // One record append is one durable transaction of the layer
        // (commit happens lazily at the batch's seal fence).
        const TxId tx = ctx.txBegin();
        // Header (recovery metadata) and payload carry their own
        // data classes so the amplification analysis separates them;
        // both land in the one line a single clwb covers.
        ctx.store(slot, &rec, kRecHeaderBytes, DataClass::TxMeta);
        ctx.store(slot + kRecHeaderBytes, &rec.key, kRecPayloadBytes,
                  DataClass::User);
        ctx.flush(slot, kRecordBytes);
        ctx.txEnd(tx);
    }

    // PM ops done (no crash): update the volatile index and batch.
    Pending p;
    p.key = key;
    p.seq = seq;
    p.tombstone = tombstone;
    for (std::size_t i = 0; i < kValWords; i++)
        p.vals[i] = rec.vals[i];
    p.addr = slot;
    pt.pending.push_back(p);
    if (tombstone)
        dirs_[tid]->erase(key);
    else
        dirs_[tid]->upsert(key, slot);
    ctx.vStore(dirs_[tid].get(), kCacheLineSize); // index bucket touch
    return true;
}

bool
HaloStore::put(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
               const std::uint64_t vals[kValWords])
{
    return appendRecord(ctx, tid, key, vals, false);
}

bool
HaloStore::remove(pm::PmContext &ctx, ThreadId tid, std::uint64_t key)
{
    return appendRecord(ctx, tid, key, nullptr, true);
}

void
HaloStore::durabilityPoint(pm::PmContext &ctx, ThreadId tid)
{
    panic_if(tid >= threads_.size(), "halo: tid out of range");
    // A fence dropped by a fired crash plan persisted nothing: the
    // batch must stay uncommitted in the oracle too. The retired
    // status is decided inside the gated fence op, so the promotion
    // is deterministic even when another thread fires concurrently.
    if (alloc_.seal(ctx, tid))
        promote(tid);
}

void
HaloStore::promote(ThreadId tid)
{
    PerThread &pt = threads_[tid];
    for (const Pending &p : pt.pending) {
        CommitState &c = pt.committed[p.key];
        c.seq = p.seq;
        c.tombstone = p.tombstone;
        for (std::size_t i = 0; i < kValWords; i++)
            c.vals[i] = p.vals[i];
        c.addr = p.addr;
    }
    pt.pending.clear();
}

bool
HaloStore::get(pm::PmContext &ctx, std::uint64_t key,
               std::uint64_t vals[kValWords]) const
{
    const ThreadId p = partitionOf(key);
    panic_if(p >= dirs_.size(), "halo: key names no partition");
    ctx.vLoad(dirs_[p].get(), kCacheLineSize); // index bucket probe
    Addr addr = kNullAddr;
    if (!dirs_[p]->lookup(key, addr))
        return false;
    HaloRecord rec;
    ctx.load(addr, &rec, sizeof(rec));
    if (!rec.valid() || rec.key != key || rec.tombstone())
        return false;
    for (std::size_t i = 0; i < kValWords; i++)
        vals[i] = rec.vals[i];
    return true;
}

bool
HaloStore::indexLookup(std::uint64_t key, Addr &addr) const
{
    const ThreadId p = partitionOf(key);
    if (p >= dirs_.size())
        return false;
    return dirs_[p]->lookup(key, addr);
}

bool
HaloStore::recordAt(const pm::PmPool &pool, Addr addr,
                    HaloRecord &out) const
{
    if (addr == kNullAddr ||
        alloc_.segmentOf(addr) == ~std::uint64_t(0))
        return false;
    pool.applyLoad(addr, &out, sizeof(out));
    return out.valid();
}

bool
HaloStore::writtenOp(ThreadId tid, std::uint64_t ctr,
                     WrittenOp &out) const
{
    if (tid >= threads_.size())
        return false;
    const auto it = threads_[tid].written.find(ctr);
    if (it == threads_[tid].written.end())
        return false;
    out = it->second;
    return true;
}

std::size_t
HaloStore::noteLostLines(const std::vector<LineAddr> &lines)
{
    std::size_t records = 0;
    for (const LineAddr line : lines) {
        const Addr addr = static_cast<Addr>(line) << kCacheLineBits;
        const std::uint64_t seg = alloc_.segmentOf(addr);
        if (seg == ~std::uint64_t(0))
            continue;
        lostLines_.insert(line);
        if (addr != alloc_.segmentAddr(seg))
            records++; // a record slot, not the advisory header
    }
    return records;
}

void
HaloStore::recoverScan(pm::PmPool &pool, unsigned jobs)
{
    // The rebuild starts from nothing: the power cut took every DRAM
    // structure. (The oracle journals survive — they belong to the
    // test harness, not the store.)
    for (auto &dir : dirs_)
        dir->clear();
    for (PerThread &pt : threads_) {
        pt.pending.clear();
        pt.recoveredTombs.clear();
        pt.maxRecoveredCounter = 0;
    }

    const std::size_t segs = alloc_.segmentCount();
    ThreadPool tp(jobs);
    const std::vector<ShardRange> shards =
        shardRanges(segs, tp.workerCount() * 4);

    struct ShardScan
    {
        std::vector<std::pair<Addr, HaloRecord>> records;
        std::vector<std::uint64_t> used;
    };
    const std::vector<ShardScan> scans = tp.map(
        shards.size(), [&](std::size_t i) {
            ShardScan out;
            for (std::uint64_t seg = shards[i].begin;
                 seg < shards[i].end; seg++) {
                const ThreadId owner = alloc_.ownerOf(seg);
                bool used = false;
                HaloSegmentHeader hdr;
                pool.applyLoad(alloc_.segmentAddr(seg), &hdr,
                               sizeof(hdr));
                if (hdr.valid(seg))
                    used = true;
                for (std::uint64_t slot = 0;
                     slot < kRecordsPerSegment; slot++) {
                    const Addr addr = alloc_.slotAddr(seg, slot);
                    HaloRecord rec;
                    pool.applyLoad(addr, &rec, sizeof(rec));
                    if (!rec.valid())
                        continue;
                    // A genuine record always sits in its writer's
                    // own range and names a key of that partition.
                    if (HaloRecord::ownerOfSeq(rec.seq) != owner ||
                        partitionOf(rec.key) != owner)
                        continue;
                    used = true;
                    out.records.emplace_back(addr, rec);
                }
                if (used)
                    out.used.push_back(seg);
            }
            return out;
        });

    // Merge in shard order == ascending segment order. Per thread
    // that is ascending sequence order (bump allocation), so a plain
    // replay is last-writer-wins with tombstones honored.
    std::vector<bool> used(segs, false);
    for (const ShardScan &scan : scans) {
        for (const std::uint64_t seg : scan.used)
            used[seg] = true;
        for (const auto &[addr, rec] : scan.records) {
            const ThreadId tid = HaloRecord::ownerOfSeq(rec.seq);
            PerThread &pt = threads_[tid];
            pt.maxRecoveredCounter =
                std::max(pt.maxRecoveredCounter,
                         HaloRecord::counterOfSeq(rec.seq));
            if (rec.tombstone()) {
                dirs_[tid]->erase(rec.key);
                pt.recoveredTombs[rec.key] = rec.seq;
            } else {
                dirs_[tid]->upsert(rec.key, addr);
            }
        }
    }
    alloc_.resetFromScan(used);

    // Seq counters resume strictly above everything ever issued (the
    // in-process counter already dominates the scan's maximum; a cold
    // restart would resume from the scan).
    for (PerThread &pt : threads_) {
        pt.nextCounter =
            std::max(pt.nextCounter, pt.maxRecoveredCounter + 1);
    }

    // Deterministic rebuild fingerprint: sorted entries, then the
    // used map and tombstone high-water marks.
    std::vector<std::pair<std::uint64_t, Addr>> entries;
    forEachIndexed([&](std::uint64_t key, Addr addr) {
        entries.emplace_back(key, addr);
    });
    std::sort(entries.begin(), entries.end());
    std::uint64_t h = 0x48414c4full;
    for (const auto &[key, addr] : entries) {
        HaloRecord rec;
        if (!recordAt(pool, addr, rec))
            continue; // unreachable: the scan just validated it
        h = fold(h, key);
        h = fold(h, addr);
        h = fold(h, rec.seq);
        for (std::size_t i = 0; i < kValWords; i++)
            h = fold(h, rec.vals[i]);
    }
    for (std::size_t seg = 0; seg < used.size(); seg++) {
        if (used[seg])
            h = fold(h, seg);
    }
    for (unsigned t = 0; t < threads_.size(); t++) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> tombs(
            threads_[t].recoveredTombs.begin(),
            threads_[t].recoveredTombs.end());
        std::sort(tombs.begin(), tombs.end());
        for (const auto &[key, seq] : tombs) {
            h = fold(h, key);
            h = fold(h, seq);
        }
    }
    rebuildDigest_ = h;
}

} // namespace whisper::halo
