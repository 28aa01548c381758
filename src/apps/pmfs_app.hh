/**
 * @file
 * The frame the three PMFS apps (exim, nfs, mysql) share.
 *
 * Each app keeps one std::vector of volumes, a volume being one PMFS
 * filesystem plus the app's files on it. setup() formats one volume
 * over the whole pool with the app's run() layout (formatPool);
 * workloadSetup() formats one volume per workload thread over disjoint
 * pool slices with the app's workload layout (formatSlices). Recovery,
 * scrub and the recovery and workload checks walk every volume; an
 * app's own run() checks read its one run() volume. StripedPmfsApp is
 * the fixed-record workload store exim and nfs share.
 */

#ifndef WHISPER_APPS_PMFS_APP_HH
#define WHISPER_APPS_PMFS_APP_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/app.hh"
#include "pmfs/pmfs.hh"

namespace whisper::apps
{

/** One PMFS filesystem; each app derives its volume type from it. */
struct PmfsVolume
{
    std::unique_ptr<pmfs::Pmfs> fs;
};

/**
 * A volume whose workload records are striped over @p Stripes extent
 * files (see StripedPmfsApp).
 */
template <std::size_t RecordBytes, unsigned Stripes>
struct StripedVolume : PmfsVolume
{
    static constexpr std::size_t kRecordBytes = RecordBytes;
    static constexpr unsigned kStripes = Stripes;
    pmfs::Ino stripes[Stripes] = {};
};

/** WhisperApp over a vector of @p Volume (a PmfsVolume subtype). */
template <class Volume>
class PmfsApp : public core::WhisperApp
{
  public:
    using WhisperApp::WhisperApp;

    core::AccessLayer
    layer() const override
    {
        return core::AccessLayer::Filesystem;
    }

    /** Default clean-run invariant: every volume passes fsck. */
    core::VerifyReport
    verify(core::Runtime &rt) override
    {
        core::VerifyReport rep = report();
        for (Volume &vol : vols_) {
            std::string why;
            rep.check(vol.fs->fsck(rt.ctx(0), &why), "fsck", why);
        }
        return rep;
    }

    void
    recover(core::Runtime &rt) override
    {
        for (Volume &vol : vols_)
            vol.fs->mount(rt.ctx(0));
    }

    core::VerifyReport
    checkRecoveryInvariants(core::Runtime &rt) override
    {
        core::VerifyReport rep = report();
        for (Volume &vol : vols_)
            checkVolume(rt.ctx(0), vol, rep);
        return rep;
    }

    /**
     * A clean run leaves each journal descriptor COMMITTED (commit is
     * lazy about the FREE transition), so each volume is mounted
     * first, retiring it as recover() does. Then the recovery checks
     * and checkWorkloadVolume() run on it.
     */
    core::VerifyReport
    workloadCheck(core::Runtime &rt) override
    {
        core::VerifyReport rep = report();
        for (ThreadId t = 0; t < vols_.size(); t++) {
            pm::PmContext &ctx = rt.ctx(t);
            vols_[t].fs->mount(ctx);
            checkVolume(ctx, vols_[t], rep);
            checkWorkloadVolume(ctx, t, rep);
        }
        return rep;
    }

  protected:
    void
    scrubLayer(core::Runtime &rt, std::vector<LineAddr> &lines,
               core::VerifyReport &rep) override
    {
        for (Volume &vol : vols_)
            vol.fs->scrub(rt.ctx(0), lines, rep);
    }

    /** App checks of workload volume @p tid after a clean run. */
    virtual void
    checkWorkloadVolume(pm::PmContext &, ThreadId, core::VerifyReport &)
    {
    }

    /** Format run()'s single volume over the whole pool. */
    Volume &
    formatPool(pm::PmContext &ctx)
    {
        vols_.clear();
        return format(ctx, 0, config_.poolBytes);
    }

    /**
     * Format one volume per workload thread over disjoint pool slices,
     * running @p layout(ctx, volume, tid) on each before the next.
     */
    template <class Layout>
    void
    formatSlices(core::Runtime &rt, const core::WorkloadKeymap &map,
                 Layout layout)
    {
        keymap_ = map;
        vols_.clear();
        const Addr region = lineBase(config_.poolBytes / map.threads);
        panic_if(region <= (8u << 20),
                 "%s workload: pool too small for %u volumes",
                 name().c_str(), map.threads);
        for (ThreadId t = 0; t < map.threads; t++)
            layout(rt.ctx(t), format(rt.ctx(t), t * region, region), t);
    }

    std::vector<Volume> vols_;
    core::WorkloadKeymap keymap_;

  private:
    Volume &
    format(pm::PmContext &ctx, Addr base, std::size_t size)
    {
        Volume &vol = vols_.emplace_back();
        vol.fs = std::make_unique<pmfs::Pmfs>(ctx, base, size);
        return vol;
    }

    static void
    checkVolume(pm::PmContext &ctx, Volume &vol, core::VerifyReport &rep)
    {
        std::string why;
        rep.check(vol.fs->journalQuiescent(ctx, &why),
                  "journal-quiescent", why);
        why.clear();
        rep.check(vol.fs->fsck(ctx, &why), "fsck", why);
    }
};

/**
 * PmfsApp serving the generated workload from fixed-size records
 * striped over the extent files of a StripedVolume. The record of the
 * key with dense local index i (core::WorkloadKeymap) is slot
 * i / kStripes of stripe i % kStripes; its first word is the key, its
 * second the value. Every access is one syscall, so each write is one
 * journal transaction. Subclasses supply the per-op padding and may
 * append to the volume after each record write.
 */
template <class Volume>
class StripedPmfsApp : public PmfsApp<Volume>
{
  public:
    using PmfsApp<Volume>::PmfsApp;

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, key);
        Record rec;
        return load(ctx, tid, key, rec);
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, key);
        store(ctx, tid, key, value);
    }

    /** value += @p delta (from 0 when absent); returns found. */
    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, key);
        Record rec;
        const bool found = load(ctx, tid, key, rec);
        store(ctx, tid, key, (found ? rec[1] : 0) + delta);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, key);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const std::uint64_t k = this->keymap_.scanKey(tid, key, j);
            Record rec;
            found += load(ctx, tid, k, rec);
        }
        return found;
    }

  protected:
    static constexpr std::size_t kRecordBytes = Volume::kRecordBytes;
    static constexpr unsigned kStripes = Volume::kStripes;
    using Record = std::uint64_t[kRecordBytes / 8];

    /** DRAM and compute work around one op, in run()'s shape. */
    virtual void pad(pm::PmContext &ctx, std::uint64_t key) = 0;

    /** Hook after the record of @p key in @p stripe was written. */
    virtual void
    afterWrite(pm::PmContext &, Volume &, std::uint64_t, unsigned)
    {
    }

    /**
     * Write the records of workload thread @p tid's loaded keys. A
     * write journals the metadata of every block it appends in one
     * transaction, so whole-file writes at large key counts would
     * overflow a journal segment; 128 KiB per call stays well inside.
     */
    void
    preload(pm::PmContext &ctx, Volume &vol, ThreadId tid)
    {
        constexpr std::uint64_t kChunkBytes = 128u << 10;
        const std::uint64_t per = this->keymap_.perThread();
        std::vector<std::uint64_t> buf;
        for (unsigned s = 0; s < kStripes; s++) {
            const std::uint64_t recs =
                per / kStripes + (s < per % kStripes ? 1 : 0);
            buf.resize(recs * kRecordBytes / 8);
            for (std::uint64_t r = 0; r < recs; r++) {
                const std::uint64_t key =
                    this->keymap_.lo(tid) + r * kStripes + s;
                fill(key, key * 0x9e3779b97f4a7c15ull,
                     &buf[r * kRecordBytes / 8]);
            }
            const auto *bytes =
                reinterpret_cast<const std::uint8_t *>(buf.data());
            for (std::uint64_t off = 0; off < recs * kRecordBytes;
                 off += kChunkBytes) {
                vol.fs->write(ctx, vol.stripes[s], off, bytes + off,
                              std::min(kChunkBytes,
                                       recs * kRecordBytes - off));
            }
        }
    }

  private:
    /** Deterministic record image for (@p key, @p value). */
    static void
    fill(std::uint64_t key, std::uint64_t value, std::uint64_t *rec)
    {
        rec[0] = key;
        rec[1] = value;
        rec[2] = key ^ value;
        for (std::size_t w = 3; w < kRecordBytes / 8; w++)
            rec[w] = splitmix64(value);
    }

    /** Stripe of @p key's record; @p off receives its file offset. */
    unsigned
    locate(ThreadId tid, std::uint64_t key, std::uint64_t &off) const
    {
        const std::uint64_t i = this->keymap_.localIndex(tid, key);
        off = i / kStripes * kRecordBytes;
        return static_cast<unsigned>(i % kStripes);
    }

    /** Read @p key's record into @p rec; returns whether it holds @p key. */
    bool
    load(pm::PmContext &ctx, ThreadId tid, std::uint64_t key, Record rec)
    {
        Volume &vol = this->vols_[tid];
        std::uint64_t off = 0;
        const unsigned s = locate(tid, key, off);
        vol.fs->read(ctx, vol.stripes[s], off, rec, kRecordBytes);
        return rec[0] == key;
    }

    /** Write the record of (@p key, @p value), then run afterWrite(). */
    void
    store(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
          std::uint64_t value)
    {
        Volume &vol = this->vols_[tid];
        std::uint64_t off = 0;
        const unsigned s = locate(tid, key, off);
        Record rec;
        fill(key, value, rec);
        vol.fs->write(ctx, vol.stripes[s], off, rec, kRecordBytes);
        afterWrite(ctx, vol, key, s);
    }
};

} // namespace whisper::apps

#endif // WHISPER_APPS_PMFS_APP_HH
