/**
 * @file
 * MySQL: OLTP-complex (sysbench) over a PMFS-backed data directory
 * (paper §3.2.3).
 *
 * Models the PM-relevant behaviour of InnoDB on PMFS: a table file of
 * fixed-size rows, a secondary-index file, and a redo/binlog file.
 * Each sysbench OLTP-complex transaction mixes point selects, index
 * and non-index updates, and a delete+insert pair, ending with a log
 * append (the commit record) — every write reaching PM through file
 * syscalls. Row images carry checksums so torn row updates are
 * detectable after a crash (the database's own page checksums play
 * this role in real InnoDB).
 */

#include <atomic>
#include <mutex>

#include "apps/apps.hh"
#include "common/logging.hh"
#include "pmfs/pmfs.hh"
#include "txlib/mnemosyne.hh" // foldChecksum

namespace whisper::apps
{

using namespace core;
using mne::foldChecksum;

namespace
{

constexpr std::size_t kRowBytes = 128;
constexpr std::size_t kRowPayload = 100;

/** One row image as stored in the table file. */
struct Row
{
    std::uint64_t id;
    std::uint64_t version;
    std::uint32_t checksum;
    std::uint32_t pad;
    std::uint8_t payload[kRowPayload];
    std::uint8_t tail[kRowBytes - 124];
};
static_assert(sizeof(Row) == kRowBytes, "Row layout drifted");

std::uint32_t
rowChecksum(const Row &row)
{
    return foldChecksum(row.payload, sizeof(row.payload)) ^
           static_cast<std::uint32_t>(row.id) ^
           static_cast<std::uint32_t>(row.version);
}

class MysqlApp : public WhisperApp
{
  public:
    explicit MysqlApp(const AppConfig &config) : WhisperApp(config) {}

    std::string name() const override { return "mysql"; }
    AccessLayer layer() const override { return AccessLayer::Filesystem; }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        fs_ = std::make_unique<pmfs::Pmfs>(ctx, 0, config_.poolBytes);
        fs_->mkdir(ctx, "/data");
        tableIno_ = fs_->create(ctx, "/data/sbtest.ibd");
        indexIno_ = fs_->create(ctx, "/data/sbtest_k.ibd");
        binlogIno_ = fs_->create(ctx, "/data/binlog.000001");
        panic_if(tableIno_ == pmfs::kInvalidIno ||
                     indexIno_ == pmfs::kInvalidIno ||
                     binlogIno_ == pmfs::kInvalidIno,
                 "mysql setup failed");

        rows_ = std::max<std::uint64_t>(
            512, std::min<std::uint64_t>(config_.opsPerThread * 4,
                                         16384));
        Rng rng(config_.seed);
        std::vector<Row> chunk(32);
        for (std::uint64_t r = 0; r < rows_; r += chunk.size()) {
            const std::uint64_t n =
                std::min<std::uint64_t>(chunk.size(), rows_ - r);
            for (std::uint64_t i = 0; i < n; i++) {
                Row &row = chunk[i];
                row = Row{};
                row.id = r + i;
                row.version = 0;
                for (auto &b : row.payload)
                    b = static_cast<std::uint8_t>(rng());
                row.checksum = rowChecksum(row);
            }
            fs_->write(ctx, tableIno_, r * kRowBytes, chunk.data(),
                       n * kRowBytes);
        }
        // Index file: one 16-byte entry per row.
        std::vector<std::uint64_t> idx(rows_ * 2);
        for (std::uint64_t r = 0; r < rows_; r++) {
            idx[r * 2] = r;
            idx[r * 2 + 1] = r * kRowBytes;
        }
        fs_->write(ctx, indexIno_, 0, idx.data(),
                   idx.size() * sizeof(std::uint64_t));
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Rng rng(config_.seed * 241 + tid);
        ZipfianGenerator zipf(rows_);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            // OLTP-complex: 10 point selects.
            for (int i = 0; i < 10; i++) {
                Row row{};
                readRow(ctx, zipf.next(rng), row);
                ctx.vStore(&row, 64); // result set buffering
            }
            // SQL parsing, optimizer, buffer-pool management,
            // client round trips: a sysbench OLTP-complex transaction
            // runs for around a millisecond end to end (Table 1:
            // only 60K epochs/second).
            ctx.vBurst(&rng, 1 << 14, 300, 120);
            ctx.compute(700'000);

            // 1 index update + 1 non-index update.
            std::lock_guard<std::mutex> guard(dbLock_);
            updateRow(ctx, zipf.next(rng), rng, true);
            updateRow(ctx, zipf.next(rng), rng, false);

            // Commit record to the binlog (group commit of one).
            char rec[64];
            const int n = std::snprintf(
                rec, sizeof(rec), "COMMIT tid=%u op=%llu\n", tid,
                static_cast<unsigned long long>(op));
            fs_->append(ctx, binlogIno_, rec,
                        static_cast<std::size_t>(n));
        }
    }

    VerifyReport
    verify(Runtime &rt) override
    {
        VerifyReport rep = report();
        std::string why;
        rep.check(checkDb(rt, &why, false), "db-intact", why);
        return rep;
    }

    void recover(Runtime &rt) override { fs_->mount(rt.ctx(0)); }

    VerifyReport
    verifyRecovered(Runtime &rt) override
    {
        VerifyReport rep = report();
        std::string why;
        rep.check(checkDb(rt, &why, true), "db-intact", why);
        return rep;
    }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        VerifyReport rep = report();
        std::string why;
        rep.check(fs_->journalQuiescent(ctx, &why),
                  "journal-quiescent", why);
        why.clear();
        rep.check(fs_->fsck(ctx, &why), "fsck", why);
        return rep;
    }

  protected:
    void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &rep) override
    {
        fs_->scrub(rt.ctx(0), lines, rep);
    }

  private:
    void
    readRow(pm::PmContext &ctx, std::uint64_t id, Row &row)
    {
        fs_->read(ctx, tableIno_, id * kRowBytes, &row, sizeof(row));
    }

    void
    updateRow(pm::PmContext &ctx, std::uint64_t id, Rng &rng,
              bool index_update)
    {
        // InnoDB writes whole pages: read the 4 KB page containing
        // the row, mutate the row image, write the page back. This
        // is what keeps MySQL's PMFS amplification near the other
        // filesystem applications' ~0.1x and its writes NTI-heavy.
        const std::uint64_t rows_per_page =
            pmfs::kBlockSize / kRowBytes;
        const std::uint64_t page = id / rows_per_page;
        alignas(64) std::uint8_t page_buf[pmfs::kBlockSize];
        fs_->read(ctx, tableIno_, page * pmfs::kBlockSize, page_buf,
                  sizeof(page_buf));
        auto *row = reinterpret_cast<Row *>(
            page_buf + (id % rows_per_page) * kRowBytes);
        for (int i = 0; i < 10; i++) {
            row->payload[rng.next(sizeof(row->payload))] =
                static_cast<std::uint8_t>(rng());
        }
        row->version++;
        row->checksum = rowChecksum(*row);
        fs_->write(ctx, tableIno_, page * pmfs::kBlockSize, page_buf,
                   sizeof(page_buf));
        if (index_update) {
            const std::uint64_t entry[2] = {id, id * kRowBytes};
            fs_->write(ctx, indexIno_, id * 16, entry, sizeof(entry));
        }
    }

    bool
    checkDb(Runtime &rt, std::string *why, bool post_crash)
    {
        pm::PmContext &ctx = rt.ctx(0);
        std::string fsck_why;
        if (!fs_->fsck(ctx, &fsck_why)) {
            if (why)
                *why = "fsck: " + fsck_why;
            return false;
        }
        // Row images are non-journaled user data; PMFS guarantees
        // metadata consistency only, so a crash can tear an in-flight
        // page write — exactly the PMFS contract. The filesystem
        // fences at every journal commit, which bounds the exposure
        // to the writes of the last in-flight transaction: the one
        // index and one non-index update, i.e. at most two rows. With
        // @p post_crash set that many invalid rows are tolerated (a
        // real InnoDB would rebuild them from its redo log); after a
        // *clean* run every row must validate.
        const std::uint64_t torn_budget = post_crash ? 2 : 0;
        std::uint64_t torn = 0;
        for (std::uint64_t r = 0; r < rows_; r++) {
            Row row{};
            readRow(ctx, r, row);
            if (row.id != r || row.checksum != rowChecksum(row)) {
                torn++;
                if (torn > torn_budget) {
                    if (why) {
                        *why = post_crash
                                   ? "more torn rows than one "
                                     "transaction can leave"
                                   : "row id/checksum mismatch";
                    }
                    return false;
                }
            }
        }
        // Binlog sanity: size grew monotonically and is readable.
        const std::uint64_t blog = fs_->fileSize(ctx, binlogIno_);
        if (blog > 0) {
            char c = 0;
            fs_->read(ctx, binlogIno_, blog - 1, &c, 1);
            if (c != '\n') {
                if (why)
                    *why = "binlog does not end at a record boundary";
                return false;
            }
        }
        return true;
    }

    // ---- Unified workload driver surface ------------------------------
    //
    // Each workload thread gets its own database instance — table,
    // secondary index and binlog on a private PMFS volume over a
    // disjoint pool slice (sysbench against per-core server shards).
    // A key is a row id; row slot = the keymap's dense local index.
    // Writes keep InnoDB's shape: read the 4 KB page, mutate the row
    // image, write the page back, update the index entry, append a
    // commit record to the binlog.

    struct WlDb
    {
        std::unique_ptr<pmfs::Pmfs> fs;
        pmfs::Ino table = pmfs::kInvalidIno;
        pmfs::Ino index = pmfs::kInvalidIno;
        pmfs::Ino binlog = pmfs::kInvalidIno;
        std::uint64_t commits = 0;
    };

    /**
     * Per-op SQL parsing / optimizer / round-trip share. run()'s
     * sysbench transaction (~13 operations) spends compute(700'000);
     * one KV op carries a proportional slice.
     */
    void
    wlPad(pm::PmContext &ctx, std::uint64_t key)
    {
        ctx.vStore(&key, 8);
        ctx.vBurst(&key, 1 << 14, 25, 10);
        ctx.compute(55'000);
    }

    static void
    wlFillRow(std::uint64_t key, std::uint64_t value, Row &row)
    {
        row = Row{};
        row.id = key;
        row.version = value;
        std::uint64_t seed = value;
        for (std::size_t i = 0; i + 8 <= sizeof(row.payload); i += 8) {
            seed += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            z ^= z >> 31;
            std::memcpy(row.payload + i, &z, 8);
        }
        row.checksum = rowChecksum(row);
    }

    /** Page-granularity row write, matching updateRow()'s shape. */
    void
    wlWriteRow(pm::PmContext &ctx, WlDb &db, std::uint64_t slot,
               const Row &row)
    {
        const std::uint64_t rows_per_page =
            pmfs::kBlockSize / kRowBytes;
        const std::uint64_t page = slot / rows_per_page;
        alignas(64) std::uint8_t page_buf[pmfs::kBlockSize] = {};
        if (page * pmfs::kBlockSize <
            db.fs->fileSize(ctx, db.table)) {
            db.fs->read(ctx, db.table, page * pmfs::kBlockSize,
                        page_buf, sizeof(page_buf));
        }
        std::memcpy(page_buf + (slot % rows_per_page) * kRowBytes,
                    &row, sizeof(row));
        db.fs->write(ctx, db.table, page * pmfs::kBlockSize, page_buf,
                     sizeof(page_buf));
        const std::uint64_t entry[2] = {row.id, slot * kRowBytes};
        db.fs->write(ctx, db.index, slot * 16, entry, sizeof(entry));
    }

    void
    wlCommit(pm::PmContext &ctx, WlDb &db, ThreadId tid)
    {
        char rec[64];
        const int n = std::snprintf(
            rec, sizeof(rec), "COMMIT tid=%u op=%llu\n", tid,
            static_cast<unsigned long long>(db.commits++));
        db.fs->append(ctx, db.binlog, rec,
                      static_cast<std::size_t>(n));
    }

  public:
    void
    workloadSetup(Runtime &rt, const core::WorkloadKeymap &map) override
    {
        wlMap_ = map;
        wlDbs_.clear();
        wlDbs_.resize(map.threads);
        const Addr region = lineBase(config_.poolBytes / map.threads);
        panic_if(region <= (8u << 20),
                 "mysql workload: pool too small for %u volumes",
                 map.threads);
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            WlDb &db = wlDbs_[t];
            db.fs = std::make_unique<pmfs::Pmfs>(
                ctx, static_cast<Addr>(t) * region, region);
            db.fs->mkdir(ctx, "/data");
            db.table = db.fs->create(ctx, "/data/sbtest.ibd");
            db.index = db.fs->create(ctx, "/data/sbtest_k.ibd");
            db.binlog = db.fs->create(ctx, "/data/binlog.000001");
            panic_if(db.table == pmfs::kInvalidIno ||
                         db.index == pmfs::kInvalidIno ||
                         db.binlog == pmfs::kInvalidIno,
                     "mysql workload setup failed");

            // Preload rows page by page (one syscall per 32 rows,
            // mirroring setup()'s chunked load).
            std::vector<Row> chunk(32);
            for (std::uint64_t s = 0; s < map.perThread();
                 s += chunk.size()) {
                const std::uint64_t n = std::min<std::uint64_t>(
                    chunk.size(), map.perThread() - s);
                for (std::uint64_t i = 0; i < n; i++) {
                    const std::uint64_t key = map.lo(t) + s + i;
                    wlFillRow(key, key * 0x9e3779b97f4a7c15ull,
                              chunk[i]);
                }
                db.fs->write(ctx, db.table, s * kRowBytes,
                             chunk.data(), n * kRowBytes);
            }
            std::vector<std::uint64_t> idx(map.perThread() * 2);
            for (std::uint64_t s = 0; s < map.perThread(); s++) {
                idx[s * 2] = map.lo(t) + s;
                idx[s * 2 + 1] = s * kRowBytes;
            }
            if (!idx.empty()) {
                db.fs->write(ctx, db.index, 0, idx.data(),
                             idx.size() * sizeof(std::uint64_t));
            }
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        WlDb &db = wlDbs_[tid];
        wlPad(ctx, key);
        const std::uint64_t slot = wlMap_.localIndex(tid, key);
        Row row{};
        db.fs->read(ctx, db.table, slot * kRowBytes, &row,
                    sizeof(row));
        ctx.vStore(&row, 64); // result set buffering
        return row.id == key;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        WlDb &db = wlDbs_[tid];
        wlPad(ctx, key);
        Row row{};
        wlFillRow(key, value, row);
        wlWriteRow(ctx, db, wlMap_.localIndex(tid, key), row);
        wlCommit(ctx, db, tid);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        WlDb &db = wlDbs_[tid];
        wlPad(ctx, key);
        const std::uint64_t slot = wlMap_.localIndex(tid, key);
        Row row{};
        db.fs->read(ctx, db.table, slot * kRowBytes, &row,
                    sizeof(row));
        const bool found = row.id == key;
        wlFillRow(key, (found ? row.version : 0) + delta, row);
        wlWriteRow(ctx, db, slot, row);
        wlCommit(ctx, db, tid);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        WlDb &db = wlDbs_[tid];
        wlPad(ctx, key);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const std::uint64_t k = wlMap_.scanKey(tid, key, j);
            Row row{};
            db.fs->read(ctx, db.table,
                        wlMap_.localIndex(tid, k) * kRowBytes, &row,
                        sizeof(row));
            if (row.id == k)
                found++;
        }
        return found;
    }

    VerifyReport
    workloadCheck(Runtime &rt) override
    {
        VerifyReport rep = report();
        for (unsigned t = 0; t < wlMap_.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            WlDb &db = wlDbs_[t];
            // A clean run leaves the descriptor COMMITTED (commit is
            // lazy about the FREE transition); mount-time recovery
            // retires it, exactly like the run path's recover().
            db.fs->mount(ctx);
            std::string why;
            rep.check(db.fs->journalQuiescent(ctx, &why),
                      "journal-quiescent", why);
            why.clear();
            rep.check(db.fs->fsck(ctx, &why), "fsck", why);
            // Every preloaded row must validate (clean-run contract).
            bool rows_ok = true;
            for (std::uint64_t s = 0;
                 rows_ok && s < wlMap_.perThread(); s++) {
                Row row{};
                db.fs->read(ctx, db.table, s * kRowBytes, &row,
                            sizeof(row));
                rows_ok = row.checksum == rowChecksum(row);
            }
            rep.check(rows_ok, "rows-intact",
                      "row checksum mismatch in shard " +
                          std::to_string(t));
        }
        return rep;
    }

  private:
    std::unique_ptr<pmfs::Pmfs> fs_;
    pmfs::Ino tableIno_ = pmfs::kInvalidIno;
    pmfs::Ino indexIno_ = pmfs::kInvalidIno;
    pmfs::Ino binlogIno_ = pmfs::kInvalidIno;
    std::uint64_t rows_ = 0;
    std::mutex dbLock_;
    core::WorkloadKeymap wlMap_;
    std::vector<WlDb> wlDbs_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeMysqlApp(const core::AppConfig &config)
{
    return std::make_unique<MysqlApp>(config);
}

} // namespace whisper::apps
