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
#include <cstring>
#include <mutex>

#include "apps/apps.hh"
#include "apps/pmfs_app.hh"
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

/**
 * One database: table, secondary index and binlog on one volume. The
 * generated workload gives each thread its own (sysbench against
 * per-core server shards); a key is a row id stored at the keymap's
 * dense local index.
 */
struct MysqlVolume : PmfsVolume
{
    pmfs::Ino table = pmfs::kInvalidIno;
    pmfs::Ino index = pmfs::kInvalidIno;
    pmfs::Ino binlog = pmfs::kInvalidIno;
    std::uint64_t commits = 0; //!< workload commit records appended
};

class MysqlApp : public PmfsApp<MysqlVolume>
{
  public:
    explicit MysqlApp(const AppConfig &config) : PmfsApp(config) {}

    std::string name() const override { return "mysql"; }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        MysqlVolume &vol = formatPool(ctx);
        createDb(ctx, vol);

        rows_ = std::max<std::uint64_t>(
            512, std::min<std::uint64_t>(config_.opsPerThread * 4,
                                         16384));
        Rng rng(config_.seed);
        loadTable(ctx, vol, 0, rows_, [&](std::uint64_t id, Row &row) {
            row = Row{};
            row.id = id;
            for (auto &b : row.payload)
                b = static_cast<std::uint8_t>(rng());
            row.checksum = rowChecksum(row);
        });
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        MysqlVolume &vol = vols_[0];
        Rng rng(config_.seed * 241 + tid);
        ZipfianGenerator zipf(rows_);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            // OLTP-complex: 10 point selects.
            for (int i = 0; i < 10; i++) {
                Row row{};
                readRow(ctx, vol, zipf.next(rng), row);
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
            updateRow(ctx, vol, zipf.next(rng), rng, true);
            updateRow(ctx, vol, zipf.next(rng), rng, false);

            // Commit record to the binlog (group commit of one).
            commit(ctx, vol, tid, op);
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

    VerifyReport
    verifyRecovered(Runtime &rt) override
    {
        VerifyReport rep = report();
        std::string why;
        rep.check(checkDb(rt, &why, true), "db-intact", why);
        return rep;
    }

    void
    workloadSetup(Runtime &rt, const WorkloadKeymap &map) override
    {
        auto layout = [&](pm::PmContext &ctx, MysqlVolume &vol,
                          ThreadId tid) {
            createDb(ctx, vol);
            loadTable(ctx, vol, map.lo(tid), map.perThread(),
                      [](std::uint64_t key, Row &row) {
                          fillRow(key, key * 0x9e3779b97f4a7c15ull, row);
                      });
        };
        formatSlices(rt, map, layout);
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, key);
        Row row{};
        readRow(ctx, vols_[tid], keymap_.localIndex(tid, key), row);
        ctx.vStore(&row, 64); // result set buffering
        return row.id == key;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, key);
        storeRow(ctx, tid, key, value);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, key);
        Row row{};
        readRow(ctx, vols_[tid], keymap_.localIndex(tid, key), row);
        const bool found = row.id == key;
        storeRow(ctx, tid, key, (found ? row.version : 0) + delta);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, key);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const std::uint64_t k = keymap_.scanKey(tid, key, j);
            Row row{};
            readRow(ctx, vols_[tid], keymap_.localIndex(tid, k), row);
            if (row.id == k)
                found++;
        }
        return found;
    }

  protected:
    /** Every preloaded row must validate (clean-run contract). */
    void
    checkWorkloadVolume(pm::PmContext &ctx, ThreadId tid,
                        VerifyReport &rep) override
    {
        bool rows_ok = true;
        for (std::uint64_t s = 0; rows_ok && s < keymap_.perThread();
             s++) {
            Row row{};
            readRow(ctx, vols_[tid], s, row);
            rows_ok = row.checksum == rowChecksum(row);
        }
        rep.check(rows_ok, "rows-intact",
                  "row checksum mismatch in shard " +
                      std::to_string(tid));
    }

  private:
    /** /data with the table, index and binlog files. */
    static void
    createDb(pm::PmContext &ctx, MysqlVolume &vol)
    {
        vol.fs->mkdir(ctx, "/data");
        vol.table = vol.fs->create(ctx, "/data/sbtest.ibd");
        vol.index = vol.fs->create(ctx, "/data/sbtest_k.ibd");
        vol.binlog = vol.fs->create(ctx, "/data/binlog.000001");
        panic_if(vol.table == pmfs::kInvalidIno ||
                     vol.index == pmfs::kInvalidIno ||
                     vol.binlog == pmfs::kInvalidIno,
                 "mysql: database create failed");
    }

    /**
     * Load @p rows rows, ids from @p first_id, into fresh table and
     * index files: 32 rows per table write (InnoDB's page-sized
     * loads), one index write of a 16-byte entry per row.
     */
    template <class MakeRow>
    static void
    loadTable(pm::PmContext &ctx, MysqlVolume &vol, std::uint64_t first_id,
              std::uint64_t rows, MakeRow make_row)
    {
        std::vector<Row> chunk(32);
        for (std::uint64_t s = 0; s < rows; s += chunk.size()) {
            const std::uint64_t n =
                std::min<std::uint64_t>(chunk.size(), rows - s);
            for (std::uint64_t i = 0; i < n; i++)
                make_row(first_id + s + i, chunk[i]);
            vol.fs->write(ctx, vol.table, s * kRowBytes, chunk.data(),
                          n * kRowBytes);
        }
        std::vector<std::uint64_t> idx(rows * 2);
        for (std::uint64_t s = 0; s < rows; s++) {
            idx[s * 2] = first_id + s;
            idx[s * 2 + 1] = s * kRowBytes;
        }
        if (rows > 0) {
            vol.fs->write(ctx, vol.index, 0, idx.data(),
                          idx.size() * sizeof(std::uint64_t));
        }
    }

    static void
    readRow(pm::PmContext &ctx, MysqlVolume &vol, std::uint64_t slot,
            Row &row)
    {
        vol.fs->read(ctx, vol.table, slot * kRowBytes, &row,
                     sizeof(row));
    }

    void
    updateRow(pm::PmContext &ctx, MysqlVolume &vol, std::uint64_t id,
              Rng &rng, bool index_update)
    {
        // InnoDB writes whole pages: read the 4 KB page containing
        // the row, mutate the row image, write the page back. This
        // is what keeps MySQL's PMFS amplification near the other
        // filesystem applications' ~0.1x and its writes NTI-heavy.
        const std::uint64_t rows_per_page =
            pmfs::kBlockSize / kRowBytes;
        const std::uint64_t page = id / rows_per_page;
        alignas(64) std::uint8_t page_buf[pmfs::kBlockSize];
        vol.fs->read(ctx, vol.table, page * pmfs::kBlockSize, page_buf,
                     sizeof(page_buf));
        auto *row = reinterpret_cast<Row *>(
            page_buf + (id % rows_per_page) * kRowBytes);
        for (int i = 0; i < 10; i++) {
            row->payload[rng.next(sizeof(row->payload))] =
                static_cast<std::uint8_t>(rng());
        }
        row->version++;
        row->checksum = rowChecksum(*row);
        vol.fs->write(ctx, vol.table, page * pmfs::kBlockSize, page_buf,
                      sizeof(page_buf));
        if (index_update) {
            const std::uint64_t entry[2] = {id, id * kRowBytes};
            vol.fs->write(ctx, vol.index, id * 16, entry, sizeof(entry));
        }
    }

    /** Append the commit record of @p tid's @p op-th transaction. */
    static void
    commit(pm::PmContext &ctx, MysqlVolume &vol, ThreadId tid,
           std::uint64_t op)
    {
        char rec[64];
        const int n = std::snprintf(
            rec, sizeof(rec), "COMMIT tid=%u op=%llu\n", tid,
            static_cast<unsigned long long>(op));
        vol.fs->append(ctx, vol.binlog, rec,
                       static_cast<std::size_t>(n));
    }

    bool
    checkDb(Runtime &rt, std::string *why, bool post_crash)
    {
        pm::PmContext &ctx = rt.ctx(0);
        MysqlVolume &vol = vols_[0];
        std::string fsck_why;
        if (!vol.fs->fsck(ctx, &fsck_why)) {
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
            readRow(ctx, vol, r, row);
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
        const std::uint64_t blog = vol.fs->fileSize(ctx, vol.binlog);
        if (blog > 0) {
            char c = 0;
            vol.fs->read(ctx, vol.binlog, blog - 1, &c, 1);
            if (c != '\n') {
                if (why)
                    *why = "binlog does not end at a record boundary";
                return false;
            }
        }
        return true;
    }

    /**
     * Per-op SQL parsing / optimizer / round-trip share. run()'s
     * sysbench transaction (~13 operations) spends compute(700'000);
     * one KV op carries a proportional slice.
     */
    static void
    pad(pm::PmContext &ctx, std::uint64_t key)
    {
        ctx.vStore(&key, 8);
        ctx.vBurst(&key, 1 << 14, 25, 10);
        ctx.compute(55'000);
    }

    /** Deterministic row image for (@p key, @p value). */
    static void
    fillRow(std::uint64_t key, std::uint64_t value, Row &row)
    {
        row = Row{};
        row.id = key;
        row.version = value;
        std::uint64_t seed = value;
        for (std::size_t i = 0; i + 8 <= sizeof(row.payload); i += 8) {
            const std::uint64_t z = splitmix64(seed);
            std::memcpy(row.payload + i, &z, 8);
        }
        row.checksum = rowChecksum(row);
    }

    /**
     * Workload row write of (@p key, @p value): the page write of
     * updateRow()'s shape, the row's index entry, a commit record.
     */
    void
    storeRow(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
             std::uint64_t value)
    {
        MysqlVolume &vol = vols_[tid];
        const std::uint64_t slot = keymap_.localIndex(tid, key);
        Row row{};
        fillRow(key, value, row);
        const std::uint64_t rows_per_page =
            pmfs::kBlockSize / kRowBytes;
        const std::uint64_t page = slot / rows_per_page;
        alignas(64) std::uint8_t page_buf[pmfs::kBlockSize] = {};
        if (page * pmfs::kBlockSize < vol.fs->fileSize(ctx, vol.table)) {
            vol.fs->read(ctx, vol.table, page * pmfs::kBlockSize,
                         page_buf, sizeof(page_buf));
        }
        std::memcpy(page_buf + (slot % rows_per_page) * kRowBytes, &row,
                    sizeof(row));
        vol.fs->write(ctx, vol.table, page * pmfs::kBlockSize, page_buf,
                      sizeof(page_buf));
        const std::uint64_t entry[2] = {row.id, slot * kRowBytes};
        vol.fs->write(ctx, vol.index, slot * 16, entry, sizeof(entry));
        commit(ctx, vol, tid, vol.commits++);
    }

    std::uint64_t rows_ = 0;
    std::mutex dbLock_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeMysqlApp(const core::AppConfig &config)
{
    return std::make_unique<MysqlApp>(config);
}

} // namespace whisper::apps
