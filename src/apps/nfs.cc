/**
 * @file
 * NFS: a file server exporting a PMFS volume (paper §3.2.3).
 *
 * Runs the filebench *fileserver* profile against the PMFS-like
 * filesystem: a directory tree of files; each loop iteration by each
 * of the 8 client threads performs create+write-whole-file, open+
 * append, read-whole-file, stat, and delete operations, with file
 * sizes drawn around the profile's mean. Everything reaches PM
 * through the filesystem's syscall-style interface — the lowest
 * epoch rate in the suite (Table 1) because each syscall is one
 * journal transaction and most traffic is 4 KB NTI block writes.
 */

#include <atomic>
#include <cstring>

#include "apps/apps.hh"
#include "apps/pmfs_app.hh"

namespace whisper::apps
{

using namespace core;

namespace
{

constexpr unsigned kDirs = 8;

/**
 * One exported volume. For the generated workload (one export per
 * client thread, as a scaled-out filer would shard exports) a key is
 * a 512-byte record striped over one extent file per directory.
 */
using NfsVolume = StripedVolume<512, kDirs>;

class NfsApp : public StripedPmfsApp<NfsVolume>
{
  public:
    explicit NfsApp(const AppConfig &config) : StripedPmfsApp(config) {}

    std::string name() const override { return "nfs"; }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        pmfs::Pmfs &fs = *formatPool(ctx).fs;
        // Export tree: /export/dirNN/ with a starting fileset.
        fs.mkdir(ctx, "/export");
        for (unsigned d = 0; d < kDirs; d++)
            fs.mkdir(ctx, dirPath(d));
        Rng rng(config_.seed);
        std::vector<std::uint8_t> buf(kMeanFileBytes);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng());
        for (unsigned d = 0; d < kDirs; d++) {
            for (unsigned f = 0; f < kInitialFilesPerDir; f++) {
                const pmfs::Ino ino = fs.create(ctx, filePath(d, f));
                panic_if(ino == pmfs::kInvalidIno,
                         "nfs setup create failed");
                fs.write(ctx, ino, 0, buf.data(), buf.size());
            }
        }
        nextFile_.store(kInitialFilesPerDir);
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        pmfs::Pmfs &fs = *vols_[0].fs;
        Rng rng(config_.seed * 101 + tid);
        std::vector<std::uint8_t> buf(4 * kMeanFileBytes);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng());

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            const unsigned d = static_cast<unsigned>(rng.next(kDirs));
            const double pick = rng.nextDouble();
            // RPC round trip + server-side request handling keep
            // NFS at ~250K epochs/second (Table 1).
            ctx.vStore(buf.data(), 64);
            ctx.vBurst(buf.data(), 1 << 14, 200, 80);
            ctx.compute(60'000);

            if (pick < 0.25) {
                // createfile + writewholefile + close
                const std::uint64_t id = nextFile_.fetch_add(1);
                const pmfs::Ino ino = fs.create(
                    ctx, filePath(d, static_cast<unsigned>(id)));
                if (ino != pmfs::kInvalidIno) {
                    const std::size_t n = fileBytes(rng);
                    fs.write(ctx, ino, 0, buf.data(), n);
                }
            } else if (pick < 0.45) {
                // open + appendfile
                const pmfs::Ino ino = pickFile(ctx, fs, d, rng);
                if (ino != pmfs::kInvalidIno)
                    fs.append(ctx, ino, buf.data(), kAppendBytes);
            } else if (pick < 0.80) {
                // open + readwholefile
                const pmfs::Ino ino = pickFile(ctx, fs, d, rng);
                if (ino != pmfs::kInvalidIno) {
                    std::vector<std::uint8_t> rbuf(
                        fs.fileSize(ctx, ino));
                    if (!rbuf.empty()) {
                        fs.read(ctx, ino, 0, rbuf.data(), rbuf.size());
                        ctx.vStore(rbuf.data(),
                                   std::min<std::size_t>(
                                       rbuf.size(), 256));
                    }
                }
            } else if (pick < 0.92) {
                // statfile
                const pmfs::Ino ino = pickFile(ctx, fs, d, rng);
                if (ino != pmfs::kInvalidIno)
                    fs.fileSize(ctx, ino);
            } else {
                // deletefile
                const auto names = fs.readdir(ctx, dirPath(d));
                if (!names.empty()) {
                    const auto &name =
                        names[rng.next(names.size())];
                    fs.unlink(ctx, dirPath(d) + "/" + name);
                }
            }
        }
    }

    void
    workloadSetup(Runtime &rt, const WorkloadKeymap &map) override
    {
        auto layout = [&](pm::PmContext &ctx, NfsVolume &vol,
                          ThreadId tid) {
            vol.fs->mkdir(ctx, "/export");
            for (unsigned d = 0; d < kDirs; d++) {
                vol.fs->mkdir(ctx, dirPath(d));
                vol.stripes[d] =
                    vol.fs->create(ctx, dirPath(d) + "/data");
                panic_if(vol.stripes[d] == pmfs::kInvalidIno,
                         "nfs workload create failed");
            }
            preload(ctx, vol, tid);
        };
        formatSlices(rt, map, layout);
    }

  protected:
    /** RPC round trip + request handling, matching run()'s shape. */
    void
    pad(pm::PmContext &ctx, std::uint64_t key) override
    {
        std::uint8_t buf[64] = {};
        std::memcpy(buf, &key, 8);
        ctx.vStore(buf, sizeof(buf));
        ctx.vBurst(buf, 1 << 14, 200, 80);
        ctx.compute(60'000);
    }

  private:
    static constexpr unsigned kInitialFilesPerDir = 8;
    static constexpr std::size_t kMeanFileBytes = 16 << 10;
    static constexpr std::size_t kAppendBytes = 8 << 10;

    static std::string
    dirPath(unsigned d)
    {
        return "/export/dir" + std::to_string(d);
    }

    static std::string
    filePath(unsigned d, unsigned f)
    {
        return dirPath(d) + "/f" + std::to_string(f);
    }

    std::size_t
    fileBytes(Rng &rng) const
    {
        // Rough gamma-ish spread around the 16 KB mean.
        return (kMeanFileBytes / 2) + rng.next(kMeanFileBytes);
    }

    static pmfs::Ino
    pickFile(pm::PmContext &ctx, pmfs::Pmfs &fs, unsigned d, Rng &rng)
    {
        const auto names = fs.readdir(ctx, dirPath(d));
        if (names.empty())
            return pmfs::kInvalidIno;
        const auto &name = names[rng.next(names.size())];
        return fs.lookup(ctx, dirPath(d) + "/" + name);
    }

    std::atomic<std::uint64_t> nextFile_{0};
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeNfsApp(const core::AppConfig &config)
{
    return std::make_unique<NfsApp>(config);
}

} // namespace whisper::apps
