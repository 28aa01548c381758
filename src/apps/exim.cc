/**
 * @file
 * Exim: a mail server spooling onto PMFS (paper §3.2.3).
 *
 * Follows the paper's description of Exim's per-connection work: a
 * master accepts a message, a child writes it to a spool file,
 * another appends it to the recipient's mailbox (one of 250
 * mailboxes), and a third appends a delivery-log record; the spool
 * file is then removed. Message bodies are ~100 KB-class payloads
 * scaled down with the run size (postal profile, Table 1).
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

constexpr unsigned kMailboxes = 32;

/**
 * One Exim instance: mailboxes and a delivery log on one volume. For
 * the generated workload a key is a 256-byte message summary in one
 * of the mailbox files.
 */
struct EximVolume : StripedVolume<256, kMailboxes>
{
    pmfs::Ino log = pmfs::kInvalidIno;
};

class EximApp : public StripedPmfsApp<EximVolume>
{
  public:
    explicit EximApp(const AppConfig &config) : StripedPmfsApp(config) {}

    std::string name() const override { return "exim"; }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        EximVolume &vol = formatPool(ctx);
        vol.fs->mkdir(ctx, "/spool");
        createMail(ctx, vol);
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        EximVolume &vol = vols_[0];
        pmfs::Pmfs &fs = *vol.fs;
        Rng rng(config_.seed * 59 + tid);
        // Message bodies: 8-24 KB (the postal 100 KB profile scaled
        // to the run size; the access pattern — multi-block appends —
        // is what matters).
        std::vector<std::uint8_t> msg(24 << 10);
        for (auto &b : msg)
            b = static_cast<std::uint8_t>(rng());

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            const std::uint64_t id = nextMsg_.fetch_add(1);
            const std::size_t bytes = (8 << 10) + rng.next(16 << 10);
            const unsigned mbox =
                static_cast<unsigned>(rng.next(kMailboxes));

            // SMTP session latency, process spawning (Exim forks
            // three children per delivery), header rewriting. This
            // dominates the wall clock: Table 1 measures only 6250
            // epochs/second for exim.
            ctx.vStore(msg.data(), 128);
            ctx.vBurst(msg.data(), 1 << 14, 400, 200);
            ctx.compute(12'000'000);

            // 1. Receive into the spool.
            const std::string spool =
                "/spool/m" + std::to_string(id);
            const pmfs::Ino sino = fs.create(ctx, spool);
            if (sino == pmfs::kInvalidIno)
                continue;
            fs.write(ctx, sino, 0, msg.data(), bytes);

            // 2. Deliver: append to the recipient's mailbox. The
            // counter is charged first so that a crash point inside
            // the append can only lose the delivery, never leave the
            // mailbox ahead of the counter (verifyRecovered's bound).
            delivered_[mbox].fetch_add(bytes);
            fs.append(ctx, vol.stripes[mbox], msg.data(), bytes);

            // 3. Log the delivery.
            char line[96];
            const int n = std::snprintf(
                line, sizeof(line),
                "%llu delivered msg %llu to mbox %u (%zu bytes)\n",
                static_cast<unsigned long long>(ctx.now()),
                static_cast<unsigned long long>(id), mbox, bytes);
            fs.append(ctx, vol.log, line, static_cast<std::size_t>(n));

            // 4. Remove the spool file.
            fs.unlink(ctx, spool);
        }
    }

    /** Every completed delivery is in its mailbox. */
    VerifyReport
    verify(Runtime &rt) override
    {
        return checkMail(rt, false);
    }

    /**
     * After a crash, a mailbox may have lost the last in-flight
     * delivery but can never exceed what was handed to the FS.
     */
    VerifyReport
    verifyRecovered(Runtime &rt) override
    {
        return checkMail(rt, true);
    }

    void
    workloadSetup(Runtime &rt, const WorkloadKeymap &map) override
    {
        auto layout = [&](pm::PmContext &ctx, EximVolume &vol,
                          ThreadId tid) {
            createMail(ctx, vol);
            preload(ctx, vol, tid);
        };
        formatSlices(rt, map, layout);
    }

  protected:
    /** SMTP session + process spawning, matching run()'s shape. */
    void
    pad(pm::PmContext &ctx, std::uint64_t key) override
    {
        std::uint8_t buf[128] = {};
        std::memcpy(buf, &key, 8);
        ctx.vStore(buf, sizeof(buf));
        ctx.vBurst(buf, 1 << 14, 400, 200);
        ctx.compute(12'000'000);
    }

    /** A workload put is a delivery: log it, as run() does. */
    void
    afterWrite(pm::PmContext &ctx, EximVolume &vol, std::uint64_t key,
               unsigned box) override
    {
        char line[64];
        const int n = std::snprintf(
            line, sizeof(line), "delivered msg %llu to mbox %u\n",
            static_cast<unsigned long long>(key), box);
        vol.fs->append(ctx, vol.log, line, static_cast<std::size_t>(n));
    }

  private:
    /** /mail with its mailboxes, and the delivery log. */
    static void
    createMail(pm::PmContext &ctx, EximVolume &vol)
    {
        vol.fs->mkdir(ctx, "/mail");
        vol.log = vol.fs->create(ctx, "/mainlog");
        panic_if(vol.log == pmfs::kInvalidIno,
                 "exim: delivery log create failed");
        for (unsigned m = 0; m < kMailboxes; m++) {
            vol.stripes[m] =
                vol.fs->create(ctx, "/mail/user" + std::to_string(m));
            panic_if(vol.stripes[m] == pmfs::kInvalidIno,
                     "exim: mailbox create failed");
        }
    }

    /**
     * fsck, then every mailbox size against the bytes handed to it:
     * equal after a clean run, at most that after a crash.
     */
    VerifyReport
    checkMail(Runtime &rt, bool recovered)
    {
        pm::PmContext &ctx = rt.ctx(0);
        EximVolume &vol = vols_[0];
        VerifyReport rep = PmfsApp::verify(rt);
        for (unsigned m = 0; m < kMailboxes; m++) {
            const std::uint64_t size =
                vol.fs->fileSize(ctx, vol.stripes[m]);
            const std::uint64_t sent = delivered_[m].load();
            if (!rep.check(recovered ? size <= sent : size == sent,
                           "mailbox-sizes",
                           "mailbox " + std::to_string(m) +
                               (recovered ? " grew beyond deliveries"
                                          : " size mismatch")))
                break;
        }
        return rep;
    }

    std::atomic<std::uint64_t> nextMsg_{0};
    std::atomic<std::uint64_t> delivered_[kMailboxes] = {};
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeEximApp(const core::AppConfig &config)
{
    return std::make_unique<EximApp>(config);
}

} // namespace whisper::apps
