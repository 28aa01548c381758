/**
 * @file
 * Differential tests: each persistent structure is driven through a
 * long random operation sequence next to a plain in-memory reference
 * model; states must agree after every step, after a crash, and after
 * re-mount. Parameterized over seeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/logical_clock.hh"
#include "pmfs/pmfs.hh"
#include "txlib/nvml.hh"

namespace whisper
{
namespace
{

// ------------------------------------ block-map B-tree vs std::map

class BtreeDifferential : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BtreeDifferential, MatchesReferenceMap)
{
    pm::PmPool pool(64 << 20);
    LogicalClock clock;
    pm::PmContext ctx(pool, clock, 0, nullptr);

    // A standalone bump allocator for tree nodes (zeroed blocks) so
    // the test exercises the tree in isolation.
    struct BumpAlloc : pmfs::BtNodeAllocator
    {
        Addr next = 4 << 20;
        Addr
        allocNode(pm::PmContext &c) override
        {
            const Addr node = next;
            next += pmfs::kBlockSize;
            static const std::uint8_t zeros[pmfs::kBlockSize] = {};
            c.ntStore(node, zeros, sizeof(zeros));
            return node;
        }
        void freeNode(pm::PmContext &, Addr) override {}
    } nodes;

    pmfs::MetaJournal journal(ctx, 0);
    pmfs::BlockTree tree(journal, nodes);
    pmfs::BtRoot root;

    Rng rng(GetParam());
    std::map<std::uint64_t, Addr> reference;
    const std::uint64_t key_space = 2000;

    for (int op = 0; op < 1500; op++) {
        const std::uint64_t key = rng.next(key_space);
        if (rng.chance(0.7)) {
            const Addr val = 0x1000 + key * 64;
            journal.begin(ctx);
            root = tree.insert(ctx, root, key, val);
            journal.commit(ctx);
            reference[key] = val;
        } else {
            const Addr got = tree.lookup(ctx, root, key);
            auto it = reference.find(key);
            if (it == reference.end())
                ASSERT_EQ(got, kNullAddr) << "key " << key;
            else
                ASSERT_EQ(got, it->second) << "key " << key;
        }
    }
    // Full-order comparison at the end.
    std::vector<std::pair<std::uint64_t, Addr>> walked;
    tree.forEach(ctx, root, [&](std::uint64_t k, Addr v) {
        walked.emplace_back(k, v);
    });
    ASSERT_EQ(walked.size(), reference.size());
    EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
    auto it = reference.begin();
    for (const auto &[k, v] : walked) {
        EXPECT_EQ(k, it->first);
        EXPECT_EQ(v, it->second);
        ++it;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtreeDifferential,
                         ::testing::Values(3, 17, 99, 1234));

// --------------------------------------- PMFS file vs byte vector

class FileDifferential : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FileDifferential, ContentMatchesReferenceThroughCrash)
{
    pm::PmPool pool(64 << 20);
    LogicalClock clock;
    pm::PmContext ctx(pool, clock, 0, nullptr);
    pmfs::Pmfs fs(ctx, 0, 48 << 20);
    const pmfs::Ino ino = fs.create(ctx, "/diff");
    ASSERT_NE(ino, pmfs::kInvalidIno);

    Rng rng(GetParam());
    std::vector<std::uint8_t> reference;
    std::vector<std::uint8_t> chunk(3 * pmfs::kBlockSize);

    for (int op = 0; op < 60; op++) {
        const double pick = rng.nextDouble();
        if (pick < 0.45) {
            // Random write at a random offset within |size| + slack.
            const std::uint64_t off =
                rng.next(reference.size() + pmfs::kBlockSize);
            const std::size_t n = 1 + rng.next(chunk.size() - 1);
            for (std::size_t i = 0; i < n; i++)
                chunk[i] = static_cast<std::uint8_t>(rng());
            ASSERT_EQ(fs.write(ctx, ino, off, chunk.data(), n),
                      static_cast<long>(n));
            if (reference.size() < off + n)
                reference.resize(off + n, 0);
            std::copy(chunk.begin(), chunk.begin() + n,
                      reference.begin() + off);
        } else if (pick < 0.75) {
            const std::size_t n = 1 + rng.next(6000);
            for (std::size_t i = 0; i < n; i++)
                chunk[i] = static_cast<std::uint8_t>(rng());
            ASSERT_EQ(fs.append(ctx, ino, chunk.data(), n),
                      static_cast<long>(n));
            reference.insert(reference.end(), chunk.begin(),
                             chunk.begin() + n);
        } else {
            // Spot check a random range.
            if (reference.empty())
                continue;
            const std::uint64_t off = rng.next(reference.size());
            const std::size_t n = std::min<std::size_t>(
                1 + rng.next(4000), reference.size() - off);
            std::vector<std::uint8_t> out(n);
            ASSERT_EQ(fs.read(ctx, ino, off, out.data(), n),
                      static_cast<long>(n));
            ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                   reference.begin() + off));
        }
        ASSERT_EQ(fs.fileSize(ctx, ino), reference.size());
    }

    // Crash + remount: everything was synchronous, so the whole file
    // must match byte for byte.
    pool.crashHard();
    ctx.resetPendingState();
    pmfs::Pmfs fs2(0, 48 << 20);
    fs2.mount(ctx);
    std::string why;
    ASSERT_TRUE(fs2.fsck(ctx, &why)) << why;
    const pmfs::Ino found = fs2.lookup(ctx, "/diff");
    ASSERT_EQ(fs2.fileSize(ctx, found), reference.size());
    std::vector<std::uint8_t> all(reference.size());
    if (!all.empty()) {
        ASSERT_EQ(fs2.read(ctx, found, 0, all.data(), all.size()),
                  static_cast<long>(all.size()));
    }
    EXPECT_EQ(all, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileDifferential,
                         ::testing::Values(7, 21, 555));

// -------------------------------- NVML map vs std::map with crashes

class KvDifferential : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(KvDifferential, CommittedStateMatchesReference)
{
    pm::PmPool pool(64 << 20);
    LogicalClock clock;
    pm::PmContext ctx(pool, clock, 0, nullptr);

    struct Node
    {
        std::uint64_t key;
        std::uint64_t value;
        Addr next;
    };
    constexpr std::uint64_t kBuckets = 64;
    struct Root
    {
        Addr buckets[kBuckets];
    };

    const Addr pool_base = lineBase(sizeof(Root) + kCacheLineSize);
    nvml::NvmlPool npool(ctx, pool_base, (48 << 20) - pool_base, 1);
    Root init{};
    for (auto &b : init.buckets)
        b = kNullAddr;
    ctx.store(0, &init, sizeof(init));
    ctx.persist(0, sizeof(init));
    auto *root = pool.at<Root>(0);

    auto find = [&](std::uint64_t key) -> Addr {
        for (Addr cur = root->buckets[key % kBuckets];
             cur != kNullAddr;) {
            Node *n = pool.at<Node>(cur);
            if (n->key == key)
                return cur;
            cur = n->next;
        }
        return kNullAddr;
    };

    Rng rng(GetParam());
    std::map<std::uint64_t, std::uint64_t> reference;

    for (int round = 0; round < 5; round++) {
        for (int op = 0; op < 150; op++) {
            const std::uint64_t key = rng.next(400);
            const std::uint64_t value = rng();
            const Addr existing = find(key);
            nvml::TxContext tx(npool, ctx);
            if (existing != kNullAddr) {
                tx.set(pool.at<Node>(existing)->value, value);
            } else {
                const Addr off = tx.txAlloc(sizeof(Node));
                ASSERT_NE(off, kNullAddr);
                Addr &bucket = root->buckets[key % kBuckets];
                Node fresh{key, value, bucket};
                tx.directStore(off, &fresh, sizeof(fresh));
                tx.set(bucket, off);
            }
            tx.commit();
            reference[key] = value;
        }
        // Crash with random survival between rounds; committed state
        // is durable, so the reference must match exactly.
        pool.crash(rng, rng.nextDouble());
        ctx.resetPendingState();
        nvml::NvmlPool again(pool_base, (48 << 20) - pool_base, 1);
        again.recover(ctx);
        root = pool.at<Root>(0);

        std::map<std::uint64_t, std::uint64_t> walked;
        for (std::uint64_t b = 0; b < kBuckets; b++) {
            for (Addr cur = root->buckets[b]; cur != kNullAddr;) {
                const Node *n = pool.at<Node>(cur);
                walked[n->key] = n->value;
                cur = n->next;
            }
        }
        ASSERT_EQ(walked, reference) << "round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvDifferential,
                         ::testing::Values(2, 13, 77));

} // namespace
} // namespace whisper
