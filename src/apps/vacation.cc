/**
 * @file
 * Vacation: the STAMP travel-reservation OLTP system, persisted with
 * Mnemosyne (paper §3.2.2).
 *
 * Three item tables (cars, flights, rooms) implemented as persistent
 * binary search trees, a customer table with per-customer reservation
 * lists, and — exactly as the paper calls out — *global counters* of
 * reservations that every client transaction updates, the suite's
 * main source of cross-thread epoch dependencies.
 *
 * Each reservation/cancellation is a Mnemosyne durable transaction:
 * updates are redo-logged with NTI+fence, applied at commit with
 * cacheable stores + flushes, and the log is truncated entry by
 * entry. Reservation nodes come from pmalloc inside the transaction;
 * on a crash Mnemosyne may leak them (the documented trade-off), but
 * the tables stay consistent.
 */

#include <bit>
#include <mutex>

#include "alloc/slab_alloc.hh"
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

constexpr std::uint64_t kItemSalt = 0x57AC4710ull;

enum ItemType : std::uint32_t { kCar = 0, kFlight = 1, kRoom = 2 };

/** BST node for one reservable item. */
struct Item
{
    std::uint64_t id;
    std::uint32_t numFree;
    std::uint32_t numTotal;
    std::uint64_t price;
    std::uint64_t checksum;
    Addr left;
    Addr right;
};

std::uint64_t
itemChecksum(const Item &it)
{
    return it.id ^ it.numFree ^
           (static_cast<std::uint64_t>(it.numTotal) << 32) ^ it.price ^
           kItemSalt;
}

/** One reservation held by a customer. */
struct Reservation
{
    std::uint32_t type;
    std::uint32_t pad;
    std::uint64_t itemId;
    std::uint64_t price;
    Addr next;
};

/** Customer record (fixed array, pre-created). */
struct Customer
{
    std::uint64_t id;
    Addr reservations;
};

/**
 * The customer table is one pmalloc block, so it can hold at most
 * the slab allocator's largest class worth of customers.
 */
constexpr std::uint64_t kMaxCustomers =
    alloc::SlabAllocator::kClasses.back() / sizeof(Customer);

/** Persistent root. */
struct VacationRoot
{
    std::uint64_t magic;
    Addr itemTrees[3];
    std::uint64_t totalReserved[3]; //!< the shared global counters
    Addr customersOff;
    std::uint64_t customerCount;

    static constexpr std::uint64_t kMagic = 0x57AC57ACull;
};

class VacationApp : public WhisperApp
{
  public:
    explicit VacationApp(const AppConfig &config) : WhisperApp(config)
    {
    }

    std::string name() const override { return "vacation"; }
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
        const std::uint64_t items = itemCount();
        format(ctx, 0, config_.poolBytes, config_.threads,
               std::min(std::max<std::uint64_t>(64, items / 4),
                        kMaxCustomers));
        Shard &sh = shards_[0];

        // Customer table: a contiguous persistent array.
        const Addr cust_off =
            sh.heap->pmalloc(ctx, sh.customers * sizeof(Customer));
        panic_if(cust_off == kNullAddr, "vacation: customer table");
        for (std::uint64_t c = 0; c < sh.customers; c++) {
            Customer cust{c, kNullAddr};
            ctx.store(cust_off + c * sizeof(Customer), &cust,
                      sizeof(cust), DataClass::User);
        }
        ctx.flush(cust_off, sh.customers * sizeof(Customer));
        VacationRoot *r = root(ctx, sh);
        ctx.storeField(r->customersOff, cust_off, DataClass::User);
        ctx.flush(sh.rootOff + offsetof(VacationRoot, customersOff), 8);
        ctx.fence(FenceKind::Durability);

        // Populate the three item trees (setup phase; plain persists).
        Rng rng(config_.seed);
        for (int t = 0; t < 3; t++) {
            ScrambledSequence order(items, rng);
            for (std::uint64_t i = 0; i < items; i++) {
                insertItem(ctx, sh, static_cast<ItemType>(t),
                           order.at(i), 4 + rng.next(4),
                           50 + rng.next(450));
            }
        }
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Shard &sh = shards_[0];
        const std::uint64_t items = itemCount();
        Rng rng(config_.seed * 17 + tid);
        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            const auto type = static_cast<ItemType>(rng.next(3));
            const std::uint64_t item_id = rng.next(items);
            const std::uint64_t cust_id = rng.next(sh.customers);
            pad(ctx, &item_id);
            const bool reserve = rng.chance(0.8);
            std::lock_guard<std::mutex> guard(runLock_);
            if (reserve)
                makeReservation(ctx, sh, type, item_id, cust_id);
            else
                cancelReservation(ctx, sh, type, cust_id);
        }
    }

    VerifyReport
    verify(Runtime &rt) override
    {
        VerifyReport rep = report();
        for (const Shard &sh : shards_) {
            std::string why;
            rep.check(checkAll(rt.ctx(0), sh, &why), "tables-intact",
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
     * The KV workload maps onto the item tables: a key is an item id
     * in a per-thread car tree, the value is its price. Each workload
     * thread owns a private shard over a disjoint pool slice (the
     * STAMP suite's data-partitioned client mode), so op costs do not
     * depend on cross-thread interleaving. Workload shards have no
     * customers, so their reservation counters stay zero.
     */

    void
    workloadSetup(Runtime &rt, const core::WorkloadKeymap &map) override
    {
        keymap_ = map;
        shards_.clear();
        const Addr region = lineBase(config_.poolBytes / map.threads);
        panic_if(region <= sizeof(VacationRoot) + (2u << 20),
                 "vacation workload: pool too small for %u shards",
                 map.threads);
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            const Addr base = static_cast<Addr>(t) * region;
            format(ctx, base, base + region, 1, 0);

            // Scrambled insertion order keeps the BST shallow
            // (sequential order would degrade it to a linked list).
            Rng order_rng(config_.seed ^ (0xace1ull + t));
            ScrambledSequence order(map.perThread(), order_rng);
            for (std::uint64_t i = 0; i < map.perThread(); i++) {
                const std::uint64_t key = map.lo(t) + order.at(i);
                insertItem(ctx, shards_[t], kCar, key, 4,
                           key * 0x9e3779b97f4a7c15ull);
            }
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, &key);
        return findItem(ctx, shards_[tid], kCar, key) != kNullAddr;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        Shard &sh = shards_[tid];
        pad(ctx, &key);
        const Addr off = findItem(ctx, sh, kCar, key);
        if (off != kNullAddr)
            updatePriceTx(ctx, sh, off, value);
        else
            insertItemTx(ctx, sh, key, value);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        Shard &sh = shards_[tid];
        pad(ctx, &key);
        const Addr off = findItem(ctx, sh, kCar, key);
        if (off == kNullAddr) {
            insertItemTx(ctx, sh, key, delta);
            return false;
        }
        std::uint64_t price = 0;
        ctx.load(off + offsetof(Item, price), &price, 8);
        updatePriceTx(ctx, sh, off, price + delta);
        return true;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, &key);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            if (findItem(ctx, shards_[tid], kCar,
                         keymap_.scanKey(tid, key, j)) != kNullAddr)
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
    /** One set of tables: root, Mnemosyne heap, customer count. */
    struct Shard
    {
        Addr rootOff = 0;
        std::uint64_t customers = 0;
        std::unique_ptr<mne::MnemosyneHeap> heap;
    };

    /**
     * Format empty tables over [@p base, @p end): the root at
     * @p base, then a Mnemosyne heap with @p lanes redo-log lanes.
     * The @p customers-entry table itself is setup()'s to allocate.
     */
    void
    format(pm::PmContext &ctx, Addr base, Addr end, unsigned lanes,
           std::uint64_t customers)
    {
        Shard sh;
        sh.rootOff = base;
        sh.customers = customers;
        const Addr heap_base =
            lineBase(base + sizeof(VacationRoot) + kCacheLineSize);
        sh.heap = std::make_unique<mne::MnemosyneHeap>(
            ctx, heap_base, end - heap_base, lanes);

        VacationRoot root{};
        root.magic = VacationRoot::kMagic;
        for (auto &tree : root.itemTrees)
            tree = kNullAddr;
        root.customersOff = kNullAddr;
        root.customerCount = customers;
        ctx.store(base, &root, sizeof(root), DataClass::User);
        ctx.flush(base, sizeof(root));
        ctx.fence(FenceKind::Durability);
        shards_.push_back(std::move(sh));
    }

    /** Items per table; a power of two so the scrambled load order is
     *  a bijection (no duplicate item ids). */
    std::uint64_t
    itemCount() const
    {
        return std::bit_floor(std::max<std::uint64_t>(
            256, std::min<std::uint64_t>(config_.opsPerThread * 2,
                                         16384)));
    }

    /** Client-side query planning and STAMP's volatile manager
     *  tables (paper Fig. 6: vacation is the most DRAM-heavy app at
     *  ~0.4% PM accesses). */
    static void
    pad(pm::PmContext &ctx, const void *base)
    {
        ctx.vBurst(base, 1 << 15, 2100, 900);
        ctx.compute(9000);
    }

    VacationRoot *
    root(pm::PmContext &ctx, const Shard &sh)
    {
        return ctx.pool().at<VacationRoot>(sh.rootOff);
    }

    /** Load-phase BST insert (persist as we go, no transactions). */
    void
    insertItem(pm::PmContext &ctx, Shard &sh, ItemType type,
               std::uint64_t id, std::uint32_t total,
               std::uint64_t price)
    {
        const Addr off = sh.heap->pmalloc(ctx, sizeof(Item));
        panic_if(off == kNullAddr, "vacation heap exhausted");
        Item it{};
        it.id = id;
        it.numFree = total;
        it.numTotal = total;
        it.price = price;
        it.left = it.right = kNullAddr;
        it.checksum = itemChecksum(it);
        ctx.store(off, &it, sizeof(it), DataClass::User);
        ctx.flush(off, sizeof(it));
        ctx.fence(FenceKind::Ordering);

        Addr link_off = sh.rootOff + offsetof(VacationRoot, itemTrees) +
                        type * sizeof(Addr);
        Addr cur = *ctx.pool().at<Addr>(link_off);
        while (cur != kNullAddr) {
            const Item *node = ctx.pool().at<Item>(cur);
            link_off = cur + (id < node->id ? offsetof(Item, left)
                                            : offsetof(Item, right));
            cur = *ctx.pool().at<Addr>(link_off);
        }
        ctx.store(link_off, &off, 8, DataClass::User);
        ctx.flush(link_off, 8);
        ctx.fence(FenceKind::Ordering);
    }

    Addr
    findItem(pm::PmContext &ctx, const Shard &sh, ItemType type,
             std::uint64_t id)
    {
        Addr cur = root(ctx, sh)->itemTrees[type];
        while (cur != kNullAddr) {
            Item probe{};
            ctx.load(cur, &probe, sizeof(probe));
            if (probe.id == id)
                return cur;
            cur = id < probe.id ? probe.left : probe.right;
        }
        return kNullAddr;
    }

    Customer *
    customer(pm::PmContext &ctx, const Shard &sh, std::uint64_t cust_id)
    {
        const Addr base = root(ctx, sh)->customersOff;
        return ctx.pool().at<Customer>(base +
                                       cust_id * sizeof(Customer));
    }

    void
    makeReservation(pm::PmContext &ctx, Shard &sh, ItemType type,
                    std::uint64_t item_id, std::uint64_t cust_id)
    {
        const Addr item_off = findItem(ctx, sh, type, item_id);
        if (item_off == kNullAddr)
            return;

        mne::Transaction tx(*sh.heap, ctx);
        const std::uint32_t num_free =
            tx.get(ctx.pool().at<Item>(item_off)->numFree);
        if (num_free == 0) {
            tx.abort();
            return;
        }

        // Reserve: decrement availability + fix the checksum, one
        // logged update covering the contiguous fields.
        Item staged{};
        tx.read(item_off, &staged, sizeof(staged));
        staged.numFree = num_free - 1;
        staged.checksum = itemChecksum(staged);
        tx.update(item_off + offsetof(Item, numFree),
                  reinterpret_cast<const std::uint8_t *>(&staged) +
                      offsetof(Item, numFree),
                  offsetof(Item, left) - offsetof(Item, numFree),
                  DataClass::User);

        // Record the reservation on the customer.
        const Addr res_off = tx.pmalloc(sizeof(Reservation));
        if (res_off == kNullAddr) {
            tx.abort();
            return;
        }
        Customer *cust = customer(ctx, sh, cust_id);
        Reservation res{static_cast<std::uint32_t>(type), 0, item_id,
                        staged.price, tx.get(cust->reservations)};
        tx.update(res_off, &res, sizeof(res), DataClass::User);
        tx.set(cust->reservations, res_off, DataClass::User);

        // The global counter: every thread's transactions write this
        // one cache line (the paper's cross-dependency source).
        VacationRoot *r = root(ctx, sh);
        const std::uint64_t count = tx.get(r->totalReserved[type]) + 1;
        tx.set(r->totalReserved[type], count, DataClass::User);

        tx.commit();
    }

    void
    cancelReservation(pm::PmContext &ctx, Shard &sh, ItemType type,
                      std::uint64_t cust_id)
    {
        Customer *cust = customer(ctx, sh, cust_id);
        // Find the first reservation of this type.
        Addr holder = ctx.pool().offsetOf(&cust->reservations);
        Addr cur = cust->reservations;
        while (cur != kNullAddr) {
            Reservation probe{};
            ctx.load(cur, &probe, sizeof(probe));
            if (probe.type == static_cast<std::uint32_t>(type))
                break;
            holder = cur + offsetof(Reservation, next);
            cur = probe.next;
        }
        if (cur == kNullAddr)
            return;
        const Reservation *res = ctx.pool().at<Reservation>(cur);
        const Addr item_off = findItem(ctx, sh, type, res->itemId);
        if (item_off == kNullAddr)
            return;

        mne::Transaction tx(*sh.heap, ctx);
        Item staged{};
        tx.read(item_off, &staged, sizeof(staged));
        staged.numFree++;
        staged.checksum = itemChecksum(staged);
        tx.update(item_off + offsetof(Item, numFree),
                  reinterpret_cast<const std::uint8_t *>(&staged) +
                      offsetof(Item, numFree),
                  offsetof(Item, left) - offsetof(Item, numFree),
                  DataClass::User);

        // Unlink + release the node.
        tx.update(holder, &res->next, 8, DataClass::User);
        tx.pfree(cur);

        VacationRoot *r = root(ctx, sh);
        const std::uint64_t count = tx.get(r->totalReserved[type]) - 1;
        tx.set(r->totalReserved[type], count, DataClass::User);

        tx.commit();
    }

    bool
    checkAll(pm::PmContext &ctx, const Shard &sh, std::string *why)
    {
        VacationRoot *r = root(ctx, sh);
        if (r->magic != VacationRoot::kMagic) {
            if (why)
                *why = "bad root magic";
            return false;
        }

        // 1. Item trees: BST order + checksums + per-item capacity.
        std::uint64_t reserved_by_items[3] = {0, 0, 0};
        for (int t = 0; t < 3; t++) {
            std::vector<std::pair<Addr, std::pair<std::uint64_t,
                                                  std::uint64_t>>>
                stack;
            if (r->itemTrees[t] != kNullAddr) {
                stack.push_back({r->itemTrees[t],
                                 {0, ~std::uint64_t(0)}});
            }
            while (!stack.empty()) {
                auto [off, range] = stack.back();
                stack.pop_back();
                const Item *it = ctx.pool().at<Item>(off);
                if (it->checksum != itemChecksum(*it)) {
                    if (why)
                        *why = "item checksum mismatch";
                    return false;
                }
                if (it->id < range.first || it->id > range.second) {
                    if (why)
                        *why = "BST order violated";
                    return false;
                }
                if (it->numFree > it->numTotal) {
                    if (why)
                        *why = "numFree above capacity";
                    return false;
                }
                reserved_by_items[t] += it->numTotal - it->numFree;
                if (it->left != kNullAddr) {
                    stack.push_back(
                        {it->left, {range.first, it->id - 1}});
                }
                if (it->right != kNullAddr) {
                    stack.push_back(
                        {it->right, {it->id + 1, range.second}});
                }
            }
        }

        // 2. Customer reservation lists vs the counters and items.
        std::uint64_t reserved_by_lists[3] = {0, 0, 0};
        for (std::uint64_t c = 0; c < sh.customers; c++) {
            Addr cur = customer(ctx, sh, c)->reservations;
            std::uint64_t guard = 0;
            while (cur != kNullAddr) {
                if (++guard > 10'000'000) {
                    if (why)
                        *why = "reservation list cycle";
                    return false;
                }
                const Reservation *res =
                    ctx.pool().at<Reservation>(cur);
                if (res->type > 2) {
                    if (why)
                        *why = "reservation with bad type";
                    return false;
                }
                reserved_by_lists[res->type]++;
                cur = res->next;
            }
        }
        for (int t = 0; t < 3; t++) {
            if (reserved_by_lists[t] != r->totalReserved[t] ||
                reserved_by_items[t] != r->totalReserved[t]) {
                if (why)
                    *why = "reservation counters out of sync";
                return false;
            }
        }
        return true;
    }

    /** Durable-transaction insert used for workload inserts. */
    void
    insertItemTx(pm::PmContext &ctx, Shard &sh, std::uint64_t id,
                 std::uint64_t price)
    {
        mne::Transaction tx(*sh.heap, ctx);
        const Addr off = tx.pmalloc(sizeof(Item));
        if (off == kNullAddr) {
            tx.abort();
            panic("vacation workload heap exhausted");
        }
        Item it{};
        it.id = id;
        it.numFree = 4;
        it.numTotal = 4;
        it.price = price;
        it.left = it.right = kNullAddr;
        it.checksum = itemChecksum(it);
        tx.update(off, &it, sizeof(it), DataClass::User);

        Addr link_off = sh.rootOff + offsetof(VacationRoot, itemTrees) +
                        kCar * sizeof(Addr);
        Addr cur = tx.get(*ctx.pool().at<Addr>(link_off));
        while (cur != kNullAddr) {
            const Item *node = ctx.pool().at<Item>(cur);
            link_off = cur + (id < node->id ? offsetof(Item, left)
                                            : offsetof(Item, right));
            cur = tx.get(*ctx.pool().at<Addr>(link_off));
        }
        tx.update(link_off, &off, 8, DataClass::User);
        tx.commit();
    }

    /** Durable-transaction price update (existing item). */
    void
    updatePriceTx(pm::PmContext &ctx, Shard &sh, Addr item_off,
                  std::uint64_t price)
    {
        mne::Transaction tx(*sh.heap, ctx);
        Item staged{};
        tx.read(item_off, &staged, sizeof(staged));
        staged.price = price;
        staged.checksum = itemChecksum(staged);
        tx.update(item_off + offsetof(Item, price), &staged.price, 8,
                  DataClass::User);
        tx.set(ctx.pool().at<Item>(item_off)->checksum,
               staged.checksum, DataClass::User);
        tx.commit();
    }

    std::vector<Shard> shards_;
    std::mutex runLock_; //!< run()'s threads share shards_[0]
    core::WorkloadKeymap keymap_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeVacationApp(const core::AppConfig &config)
{
    return std::make_unique<VacationApp>(config);
}

} // namespace whisper::apps
