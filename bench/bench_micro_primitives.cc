/**
 * @file
 * Google-benchmark microbenchmarks of the library's primitives.
 *
 * Supports the paper's Consequence 2 ("epoch implementations should
 * be fast, as epochs are much more common than transactions"): the
 * HOPS ofence must be far cheaper than a durability point, and the
 * persistence libraries' per-operation costs should order as their
 * epoch counts predict (slab < buddy < redo-logged allocator; one
 * Mnemosyne update < one NVML snapshot+update).
 */

#include <benchmark/benchmark.h>

#include "alloc/buddy_alloc.hh"
#include "alloc/nvml_alloc.hh"
#include "core/hops.hh"
#include "core/runtime.hh"
#include "txlib/mnemosyne.hh"
#include "txlib/nvml.hh"

using namespace whisper;

namespace
{

struct World
{
    core::Runtime rt{64 << 20, 1};
    pm::PmContext &ctx{rt.ctx(0)};
};

void
BM_PmStore(benchmark::State &state)
{
    World w;
    const std::uint64_t v = 1;
    Addr off = 0;
    for (auto _ : state) {
        w.ctx.store(off, &v, 8);
        off = (off + 64) & ((16 << 20) - 1);
    }
}
BENCHMARK(BM_PmStore);

void
BM_StoreFlushFence(benchmark::State &state)
{
    // The current-hardware persist: clwb + sfence per epoch.
    World w;
    const std::uint64_t v = 1;
    Addr off = 0;
    for (auto _ : state) {
        w.ctx.store(off, &v, 8);
        w.ctx.flush(off, 8);
        w.ctx.fence(pm::FenceKind::Ordering);
        off = (off + 64) & ((16 << 20) - 1);
    }
}
BENCHMARK(BM_StoreFlushFence);

void
BM_FenceAfterBulkFlush(benchmark::State &state)
{
    // The persist of BM_StoreFlushFence after one 1 MB flush + fence
    // has grown the thread's pending-flush set: each fence should
    // still cost only the lines it drains.
    World w;
    w.ctx.flush(32 << 20, 1 << 20);
    w.ctx.fence(pm::FenceKind::Ordering);
    const std::uint64_t v = 1;
    Addr off = 0;
    for (auto _ : state) {
        w.ctx.store(off, &v, 8);
        w.ctx.flush(off, 8);
        w.ctx.fence(pm::FenceKind::Ordering);
        off = (off + 64) & ((16 << 20) - 1);
    }
}
BENCHMARK(BM_FenceAfterBulkFlush);

void
BM_HopsStoreOfence(benchmark::State &state)
{
    // The HOPS epoch: store + ofence, no flush.
    World w;
    core::HopsContext hops(w.ctx);
    const std::uint64_t v = 1;
    Addr off = 0;
    for (auto _ : state) {
        hops.store(off, &v, 8);
        hops.ofence();
        off = (off + 64) & ((16 << 20) - 1);
        if (off == 0)
            hops.dfence(); // bound the tracked set
    }
}
BENCHMARK(BM_HopsStoreOfence);

void
BM_HopsStoreDfence(benchmark::State &state)
{
    World w;
    core::HopsContext hops(w.ctx);
    const std::uint64_t v = 1;
    Addr off = 0;
    for (auto _ : state) {
        hops.store(off, &v, 8);
        hops.dfence();
        off = (off + 64) & ((16 << 20) - 1);
    }
}
BENCHMARK(BM_HopsStoreDfence);

void
BM_SlabAlloc(benchmark::State &state)
{
    World w;
    alloc::SlabAllocator slab(w.ctx, 0, 48 << 20);
    std::vector<Addr> live;
    for (auto _ : state) {
        const Addr a = slab.alloc(w.ctx, 64);
        live.push_back(a);
        if (live.size() >= 1024) {
            for (const Addr p : live)
                slab.free(w.ctx, p);
            live.clear();
        }
    }
}
BENCHMARK(BM_SlabAlloc);

void
BM_BuddyAlloc(benchmark::State &state)
{
    World w;
    alloc::BuddyAllocator heap(w.ctx, 0, 32 << 20);
    std::vector<Addr> live;
    for (auto _ : state) {
        const Addr a = heap.alloc(w.ctx, 48);
        live.push_back(a);
        if (live.size() >= 1024) {
            for (const Addr p : live)
                heap.free(w.ctx, p);
            live.clear();
        }
    }
}
BENCHMARK(BM_BuddyAlloc);

void
BM_NvmlAlloc(benchmark::State &state)
{
    World w;
    alloc::NvmlAllocator heap(w.ctx,
                              alloc::NvmlAllocator::logBytes(),
                              32 << 20, 0);
    std::vector<Addr> live;
    for (auto _ : state) {
        const Addr a = heap.alloc(w.ctx, 64);
        live.push_back(a);
        if (live.size() >= 1024) {
            for (const Addr p : live)
                heap.free(w.ctx, p);
            live.clear();
        }
    }
}
BENCHMARK(BM_NvmlAlloc);

void
BM_MnemosyneTx(benchmark::State &state)
{
    World w;
    mne::MnemosyneHeap heap(w.ctx, 0, 48 << 20, 1);
    const Addr obj = heap.pmalloc(w.ctx, 64);
    std::uint64_t v = 0;
    for (auto _ : state) {
        mne::Transaction tx(heap, w.ctx);
        tx.update(obj, &v, 8);
        tx.commit();
        v++;
    }
}
BENCHMARK(BM_MnemosyneTx);

void
BM_NvmlTx(benchmark::State &state)
{
    World w;
    nvml::NvmlPool pool(w.ctx, 0, 48 << 20, 1);
    Addr obj;
    {
        nvml::TxContext tx(pool, w.ctx);
        obj = tx.txAlloc(64);
        tx.commit();
    }
    for (auto _ : state) {
        nvml::TxContext tx(pool, w.ctx);
        auto *cell = w.ctx.pool().at<std::uint64_t>(obj);
        tx.set(*cell, *cell + 1);
        tx.commit();
    }
}
BENCHMARK(BM_NvmlTx);

} // namespace

BENCHMARK_MAIN();
