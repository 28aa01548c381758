#include "pm/pm_context.hh"

#include <algorithm>

#include "common/logging.hh"

namespace whisper::pm
{

PmContext::PmContext(PmPool &pool, LogicalClock &clock, ThreadId tid,
                     trace::TraceBuffer *tb)
    : pool_(pool), clock_(clock), tid_(tid), tb_(tb),
      // Spread tx ids across threads so they are globally unique.
      nextTx_(static_cast<TxId>(tid) << 40)
{
}

void
PmContext::emit(EventKind kind, Addr addr, std::uint32_t size,
                DataClass cls, std::uint8_t aux, Tick cost)
{
    localTicks_ += cost;
    const Tick now = clock_.advance(cost);
    if (tb_)
        tb_->push({now, addr, size, kind, cls, aux, origin_});
}

void
PmContext::store(Addr off, const void *src, std::size_t n, DataClass cls)
{
    GateTurn turn(schedGate(), tid_);
    if (!admitPmOp())
        return;
    pool_.applyStore(off, src, n);
    emit(EventKind::PmStore, off, static_cast<std::uint32_t>(n), cls, 0,
         LogicalClock::kStoreCost);
}

bool
PmContext::casStore(Addr off, std::uint64_t expected,
                    std::uint64_t desired, DataClass cls)
{
    GateTurn turn(schedGate(), tid_);
    if (!admitPmOp())
        return true;
    const bool swapped = pool_.applyCas64(off, expected, desired);
    emit(EventKind::PmStore, off, 8, cls, 0, LogicalClock::kStoreCost);
    return swapped;
}

void
PmContext::ntStore(Addr off, const void *src, std::size_t n, DataClass cls)
{
    GateTurn turn(schedGate(), tid_);
    if (!admitPmOp())
        return;
    pool_.applyStore(off, src, n);
    pendingNt_.emplace_back(off, static_cast<std::uint32_t>(n));
    emit(EventKind::PmNtStore, off, static_cast<std::uint32_t>(n), cls, 0,
         LogicalClock::kNtStoreCost);
}

void
PmContext::flush(Addr off, std::size_t n)
{
    if (n == 0)
        return;
    GateTurn turn(schedGate(), tid_);
    if (!admitPmOp())
        return;
    const LineAddr first = lineOf(off);
    const LineAddr last = lineOf(off + n - 1);
    for (LineAddr line = first; line <= last; line++) {
        // clwb of a line already queued on this thread's pending set is
        // absorbed: hardware writes the line back once per drain, so
        // the stats and the trace cost count one writeback per line per
        // fence interval.
        if (!pendingFlushSet_.insert(line).second)
            continue;
        pendingFlush_.push_back(line);
        emit(EventKind::PmFlush, line << kCacheLineBits, kCacheLineSize,
             DataClass::None, 0, LogicalClock::kFlushCost);
    }
}

bool
PmContext::fence(FenceKind kind)
{
    GateTurn turn(schedGate(), tid_);
    if (!admitPmOp()) {
        if (fenceObs_)
            fenceObs_->onFence(tid_, kind, false);
        return false;
    }
    // sfence semantics: all of this thread's outstanding clwbs and
    // write-combining traffic reach the durable image before the fence
    // retires. Each drained line leaves the de-duplication set on its
    // own, so the drain costs O(lines queued); clear() would wipe
    // every bucket the set ever grew to.
    for (const LineAddr line : pendingFlush_) {
        pool_.persistLine(line);
        pendingFlushSet_.erase(line);
    }
    pendingFlush_.clear();
    for (const auto &[off, n] : pendingNt_)
        pool_.persistRange(off, n);
    pendingNt_.clear();
    emit(EventKind::Fence, 0, 0, DataClass::None,
         static_cast<std::uint8_t>(kind), LogicalClock::kFenceCost);
    // Notified inside the gate turn, after the drain: an observer's
    // "covered by this fence" reasoning sees exactly what persisted.
    if (fenceObs_)
        fenceObs_->onFence(tid_, kind, true);
    return true;
}

void
PmContext::persist(Addr off, std::size_t n)
{
    flush(off, n);
    fence(FenceKind::Durability);
}

void
PmContext::load(Addr off, void *dst, std::size_t n)
{
    // Loads are not counted against crash plans (reads cannot lose
    // data), but they do go through the pool's line shards so a
    // lock-free reader never observes a torn 8-byte commit.
    pool_.applyLoad(off, dst, n);
    emit(EventKind::PmLoad, off, static_cast<std::uint32_t>(n),
         DataClass::None, 0, LogicalClock::kLoadCost);
}

TxId
PmContext::txBegin()
{
    const TxId tx = ++nextTx_;
    emit(EventKind::TxBegin, tx, 0, DataClass::None, 0, 1);
    return tx;
}

void
PmContext::txEnd(TxId tx)
{
    emit(EventKind::TxEnd, tx, 0, DataClass::None, 0, 1);
}

void
PmContext::txAbort(TxId tx)
{
    emit(EventKind::TxAbort, tx, 0, DataClass::None, 0, 1);
}

void
PmContext::vLoad(const void *p, std::size_t n)
{
    emit(EventKind::DramLoad, reinterpret_cast<Addr>(p),
         static_cast<std::uint32_t>(n), DataClass::None, 0,
         LogicalClock::kLoadCost);
}

void
PmContext::vStore(const void *p, std::size_t n)
{
    emit(EventKind::DramStore, reinterpret_cast<Addr>(p),
         static_cast<std::uint32_t>(n), DataClass::None, 0,
         LogicalClock::kStoreCost);
}

void
PmContext::vBurst(const void *base, std::size_t span, unsigned loads,
                  unsigned stores)
{
    const Tick cost =
        (static_cast<Tick>(loads) + stores) * LogicalClock::kLoadCost;
    if (tb_ && tb_->recordsVolatile()) {
        const Addr origin = reinterpret_cast<Addr>(base);
        std::uint64_t x = origin ^ 0x9e3779b97f4a7c15ull;
        const std::size_t lines = std::max<std::size_t>(1, span / 64);
        const unsigned total = loads + stores;
        for (unsigned i = 0; i < total; i++) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const Addr addr = origin + (x >> 33) % lines * 64;
            emit(i < loads ? EventKind::DramLoad : EventKind::DramStore,
                 addr, 8, DataClass::None, 0, LogicalClock::kLoadCost);
        }
        return;
    }
    localTicks_ += cost;
    clock_.advance(cost);
    if (tb_)
        tb_->addVolatileBulk(loads, stores);
}

void
PmContext::compute(Tick ns)
{
    localTicks_ += ns;
    clock_.advance(ns);
}

void
PmContext::resetPendingState()
{
    pendingFlush_.clear();
    pendingFlushSet_.clear();
    pendingNt_.clear();
}

} // namespace whisper::pm
