#include "pm/pm_pool.hh"

#include <algorithm>
#include <cstring>

#include <sys/mman.h>

#include "common/logging.hh"

namespace whisper::pm
{

void
PmPool::Unmap::operator()(std::uint8_t *p) const
{
    ::munmap(p, bytes);
}

PmPool::Image
PmPool::mapImage(std::size_t bytes)
{
    // Anonymous private pages read as zero and are only backed (and
    // zeroed by the kernel) on first touch. calloc() would do the same
    // only for chunks above glibc's dynamic mmap threshold, which
    // rises to 32 MB after the first large free.
    panic_if(bytes == 0, "empty PmPool");
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    panic_if(p == MAP_FAILED, "cannot map a %zu-byte PM image", bytes);
    return Image(static_cast<std::uint8_t *>(p), Unmap{bytes});
}

PmPool::PmPool(std::size_t size)
    : size_(size),
      arch_(mapImage(size)),
      durable_(mapImage(size)),
      lineStates_((size + kCacheLineSize - 1) / kCacheLineSize),
      poisoned_((size + kCacheLineSize - 1) / kCacheLineSize)
{
    // Both flag vectors value-initialize to 0: every line starts clean
    // and readable, matching the all-zero images.
}

void
PmPool::boundsCheck(Addr off, std::size_t n) const
{
    panic_if(off > size_ || n > size_ - off,
             "PM access [%llu, +%zu) outside pool of %zu bytes",
             static_cast<unsigned long long>(off), n, size_);
}

Addr
PmPool::offsetOf(const void *p) const
{
    const auto *bytes = static_cast<const std::uint8_t *>(p);
    panic_if(!contains(p), "pointer does not point into the pool");
    return static_cast<Addr>(bytes - arch_.get());
}

bool
PmPool::contains(const void *p) const
{
    const auto *bytes = static_cast<const std::uint8_t *>(p);
    return bytes >= arch_.get() && bytes < arch_.get() + size_;
}

PmPool::ShardGuard::ShardGuard(const PmPool &pool, LineAddr first,
                               LineAddr last)
    : pool_(pool),
      lo_(last - first + 1 >= kLineShards ? 0 : pool.shardOf(first)),
      hi_(last - first + 1 >= kLineShards ? kLineShards - 1
                                          : pool.shardOf(last))
{
    const bool wraps = lo_ > hi_;
    for (std::size_t s = wraps ? 0 : lo_; s <= hi_; s++)
        pool_.lineShards_[s].lock();
    for (std::size_t s = lo_; wraps && s < kLineShards; s++)
        pool_.lineShards_[s].lock();
}

PmPool::ShardGuard::~ShardGuard()
{
    const bool wraps = lo_ > hi_;
    for (std::size_t s = wraps ? 0 : lo_; s <= hi_; s++)
        pool_.lineShards_[s].unlock();
    for (std::size_t s = lo_; wraps && s < kLineShards; s++)
        pool_.lineShards_[s].unlock();
}

void
PmPool::applyStore(Addr off, const void *src, std::size_t n)
{
    boundsCheck(off, n);
    if (n == 0)
        return;
    const LineAddr first = lineOf(off);
    const LineAddr last = lineOf(off + n - 1);
    ShardGuard guard(*this, first, last);
    std::memcpy(arch_.get() + off, src, n);
    for (LineAddr line = first; line <= last; line++) {
        lineStates_[line].store(1, std::memory_order_relaxed);
        // Writing a poisoned line re-programs the failed cells (the
        // device remaps on write); the line is readable again.
        if (poisoned_[line].exchange(0, std::memory_order_relaxed))
            stats_.poisonCleared++;
    }
}

bool
PmPool::applyCas64(Addr off, std::uint64_t expected, std::uint64_t desired)
{
    boundsCheck(off, 8);
    panic_if(off % 8 != 0, "unaligned 8-byte CAS at %llu",
             static_cast<unsigned long long>(off));
    const LineAddr line = lineOf(off);
    ShardGuard guard(*this, line, line);
    std::uint64_t cur;
    std::memcpy(&cur, arch_.get() + off, 8);
    if (cur != expected)
        return false;
    std::memcpy(arch_.get() + off, &desired, 8);
    lineStates_[line].store(1, std::memory_order_relaxed);
    if (poisoned_[line].exchange(0, std::memory_order_relaxed))
        stats_.poisonCleared++;
    return true;
}

void
PmPool::applyLoad(Addr off, void *dst, std::size_t n) const
{
    boundsCheck(off, n);
    if (n == 0)
        return;
    const LineAddr first = lineOf(off);
    const LineAddr last = lineOf(off + n - 1);
    // Transient read fault: a marginal cell makes the load fail, the
    // (simulated) retry loop re-reads and succeeds within the plan's
    // retry bound. Visible only in the fault counters — no PM op is
    // emitted, so traced op counts and crash-point indices are
    // unaffected.
    if (faultPlan_.transientEvery != 0) {
        const std::uint64_t idx =
            loadIndex_.fetch_add(1, std::memory_order_relaxed);
        if (idx % faultPlan_.transientEvery ==
            faultPlan_.transientEvery - 1)
            stats_.transientFaults++;
    }
    ShardGuard guard(*this, first, last);
    for (LineAddr line = first; line <= last; line++) {
        if (poisoned_[line].load(std::memory_order_relaxed)) {
            // Uncorrectable: retries cannot help, the media lost the
            // line. Recoverable by scrubLine(); never a panic.
            stats_.mediaErrors++;
            const Addr base = line << kCacheLineBits;
            throw PmMediaError(base > off ? base : off, line);
        }
    }
    std::memcpy(dst, arch_.get() + off, n);
}

void
PmPool::persistLine(LineAddr line)
{
    panic_if(line >= lineStates_.size(), "persist of line %llu beyond pool",
             static_cast<unsigned long long>(line));
    ShardGuard guard(*this, line, line);
    persistLineLocked(line);
}

void
PmPool::persistLineLocked(LineAddr line)
{
    const Addr base = line << kCacheLineBits;
    const std::size_t n = std::min(kCacheLineSize, size_ - base);
    std::memcpy(durable_.get() + base, arch_.get() + base, n);
    lineStates_[line].store(0, std::memory_order_relaxed);
}

void
PmPool::persistRange(Addr off, std::size_t n)
{
    if (n == 0)
        return;
    boundsCheck(off, n);
    const LineAddr first = lineOf(off);
    const LineAddr last = lineOf(off + n - 1);
    for (LineAddr line = first; line <= last; line++)
        persistLine(line);
}

bool
PmPool::lineDirty(LineAddr line) const
{
    panic_if(line >= lineStates_.size(), "line %llu beyond pool",
             static_cast<unsigned long long>(line));
    return lineStates_[line].load(std::memory_order_relaxed) != 0;
}

std::uint64_t
PmPool::dirtyLineCount() const
{
    std::uint64_t n = 0;
    for (const auto &st : lineStates_)
        n += st.load(std::memory_order_relaxed) != 0;
    return n;
}

std::vector<LineAddr>
PmPool::dirtyLines() const
{
    std::vector<LineAddr> lines;
    for (LineAddr line = 0; line < lineStates_.size(); line++) {
        if (lineStates_[line].load(std::memory_order_relaxed))
            lines.push_back(line);
    }
    return lines;
}

std::vector<LineAddr>
PmPool::pickSurvivors(Rng &rng, double survival) const
{
    std::vector<LineAddr> survivors;
    for (LineAddr line = 0; line < lineStates_.size(); line++) {
        if (lineStates_[line].load(std::memory_order_relaxed) &&
            rng.chance(survival)) {
            survivors.push_back(line);
        }
    }
    return survivors;
}

void
PmPool::crash(Rng &rng, double survival)
{
    crashWithFaults(pickSurvivors(rng, survival), {});
}

void
PmPool::crashHard()
{
    finishCrash();
}

void
PmPool::finishCrash()
{
    // Re-mount: reload the arch image from the durable one. A clean
    // line already holds its durable bytes in both images (the
    // lineDirty() invariant), so only dirty lines are copied back.
    for (LineAddr line = 0; line < lineStates_.size(); line++) {
        if (!lineStates_[line].load(std::memory_order_relaxed))
            continue;
        const Addr base = line << kCacheLineBits;
        const std::size_t n = std::min(kCacheLineSize, size_ - base);
        std::memcpy(arch_.get() + base, durable_.get() + base, n);
        lineStates_[line].store(0, std::memory_order_relaxed);
    }
    stats_.crashes++;
}

FaultResolution
PmPool::resolveFaults(const FaultPlan &plan,
                      const std::vector<LineAddr> &survivors) const
{
    FaultResolution out;
    if (plan.none())
        return out;
    Rng rng(plan.seed);

    // Poison: up to poisonCount distinct dirty lines are lost
    // outright — drawn from the full dirty set (a write in flight is
    // exactly what a power cut catches mid-program on the media).
    if (plan.poisonCount != 0) {
        std::vector<LineAddr> dirty = dirtyLines();
        for (std::uint32_t i = 0;
             i < plan.poisonCount && !dirty.empty(); i++) {
            const std::size_t pick = rng.next(dirty.size());
            out.poisoned.push_back(dirty[pick]);
            dirty.erase(dirty.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        }
        std::sort(out.poisoned.begin(), out.poisoned.end());
    }

    // Tearing: each surviving, non-poisoned line persists only a
    // proper subset of its 8-byte words with probability tearProb.
    if (plan.tearProb > 0.0) {
        for (const LineAddr line : survivors) {
            if (std::find(out.poisoned.begin(), out.poisoned.end(),
                          line) != out.poisoned.end())
                continue;
            if (!rng.chance(plan.tearProb))
                continue;
            // Masks 1..254: at least one word persists, at least one
            // is lost (0 == vanished, 255 == survived whole — both
            // already covered by the survivor dimension).
            out.torn.push_back(TornLine{
                line, static_cast<std::uint8_t>(rng.range(1, 254))});
        }
    }
    return out;
}

void
PmPool::crashWithFaults(const std::vector<LineAddr> &survivors,
                        const FaultResolution &faults)
{
    for (const LineAddr line : survivors) {
        if (!lineDirty(line))
            continue;
        if (std::find(faults.poisoned.begin(), faults.poisoned.end(),
                      line) != faults.poisoned.end())
            continue; // lost outright below
        const TornLine *torn = nullptr;
        for (const TornLine &t : faults.torn) {
            if (t.line == line) {
                torn = &t;
                break;
            }
        }
        if (!torn) {
            persistLine(line);
            // Crash survivals are a separate phenomenon from cache
            // evictions; conflating them skewed every eviction-rate
            // report.
            stats_.linesSurvivedCrash++;
            continue;
        }
        // Torn: only the masked 8-byte words reached the media; the
        // rest keep their previous durable value.
        ShardGuard guard(*this, line, line);
        const Addr base = line << kCacheLineBits;
        for (unsigned w = 0; w < 8; w++) {
            if (!(torn->mask & (1u << w)))
                continue;
            const Addr word = base + w * 8;
            if (word + 8 > size_)
                break;
            std::memcpy(durable_.get() + word, arch_.get() + word,
                        8);
        }
        // The unmasked words still differ from the durable image, so
        // the line stays dirty and finishCrash() reloads it.
        stats_.linesTorn++;
    }
    for (const LineAddr line : faults.poisoned) {
        panic_if(line >= lineStates_.size(),
                 "poison of line %llu beyond pool",
                 static_cast<unsigned long long>(line));
        ShardGuard guard(*this, line, line);
        const Addr base = line << kCacheLineBits;
        const std::size_t n = std::min(kCacheLineSize, size_ - base);
        std::memset(durable_.get() + base, 0, n);
        // The arch image still holds the lost bytes; finishCrash()
        // reloads the line only while it is dirty.
        lineStates_[line].store(1, std::memory_order_relaxed);
        poisoned_[line].store(1, std::memory_order_relaxed);
        stats_.linesPoisoned++;
    }
    finishCrash();
}

void
PmPool::scrubLine(LineAddr line)
{
    panic_if(line >= lineStates_.size(), "scrub of line %llu beyond pool",
             static_cast<unsigned long long>(line));
    ShardGuard guard(*this, line, line);
    const Addr base = line << kCacheLineBits;
    const std::size_t n = std::min(kCacheLineSize, size_ - base);
    std::memset(arch_.get() + base, 0, n);
    std::memset(durable_.get() + base, 0, n);
    lineStates_[line].store(0, std::memory_order_relaxed);
    poisoned_[line].store(0, std::memory_order_relaxed);
    stats_.linesScrubbed++;
}

void
PmPool::poisonLine(LineAddr line)
{
    panic_if(line >= lineStates_.size(),
             "poison of line %llu beyond pool",
             static_cast<unsigned long long>(line));
    poisoned_[line].store(1, std::memory_order_relaxed);
    stats_.linesPoisoned++;
}

bool
PmPool::linePoisoned(LineAddr line) const
{
    panic_if(line >= lineStates_.size(), "line %llu beyond pool",
             static_cast<unsigned long long>(line));
    return poisoned_[line].load(std::memory_order_relaxed) != 0;
}

std::vector<LineAddr>
PmPool::poisonedLines() const
{
    std::vector<LineAddr> lines;
    for (LineAddr line = 0; line < poisoned_.size(); line++) {
        if (poisoned_[line].load(std::memory_order_relaxed))
            lines.push_back(line);
    }
    return lines;
}

} // namespace whisper::pm
