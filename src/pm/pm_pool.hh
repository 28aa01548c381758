/**
 * @file
 * Software persistent-memory device.
 *
 * A PmPool holds two byte images of the same pool:
 *
 *  - the *architectural* image — what loads observe; updated by every
 *    store immediately (it plays the role of the cache hierarchy plus
 *    the memory), and
 *  - the *durable* image — what survives a simulated power failure;
 *    updated only when lines are persisted (flush + fence, NT store +
 *    fence, or explicit eviction).
 *
 * This split implements exactly the x86-64 persistency contract the
 * paper's applications program against: data is durable only once a
 * clwb/NT store has been fenced; anything merely dirty may or may not
 * survive a crash (write-back caches can evict at any time). The
 * crash() entry point resolves each such "may" with a seeded RNG, so
 * property tests can sweep adversarial crash outcomes.
 *
 * Persistent data structures store POff<T> offsets, never pointers;
 * offsets remain valid across crash()/recover().
 */

#ifndef WHISPER_PM_PM_POOL_HH
#define WHISPER_PM_PM_POOL_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "pm/fault_plan.hh"

namespace whisper::pm
{

/**
 * Crash and media-fault counters. None is touched by an ordinary
 * store, load or persist, so app threads never contend on them; the
 * simulator reports persist traffic per DIMM (SimResult.device).
 */
struct PoolStats
{
    std::atomic<std::uint64_t> linesSurvivedCrash{0}; //!< kept by a crash
    std::atomic<std::uint64_t> crashes{0};            //!< crash() calls
    std::atomic<std::uint64_t> linesTorn{0};          //!< word-torn at crash
    std::atomic<std::uint64_t> linesPoisoned{0};      //!< lost to media
    std::atomic<std::uint64_t> poisonCleared{0};      //!< re-programmed
    std::atomic<std::uint64_t> linesScrubbed{0};      //!< scrubLine() calls
    std::atomic<std::uint64_t> transientFaults{0};    //!< retried reads
    std::atomic<std::uint64_t> mediaErrors{0};        //!< PmMediaError raised
};

/**
 * The simulated PM device (one pool == one DAX mapping).
 */
class PmPool
{
  public:
    /**
     * Create a pool of @p size bytes, zeroed and clean. Both images
     * are lazily zero-mapped anonymous memory: a page costs nothing
     * until first touched, so creating a pool is O(lines), not
     * O(bytes).
     */
    explicit PmPool(std::size_t size);

    std::size_t size() const { return size_; }
    std::size_t lineCount() const { return lineStates_.size(); }

    /** @{ Raw image access (bounds-checked in at()/durableAt()). */
    std::uint8_t *archBase() { return arch_.get(); }
    const std::uint8_t *archBase() const { return arch_.get(); }
    const std::uint8_t *durableBase() const { return durable_.get(); }
    /** @} */

    /**
     * Typed pointer into the architectural image.
     * Valid until the next crash()/recover().
     */
    template <typename T>
    T *
    at(Addr off)
    {
        boundsCheck(off, sizeof(T));
        return reinterpret_cast<T *>(arch_.get() + off);
    }

    template <typename T>
    const T *
    at(Addr off) const
    {
        boundsCheck(off, sizeof(T));
        return reinterpret_cast<const T *>(arch_.get() + off);
    }

    /** Typed pointer into the durable image (post-mortem inspection). */
    template <typename T>
    const T *
    durableAt(Addr off) const
    {
        boundsCheck(off, sizeof(T));
        return reinterpret_cast<const T *>(durable_.get() + off);
    }

    /** Offset of a pointer that is known to point into the arch image. */
    Addr offsetOf(const void *p) const;

    /** True if @p p points inside the architectural image. */
    bool contains(const void *p) const;

    /** @{ Device-level operations used by PmContext. */

    /** Apply a store to the architectural image; marks lines dirty. */
    void applyStore(Addr off, const void *src, std::size_t n);

    /**
     * Atomic 8-byte compare-and-swap on the architectural image: the
     * MOD structures' bucket/root-slot commit point. Succeeds (and
     * marks the line dirty) iff the current value equals @p expected.
     */
    bool applyCas64(Addr off, std::uint64_t expected,
                    std::uint64_t desired);

    /**
     * Read @p n bytes of the architectural image into @p dst, atomically
     * with respect to concurrent applyStore/applyCas64 on the same
     * lines (a reader never observes a torn 8-byte commit).
     */
    void applyLoad(Addr off, void *dst, std::size_t n) const;

    /** Copy one line arch -> durable and mark it clean. */
    void persistLine(LineAddr line);

    /** Persist every line overlapping [off, off+n). */
    void persistRange(Addr off, std::size_t n);

    /** @} */

    /**
     * True if the line may differ from the durable image. The device
     * invariant the crash reload relies on: a clean line's arch bytes
     * equal its durable bytes. Every image mutation that leaves
     * arch != durable (applyStore, applyCas64, a torn or poisoned
     * crash line) therefore marks or leaves the line dirty.
     */
    bool lineDirty(LineAddr line) const;

    /**
     * Number of currently dirty lines (linear scan). runCase() folds
     * it into every fuzz case digest, so its value is pinned.
     */
    std::uint64_t dirtyLineCount() const;

    /** All currently dirty lines, ascending (crash-fuzz helper). */
    std::vector<LineAddr> dirtyLines() const;

    /**
     * Resolve a crash's "may survive" set without crashing: each
     * currently dirty line is kept with probability @p survival.
     * Depends only on (@p rng state, dirty set), so a fuzz case can
     * reproduce — or override — the exact survivor set.
     */
    std::vector<LineAddr> pickSurvivors(Rng &rng,
                                        double survival) const;

    /**
     * Simulate a power failure.
     *
     * Every dirty line independently persists with probability
     * @p survival (a write-back cache may have evicted it at any
     * point); everything else keeps its last durable value. The
     * architectural image is then reloaded from the durable image,
     * exactly as a re-mount after power-up would see it. The reload
     * copies only the lines still dirty: a clean line already holds
     * its durable bytes in both images.
     */
    void crash(Rng &rng, double survival = 0.5);

    /**
     * Like crash() but nothing un-persisted survives: the strictest
     * legal outcome (also the most common in tests, since it makes
     * failures deterministic).
     */
    void crashHard();

    /** @{ Media-fault model (see fault_plan.hh). */

    /**
     * Install the fault plan for subsequent loads and crashes. The
     * default (empty) plan injects nothing; installing a plan never
     * emits PM operations, so traced op counts are unaffected.
     */
    void setFaultPlan(const FaultPlan &plan) { faultPlan_ = plan; }

    /**
     * Resolve @p plan against the current dirty set and @p survivors
     * without crashing: up to plan.poisonCount dirty lines are
     * poisoned (lost outright) and each remaining survivor tears with
     * plan.tearProb. Deterministic in (plan.seed, dirty set,
     * @p survivors); feed the result to crashWithFaults() and fold it
     * into fuzz digests.
     */
    FaultResolution resolveFaults(const FaultPlan &plan,
                                  const std::vector<LineAddr> &survivors)
        const;

    /**
     * Crash with an explicit survivor set: exactly the dirty lines in
     * @p survivors persist, everything else keeps its durable value
     * (the crash-fuzz shrinker searches this way for the smallest
     * surviving set that still breaks recovery). Empty @p faults give
     * a plain crash; otherwise lines named in @p faults.torn persist
     * only their masked 8-byte words, and lines in @p faults.poisoned
     * are lost outright — the durable image forgets them
     * (zero-filled) and reads of the line raise PmMediaError until it
     * is scrubbed or re-programmed.
     * Torn and poisoned lines stay dirty until the reload, since
     * their arch bytes still differ from the durable image; the
     * reload then restores them and marks every line clean.
     */
    void crashWithFaults(const std::vector<LineAddr> &survivors,
                         const FaultResolution &faults);

    /**
     * Repair one media-lost line: zero-fill both images (its content
     * is gone; the scrub's caller restores what redundancy allows)
     * and clear the poison so subsequent loads succeed.
     */
    void scrubLine(LineAddr line);

    /** Poison one line directly (unit-test hook). */
    void poisonLine(LineAddr line);

    /** True if reads of @p line currently raise PmMediaError. */
    bool linePoisoned(LineAddr line) const;

    /** All currently poisoned lines, ascending (scrub work list). */
    std::vector<LineAddr> poisonedLines() const;

    /** @} */

    const PoolStats &stats() const { return stats_; }

  private:
    /**
     * Line-granular synchronization: every image access (applyStore,
     * applyCas64, applyLoad, persistLine) holds the shard lock(s) of
     * the lines it touches, so a concurrent 8-byte CAS commit and a
     * reader's load of the same slot never tear, and a fence draining
     * one thread's flush queue never races another thread's store to
     * a neighboring word in the same line.
     */
    static constexpr std::size_t kLineShards = 64;

    std::size_t shardOf(LineAddr line) const { return line % kLineShards; }

    /**
     * Lock the shards of lines [first, last]. Consecutive lines map to
     * consecutive shards, so the set is the range lo_..hi_, which
     * wraps past the last shard when lo_ > hi_ and is every shard once
     * the span reaches kLineShards lines. Shards lock in ascending
     * index order (0..hi_, then lo_..63 when wrapped): one global lock
     * order, so concurrent multi-line accesses never deadlock.
     */
    class ShardGuard
    {
      public:
        ShardGuard(const PmPool &pool, LineAddr first, LineAddr last);
        ~ShardGuard();

      private:
        const PmPool &pool_;
        std::size_t lo_;
        std::size_t hi_;
    };

    /** munmap()s an image mapped by mapImage(). */
    struct Unmap
    {
        std::size_t bytes;
        void operator()(std::uint8_t *p) const;
    };
    using Image = std::unique_ptr<std::uint8_t, Unmap>;

    static Image mapImage(std::size_t bytes);

    void boundsCheck(Addr off, std::size_t n) const;
    void finishCrash();
    void persistLineLocked(LineAddr line);

    std::size_t size_;
    Image arch_;
    Image durable_;
    /** 1 == dirty. Atomic so concurrent app threads may mark freely. */
    std::vector<std::atomic<std::uint8_t>> lineStates_;
    /** 1 == poisoned: loads raise PmMediaError until scrubbed. */
    std::vector<std::atomic<std::uint8_t>> poisoned_;
    mutable std::array<std::mutex, kLineShards> lineShards_;
    FaultPlan faultPlan_;
    /** Global load index driving transient-fault injection. */
    mutable std::atomic<std::uint64_t> loadIndex_{0};
    /** Mutable: applyLoad() is const but counts faults it injects. */
    mutable PoolStats stats_;
};

} // namespace whisper::pm

#endif // WHISPER_PM_PM_POOL_HH
