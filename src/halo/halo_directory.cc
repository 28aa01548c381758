#include "halo/halo_directory.hh"

#include <mutex>

#include "common/logging.hh"
#include "common/rng.hh"

namespace whisper::halo
{

std::uint64_t
HaloDirectory::hashKey(std::uint64_t key)
{
    // splitmix64 finalizer: full-avalanche, so the low index bits and
    // the top fingerprint byte are effectively independent.
    return mix64(key);
}

HaloDirectory::HaloDirectory(unsigned initial_depth)
{
    clear(initial_depth);
}

void
HaloDirectory::clear(unsigned initial_depth)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    panic_if(initial_depth > kMaxDepth, "halo: directory too deep");
    pool_.clear();
    dir_.assign(std::size_t(1) << initial_depth, nullptr);
    globalDepth_ = initial_depth;
    size_ = 0;
    doubles_ = 0;
    splits_ = 0;
    fpFalseHits_.store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < dir_.size(); i++)
        dir_[i] = newBucket(initial_depth);
}

HaloDirectory::Bucket *
HaloDirectory::newBucket(unsigned depth)
{
    pool_.push_back(std::make_unique<Bucket>());
    pool_.back()->localDepth = static_cast<std::uint8_t>(depth);
    return pool_.back().get();
}

HaloDirectory::Bucket *
HaloDirectory::bucketFor(std::uint64_t hash) const
{
    return dir_[hash & ((std::uint64_t(1) << globalDepth_) - 1)];
}

void
HaloDirectory::splitBucket(std::uint64_t hash)
{
    Bucket *old = bucketFor(hash);
    if (old->localDepth == globalDepth_) {
        // Double the directory: each old slot fans out to two slots
        // naming the same bucket until a split diverges them.
        panic_if(globalDepth_ + 1 > kMaxDepth,
                 "halo: directory depth limit hit");
        const std::size_t half = dir_.size();
        dir_.resize(half * 2);
        for (std::size_t i = 0; i < half; i++)
            dir_[half + i] = dir_[i];
        globalDepth_++;
        doubles_++;
    }
    // Split on the bit one past the old local depth: entries whose
    // hash has it set move to the sibling bucket.
    const unsigned depth = old->localDepth + 1u;
    const std::uint64_t bit = std::uint64_t(1) << (depth - 1);
    Bucket *sib = newBucket(depth);
    old->localDepth = static_cast<std::uint8_t>(depth);
    splits_++;

    std::uint8_t keep = 0;
    for (unsigned i = 0; i < old->count; i++) {
        const std::uint64_t h = hashKey(old->keys[i]);
        if (h & bit) {
            sib->fps[sib->count] = old->fps[i];
            sib->keys[sib->count] = old->keys[i];
            sib->addrs[sib->count] = old->addrs[i];
            sib->count++;
        } else {
            old->fps[keep] = old->fps[i];
            old->keys[keep] = old->keys[i];
            old->addrs[keep] = old->addrs[i];
            keep++;
        }
    }
    old->count = keep;

    // Repoint every directory slot that addressed the old bucket and
    // has the distinguishing bit set.
    const std::uint64_t low_mask = bit - 1;
    const std::uint64_t base = hash & low_mask;
    const std::uint64_t stride = bit << 1;
    for (std::uint64_t i = base | bit; i < dir_.size(); i += stride)
        dir_[i] = sib;
}

void
HaloDirectory::upsert(std::uint64_t key, Addr addr)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    const std::uint64_t hash = hashKey(key);
    const std::uint8_t fp = static_cast<std::uint8_t>(hash >> 56);
    for (;;) {
        Bucket *b = bucketFor(hash);
        for (unsigned i = 0; i < b->count; i++) {
            if (b->fps[i] != fp)
                continue;
            if (b->keys[i] == key) {
                b->addrs[i] = addr;
                return;
            }
            fpFalseHits_.fetch_add(1, std::memory_order_relaxed);
        }
        if (b->count < kBucketSlots) {
            b->fps[b->count] = fp;
            b->keys[b->count] = key;
            b->addrs[b->count] = addr;
            b->count++;
            size_++;
            return;
        }
        splitBucket(hash);
    }
}

bool
HaloDirectory::erase(std::uint64_t key)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    const std::uint64_t hash = hashKey(key);
    const std::uint8_t fp = static_cast<std::uint8_t>(hash >> 56);
    Bucket *b = bucketFor(hash);
    for (unsigned i = 0; i < b->count; i++) {
        if (b->fps[i] != fp)
            continue;
        if (b->keys[i] != key) {
            fpFalseHits_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        b->count--;
        b->fps[i] = b->fps[b->count];
        b->keys[i] = b->keys[b->count];
        b->addrs[i] = b->addrs[b->count];
        size_--;
        return true;
    }
    return false;
}

bool
HaloDirectory::lookup(std::uint64_t key, Addr &addr) const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    const std::uint64_t hash = hashKey(key);
    const std::uint8_t fp = static_cast<std::uint8_t>(hash >> 56);
    const Bucket *b = bucketFor(hash);
    for (unsigned i = 0; i < b->count; i++) {
        if (b->fps[i] != fp)
            continue;
        if (b->keys[i] == key) {
            addr = b->addrs[i];
            return true;
        }
        fpFalseHits_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
}

} // namespace whisper::halo
