/**
 * @file
 * The PMFS-like persistent-memory filesystem.
 *
 * Characteristics reproduced from the paper's description of PMFS:
 *
 *  - syscall-style API (create/read/write/append/unlink/readdir)
 *    backed directly by PM — no block layer;
 *  - user data in 4 KB blocks written with *non-temporal* stores
 *    (about 96% of PMFS's PM writes are NTIs; writing one block makes
 *    a 64-line epoch, the paper's Figure 4 ">=64" mode), and page
 *    zeroing also uses NTIs;
 *  - metadata (inodes, bitmaps, per-file block-map B-trees, packed
 *    directory entries) updated with cacheable stores under the undo
 *    journal; the journal descriptor moves UNCOMMITTED -> COMMITTED
 *    and entries are processed one-per-epoch;
 *  - synchronous persistence: every operation is durable when the
 *    call returns;
 *  - crash consistency for metadata only — torn user data is the
 *    application's problem, exactly as in PMFS.
 *
 * Concurrency: a single filesystem lock serializes operations (the
 * in-kernel PMFS serializes per-inode; a coarser lock only lowers the
 * epoch rate, which is already the lowest of the suite for FS apps).
 */

#ifndef WHISPER_PMFS_PMFS_HH
#define WHISPER_PMFS_PMFS_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pmfs/block_tree.hh"

namespace whisper::core
{
class VerifyReport;
}

namespace whisper::pmfs
{

/** Filesystem operation counters. */
struct FsStats
{
    std::uint64_t creates = 0;
    std::uint64_t unlinks = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t blocksAllocated = 0;
    std::uint64_t blocksFreed = 0;
};

/**
 * One mounted filesystem instance over [base, base+size) of a pool.
 */
class Pmfs : public BtNodeAllocator
{
  public:
    /** mkfs + mount: format the region and start clean. */
    Pmfs(pm::PmContext &ctx, Addr base, std::size_t size);

    /** Attach to an existing filesystem; call mount() next. */
    Pmfs(Addr base, std::size_t size);

    /** Mount after a crash: journal recovery + index rebuild. */
    void mount(pm::PmContext &ctx);

    /** @{ \name Syscall-style interface (absolute '/'-paths) */

    /** Create a regular file; parent directory must exist. */
    Ino create(pm::PmContext &ctx, const std::string &path);

    /** Create a directory. */
    Ino mkdir(pm::PmContext &ctx, const std::string &path);

    /** Resolve a path; kInvalidIno when absent. */
    Ino lookup(pm::PmContext &ctx, const std::string &path);

    /** Write @p n bytes at @p offset; extends the file as needed.
     *  Durable on return. Returns bytes written or -1. */
    long write(pm::PmContext &ctx, Ino ino, std::uint64_t offset,
               const void *data, std::size_t n);

    /** Append @p n bytes to the end of the file. */
    long append(pm::PmContext &ctx, Ino ino, const void *data,
                std::size_t n);

    /** Read up to @p n bytes at @p offset; returns bytes read. */
    long read(pm::PmContext &ctx, Ino ino, std::uint64_t offset,
              void *buf, std::size_t n);

    /** Remove a file (directories must be empty). */
    bool unlink(pm::PmContext &ctx, const std::string &path);

    /** File size in bytes (0 for absent). */
    std::uint64_t fileSize(pm::PmContext &ctx, Ino ino);

    /** Names in a directory. */
    std::vector<std::string> readdir(pm::PmContext &ctx,
                                     const std::string &path);

    /** @} */

    /**
     * Full consistency check of the durable-visible state: bitmap vs
     * reachability, dirent validity, size bounds. Returns true when
     * consistent; otherwise fills @p why.
     */
    bool fsck(pm::PmContext &ctx, std::string *why = nullptr);

    /** Post-mount recovery invariant: journal FREE and cleared. */
    bool journalQuiescent(pm::PmContext &ctx,
                          std::string *why = nullptr) const;

    /**
     * Media-fault scrub, run before mount(): forwards the journal
     * region to MetaJournal::scrub (descriptor forced UNCOMMITTED,
     * live entry damage degraded). Other filesystem lines — inode
     * table, bitmaps, dirents, data blocks — carry no redundancy
     * beyond the journal, so they are left for the generic
     * "pm-line-lost" degradation; mount-time rollback and fsck decide
     * what the loss means.
     */
    void scrub(pm::PmContext &ctx, std::vector<LineAddr> &lines,
               core::VerifyReport &report);

    const FsStats &stats() const { return stats_; }
    std::uint64_t freeBlockCount() const;

    /** BtNodeAllocator (B-tree nodes are ordinary data blocks). */
    Addr allocNode(pm::PmContext &ctx) override;
    void freeNode(pm::PmContext &ctx, Addr node) override;

  private:
    Inode *inode(pm::PmContext &ctx, Ino ino);
    Addr inodeOff(Ino ino) const;
    Ino allocInode(pm::PmContext &ctx, FileType type);
    void freeInode(pm::PmContext &ctx, Ino ino);
    Addr allocBlock(pm::PmContext &ctx, bool zero);
    void freeBlock(pm::PmContext &ctx, Addr block);
    void setBitmapBit(pm::PmContext &ctx, Addr bitmap_off,
                      std::uint64_t bit, bool value,
                      std::vector<std::uint64_t> &shadow);

    /** Split "/a/b/c" into parent-dir ino and leaf name. */
    bool resolveParent(pm::PmContext &ctx, const std::string &path,
                       Ino &parent, std::string &leaf);
    Ino dirLookup(pm::PmContext &ctx, Ino dir, const std::string &name);
    bool dirAdd(pm::PmContext &ctx, Ino dir, const std::string &name,
                Ino target);
    bool dirRemove(pm::PmContext &ctx, Ino dir, const std::string &name);
    bool dirEmpty(pm::PmContext &ctx, Ino dir);
    long writeLocked(pm::PmContext &ctx, Ino ino, std::uint64_t offset,
                     const void *data, std::size_t n);
    Ino createEntry(pm::PmContext &ctx, const std::string &path,
                    FileType type);
    void freeFileContents(pm::PmContext &ctx, Inode *node);

    Addr base_;
    std::size_t size_;
    Superblock sb_;
    std::unique_ptr<MetaJournal> journal_;
    std::unique_ptr<BlockTree> tree_;
    std::vector<std::uint64_t> inodeShadow_;
    std::vector<std::uint64_t> blockShadow_;
    std::uint64_t blockCursor_ = 0;
    FsStats stats_;
    std::mutex fsLock_;
};

} // namespace whisper::pmfs

#endif // WHISPER_PMFS_PMFS_HH
