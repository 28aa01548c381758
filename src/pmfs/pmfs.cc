#include "pmfs/pmfs.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace whisper::pmfs
{

using pm::DataClass;
using pm::FenceKind;

namespace
{
/** Zero buffer reused for NTI page zeroing. */
const std::uint8_t kZeroBlock[kBlockSize] = {};

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::size_t i = 0;
    while (i < path.size()) {
        while (i < path.size() && path[i] == '/')
            i++;
        std::size_t j = i;
        while (j < path.size() && path[j] != '/')
            j++;
        if (j > i)
            parts.push_back(path.substr(i, j - i));
        i = j;
    }
    return parts;
}
} // namespace

Pmfs::Pmfs(pm::PmContext &ctx, Addr base, std::size_t size)
    : Pmfs(base, size)
{
    // ---- mkfs ----
    sb_.magic = Superblock::kMagic;
    sb_.fsSize = size;
    sb_.journalOff = base_ + kBlockSize;
    sb_.inodeBitmapOff = sb_.journalOff + MetaJournal::kJournalBytes;

    // Estimate block count, then fix the layout.
    const std::uint64_t approx_blocks =
        (size - (sb_.inodeBitmapOff - base_)) / kBlockSize;
    sb_.inodeCount = std::clamp<std::uint64_t>(approx_blocks, 1024, 65536);
    const std::uint64_t ibm_bytes = (sb_.inodeCount + 63) / 64 * 8;
    sb_.inodeTableOff = sb_.inodeBitmapOff + ibm_bytes;
    const Addr after_itable =
        sb_.inodeTableOff + sb_.inodeCount * sizeof(Inode);
    sb_.blockBitmapOff = after_itable;
    // Solve: bbm_bytes + blocks*4096 <= remaining.
    const std::uint64_t remaining = base_ + size - after_itable;
    std::uint64_t blocks = remaining / (kBlockSize + 1);
    const std::uint64_t bbm_bytes = (blocks + 63) / 64 * 8;
    sb_.dataOff = (after_itable + bbm_bytes + kBlockSize - 1) /
                  kBlockSize * kBlockSize;
    blocks = (base_ + size - sb_.dataOff) / kBlockSize;
    sb_.blockCount = blocks;
    panic_if(blocks < 16, "PMFS region too small");

    ctx.store(base_, &sb_, sizeof(sb_), DataClass::FsMeta);
    ctx.flush(base_, sizeof(sb_));

    // Zero both bitmaps with NTIs (PMFS zeroes pages with NTIs).
    for (Addr off = sb_.inodeBitmapOff; off < sb_.inodeTableOff;
         off += 8) {
        const std::uint64_t zero = 0;
        ctx.ntStore(off, &zero, 8, DataClass::FsMeta);
    }
    const std::uint64_t bbm_words = (blocks + 63) / 64;
    for (std::uint64_t w = 0; w < bbm_words; w++) {
        const std::uint64_t zero = 0;
        ctx.ntStore(sb_.blockBitmapOff + w * 8, &zero, 8,
                    DataClass::FsMeta);
    }
    ctx.fence(FenceKind::Durability);

    journal_ = std::make_unique<MetaJournal>(ctx, sb_.journalOff);
    tree_ = std::make_unique<BlockTree>(*journal_, *this);

    inodeShadow_.assign((sb_.inodeCount + 63) / 64, 0);
    blockShadow_.assign(bbm_words, 0);

    // Root directory: ino 1 (ino 0 stays reserved/invalid).
    journal_->begin(ctx);
    setBitmapBit(ctx, sb_.inodeBitmapOff, 0, true, inodeShadow_); // ino 0
    const Ino root = allocInode(ctx, FileType::Directory);
    panic_if(root != kRootIno, "root inode is not 1");
    journal_->commit(ctx);
}

Pmfs::Pmfs(Addr base, std::size_t size)
    : base_(base), size_(size)
{
}

void
Pmfs::scrub(pm::PmContext &ctx, std::vector<LineAddr> &lines,
            core::VerifyReport &report)
{
    // Pre-mount: the journal's offset is a pure function of the
    // attach parameters, so no superblock read is needed (the
    // superblock line is only ever dirty during mkfs and cannot be
    // poisoned by a steady-state crash).
    if (!journal_) {
        journal_ = std::make_unique<MetaJournal>(base_ + kBlockSize);
        tree_ = std::make_unique<BlockTree>(*journal_, *this);
    }
    journal_->scrub(ctx, lines, report);
}

void
Pmfs::mount(pm::PmContext &ctx)
{
    ctx.load(base_, &sb_, sizeof(sb_));
    panic_if(sb_.magic != Superblock::kMagic,
             "mount: bad PMFS superblock");
    if (!journal_) {
        journal_ = std::make_unique<MetaJournal>(sb_.journalOff);
        tree_ = std::make_unique<BlockTree>(*journal_, *this);
    }
    journal_->recover(ctx);

    // Rebuild the volatile bitmap shadows.
    inodeShadow_.assign((sb_.inodeCount + 63) / 64, 0);
    blockShadow_.assign((sb_.blockCount + 63) / 64, 0);
    for (std::size_t w = 0; w < inodeShadow_.size(); w++)
        ctx.load(sb_.inodeBitmapOff + w * 8, &inodeShadow_[w], 8);
    for (std::size_t w = 0; w < blockShadow_.size(); w++)
        ctx.load(sb_.blockBitmapOff + w * 8, &blockShadow_[w], 8);
    blockCursor_ = 0;
}

Addr
Pmfs::inodeOff(Ino ino) const
{
    return sb_.inodeTableOff + static_cast<Addr>(ino) * sizeof(Inode);
}

Inode *
Pmfs::inode(pm::PmContext &ctx, Ino ino)
{
    panic_if(ino >= sb_.inodeCount, "inode number out of range");
    return ctx.pool().at<Inode>(inodeOff(ino));
}

void
Pmfs::setBitmapBit(pm::PmContext &ctx, Addr bitmap_off, std::uint64_t bit,
                   bool value, std::vector<std::uint64_t> &shadow)
{
    const std::uint64_t word = bit / 64;
    const std::uint64_t mask = 1ull << (bit % 64);
    std::uint64_t val = shadow[word];
    if (value)
        val |= mask;
    else
        val &= ~mask;
    journal_->logOld(ctx, bitmap_off + word * 8, 8);
    ctx.store(bitmap_off + word * 8, &val, 8, DataClass::FsMeta);
    shadow[word] = val;
    ctx.vStore(&shadow[word], 8);
}

Ino
Pmfs::allocInode(pm::PmContext &ctx, FileType type)
{
    for (std::uint64_t i = 0; i < sb_.inodeCount; i++) {
        if (inodeShadow_[i / 64] & (1ull << (i % 64)))
            continue;
        setBitmapBit(ctx, sb_.inodeBitmapOff, i, true, inodeShadow_);
        // The inode slot may hold stale bytes: journal, then init.
        journal_->logOld(ctx, inodeOff(static_cast<Ino>(i)),
                         sizeof(Inode));
        Inode fresh{};
        fresh.type = static_cast<std::uint32_t>(type);
        fresh.links = 1;
        fresh.btreeRoot = kNullAddr;
        fresh.ctime = fresh.mtime = fresh.atime = ctx.localTicks();
        ctx.store(inodeOff(static_cast<Ino>(i)), &fresh, sizeof(fresh),
                  DataClass::FsMeta);
        return static_cast<Ino>(i);
    }
    return kInvalidIno;
}

void
Pmfs::freeInode(pm::PmContext &ctx, Ino ino)
{
    Inode *node = inode(ctx, ino);
    const std::uint32_t free_type =
        static_cast<std::uint32_t>(FileType::Free);
    journal_->logOld(ctx, ctx.pool().offsetOf(&node->type), 4);
    ctx.storeField(node->type, free_type, DataClass::FsMeta);
    setBitmapBit(ctx, sb_.inodeBitmapOff, ino, false, inodeShadow_);
}

Addr
Pmfs::allocBlock(pm::PmContext &ctx, bool zero)
{
    for (std::uint64_t probe = 0; probe < sb_.blockCount; probe++) {
        const std::uint64_t bit = (blockCursor_ + probe) % sb_.blockCount;
        if (blockShadow_[bit / 64] & (1ull << (bit % 64)))
            continue;
        blockCursor_ = (bit + 1) % sb_.blockCount;
        setBitmapBit(ctx, sb_.blockBitmapOff, bit, true, blockShadow_);
        const Addr block = sb_.dataOff + bit * kBlockSize;
        if (zero)
            ctx.ntStore(block, kZeroBlock, kBlockSize, DataClass::User);
        stats_.blocksAllocated++;
        return block;
    }
    return kNullAddr;
}

void
Pmfs::freeBlock(pm::PmContext &ctx, Addr block)
{
    const std::uint64_t bit = (block - sb_.dataOff) / kBlockSize;
    setBitmapBit(ctx, sb_.blockBitmapOff, bit, false, blockShadow_);
    stats_.blocksFreed++;
}

Addr
Pmfs::allocNode(pm::PmContext &ctx)
{
    // B-tree nodes are data blocks, NTI-zeroed so partial node
    // initialization can rely on zero fill.
    return allocBlock(ctx, true);
}

void
Pmfs::freeNode(pm::PmContext &ctx, Addr node)
{
    freeBlock(ctx, node);
}

bool
Pmfs::resolveParent(pm::PmContext &ctx, const std::string &path,
                    Ino &parent, std::string &leaf)
{
    const auto parts = splitPath(path);
    if (parts.empty() || parts.back().size() > kNameMax)
        return false;
    Ino cur = kRootIno;
    for (std::size_t i = 0; i + 1 < parts.size(); i++) {
        cur = dirLookup(ctx, cur, parts[i]);
        if (cur == kInvalidIno ||
            inode(ctx, cur)->type !=
                static_cast<std::uint32_t>(FileType::Directory)) {
            return false;
        }
    }
    parent = cur;
    leaf = parts.back();
    return true;
}

Ino
Pmfs::dirLookup(pm::PmContext &ctx, Ino dir, const std::string &name)
{
    Inode *dnode = inode(ctx, dir);
    BtRoot root{dnode->btreeRoot, dnode->btreeHeight};
    const std::uint64_t nblocks = dnode->size / kBlockSize;
    for (std::uint64_t b = 0; b < nblocks; b++) {
        const Addr block = tree_->lookup(ctx, root, b);
        if (block == kNullAddr)
            continue;
        for (std::size_t s = 0; s < kBlockSize / sizeof(Dirent); s++) {
            Dirent ent{};
            ctx.load(block + s * sizeof(Dirent), &ent, sizeof(ent));
            if (ent.ino != kInvalidIno && ent.nameLen == name.size() &&
                std::memcmp(ent.name, name.data(), name.size()) == 0) {
                return ent.ino;
            }
        }
    }
    return kInvalidIno;
}

bool
Pmfs::dirAdd(pm::PmContext &ctx, Ino dir, const std::string &name,
             Ino target)
{
    Inode *dnode = inode(ctx, dir);
    BtRoot root{dnode->btreeRoot, dnode->btreeHeight};
    const std::uint64_t nblocks = dnode->size / kBlockSize;

    Dirent ent{};
    ent.ino = target;
    ent.nameLen = static_cast<std::uint16_t>(name.size());
    std::memcpy(ent.name, name.data(), name.size());

    // Find a free slot in the existing dirent blocks.
    for (std::uint64_t b = 0; b < nblocks; b++) {
        const Addr block = tree_->lookup(ctx, root, b);
        if (block == kNullAddr)
            continue;
        for (std::size_t s = 0; s < kBlockSize / sizeof(Dirent); s++) {
            const Addr slot = block + s * sizeof(Dirent);
            Dirent cur{};
            ctx.load(slot, &cur, sizeof(cur));
            if (cur.ino == kInvalidIno) {
                journal_->logOld(ctx, slot, sizeof(Dirent));
                ctx.store(slot, &ent, sizeof(ent), DataClass::FsMeta);
                return true;
            }
        }
    }

    // Grow the directory by one zeroed block.
    const Addr block = allocBlock(ctx, true);
    if (block == kNullAddr)
        return false;
    BtRoot new_root = tree_->insert(ctx, root, nblocks, block);
    if (new_root.root != root.root || new_root.height != root.height) {
        journal_->logOld(ctx, ctx.pool().offsetOf(&dnode->btreeRoot), 12);
        ctx.storeField(dnode->btreeRoot, new_root.root,
                       DataClass::FsMeta);
        ctx.storeField(dnode->btreeHeight, new_root.height,
                       DataClass::FsMeta);
    }
    const std::uint64_t new_size = (nblocks + 1) * kBlockSize;
    journal_->logOld(ctx, ctx.pool().offsetOf(&dnode->size), 8);
    ctx.storeField(dnode->size, new_size, DataClass::FsMeta);
    // Slot 0 of a fresh (zeroed, unreachable-until-commit) block.
    ctx.store(block, &ent, sizeof(ent), DataClass::FsMeta);
    ctx.flush(block, sizeof(ent));
    return true;
}

bool
Pmfs::dirRemove(pm::PmContext &ctx, Ino dir, const std::string &name)
{
    Inode *dnode = inode(ctx, dir);
    BtRoot root{dnode->btreeRoot, dnode->btreeHeight};
    const std::uint64_t nblocks = dnode->size / kBlockSize;
    for (std::uint64_t b = 0; b < nblocks; b++) {
        const Addr block = tree_->lookup(ctx, root, b);
        if (block == kNullAddr)
            continue;
        for (std::size_t s = 0; s < kBlockSize / sizeof(Dirent); s++) {
            const Addr slot = block + s * sizeof(Dirent);
            Dirent cur{};
            ctx.load(slot, &cur, sizeof(cur));
            if (cur.ino != kInvalidIno && cur.nameLen == name.size() &&
                std::memcmp(cur.name, name.data(), name.size()) == 0) {
                const Ino zero = kInvalidIno;
                journal_->logOld(ctx, slot, 8);
                ctx.store(slot, &zero, sizeof(zero), DataClass::FsMeta);
                return true;
            }
        }
    }
    return false;
}

bool
Pmfs::dirEmpty(pm::PmContext &ctx, Ino dir)
{
    Inode *dnode = inode(ctx, dir);
    BtRoot root{dnode->btreeRoot, dnode->btreeHeight};
    const std::uint64_t nblocks = dnode->size / kBlockSize;
    for (std::uint64_t b = 0; b < nblocks; b++) {
        const Addr block = tree_->lookup(ctx, root, b);
        if (block == kNullAddr)
            continue;
        for (std::size_t s = 0; s < kBlockSize / sizeof(Dirent); s++) {
            Dirent cur{};
            ctx.load(block + s * sizeof(Dirent), &cur, sizeof(cur));
            if (cur.ino != kInvalidIno)
                return false;
        }
    }
    return true;
}

Ino
Pmfs::createEntry(pm::PmContext &ctx, const std::string &path,
                  FileType type)
{
    Ino parent = kInvalidIno;
    std::string leaf;
    if (!resolveParent(ctx, path, parent, leaf))
        return kInvalidIno;
    if (dirLookup(ctx, parent, leaf) != kInvalidIno)
        return kInvalidIno; // exists

    const TxId tx = ctx.txBegin();
    journal_->begin(ctx);
    const Ino ino = allocInode(ctx, type);
    bool ok = ino != kInvalidIno;
    if (ok)
        ok = dirAdd(ctx, parent, leaf, ino);
    journal_->commit(ctx);
    ctx.txEnd(tx);
    if (!ok)
        return kInvalidIno;
    stats_.creates++;
    return ino;
}

Ino
Pmfs::create(pm::PmContext &ctx, const std::string &path)
{
    std::lock_guard<std::mutex> guard(fsLock_);
    return createEntry(ctx, path, FileType::Regular);
}

Ino
Pmfs::mkdir(pm::PmContext &ctx, const std::string &path)
{
    std::lock_guard<std::mutex> guard(fsLock_);
    return createEntry(ctx, path, FileType::Directory);
}

Ino
Pmfs::lookup(pm::PmContext &ctx, const std::string &path)
{
    std::lock_guard<std::mutex> guard(fsLock_);
    const auto parts = splitPath(path);
    Ino cur = kRootIno;
    for (const auto &part : parts) {
        if (inode(ctx, cur)->type !=
            static_cast<std::uint32_t>(FileType::Directory)) {
            return kInvalidIno;
        }
        cur = dirLookup(ctx, cur, part);
        if (cur == kInvalidIno)
            return kInvalidIno;
    }
    return cur;
}

long
Pmfs::writeLocked(pm::PmContext &ctx, Ino ino, std::uint64_t offset,
                  const void *data, std::size_t n)
{
    Inode *node = inode(ctx, ino);
    if (node->type != static_cast<std::uint32_t>(FileType::Regular))
        return -1;
    if (n == 0)
        return 0;

    const TxId tx = ctx.txBegin();
    journal_->begin(ctx);

    BtRoot root{node->btreeRoot, node->btreeHeight};
    const BtRoot orig_root = root;
    const auto *src = static_cast<const std::uint8_t *>(data);
    std::uint64_t written = 0;
    bool failed = false;

    const std::uint64_t first_fb = offset / kBlockSize;
    const std::uint64_t last_fb = (offset + n - 1) / kBlockSize;
    for (std::uint64_t fb = first_fb; fb <= last_fb && !failed; fb++) {
        const std::uint64_t lo =
            fb == first_fb ? offset % kBlockSize : 0;
        const std::uint64_t hi =
            fb == last_fb ? (offset + n - 1) % kBlockSize + 1
                          : kBlockSize;
        Addr block = tree_->lookup(ctx, root, fb);
        if (block == kNullAddr) {
            const bool partial = lo != 0 || hi != kBlockSize;
            block = allocBlock(ctx, partial);
            if (block == kNullAddr) {
                failed = true;
                break;
            }
            root = tree_->insert(ctx, root, fb, block);
        }
        // User data: non-temporal, unjournaled (PMFS does not log
        // user data).
        ctx.ntStore(block + lo, src + written, hi - lo,
                    DataClass::User);
        written += hi - lo;
    }

    if (root.root != orig_root.root || root.height != orig_root.height) {
        journal_->logOld(ctx, ctx.pool().offsetOf(&node->btreeRoot), 12);
        ctx.storeField(node->btreeRoot, root.root, DataClass::FsMeta);
        ctx.storeField(node->btreeHeight, root.height, DataClass::FsMeta);
    }
    const std::uint64_t new_end = offset + written;
    if (new_end > node->size) {
        journal_->logOld(ctx, ctx.pool().offsetOf(&node->size), 8);
        ctx.storeField(node->size, new_end, DataClass::FsMeta);
    }
    journal_->logOld(ctx, ctx.pool().offsetOf(&node->mtime), 8);
    const Tick now = ctx.localTicks();
    ctx.storeField(node->mtime, now, DataClass::FsMeta);

    journal_->commit(ctx);
    ctx.txEnd(tx);

    stats_.writes++;
    stats_.bytesWritten += written;
    return failed && written == 0 ? -1 : static_cast<long>(written);
}

long
Pmfs::write(pm::PmContext &ctx, Ino ino, std::uint64_t offset,
            const void *data, std::size_t n)
{
    std::lock_guard<std::mutex> guard(fsLock_);
    return writeLocked(ctx, ino, offset, data, n);
}

long
Pmfs::append(pm::PmContext &ctx, Ino ino, const void *data, std::size_t n)
{
    std::lock_guard<std::mutex> guard(fsLock_);
    Inode *node = inode(ctx, ino);
    return writeLocked(ctx, ino, node->size, data, n);
}

long
Pmfs::read(pm::PmContext &ctx, Ino ino, std::uint64_t offset, void *buf,
           std::size_t n)
{
    std::lock_guard<std::mutex> guard(fsLock_);
    Inode *node = inode(ctx, ino);
    if (node->type != static_cast<std::uint32_t>(FileType::Regular))
        return -1;
    if (offset >= node->size)
        return 0;
    n = std::min<std::uint64_t>(n, node->size - offset);
    BtRoot root{node->btreeRoot, node->btreeHeight};
    auto *dst = static_cast<std::uint8_t *>(buf);
    std::uint64_t done = 0;
    while (done < n) {
        const std::uint64_t fb = (offset + done) / kBlockSize;
        const std::uint64_t lo = (offset + done) % kBlockSize;
        const std::uint64_t len =
            std::min<std::uint64_t>(kBlockSize - lo, n - done);
        const Addr block = tree_->lookup(ctx, root, fb);
        if (block == kNullAddr) {
            std::memset(dst + done, 0, len); // hole
        } else {
            ctx.load(block + lo, dst + done, len);
        }
        done += len;
    }

    // PMFS persists metadata synchronously, including access times:
    // a read is a small journal transaction touching one inode field
    // — the source of the filesystem's tiny-median transaction sizes
    // (paper Figure 3: nfs has a median of 2 epochs). Like Linux
    // relatime, back-to-back reads of the same file skip the update.
    // Timestamps come from the calling thread's own clock, so whether
    // a read journals its atime never depends on how other threads
    // interleave with it.
    const Tick now = ctx.localTicks();
    if (now - node->atime > 100 * kTicksPerUs) {
        const TxId tx = ctx.txBegin();
        journal_->begin(ctx);
        journal_->logOld(ctx, ctx.pool().offsetOf(&node->atime), 8);
        ctx.storeField(node->atime, now, DataClass::FsMeta);
        journal_->commit(ctx);
        ctx.txEnd(tx);
    }

    stats_.reads++;
    stats_.bytesRead += done;
    return static_cast<long>(done);
}

void
Pmfs::freeFileContents(pm::PmContext &ctx, Inode *node)
{
    BtRoot root{node->btreeRoot, node->btreeHeight};
    tree_->forEach(ctx, root, [&](std::uint64_t, Addr block) {
        freeBlock(ctx, block);
    });
    tree_->freeAll(ctx, root);
    journal_->logOld(ctx, ctx.pool().offsetOf(&node->btreeRoot), 12);
    const Addr null_root = kNullAddr;
    const std::uint32_t zero_height = 0;
    ctx.storeField(node->btreeRoot, null_root, DataClass::FsMeta);
    ctx.storeField(node->btreeHeight, zero_height, DataClass::FsMeta);
}

bool
Pmfs::unlink(pm::PmContext &ctx, const std::string &path)
{
    std::lock_guard<std::mutex> guard(fsLock_);
    Ino parent = kInvalidIno;
    std::string leaf;
    if (!resolveParent(ctx, path, parent, leaf))
        return false;
    const Ino ino = dirLookup(ctx, parent, leaf);
    if (ino == kInvalidIno)
        return false;
    Inode *node = inode(ctx, ino);
    if (node->type == static_cast<std::uint32_t>(FileType::Directory) &&
        !dirEmpty(ctx, ino)) {
        return false;
    }

    const TxId tx = ctx.txBegin();
    journal_->begin(ctx);
    dirRemove(ctx, parent, leaf);
    freeFileContents(ctx, node);
    freeInode(ctx, ino);
    journal_->commit(ctx);
    ctx.txEnd(tx);
    stats_.unlinks++;
    return true;
}

std::uint64_t
Pmfs::fileSize(pm::PmContext &ctx, Ino ino)
{
    std::lock_guard<std::mutex> guard(fsLock_);
    if (ino == kInvalidIno || ino >= sb_.inodeCount)
        return 0;
    return inode(ctx, ino)->size;
}

std::vector<std::string>
Pmfs::readdir(pm::PmContext &ctx, const std::string &path)
{
    std::vector<std::string> names;
    const Ino dir = lookup(ctx, path);
    std::lock_guard<std::mutex> guard(fsLock_);
    if (dir == kInvalidIno)
        return names;
    Inode *dnode = inode(ctx, dir);
    if (dnode->type != static_cast<std::uint32_t>(FileType::Directory))
        return names;
    BtRoot root{dnode->btreeRoot, dnode->btreeHeight};
    const std::uint64_t nblocks = dnode->size / kBlockSize;
    for (std::uint64_t b = 0; b < nblocks; b++) {
        const Addr block = tree_->lookup(ctx, root, b);
        if (block == kNullAddr)
            continue;
        for (std::size_t s = 0; s < kBlockSize / sizeof(Dirent); s++) {
            Dirent ent{};
            ctx.load(block + s * sizeof(Dirent), &ent, sizeof(ent));
            if (ent.ino != kInvalidIno)
                names.emplace_back(ent.name, ent.nameLen);
        }
    }
    return names;
}

std::uint64_t
Pmfs::freeBlockCount() const
{
    std::uint64_t used = 0;
    for (std::uint64_t bit = 0; bit < sb_.blockCount; bit++) {
        if (blockShadow_[bit / 64] & (1ull << (bit % 64)))
            used++;
    }
    return sb_.blockCount - used;
}

bool
Pmfs::journalQuiescent(pm::PmContext &ctx, std::string *why) const
{
    return journal_->quiescent(ctx, why);
}

bool
Pmfs::fsck(pm::PmContext &ctx, std::string *why)
{
    std::lock_guard<std::mutex> guard(fsLock_);
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    Superblock sb{};
    ctx.load(base_, &sb, sizeof(sb));
    if (sb.magic != Superblock::kMagic)
        return fail("bad superblock magic");

    std::vector<bool> ino_seen(sb.inodeCount, false);
    std::vector<bool> blk_seen(sb.blockCount, false);
    auto mark_block = [&](Addr block, std::string &err) {
        if (block < sb.dataOff ||
            (block - sb.dataOff) % kBlockSize != 0 ||
            (block - sb.dataOff) / kBlockSize >= sb.blockCount) {
            err = "block offset out of range";
            return false;
        }
        const std::uint64_t bit = (block - sb.dataOff) / kBlockSize;
        if (blk_seen[bit]) {
            err = "block doubly referenced";
            return false;
        }
        blk_seen[bit] = true;
        return true;
    };

    // Walk the tree from the root directory.
    std::vector<Ino> work{kRootIno};
    ino_seen[kRootIno] = true;
    std::string err;
    while (!work.empty()) {
        const Ino ino = work.back();
        work.pop_back();
        Inode *node = inode(ctx, ino);
        const bool is_dir =
            node->type == static_cast<std::uint32_t>(FileType::Directory);
        if (!is_dir &&
            node->type != static_cast<std::uint32_t>(FileType::Regular)) {
            return fail("reachable inode with invalid type");
        }
        BtRoot root{node->btreeRoot, node->btreeHeight};

        // Mark B-tree node blocks.
        if (root.height > 0) {
            std::vector<std::pair<Addr, std::uint32_t>> stk{
                {root.root, root.height}};
            while (!stk.empty()) {
                auto [off, level] = stk.back();
                stk.pop_back();
                if (!mark_block(off, err))
                    return fail("btree: " + err);
                if (level > 1) {
                    const BtNode *bt = ctx.pool().at<BtNode>(off);
                    if (bt->count > BtNode::kMaxKeys)
                        return fail("btree node overflow");
                    for (std::uint32_t i = 0; i <= bt->count; i++)
                        stk.push_back({bt->vals[i], level - 1});
                }
            }
        }

        // Mark mapped data blocks and validate sizes.
        std::uint64_t mapped = 0;
        std::uint64_t max_fb = 0;
        bool bad = false;
        tree_->forEach(ctx, root, [&](std::uint64_t fb, Addr block) {
            if (!mark_block(block, err))
                bad = true;
            mapped++;
            max_fb = std::max(max_fb, fb);
        });
        if (bad)
            return fail("data block: " + err);
        if (node->size > 0 &&
            node->size > (max_fb + 1) * kBlockSize && mapped > 0) {
            return fail("inode size beyond mapped extent");
        }
        if (mapped == 0 && node->size != 0 && !is_dir)
            return fail("non-empty file with no blocks");

        // Recurse into directories via their dirents.
        if (is_dir) {
            const std::uint64_t nblocks = node->size / kBlockSize;
            for (std::uint64_t b = 0; b < nblocks; b++) {
                const Addr block = tree_->lookup(ctx, root, b);
                if (block == kNullAddr)
                    return fail("directory hole");
                for (std::size_t s = 0; s < kBlockSize / sizeof(Dirent);
                     s++) {
                    Dirent ent{};
                    ctx.load(block + s * sizeof(Dirent), &ent,
                             sizeof(ent));
                    if (ent.ino == kInvalidIno)
                        continue;
                    if (ent.ino >= sb.inodeCount)
                        return fail("dirent inode out of range");
                    if (ent.nameLen > kNameMax)
                        return fail("dirent name too long");
                    if (ino_seen[ent.ino])
                        return fail("inode doubly referenced");
                    ino_seen[ent.ino] = true;
                    work.push_back(ent.ino);
                }
            }
        }
    }

    // Bitmaps must match reachability exactly (no leaks, no loss).
    for (std::uint64_t i = 1; i < sb.inodeCount; i++) {
        const bool marked =
            (inodeShadow_[i / 64] >> (i % 64)) & 1;
        if (marked != ino_seen[i]) {
            return fail(ino_seen[i] ? "reachable inode not in bitmap"
                                    : "inode leak");
        }
    }
    for (std::uint64_t b = 0; b < sb.blockCount; b++) {
        const bool marked = (blockShadow_[b / 64] >> (b % 64)) & 1;
        if (marked != blk_seen[b]) {
            return fail(blk_seen[b] ? "reachable block not in bitmap"
                                    : "block leak");
        }
    }
    return true;
}

} // namespace whisper::pmfs
