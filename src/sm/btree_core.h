// BTree: shared page-based B+-tree used by the "btree" storage method
// (records stored in the leaves) and by the B-tree index attachment
// (index key -> record key mappings).
//
// Entries are (key, value) byte-string pairs, ordered by (key, value) so
// duplicate keys are supported deterministically. Leaves are chained for
// key-sequential access. An anchor page (whose id never changes and is what
// descriptors reference) stores the current root page id, so root splits do
// not mutate descriptors.
//
// Nodes are read and modified in place in the pinned buffer frame: a
// visit walks the length-prefixed entries of the page image and compares
// them as Slices, and only the entries an operation returns are copied
// out. Inserts that fit and removes shift the tail of the node with
// memmove; only splits rewrite a node from a parsed copy.
//
// Concurrency: one latch per BTree object serializes every public
// operation and every iterator step, so writer transactions that hold
// different record locks can still share one tree (the counterpart of
// the heap's per-relation page latch). The latch is held across buffer
// pool calls (BTree::mu_ -> BufferPool::mu_) and never across a call out
// of the tree. All users of one tree must share one BTree object.
// Recovery: callers log *logical* operations; BTree::Insert/Remove are
// idempotent (insert skips an already-present (key,value); remove of an
// absent entry is a no-op success when `idempotent` is set), which makes
// logical redo/undo safe. Structural changes (splits) are not themselves
// logged — see DESIGN.md for the crash-consistency discussion.

#ifndef DMX_SM_BTREE_CORE_H_
#define DMX_SM_BTREE_CORE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/storage/buffer_pool.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace dmx {

class BTreeIterator;

class BTree {
 public:
  /// Allocate anchor + empty root leaf; returns the anchor page id.
  static Status Create(BufferPool* bp, PageId* anchor);

  /// Free every page of the tree including the anchor.
  static Status Destroy(BufferPool* bp, PageId anchor);

  BTree(BufferPool* bp, PageId anchor) : bp_(bp), anchor_(anchor) {}

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Insert (key, value). If `unique` and an entry with equal key (any
  /// value) exists, fails with Constraint. If the exact (key, value) pair
  /// exists already, succeeds without change (logical idempotence).
  Status Insert(const Slice& key, const Slice& value, bool unique = false);

  /// Remove the exact (key, value) entry. Absent entry: NotFound, unless
  /// `idempotent` (recovery replay) in which case OK.
  Status Remove(const Slice& key, const Slice& value,
                bool idempotent = false);

  /// All values for `key`, in value order.
  Status Lookup(const Slice& key, std::vector<std::string>* values);

  /// True if any entry with `key` exists.
  Status Contains(const Slice& key, bool* found);

  /// Iterator positioned before the first entry with key >= `low`
  /// (or the tree start if `low` is unset).
  Status NewIterator(std::unique_ptr<BTreeIterator>* it,
                     const std::optional<std::string>& low = std::nullopt,
                     bool low_inclusive = true);

  /// Entry count (walks the leaf chain).
  Status Count(uint64_t* n);
  /// Leaf page count (costing).
  Status LeafPages(uint64_t* n);

  /// Tree height (1 = root is a leaf). For cost estimation.
  Status Height(uint32_t* h);

  /// Structural consistency sweep (CHECK support): validates node types,
  /// entry parse and ordering, separator bounds, uniform leaf depth, and
  /// the leaf chain. Findings — including unreadable (CRC-failing) pages —
  /// are appended to *problems; *entries receives the number of leaf
  /// entries seen. Returns non-OK only when the sweep itself cannot run.
  Status Verify(std::vector<std::string>* problems, uint64_t* entries);

  /// Up to `target - 1` composite separator entries (key + value, the
  /// internal-node form; split with BTreeSplitEntry) that cut the tree
  /// into roughly equal key ranges, in ascending order. Descends from the
  /// root until one internal level yields enough separators, then
  /// downsamples evenly. Empty result when the root is a leaf. Used by
  /// scan partitioning; exactness of the placement is a balance question
  /// only — every range boundary is a real entry boundary.
  Status SeparatorKeys(int target, std::vector<std::string>* seps);

  BufferPool* buffer_pool() const { return bp_; }
  PageId anchor() const { return anchor_; }

 private:
  friend class BTreeIterator;

  Status RootPage(PageId* root) REQUIRES(mu_);
  Status SetRootPage(PageId root) REQUIRES(mu_);
  /// Leaf whose key range holds the composite entry `composite`.
  Status FindLeaf(const Slice& composite, PageId* leaf) REQUIRES(mu_);
  /// Leftmost leaf, and the number of levels down to it (1 = root leaf).
  Status LeftmostLeaf(PageId* leaf, uint32_t* height) REQUIRES(mu_);
  Status LookupLocked(const Slice& key, std::vector<std::string>* values)
      REQUIRES(mu_);

  BufferPool* const bp_;
  const PageId anchor_;
  Mutex mu_;
  /// Bumped by every modification; an iterator's in-leaf cursor is valid
  /// only while this still has the value it saw.
  uint64_t mod_count_ GUARDED_BY(mu_) = 0;
};

/// Key-sequential access over a BTree. Position = the composite
/// (key, value) of the last returned entry; Next returns the first entry
/// strictly greater, so deletions at the position leave the iterator
/// "just after" the deleted entry (the paper's scan semantics).
///
/// Between calls the iterator keeps a cursor into the leaf that held the
/// position: the leaf's page id and the byte offset of its next entry.
/// While the tree is unmodified, Next reads that entry straight from the
/// pinned leaf. Any insert or remove in the tree (including a delete at
/// the position) invalidates the cursor, and Next re-descends from the
/// position instead, preserving the position semantics exactly.
class BTreeIterator {
 public:
  BTreeIterator(BTree* tree, std::string position, bool position_exclusive)
      : tree_(tree),
        pos_(std::move(position)),
        exclusive_(position_exclusive) {}

  /// Advance; fills key/value; NotFound at end.
  Status Next(std::string* key, std::string* value);

  /// Serialize / restore the position (savepoint support).
  void SavePosition(std::string* out) const;
  Status RestorePosition(const Slice& pos);

 private:
  /// Returns `entry` and moves the position and the cursor to it; the
  /// next entry of `leaf` starts at `next_offset` and has `next_index`.
  Status Take(const Slice& entry, PageId leaf, size_t next_offset,
              uint16_t next_index, std::string* key, std::string* value)
      REQUIRES(tree_->mu_);

  BTree* tree_;
  std::string pos_;  // composite (key,value) encoding of last returned
  bool exclusive_;   // if false, an entry equal to pos_ may be returned
  // Cursor; meaningful only while tree_->mod_count_ == mod_count_.
  PageId leaf_ = kInvalidPageId;
  size_t offset_ = 0;
  uint16_t index_ = 0;
  uint64_t mod_count_ = 0;
};

/// Composite entry encoding helpers (key + value, length-framed so the
/// composite ordering equals (key, value) lexicographic ordering).
std::string BTreeComposeEntry(const Slice& key, const Slice& value);
Status BTreeSplitEntry(const Slice& entry, std::string* key,
                       std::string* value);

}  // namespace dmx

#endif  // DMX_SM_BTREE_CORE_H_
