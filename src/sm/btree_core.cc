#include "src/sm/btree_core.h"

#include <algorithm>
#include <cassert>

#include "src/util/coding.h"

namespace dmx {

namespace {

// Node layout after the 8-byte page LSN:
//   [8]      node type: 1 = leaf, 2 = internal
//   [9,11)   entry count (u16)
//   [11,15)  leaf: next-leaf page id; internal: leftmost child page id
//   [15..)   entries
// Leaf entries: varint32 length + composite bytes, sorted ascending.
// Internal entries: varint32 length + separator composite + u32 child;
// child subtree holds composites >= separator (leftmost holds the rest).
constexpr size_t kTypeOff = 8;
constexpr size_t kCountOff = 9;
constexpr size_t kLinkOff = 11;
constexpr size_t kEntriesOff = 15;
constexpr char kLeaf = 1;
constexpr char kInternal = 2;
// Split threshold: rewrite must always fit a page.
constexpr size_t kNodeCapacity = kPageSize - 64;

// Parsed copies of a node, built only to split it and by Verify.
struct LeafNode {
  PageId next = kInvalidPageId;
  std::vector<std::string> entries;
};

struct InternalNode {
  PageId leftmost = kInvalidPageId;
  std::vector<std::pair<std::string, PageId>> entries;
};

char NodeType(const Page& p) { return p.data[kTypeOff]; }

uint16_t EntryCount(const Page& p) { return DecodeFixed16(p.data + kCountOff); }

void SetEntryCount(Page* p, uint16_t count) {
  memcpy(p->data + kCountOff, &count, 2);
}

PageId NodeLink(const Page& p) { return DecodeFixed32(p.data + kLinkOff); }

// In-place entry readers: decode the entry that starts at byte *off of the
// page image and advance *off past it. An entry that would run past the
// page end is Corruption.
Status ReadLeafEntry(const Page& p, size_t* off, Slice* entry) {
  Slice in(p.data + *off, kPageSize - *off);
  if (!GetLengthPrefixedSlice(&in, entry)) {
    return Status::Corruption("btree leaf entry");
  }
  *off = kPageSize - in.size();
  return Status::OK();
}

Status ReadInternalEntry(const Page& p, size_t* off, Slice* sep,
                         PageId* child) {
  Slice in(p.data + *off, kPageSize - *off);
  if (!GetLengthPrefixedSlice(&in, sep)) {
    return Status::Corruption("btree internal separator");
  }
  if (!GetFixed32(&in, child)) {
    return Status::Corruption("btree internal child");
  }
  *off = kPageSize - in.size();
  return Status::OK();
}

Status ParseLeaf(const Page& p, LeafNode* out) {
  out->next = NodeLink(p);
  uint16_t n = EntryCount(p);
  out->entries.clear();
  out->entries.reserve(n);
  size_t off = kEntriesOff;
  for (uint16_t i = 0; i < n; ++i) {
    Slice e;
    DMX_RETURN_IF_ERROR(ReadLeafEntry(p, &off, &e));
    out->entries.push_back(e.ToString());
  }
  return Status::OK();
}

Status ParseInternal(const Page& p, InternalNode* out) {
  out->leftmost = NodeLink(p);
  uint16_t n = EntryCount(p);
  out->entries.clear();
  out->entries.reserve(n);
  size_t off = kEntriesOff;
  for (uint16_t i = 0; i < n; ++i) {
    Slice sep;
    PageId child;
    DMX_RETURN_IF_ERROR(ReadInternalEntry(p, &off, &sep, &child));
    out->entries.emplace_back(sep.ToString(), child);
  }
  return Status::OK();
}

// The child of internal node `p` whose subtree holds `composite`, and its
// position (0 = leftmost, i + 1 = the child of entry i).
Status RouteInternal(const Page& p, const Slice& composite, PageId* child,
                     size_t* child_pos) {
  *child = NodeLink(p);
  *child_pos = 0;
  size_t off = kEntriesOff;
  for (uint16_t i = 0, n = EntryCount(p); i < n; ++i) {
    Slice sep;
    PageId ch;
    DMX_RETURN_IF_ERROR(ReadInternalEntry(p, &off, &sep, &ch));
    if (composite.compare(sep) < 0) break;
    *child = ch;
    *child_pos = i + 1;
  }
  return Status::OK();
}

// Split rule: a node splits when this bound on its size (5 bytes for every
// length prefix) passes kNodeCapacity. Leaves apply the same sum in place.
size_t SerializedInternalSize(const InternalNode& n) {
  size_t s = kEntriesOff;
  for (const auto& [sep, child] : n.entries) s += 5 + sep.size() + 4;
  return s;
}

void WriteLeaf(Page* p, const LeafNode& n, Lsn keep_lsn) {
  memset(p->data + 8, 0, kPageSize - 8);
  SetPageLsn(p, keep_lsn);
  p->data[kTypeOff] = kLeaf;
  uint16_t count = static_cast<uint16_t>(n.entries.size());
  memcpy(p->data + kCountOff, &count, 2);
  memcpy(p->data + kLinkOff, &n.next, 4);
  std::string body;
  for (const auto& e : n.entries) PutLengthPrefixedSlice(&body, e);
  assert(kEntriesOff + body.size() <= kPageSize);
  memcpy(p->data + kEntriesOff, body.data(), body.size());
}

void WriteInternal(Page* p, const InternalNode& n, Lsn keep_lsn) {
  memset(p->data + 8, 0, kPageSize - 8);
  SetPageLsn(p, keep_lsn);
  p->data[kTypeOff] = kInternal;
  uint16_t count = static_cast<uint16_t>(n.entries.size());
  memcpy(p->data + kCountOff, &count, 2);
  memcpy(p->data + kLinkOff, &n.leftmost, 4);
  std::string body;
  for (const auto& [sep, child] : n.entries) {
    PutLengthPrefixedSlice(&body, sep);
    PutFixed32(&body, child);
  }
  assert(kEntriesOff + body.size() <= kPageSize);
  memcpy(p->data + kEntriesOff, body.data(), body.size());
}

}  // namespace

std::string BTreeComposeEntry(const Slice& key, const Slice& value) {
  // Escape 0x00 in the key as 0x00 0xFF and terminate with 0x00 0x00 so
  // that composite memcmp order equals (key, value) lexicographic order.
  std::string out;
  out.reserve(key.size() + value.size() + 2);
  for (size_t i = 0; i < key.size(); ++i) {
    out.push_back(key[i]);
    if (key[i] == '\0') out.push_back('\xff');
  }
  out.push_back('\0');
  out.push_back('\0');
  out.append(value.data(), value.size());
  return out;
}

Status BTreeSplitEntry(const Slice& entry, std::string* key,
                       std::string* value) {
  key->clear();
  size_t i = 0;
  while (i < entry.size()) {
    if (entry[i] == '\0') {
      if (i + 1 >= entry.size()) return Status::Corruption("btree composite");
      if (entry[i + 1] == '\0') {
        value->assign(entry.data() + i + 2, entry.size() - i - 2);
        return Status::OK();
      }
      key->push_back('\0');
      i += 2;
    } else {
      key->push_back(entry[i]);
      ++i;
    }
  }
  return Status::Corruption("btree composite unterminated");
}

Status BTree::Create(BufferPool* bp, PageId* anchor) {
  PageId root;
  PageHandle rh;
  DMX_RETURN_IF_ERROR(bp->New(&root, &rh));
  LeafNode empty;
  WriteLeaf(rh.page(), empty, kInvalidLsn);
  rh.MarkDirty();

  PageHandle ah;
  DMX_RETURN_IF_ERROR(bp->New(anchor, &ah));
  memcpy(ah.page()->data + 8, &root, 4);
  ah.MarkDirty();
  return Status::OK();
}

Status BTree::Destroy(BufferPool* bp, PageId anchor) {
  PageId root;
  {
    PageHandle ah;
    DMX_RETURN_IF_ERROR(bp->Fetch(anchor, &ah));
    root = DecodeFixed32(ah.page()->data + 8);
  }
  // Iterative DFS freeing all nodes.
  std::vector<PageId> stack = {root};
  while (!stack.empty()) {
    PageId id = stack.back();
    stack.pop_back();
    {
      PageHandle h;
      DMX_RETURN_IF_ERROR(bp->Fetch(id, &h));
      const Page& p = *h.page();
      if (NodeType(p) == kInternal) {
        stack.push_back(NodeLink(p));
        size_t off = kEntriesOff;
        for (uint16_t i = 0, n = EntryCount(p); i < n; ++i) {
          Slice sep;
          PageId child;
          DMX_RETURN_IF_ERROR(ReadInternalEntry(p, &off, &sep, &child));
          stack.push_back(child);
        }
      }
    }
    DMX_RETURN_IF_ERROR(bp->FreePage(id));
  }
  return bp->FreePage(anchor);
}

Status BTree::RootPage(PageId* root) {
  PageHandle ah;
  DMX_RETURN_IF_ERROR(bp_->Fetch(anchor_, &ah));
  *root = DecodeFixed32(ah.page()->data + 8);
  return Status::OK();
}

Status BTree::SetRootPage(PageId root) {
  PageHandle ah;
  DMX_RETURN_IF_ERROR(bp_->Fetch(anchor_, &ah));
  memcpy(ah.page()->data + 8, &root, 4);
  ah.MarkDirty();
  return Status::OK();
}

Status BTree::FindLeaf(const Slice& composite, PageId* leaf) {
  PageId node;
  DMX_RETURN_IF_ERROR(RootPage(&node));
  while (true) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp_->Fetch(node, &h));
    if (NodeType(*h.page()) == kLeaf) {
      *leaf = node;
      return Status::OK();
    }
    size_t pos;
    DMX_RETURN_IF_ERROR(RouteInternal(*h.page(), composite, &node, &pos));
  }
}

Status BTree::LeftmostLeaf(PageId* leaf, uint32_t* height) {
  *height = 1;
  DMX_RETURN_IF_ERROR(RootPage(leaf));
  while (true) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp_->Fetch(*leaf, &h));
    if (NodeType(*h.page()) == kLeaf) return Status::OK();
    *leaf = NodeLink(*h.page());
    ++*height;
  }
}

namespace {

struct SplitResult {
  std::string separator;
  PageId right;
};

// Inserts into a leaf. The node is rewritten from a parsed copy only when
// it splits; otherwise the tail is shifted in place, which leaves the same
// bytes a rewrite would.
Status LeafInsert(BufferPool* bp, PageHandle* h, const std::string& composite,
                  std::optional<SplitResult>* split, bool* inserted) {
  Page* p = h->page();
  const uint16_t n = EntryCount(*p);
  size_t off = kEntriesOff;
  size_t insert_at = 0;  // offset of the first entry >= composite
  bool found_slot = false;
  bool present = false;
  size_t serialized = kEntriesOff + 5 + composite.size();
  for (uint16_t i = 0; i < n; ++i) {
    size_t at = off;
    Slice e;
    DMX_RETURN_IF_ERROR(ReadLeafEntry(*p, &off, &e));
    serialized += 5 + e.size();
    if (!found_slot) {
      int cmp = Slice(composite).compare(e);
      if (cmp <= 0) {
        insert_at = at;
        found_slot = true;
        present = cmp == 0;
      }
    }
  }
  if (present) {
    *inserted = false;  // exact (key,value) already present: idempotent
    return Status::OK();
  }
  const size_t end = off;
  if (!found_slot) insert_at = end;
  *inserted = true;

  if (serialized <= kNodeCapacity || n == 0) {
    std::string framed;
    PutVarint32(&framed, static_cast<uint32_t>(composite.size()));
    framed.append(composite);
    assert(end + framed.size() <= kPageSize);
    memmove(p->data + insert_at + framed.size(), p->data + insert_at,
            end - insert_at);
    memcpy(p->data + insert_at, framed.data(), framed.size());
    SetEntryCount(p, static_cast<uint16_t>(n + 1));
    h->MarkDirty();
    return Status::OK();
  }

  // Split: right half to a fresh page.
  LeafNode leaf;
  DMX_RETURN_IF_ERROR(ParseLeaf(*p, &leaf));
  leaf.entries.insert(
      std::lower_bound(leaf.entries.begin(), leaf.entries.end(), composite),
      composite);
  size_t mid = leaf.entries.size() / 2;
  LeafNode right;
  right.entries.assign(leaf.entries.begin() + static_cast<long>(mid),
                       leaf.entries.end());
  leaf.entries.resize(mid);
  right.next = leaf.next;
  PageId right_id;
  PageHandle rh;
  DMX_RETURN_IF_ERROR(bp->New(&right_id, &rh));
  leaf.next = right_id;
  WriteLeaf(rh.page(), right, kInvalidLsn);
  rh.MarkDirty();
  *split = SplitResult{right.entries.front(), right_id};
  WriteLeaf(p, leaf, PageLsn(*p));
  h->MarkDirty();
  return Status::OK();
}

Status InsertRec(BufferPool* bp, PageId node, const std::string& composite,
                 std::optional<SplitResult>* split, bool* inserted) {
  PageHandle h;
  DMX_RETURN_IF_ERROR(bp->Fetch(node, &h));
  if (NodeType(*h.page()) == kLeaf) {
    return LeafInsert(bp, &h, composite, split, inserted);
  }

  PageId child;
  size_t child_pos;
  DMX_RETURN_IF_ERROR(
      RouteInternal(*h.page(), Slice(composite), &child, &child_pos));
  std::optional<SplitResult> child_split;
  DMX_RETURN_IF_ERROR(InsertRec(bp, child, composite, &child_split, inserted));
  if (!child_split.has_value()) return Status::OK();

  InternalNode n;
  DMX_RETURN_IF_ERROR(ParseInternal(*h.page(), &n));
  n.entries.insert(n.entries.begin() + static_cast<long>(child_pos),
                   {child_split->separator, child_split->right});
  if (SerializedInternalSize(n) > kNodeCapacity && n.entries.size() > 2) {
    size_t mid = n.entries.size() / 2;
    InternalNode right;
    right.leftmost = n.entries[mid].second;
    right.entries.assign(n.entries.begin() + static_cast<long>(mid) + 1,
                         n.entries.end());
    std::string promoted = n.entries[mid].first;
    n.entries.resize(mid);
    PageId right_id;
    PageHandle rh;
    DMX_RETURN_IF_ERROR(bp->New(&right_id, &rh));
    WriteInternal(rh.page(), right, kInvalidLsn);
    rh.MarkDirty();
    *split = SplitResult{std::move(promoted), right_id};
  }
  WriteInternal(h.page(), n, PageLsn(*h.page()));
  h.MarkDirty();
  return Status::OK();
}

}  // namespace

Status BTree::Insert(const Slice& key, const Slice& value, bool unique) {
  std::string composite = BTreeComposeEntry(key, value);
  if (composite.size() > kPageSize / 8) {
    return Status::InvalidArgument("btree entry too large");
  }
  MutexLock lock(&mu_);
  if (unique) {
    // A duplicate (key, other-value) may live in a different leaf than the
    // one the full composite routes to, so uniqueness is checked by key.
    // The check and the insert share one latch hold.
    std::vector<std::string> existing;
    DMX_RETURN_IF_ERROR(LookupLocked(key, &existing));
    for (const std::string& v : existing) {
      if (Slice(v) != value) {
        return Status::Constraint("duplicate key in unique index");
      }
    }
  }
  PageId root;
  DMX_RETURN_IF_ERROR(RootPage(&root));
  // Counted before any page changes, so a failure part-way through still
  // invalidates iterator cursors.
  ++mod_count_;
  std::optional<SplitResult> split;
  bool inserted = false;
  DMX_RETURN_IF_ERROR(InsertRec(bp_, root, composite, &split, &inserted));
  if (split.has_value()) {
    // Grow a new root.
    InternalNode new_root;
    new_root.leftmost = root;
    new_root.entries.emplace_back(split->separator, split->right);
    PageId new_root_id;
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp_->New(&new_root_id, &h));
    WriteInternal(h.page(), new_root, kInvalidLsn);
    h.MarkDirty();
    DMX_RETURN_IF_ERROR(SetRootPage(new_root_id));
  }
  return Status::OK();
}

Status BTree::Remove(const Slice& key, const Slice& value, bool idempotent) {
  std::string composite = BTreeComposeEntry(key, value);
  MutexLock lock(&mu_);
  PageId leaf_id;
  DMX_RETURN_IF_ERROR(FindLeaf(composite, &leaf_id));
  PageHandle h;
  DMX_RETURN_IF_ERROR(bp_->Fetch(leaf_id, &h));
  Page* p = h.page();
  const uint16_t n = EntryCount(*p);
  size_t off = kEntriesOff;
  size_t victim = 0, victim_end = 0;  // byte range of the matching entry
  bool present = false;
  for (uint16_t i = 0; i < n; ++i) {
    size_t at = off;
    Slice e;
    DMX_RETURN_IF_ERROR(ReadLeafEntry(*p, &off, &e));
    if (!present && e == Slice(composite)) {
      victim = at;
      victim_end = off;
      present = true;
    }
  }
  if (!present) {
    return idempotent ? Status::OK()
                      : Status::NotFound("btree entry absent");
  }
  // Close the gap and zero the vacated tail, as a rewrite would leave it.
  const size_t end = off;
  const size_t width = victim_end - victim;
  memmove(p->data + victim, p->data + victim_end, end - victim_end);
  memset(p->data + end - width, 0, width);
  SetEntryCount(p, static_cast<uint16_t>(n - 1));
  ++mod_count_;
  h.MarkDirty();
  return Status::OK();
}

Status BTree::Lookup(const Slice& key, std::vector<std::string>* values) {
  MutexLock lock(&mu_);
  return LookupLocked(key, values);
}

Status BTree::LookupLocked(const Slice& key,
                           std::vector<std::string>* values) {
  values->clear();
  // An entry holds `key` iff it starts with composite(key, ""): the
  // escaped key never contains the 00 00 terminator.
  const std::string prefix = BTreeComposeEntry(key, Slice());
  PageId node;
  DMX_RETURN_IF_ERROR(FindLeaf(prefix, &node));
  // Matches may continue into the following leaves (duplicate keys).
  while (node != kInvalidPageId) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp_->Fetch(node, &h));
    const Page& p = *h.page();
    size_t off = kEntriesOff;
    for (uint16_t i = 0, n = EntryCount(p); i < n; ++i) {
      Slice e;
      DMX_RETURN_IF_ERROR(ReadLeafEntry(p, &off, &e));
      if (e.compare(prefix) < 0) continue;
      if (!e.starts_with(prefix)) return Status::OK();
      values->emplace_back(e.data() + prefix.size(), e.size() - prefix.size());
    }
    node = NodeLink(p);
  }
  return Status::OK();
}

Status BTree::Contains(const Slice& key, bool* found) {
  std::vector<std::string> values;
  DMX_RETURN_IF_ERROR(Lookup(key, &values));
  *found = !values.empty();
  return Status::OK();
}

Status BTree::NewIterator(std::unique_ptr<BTreeIterator>* it,
                          const std::optional<std::string>& low,
                          bool low_inclusive) {
  std::string pos = low.value_or("");
  // "Inclusive" means an entry equal to pos may be returned.
  *it = std::make_unique<BTreeIterator>(this, std::move(pos),
                                        /*position_exclusive=*/!low_inclusive);
  return Status::OK();
}

Status BTree::Count(uint64_t* n) {
  *n = 0;
  MutexLock lock(&mu_);
  PageId node;
  uint32_t height;
  DMX_RETURN_IF_ERROR(LeftmostLeaf(&node, &height));
  while (node != kInvalidPageId) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp_->Fetch(node, &h));
    *n += EntryCount(*h.page());
    node = NodeLink(*h.page());
  }
  return Status::OK();
}

Status BTree::LeafPages(uint64_t* n) {
  *n = 0;
  MutexLock lock(&mu_);
  PageId node;
  uint32_t height;
  DMX_RETURN_IF_ERROR(LeftmostLeaf(&node, &height));
  while (node != kInvalidPageId) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp_->Fetch(node, &h));
    ++*n;
    node = NodeLink(*h.page());
  }
  return Status::OK();
}

Status BTree::SeparatorKeys(int target, std::vector<std::string>* seps) {
  seps->clear();
  if (target < 2) return Status::OK();
  // Breadth-first by level: any single internal level's separators are
  // globally sorted (left-to-right across siblings), so the first level
  // with enough of them is a valid cut set — no parent context needed.
  MutexLock lock(&mu_);
  std::vector<PageId> level;
  PageId root;
  DMX_RETURN_IF_ERROR(RootPage(&root));
  level.push_back(root);
  std::vector<std::string> best;  // deepest internal level seen so far
  while (true) {
    std::vector<std::string> level_seps;
    std::vector<PageId> next_level;
    bool hit_leaf = false;
    for (PageId id : level) {
      PageHandle h;
      DMX_RETURN_IF_ERROR(bp_->Fetch(id, &h));
      const Page& p = *h.page();
      if (NodeType(p) == kLeaf) {
        hit_leaf = true;
        break;
      }
      next_level.push_back(NodeLink(p));
      size_t off = kEntriesOff;
      for (uint16_t i = 0, n = EntryCount(p); i < n; ++i) {
        Slice sep;
        PageId child;
        DMX_RETURN_IF_ERROR(ReadInternalEntry(p, &off, &sep, &child));
        level_seps.push_back(sep.ToString());
        next_level.push_back(child);
      }
    }
    if (!hit_leaf && !level_seps.empty()) best = std::move(level_seps);
    bool enough = static_cast<int>(best.size()) >= target - 1;
    if (hit_leaf || enough || next_level.size() > 256 ||
        next_level.size() == level.size()) {
      // Leaves reached, enough cuts, or the next level is too wide to be
      // worth reading: downsample the best level evenly and stop.
      size_t want = std::min<size_t>(target - 1, best.size());
      for (size_t k = 1; k <= want; ++k) {
        size_t idx = k * best.size() / (want + 1);
        if (idx >= best.size()) idx = best.size() - 1;
        if (!seps->empty() && seps->back() == best[idx]) continue;
        seps->push_back(best[idx]);
      }
      return Status::OK();
    }
    level = std::move(next_level);
  }
}

Status BTree::Verify(std::vector<std::string>* problems, uint64_t* entries) {
  *entries = 0;
  MutexLock lock(&mu_);
  auto bad = [&](PageId id, const std::string& what) {
    problems->push_back("btree page " + std::to_string(id) + ": " + what);
  };
  PageId root;
  {
    PageHandle ah;
    Status s = bp_->Fetch(anchor_, &ah);
    if (!s.ok()) {
      bad(anchor_, "anchor unreadable: " + s.ToString());
      return Status::OK();
    }
    root = DecodeFixed32(ah.page()->data + 8);
  }

  // DFS with separator bounds; children pushed right-to-left so leaves are
  // visited in key order (needed to validate the leaf chain).
  struct Frame {
    PageId id;
    std::string low;   // inclusive lower bound on composites
    std::string high;  // exclusive upper bound (valid iff has_high)
    bool has_high;
    uint32_t depth;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{root, "", "", false, 0});
  std::vector<std::pair<PageId, PageId>> leaves;  // (id, next) in key order
  int64_t leaf_depth = -1;
  size_t visited = 0;
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (++visited > (1u << 22)) {
      bad(f.id, "traversal exceeded page budget (cycle?)");
      break;
    }
    PageHandle h;
    Status s = bp_->Fetch(f.id, &h);
    if (!s.ok()) {
      bad(f.id, "unreadable: " + s.ToString());
      continue;
    }
    char type = NodeType(*h.page());
    if (type == kLeaf) {
      if (leaf_depth < 0) {
        leaf_depth = f.depth;
      } else if (f.depth != static_cast<uint32_t>(leaf_depth)) {
        bad(f.id, "leaf at depth " + std::to_string(f.depth) +
                      ", expected " + std::to_string(leaf_depth));
      }
      LeafNode leaf;
      s = ParseLeaf(*h.page(), &leaf);
      if (!s.ok()) {
        bad(f.id, "unparsable leaf: " + s.ToString());
        continue;
      }
      const std::string* prev = nullptr;
      for (const std::string& e : leaf.entries) {
        ++*entries;
        std::string k, v;
        if (!BTreeSplitEntry(Slice(e), &k, &v).ok()) {
          bad(f.id, "malformed composite entry");
          break;
        }
        if (prev != nullptr && !(*prev < e)) {
          bad(f.id, "entries out of order");
          break;
        }
        if (e < f.low || (f.has_high && !(e < f.high))) {
          bad(f.id, "entry outside separator bounds");
          break;
        }
        prev = &e;
      }
      leaves.emplace_back(f.id, leaf.next);
      continue;
    }
    if (type != kInternal) {
      bad(f.id, "unknown node type " + std::to_string(type));
      continue;
    }
    InternalNode n;
    s = ParseInternal(*h.page(), &n);
    if (!s.ok()) {
      bad(f.id, "unparsable internal node: " + s.ToString());
      continue;
    }
    for (size_t i = 0; i < n.entries.size(); ++i) {
      const std::string& sep = n.entries[i].first;
      if (i > 0 && !(n.entries[i - 1].first < sep)) {
        bad(f.id, "separators out of order");
      }
      if (sep < f.low || (f.has_high && !(sep < f.high))) {
        bad(f.id, "separator outside parent bounds");
      }
    }
    // Child i's range: [sep[i-1], sep[i]) with the parent's bounds at the
    // edges (leftmost uses the parent's low, last child the parent's high).
    for (size_t i = n.entries.size() + 1; i-- > 0;) {
      Frame c;
      c.depth = f.depth + 1;
      c.id = (i == 0) ? n.leftmost : n.entries[i - 1].second;
      c.low = (i == 0) ? f.low : n.entries[i - 1].first;
      if (i == n.entries.size()) {
        c.high = f.high;
        c.has_high = f.has_high;
      } else {
        c.high = n.entries[i].first;
        c.has_high = true;
      }
      stack.push_back(std::move(c));
    }
  }
  for (size_t i = 0; i < leaves.size(); ++i) {
    PageId expect =
        (i + 1 < leaves.size()) ? leaves[i + 1].first : kInvalidPageId;
    if (leaves[i].second != expect) {
      bad(leaves[i].first,
          "leaf chain link " + std::to_string(leaves[i].second) +
              ", expected " + std::to_string(expect));
    }
  }
  return Status::OK();
}

Status BTree::Height(uint32_t* height) {
  MutexLock lock(&mu_);
  PageId leaf;
  return LeftmostLeaf(&leaf, height);
}

Status BTreeIterator::Next(std::string* key, std::string* value) {
  MutexLock lock(&tree_->mu_);
  PageId node;
  if (leaf_ != kInvalidPageId && mod_count_ == tree_->mod_count_) {
    // The tree is unchanged since the last step: the next entry is the one
    // at the cursor, or else the first of a following leaf.
    PageHandle h;
    DMX_RETURN_IF_ERROR(tree_->bp_->Fetch(leaf_, &h));
    const Page& p = *h.page();
    if (index_ < EntryCount(p)) {
      size_t off = offset_;
      Slice e;
      DMX_RETURN_IF_ERROR(ReadLeafEntry(p, &off, &e));
      return Take(e, leaf_, off, static_cast<uint16_t>(index_ + 1), key,
                  value);
    }
    node = NodeLink(p);
  } else {
    DMX_RETURN_IF_ERROR(tree_->FindLeaf(pos_, &node));
  }
  while (node != kInvalidPageId) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(tree_->bp_->Fetch(node, &h));
    const Page& p = *h.page();
    size_t off = kEntriesOff;
    for (uint16_t i = 0, n = EntryCount(p); i < n; ++i) {
      Slice e;
      DMX_RETURN_IF_ERROR(ReadLeafEntry(p, &off, &e));
      int cmp = e.compare(pos_);
      if (cmp > 0 || (cmp == 0 && !exclusive_)) {
        return Take(e, node, off, static_cast<uint16_t>(i + 1), key, value);
      }
    }
    node = NodeLink(p);
  }
  leaf_ = kInvalidPageId;
  return Status::NotFound("end of btree");
}

Status BTreeIterator::Take(const Slice& entry, PageId leaf,
                           size_t next_offset, uint16_t next_index,
                           std::string* key, std::string* value) {
  DMX_RETURN_IF_ERROR(BTreeSplitEntry(entry, key, value));
  pos_.assign(entry.data(), entry.size());
  exclusive_ = true;
  leaf_ = leaf;
  offset_ = next_offset;
  index_ = next_index;
  mod_count_ = tree_->mod_count_;
  return Status::OK();
}

void BTreeIterator::SavePosition(std::string* out) const {
  out->assign(1, exclusive_ ? 1 : 0);
  out->append(pos_);
}

Status BTreeIterator::RestorePosition(const Slice& pos) {
  if (pos.empty()) return Status::InvalidArgument("empty btree position");
  exclusive_ = pos[0] != 0;
  pos_.assign(pos.data() + 1, pos.size() - 1);
  leaf_ = kInvalidPageId;  // position moved: the cursor is meaningless
  return Status::OK();
}

}  // namespace dmx
