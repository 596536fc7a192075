// Direct tests of the shared page-based B+-tree (splits, duplicates,
// uniqueness, iteration, position save/restore, persistence, corrupt
// nodes).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "src/sm/btree_core.h"
#include "src/util/coding.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : dir_("btree") {
    EXPECT_TRUE(pf_.Open(dir_.path() + "/db", true).ok());
    bp_ = std::make_unique<BufferPool>(&pf_, 512);
    EXPECT_TRUE(BTree::Create(bp_.get(), &anchor_).ok());
    tree_ = std::make_unique<BTree>(bp_.get(), anchor_);
  }

  static std::string Key(int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%08d", i);
    return buf;
  }

  TempDir dir_;
  PageFile pf_;
  std::unique_ptr<BufferPool> bp_;
  PageId anchor_ = kInvalidPageId;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, CompositeEncodingOrderAndRoundTrip) {
  // (key, value) lexicographic order must equal composite memcmp order,
  // including keys containing NUL bytes.
  std::vector<std::pair<std::string, std::string>> entries = {
      {"", ""},       {"", "z"},      {std::string("\0", 1), "a"},
      {"a", ""},      {"a", "b"},     {"a", std::string("\0", 1)},
      {"ab", ""},     {std::string("a\0b", 3), "x"}, {"b", ""},
  };
  std::sort(entries.begin(), entries.end());
  std::string prev;
  bool first = true;
  for (const auto& [k, v] : entries) {
    std::string composite = BTreeComposeEntry(Slice(k), Slice(v));
    std::string k2, v2;
    ASSERT_TRUE(BTreeSplitEntry(Slice(composite), &k2, &v2).ok());
    EXPECT_EQ(k2, k);
    EXPECT_EQ(v2, v);
    if (!first) {
      EXPECT_LT(prev, composite);
    }
    prev = composite;
    first = false;
  }
}

TEST_F(BTreeTest, InsertLookupRemove) {
  ASSERT_TRUE(tree_->Insert(Slice("alpha"), Slice("1")).ok());
  ASSERT_TRUE(tree_->Insert(Slice("beta"), Slice("2")).ok());
  std::vector<std::string> values;
  ASSERT_TRUE(tree_->Lookup(Slice("alpha"), &values).ok());
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "1");
  ASSERT_TRUE(tree_->Remove(Slice("alpha"), Slice("1")).ok());
  ASSERT_TRUE(tree_->Lookup(Slice("alpha"), &values).ok());
  EXPECT_TRUE(values.empty());
  // Removing again: NotFound, unless idempotent.
  EXPECT_TRUE(tree_->Remove(Slice("alpha"), Slice("1")).IsNotFound());
  EXPECT_TRUE(tree_->Remove(Slice("alpha"), Slice("1"), true).ok());
}

TEST_F(BTreeTest, DuplicateKeysKeepDistinctValues) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        tree_->Insert(Slice("dup"), Slice("v" + std::to_string(i))).ok());
  }
  // Exact duplicate (key, value) is an idempotent no-op.
  ASSERT_TRUE(tree_->Insert(Slice("dup"), Slice("v3")).ok());
  std::vector<std::string> values;
  ASSERT_TRUE(tree_->Lookup(Slice("dup"), &values).ok());
  EXPECT_EQ(values.size(), 5u);
  ASSERT_TRUE(tree_->Remove(Slice("dup"), Slice("v2")).ok());
  ASSERT_TRUE(tree_->Lookup(Slice("dup"), &values).ok());
  EXPECT_EQ(values.size(), 4u);
}

TEST_F(BTreeTest, UniqueInsertRejectsSecondValue) {
  ASSERT_TRUE(tree_->Insert(Slice("u"), Slice("first"), true).ok());
  EXPECT_TRUE(tree_->Insert(Slice("u"), Slice("second"), true).IsConstraint());
  // Same (key, value): fine.
  EXPECT_TRUE(tree_->Insert(Slice("u"), Slice("first"), true).ok());
}

TEST_F(BTreeTest, SplitsGrowTheTree) {
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice(Key(i))).ok()) << i;
  }
  uint32_t height = 0;
  uint64_t count = 0, leaves = 0;
  ASSERT_TRUE(tree_->Height(&height).ok());
  ASSERT_TRUE(tree_->Count(&count).ok());
  ASSERT_TRUE(tree_->LeafPages(&leaves).ok());
  EXPECT_GT(height, 1u);
  EXPECT_EQ(count, static_cast<uint64_t>(n));
  EXPECT_GT(leaves, 1u);
  // Every key still findable after all the splits.
  for (int i = 0; i < n; i += 97) {
    std::vector<std::string> values;
    ASSERT_TRUE(tree_->Lookup(Slice(Key(i)), &values).ok());
    ASSERT_EQ(values.size(), 1u) << i;
  }
}

TEST_F(BTreeTest, IteratorReturnsSortedSequence) {
  std::vector<int> ids;
  for (int i = 0; i < 2000; ++i) ids.push_back(i);
  std::mt19937 rng(3);
  std::shuffle(ids.begin(), ids.end(), rng);
  for (int i : ids) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice("v")).ok());
  }
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree_->NewIterator(&it).ok());
  std::string key, value, prev;
  int n = 0;
  while (it->Next(&key, &value).ok()) {
    if (n) {
      EXPECT_LT(prev, key);
    }
    prev = key;
    ++n;
  }
  EXPECT_EQ(n, 2000);
}

TEST_F(BTreeTest, IteratorLowerBoundStart) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i * 2)), Slice("v")).ok());
  }
  // Start at an absent key: first returned is the next present one.
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(
      tree_->NewIterator(&it, BTreeComposeEntry(Slice(Key(31)), Slice()))
          .ok());
  std::string key, value;
  ASSERT_TRUE(it->Next(&key, &value).ok());
  EXPECT_EQ(key, Key(32));
}

TEST_F(BTreeTest, IteratorSurvivesDeleteAtPosition) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice("v")).ok());
  }
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree_->NewIterator(&it).ok());
  std::string key, value;
  ASSERT_TRUE(it->Next(&key, &value).ok());
  EXPECT_EQ(key, Key(0));
  // Delete the entry at the iterator position: the scan continues just
  // after it (the paper's scan semantics).
  ASSERT_TRUE(tree_->Remove(Slice(Key(0)), Slice("v")).ok());
  ASSERT_TRUE(it->Next(&key, &value).ok());
  EXPECT_EQ(key, Key(1));
}

TEST_F(BTreeTest, ExclusiveLowBoundKeepsLongerKeysAcrossLeaves) {
  // Scans with an exclusive low key start at composite(key, "") with its
  // last terminator byte raised to 0x01: just past every entry of `key`.
  // Entries of key "k\0" sort right after that position; here they fill
  // several leaves, and the scan must start at the first of them.
  const std::string k0("k\0", 2);
  auto value = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "v%04d", i);
    return std::string(buf) + std::string(100, 'x');
  };
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(k0), Slice(value(i))).ok());
  }
  ASSERT_TRUE(tree_->Insert(Slice("k"), Slice("x")).ok());
  uint64_t leaves = 0;
  ASSERT_TRUE(tree_->LeafPages(&leaves).ok());
  ASSERT_GT(leaves, 3u);
  std::string low = BTreeComposeEntry(Slice("k"), Slice());
  low.back() = '\x01';
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree_->NewIterator(&it, low, true).ok());
  std::string key, v;
  ASSERT_TRUE(it->Next(&key, &v).ok());
  EXPECT_EQ(key, k0);
  EXPECT_EQ(v, value(0));
}

TEST_F(BTreeTest, IteratorPositionSaveRestore) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice("v")).ok());
  }
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree_->NewIterator(&it).ok());
  std::string key, value;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(it->Next(&key, &value).ok());
  std::string pos;
  it->SavePosition(&pos);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(it->Next(&key, &value).ok());
  EXPECT_EQ(key, Key(19));
  ASSERT_TRUE(it->RestorePosition(Slice(pos)).ok());
  ASSERT_TRUE(it->Next(&key, &value).ok());
  EXPECT_EQ(key, Key(10));
}

TEST_F(BTreeTest, PersistsAcrossBufferPoolFlush) {
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice(Key(i))).ok());
  }
  ASSERT_TRUE(bp_->FlushAll().ok());
  // Reopen everything from disk.
  tree_.reset();
  bp_.reset();
  bp_ = std::make_unique<BufferPool>(&pf_, 64);  // small pool: forces IO
  tree_ = std::make_unique<BTree>(bp_.get(), anchor_);
  uint64_t count = 0;
  ASSERT_TRUE(tree_->Count(&count).ok());
  EXPECT_EQ(count, 3000u);
  std::vector<std::string> values;
  ASSERT_TRUE(tree_->Lookup(Slice(Key(2718)), &values).ok());
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], Key(2718));
}

TEST_F(BTreeTest, DestroyFreesAllPages) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice(Key(i))).ok());
  }
  uint32_t before = pf_.page_count();
  ASSERT_TRUE(BTree::Destroy(bp_.get(), anchor_).ok());
  tree_.reset();
  // Recreate a tree of the same size: the freed pages must be reused.
  PageId anchor2;
  ASSERT_TRUE(BTree::Create(bp_.get(), &anchor2).ok());
  BTree tree2(bp_.get(), anchor2);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree2.Insert(Slice(Key(i)), Slice(Key(i))).ok());
  }
  EXPECT_LE(pf_.page_count(), before + 2);
}

TEST_F(BTreeTest, ScribbledLeafLengthPrefixIsCorruption) {
  ASSERT_TRUE(tree_->Insert(Slice("a"), Slice("1")).ok());
  ASSERT_TRUE(tree_->Insert(Slice("b"), Slice("2")).ok());
  ASSERT_TRUE(tree_->Insert(Slice("c"), Slice("3")).ok());
  PageId root;
  {
    PageHandle ah;
    ASSERT_TRUE(bp_->Fetch(anchor_, &ah).ok());
    root = DecodeFixed32(ah.page()->data + 8);
  }
  {
    // The root is the only leaf. Rewrite the one-byte length prefix of its
    // first entry as the varint 65535, which runs past the page end.
    PageHandle h;
    ASSERT_TRUE(bp_->Fetch(root, &h).ok());
    char* data = h.page()->data;
    const std::string first = BTreeComposeEntry(Slice("a"), Slice("1"));
    char* at = std::search(data, data + kPageSize, first.begin(), first.end());
    ASSERT_NE(at, data + kPageSize);
    ASSERT_EQ(at[-1], static_cast<char>(first.size()));
    at[-1] = '\xff';
    at[0] = '\xff';
    at[1] = '\x03';
    h.MarkDirty();
  }
  std::vector<std::string> values;
  EXPECT_TRUE(tree_->Lookup(Slice("a"), &values).IsCorruption());
  EXPECT_TRUE(tree_->Lookup(Slice("c"), &values).IsCorruption());
  EXPECT_TRUE(tree_->Insert(Slice("d"), Slice("4")).IsCorruption());
  EXPECT_TRUE(tree_->Remove(Slice("b"), Slice("2")).IsCorruption());
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree_->NewIterator(&it).ok());
  std::string key, value;
  EXPECT_TRUE(it->Next(&key, &value).IsCorruption());
  std::vector<std::string> problems;
  uint64_t entries = 0;
  ASSERT_TRUE(tree_->Verify(&problems, &entries).ok());
  EXPECT_FALSE(problems.empty());
}

// Property test: random churn against a shadow multimap, kept as a set of
// (key, value) pairs since an exact duplicate is a no-op. Entries are
// large (a few hundred bytes) so a few thousand of them build a tree of
// three or more levels; keys carry embedded '\0' and '\xff' bytes, which
// the composite encoding escapes.
class BTreeChurn : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BTreeChurn, MatchesShadowMultimap) {
  TempDir dir("btree_churn");
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", true).ok());
  BufferPool bp(&pf, 256);
  PageId anchor;
  ASSERT_TRUE(BTree::Create(&bp, &anchor).ok());
  BTree tree(&bp, anchor);

  auto make_key = [](uint32_t r) {
    std::string key = "k" + std::to_string(r % 300);
    key.insert(1, 1, r % 2 ? '\0' : '\xff');
    if (r % 5 == 0) key.push_back('\0');
    return key;
  };
  auto make_value = [](uint32_t id) {
    std::string value = "v" + std::to_string(id);
    value.push_back('\0');
    value.append(250 + 20 * id, static_cast<char>('a' + id));
    return value;
  };

  std::mt19937 rng(GetParam());
  // (key, value) pairs in tree order: composite order equals (key, value)
  // lexicographic order.
  std::set<std::pair<std::string, std::string>> shadow;
  auto shadow_values = [&](const std::string& key) {
    std::vector<std::string> out;
    for (auto it = shadow.lower_bound({key, ""});
         it != shadow.end() && it->first == key; ++it) {
      out.push_back(it->second);
    }
    return out;
  };

  // A scan kept open across the churn: every step must return the first
  // entry after its position, whatever happened to the tree in between.
  std::unique_ptr<BTreeIterator> scan;
  ASSERT_TRUE(tree.NewIterator(&scan).ok());
  bool positioned = false;
  std::pair<std::string, std::string> pos;
  auto advance = [&]() {
    auto expect = positioned ? shadow.upper_bound(pos) : shadow.begin();
    std::string key, value;
    Status s = scan->Next(&key, &value);
    if (expect == shadow.end()) {
      ASSERT_TRUE(s.IsNotFound()) << s.ToString();
      ASSERT_TRUE(tree.NewIterator(&scan).ok());  // start over
      positioned = false;
      return;
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(key, expect->first);
    ASSERT_EQ(value, expect->second);
    pos = {key, value};
    positioned = true;
  };

  for (int step = 0; step < 5000; ++step) {
    uint32_t r = rng();
    int action = static_cast<int>(r % 3);
    std::string key = make_key(rng());
    std::string value = make_value(rng() % 10);
    if (action < 2) {
      bool unique = r % 8 == 0;
      std::vector<std::string> existing = shadow_values(key);
      bool conflict = false;
      for (const std::string& v : existing) conflict |= v != value;
      Status s = tree.Insert(Slice(key), Slice(value), unique);
      if (unique && conflict) {
        ASSERT_TRUE(s.IsConstraint()) << s.ToString();
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        shadow.emplace(key, value);  // no-op for an exact duplicate
      }
    } else {
      bool present = shadow.erase({key, value}) > 0;
      Status s = tree.Remove(Slice(key), Slice(value));
      EXPECT_EQ(s.ok(), present) << step;
    }
    if (step % 25 == 0) {
      std::string probe = make_key(rng());
      std::vector<std::string> values;
      ASSERT_TRUE(tree.Lookup(Slice(probe), &values).ok());
      ASSERT_EQ(values, shadow_values(probe)) << step;
    }
    if (step % 5 == 0) {
      ASSERT_NO_FATAL_FAILURE(advance());
    }
    if (step % 100 == 50 && positioned) {
      // Delete the entry at the scan position: the scan resumes just
      // after it.
      ASSERT_TRUE(tree.Remove(Slice(pos.first), Slice(pos.second)).ok());
      shadow.erase(pos);
      ASSERT_NO_FATAL_FAILURE(advance());
    }
    if (step % 100 == 75 && positioned) {
      // Insert right after the position, on the same leaf: the scan
      // returns it next.
      std::string next_value = pos.second + '\x01';
      ASSERT_TRUE(tree.Insert(Slice(pos.first), Slice(next_value)).ok());
      shadow.emplace(pos.first, next_value);
      ASSERT_NO_FATAL_FAILURE(advance());
      ASSERT_EQ(pos.second, next_value);
    }
  }
  uint32_t height = 0;
  ASSERT_TRUE(tree.Height(&height).ok());
  EXPECT_GE(height, 3u);

  // Full comparison via iteration.
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree.NewIterator(&it).ok());
  std::string key, value;
  auto expect = shadow.begin();
  while (it->Next(&key, &value).ok()) {
    ASSERT_NE(expect, shadow.end());
    EXPECT_EQ(key, expect->first);
    EXPECT_EQ(value, expect->second);
    ++expect;
  }
  EXPECT_EQ(expect, shadow.end());

  std::vector<std::string> problems;
  uint64_t entries = 0;
  ASSERT_TRUE(tree.Verify(&problems, &entries).ok());
  for (const std::string& p : problems) ADD_FAILURE() << p;
  EXPECT_EQ(entries, shadow.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeChurn,
                         ::testing::Values(101u, 202u, 303u));

}  // namespace
}  // namespace dmx
