// Concurrency tests: parallel transactions through the lock manager,
// writer isolation, deadlock victim recovery, and concurrent readers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/core/database.h"
#include "src/sm/key_codec.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

Schema CounterSchema() {
  return Schema({{"id", TypeId::kInt64, false},
                 {"n", TypeId::kInt64, false}});
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() : dir_("conc") {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.buffer_pool_pages = 512;
    EXPECT_TRUE(Database::Open(options, &db_).ok());
    Transaction* txn = db_->Begin();
    EXPECT_TRUE(
        db_->CreateRelation(txn, "counters", CounterSchema(), "heap", {})
            .ok());
    EXPECT_TRUE(db_->Commit(txn).ok());
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(ConcurrencyTest, ParallelInsertersAllLand) {
  constexpr int kThreads = 8, kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Transaction* txn = db_->Begin();
        Status s = db_->Insert(
            txn, "counters",
            {Value::Int(t * 1000 + i), Value::Int(0)});
        if (!s.ok()) (void)db_->Abort(txn);
        if (s.ok()) s = db_->Commit(txn);  // ends the txn either way
        if (!s.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  Transaction* check = db_->Begin();
  const RelationDescriptor* desc;
  ASSERT_TRUE(db_->FindRelation("counters", &desc).ok());
  uint64_t n = 0;
  ASSERT_TRUE(db_->CountRecords(check, desc, &n).ok());
  EXPECT_EQ(n, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_TRUE(db_->Commit(check).ok());
}

TEST_F(ConcurrencyTest, ParallelInsertersShareOneBTreeIndex) {
  // Two writers hold different record locks but insert into the same
  // B-trees (a unique index on id, a duplicate-heavy one on n): the
  // tree's own latch must keep every leaf and split intact.
  uint32_t by_id = 0;
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateAttachment(txn, "counters", "btree_index",
                                    {{"fields", "id"}, {"unique", "1"}},
                                    &by_id)
                  .ok());
  ASSERT_TRUE(db_->CreateAttachment(txn, "counters", "btree_index",
                                    {{"fields", "n"}})
                  .ok());
  // Opens the attachment state before the writers race on it.
  ASSERT_TRUE(
      db_->Insert(txn, "counters", {Value::Int(-1), Value::Int(0)}).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());

  constexpr int kThreads = 2, kPerThread = 3000, kPerTxn = 10;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kThreads);  // each writer's first failure
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i += kPerTxn) {
        Transaction* w = db_->Begin();
        Status s;
        for (int j = i; j < i + kPerTxn && s.ok(); ++j) {
          s = db_->Insert(w, "counters",
                          {Value::Int(j * kThreads + t), Value::Int(j % 7)});
        }
        if (!s.ok()) {
          (void)db_->Abort(w);  // the insert failure is what gets reported
        } else {
          s = db_->Commit(w);  // a failed commit has already ended `w`
        }
        if (!s.ok() && errors[t].empty()) errors[t] = s.ToString();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::string& e : errors) EXPECT_EQ(e, "");

  const uint64_t total = kThreads * kPerThread + 1;
  Transaction* check = db_->Begin();
  CheckResult result;
  ASSERT_TRUE(db_->CheckRelation(check, "counters", &result).ok());
  EXPECT_TRUE(result.clean);
  for (const CheckFinding& f : result.findings) {
    ADD_FAILURE() << f.component << ": " << f.detail;
  }
  const RelationDescriptor* desc;
  ASSERT_TRUE(db_->FindRelation("counters", &desc).ok());
  uint64_t n = 0;
  ASSERT_TRUE(db_->CountRecords(check, desc, &n).ok());
  EXPECT_EQ(n, total);
  const AccessPathId path = AccessPathId::Attachment(
      static_cast<AtId>(db_->registry()->FindAttachmentType("btree_index")),
      by_id);
  for (int id = 0; id < kThreads * kPerThread; id += 97) {
    std::string probe;
    ASSERT_TRUE(EncodeValueKey({Value::Int(id)}, &probe).ok());
    std::vector<std::string> keys;
    ASSERT_TRUE(db_->Lookup(check, "counters", path, Slice(probe), &keys).ok());
    EXPECT_EQ(keys.size(), 1u) << id;
  }
  ASSERT_TRUE(db_->Commit(check).ok());
}

TEST_F(ConcurrencyTest, LostUpdatePreventedByRecordLocks) {
  // One row, many increments from racing transactions: the X record lock
  // serializes fetch-modify-write, so no increment is lost.
  std::string key;
  {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(
        db_->Insert(txn, "counters", {Value::Int(1), Value::Int(0)}, &key)
            .ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  constexpr int kThreads = 4, kPerThread = 25;
  Schema schema = CounterSchema();
  std::atomic<int> retries{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        while (true) {
          Transaction* txn = db_->Begin();
          Record rec;
          Status s = db_->Fetch(txn, "counters", Slice(key), &rec);
          if (s.ok()) {
            int64_t n = rec.View(&schema).GetInt(1);
            s = db_->Update(txn, "counters", Slice(key),
                            {Value::Int(1), Value::Int(n + 1)});
          }
          if (!s.ok()) (void)db_->Abort(txn);
          if (s.ok()) s = db_->Commit(txn);  // ends the txn either way
          if (s.ok()) break;
          ++retries;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  Transaction* check = db_->Begin();
  Record rec;
  ASSERT_TRUE(db_->Fetch(check, "counters", Slice(key), &rec).ok());
  EXPECT_EQ(rec.View(&schema).GetInt(1), kThreads * kPerThread);
  EXPECT_TRUE(db_->Commit(check).ok());
}

TEST_F(ConcurrencyTest, DeadlockVictimCanRetry) {
  // Two rows, two transactions locking them in opposite order. One side
  // gets a Deadlock (or Busy timeout) status, aborts, retries, and both
  // increments eventually land.
  std::string key_a, key_b;
  {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->Insert(txn, "counters", {Value::Int(1), Value::Int(0)},
                            &key_a)
                    .ok());
    ASSERT_TRUE(db_->Insert(txn, "counters", {Value::Int(2), Value::Int(0)},
                            &key_b)
                    .ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  db_->lock_manager()->set_timeout(std::chrono::milliseconds(300));
  Schema schema = CounterSchema();

  auto bump_both = [&](const std::string& first, const std::string& second) {
    while (true) {
      Transaction* txn = db_->Begin();
      Status s;
      for (const std::string* k : {&first, &second}) {
        Record rec;
        s = db_->Fetch(txn, "counters", Slice(*k), &rec);
        if (!s.ok()) break;
        int64_t id = rec.View(&schema).GetInt(0);
        int64_t n = rec.View(&schema).GetInt(1);
        s = db_->Update(txn, "counters", Slice(*k),
                        {Value::Int(id), Value::Int(n + 1)});
        if (!s.ok()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (!s.ok()) (void)db_->Abort(txn);
      if (s.ok()) s = db_->Commit(txn);  // ends the txn either way
      if (s.ok()) return;
    }
  };

  std::thread t1([&] { bump_both(key_a, key_b); });
  std::thread t2([&] { bump_both(key_b, key_a); });
  t1.join();
  t2.join();

  Transaction* check = db_->Begin();
  Record rec;
  ASSERT_TRUE(db_->Fetch(check, "counters", Slice(key_a), &rec).ok());
  EXPECT_EQ(rec.View(&schema).GetInt(1), 2);
  ASSERT_TRUE(db_->Fetch(check, "counters", Slice(key_b), &rec).ok());
  EXPECT_EQ(rec.View(&schema).GetInt(1), 2);
  EXPECT_TRUE(db_->Commit(check).ok());
}

TEST_F(ConcurrencyTest, ReadersShareWritersExclude) {
  std::string key;
  {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(
        db_->Insert(txn, "counters", {Value::Int(1), Value::Int(7)}, &key)
            .ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  // Many concurrent readers proceed in parallel.
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        Transaction* txn = db_->Begin();
        Record rec;
        if (db_->Fetch(txn, "counters", Slice(key), &rec).ok()) ++reads;
        EXPECT_TRUE(db_->Commit(txn).ok());
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(reads.load(), 120);

  // A reader holding S blocks a writer until it commits.
  Transaction* reader = db_->Begin();
  Record rec;
  ASSERT_TRUE(db_->Fetch(reader, "counters", Slice(key), &rec).ok());
  db_->lock_manager()->set_timeout(std::chrono::milliseconds(100));
  Transaction* writer = db_->Begin();
  Status s = db_->Update(writer, "counters", Slice(key),
                         {Value::Int(1), Value::Int(8)});
  EXPECT_TRUE(s.IsBusy() || s.IsDeadlock()) << s.ToString();
  EXPECT_TRUE(db_->Abort(writer).ok());
  ASSERT_TRUE(db_->Commit(reader).ok());
  db_->lock_manager()->set_timeout(std::chrono::milliseconds(2000));
}

// A copy of the heap vector whose open counts its calls. The first call
// waits up to 200 ms for a second one, so two first callers overlap
// whenever nothing keeps the second out.
std::atomic<int> g_open_calls{0};
Status (*g_heap_open)(SmContext&, std::unique_ptr<ExtState>*) = nullptr;

Status CountingOpen(SmContext& ctx, std::unique_ptr<ExtState>* state) {
  if (++g_open_calls == 1) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (g_open_calls.load() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return g_heap_open(ctx, state);
}

TEST(ConcurrencyOpenTest, FirstCallersOpenRelationStateOnce) {
  TempDir dir("open_once");
  DatabaseOptions options;
  options.dir = dir.path();
  options.register_extensions = [](ExtensionRegistry* registry) {
    SmOps counting = registry->sm_ops(registry->FindStorageMethod("heap"));
    g_heap_open = counting.open;
    counting.name = "counting_heap";
    counting.open = CountingOpen;
    return registry->RegisterStorageMethod(counting);
  };
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Transaction* txn = db->Begin();
  ASSERT_TRUE(db->CreateRelation(txn, "r", CounterSchema(), "counting_heap",
                                 {})
                  .ok());
  ASSERT_TRUE(db->Insert(txn, "r", {Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(db->Commit(txn).ok());

  // Drop the open state (the heap reopens from its pages), so the two
  // callers below both make the first call.
  const RelationDescriptor* desc = nullptr;
  ASSERT_TRUE(db->FindRelation("r", &desc).ok());
  db->InvalidateRuntime(desc->id);
  g_open_calls = 0;
  Status status[2];
  ExtState* state[2] = {nullptr, nullptr};
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      SmContext ctx;
      status[t] = db->MakeSmContext(nullptr, desc, &ctx);
      state[t] = ctx.state;
    });
  }
  for (auto& th : callers) th.join();
  ASSERT_TRUE(status[0].ok()) << status[0].ToString();
  ASSERT_TRUE(status[1].ok()) << status[1].ToString();
  EXPECT_EQ(g_open_calls.load(), 1);
  EXPECT_EQ(state[0], state[1]);
  EXPECT_NE(state[0], nullptr);

  // The one state serves the relation.
  Transaction* reader = db->Begin();
  uint64_t rows = 0;
  ASSERT_TRUE(db->CountRecords(reader, desc, &rows).ok());
  EXPECT_EQ(rows, 1u);
  ASSERT_TRUE(db->Commit(reader).ok());
}

}  // namespace
}  // namespace dmx
