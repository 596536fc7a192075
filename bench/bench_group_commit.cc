// Group commit — commit throughput vs committer count under the three
// durability protocols:
//
//   * fsync-per-commit (DatabaseOptions::group_commit = false): the
//     pre-group-commit baseline; every committer pays a private
//     write+fsync under the log mutex.
//   * group commit (the default): leader/follower — one leader fsyncs the
//     whole buffered batch while followers wait on the flush condvar, so
//     N concurrent committers share ~1 fsync.
//   * relaxed (DatabaseOptions::durability = kRelaxed): commit
//     acknowledges at WAL-append; the background flusher makes the tail
//     durable within its cadence.
//
// The interesting read is items_per_second at Threads(16)/Threads(32):
// group commit should scale near-linearly while fsync-per-commit stays
// flat at ~1/fsync-latency, and Threads(1) group vs legacy bounds the
// single-writer overhead of the leader/follower protocol (<10% target,
// see EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>

#include "bench/bench_util.h"

namespace dmx {
namespace bench {
namespace {

/// One database per durability protocol, shared by every thread count so
/// repeated runs keep appending fresh keys.
class ModeDb {
 public:
  ModeDb(bool group_commit, Durability durability) : dir_("group_commit") {
    DatabaseOptions options;
    options.dir = dir_.path() + "/db";
    options.group_commit = group_commit;
    options.durability = durability;
    BenchCheck(Database::Open(options, &db_), "open");
    Transaction* ddl = db_->Begin();
    Schema schema({{"k", TypeId::kInt64, false},
                   {"v", TypeId::kString, true}});
    BenchCheck(db_->CreateRelation(ddl, "t", schema, "heap", {}), "create");
    BenchCheck(db_->Commit(ddl), "ddl");
  }

  Database* db() { return db_.get(); }
  int64_t NextKey() { return next_key_.fetch_add(1); }

 private:
  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::atomic<int64_t> next_key_{0};
};

ModeDb* GroupDb() {
  // Default configuration: pure leader/follower batching — the batch is
  // whatever accumulated during the previous leader's fsync.
  static ModeDb* fixture = new ModeDb(true, Durability::kStrict);
  return fixture;
}

ModeDb* LegacyDb() {
  static ModeDb* fixture = new ModeDb(false, Durability::kStrict);
  return fixture;
}

ModeDb* RelaxedDb() {
  static ModeDb* fixture = new ModeDb(true, Durability::kRelaxed);
  return fixture;
}

void CommitLoop(benchmark::State& state, ModeDb* fixture) {
  Database* db = fixture->db();
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    BenchCheck(db->Insert(txn, "t",
                          {Value::Int(fixture->NextKey()),
                           Value::String("payload")}),
               "insert");
    BenchCheck(db->Commit(txn), "commit");
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CommitFsyncPerCommit(benchmark::State& state) {
  CommitLoop(state, LegacyDb());
}
BENCHMARK(BM_CommitFsyncPerCommit)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->Threads(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CommitGroup(benchmark::State& state) {
  CommitLoop(state, GroupDb());
}
BENCHMARK(BM_CommitGroup)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Threads(16)
    ->Threads(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CommitRelaxed(benchmark::State& state) {
  CommitLoop(state, RelaxedDb());
}
BENCHMARK(BM_CommitRelaxed)
    ->Threads(1)
    ->Threads(16)
    ->Threads(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace dmx

DMX_BENCH_MAIN("group_commit")
