// E3 — "it is important to evaluate filter predicates as early as
// possible... The intention of this common service facility is to allow
// filter predicates to be evaluated while the field values from the
// relation storage or access path are still in the buffer pool."
//
// Scans 100k rows at selectivities {1, 10, 50, 90}% two ways:
//   * in-pool: the predicate is pushed into the storage-method scan and
//     evaluated against the pinned page (zero copy);
//   * copy-out: every record is copied out of the scan and the predicate
//     evaluated by the caller (what a system without the common service
//     would do), with the same compiled predicate the scan uses, so the
//     gap measures the copy and not the evaluator.
// Expected shape: in-pool wins, and the gap grows as selectivity drops
// (fewer records ever leave the buffer pool).
//
// BM_EvalPredicate is the evaluator layer alone: one record, evaluated in
// a loop by the tree walker and by the compiled form.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace dmx {
namespace bench {
namespace {

constexpr uint64_t kRows = 100000;

ScopedDb* Fixture() {
  static ScopedDb* fixture = new ScopedDb(kRows);
  return fixture;
}

ExprPtr PredicateFor(int64_t selectivity_pct) {
  // id < kRows * pct / 100.
  return Expr::Cmp(ExprOp::kLt, 0,
                   Value::Int(static_cast<int64_t>(kRows) *
                              selectivity_pct / 100));
}

void BM_FilterInBufferPool(benchmark::State& state) {
  Database* db = Fixture()->db();
  const RelationDescriptor* desc = Fixture()->desc();
  ExprPtr pred = PredicateFor(state.range(0));
  uint64_t matched = 0;
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    ScanSpec spec;
    spec.filter = pred;  // evaluated inside the scan, against the page
    std::unique_ptr<Scan> scan;
    BenchCheck(db->OpenScanOn(txn, desc, AccessPathId::StorageMethod(), spec,
                              &scan),
               "scan");
    matched = 0;
    ScanItem item;
    while (scan->Next(&item).ok()) ++matched;
    scan.reset();
    BenchCheck(db->Commit(txn), "commit");
  }
  state.counters["matched"] = static_cast<double>(matched);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRows));
}
BENCHMARK(BM_FilterInBufferPool)
    ->Arg(1)->Arg(10)->Arg(50)->Arg(90)
    ->Unit(benchmark::kMillisecond);

void BM_FilterAfterCopyOut(benchmark::State& state) {
  Database* db = Fixture()->db();
  const RelationDescriptor* desc = Fixture()->desc();
  ExprPtr pred = PredicateFor(state.range(0));
  CompiledPredicate compiled;
  db->evaluator()->Compile(*pred, desc->schema, &compiled);
  uint64_t matched = 0;
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    std::unique_ptr<Scan> scan;
    BenchCheck(db->OpenScanOn(txn, desc, AccessPathId::StorageMethod(),
                              ScanSpec{}, &scan),
               "scan");
    matched = 0;
    ScanItem item;
    while (scan->Next(&item).ok()) {
      // Copy the record out of the buffer pool, then evaluate.
      std::string copy(item.view.raw().data(), item.view.raw().size());
      RecordView copied{Slice(copy), &desc->schema};
      bool passes = false;
      BenchCheck(compiled.EvalPredicate(copied, &passes), "eval");
      if (passes) ++matched;
    }
    scan.reset();
    BenchCheck(db->Commit(txn), "commit");
  }
  state.counters["matched"] = static_cast<double>(matched);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRows));
}
BENCHMARK(BM_FilterAfterCopyOut)
    ->Arg(1)->Arg(10)->Arg(50)->Arg(90)
    ->Unit(benchmark::kMillisecond);

// `id = ? AND score > ?` on one record that passes, so both comparisons
// run: the shape of perfbench's scan_filter predicate.
void BM_EvalPredicate(benchmark::State& state, bool compile) {
  Database* db = Fixture()->db();
  const RelationDescriptor* desc = Fixture()->desc();
  Transaction* txn = db->Begin();
  std::unique_ptr<Scan> scan;
  BenchCheck(db->OpenScanOn(txn, desc, AccessPathId::StorageMethod(),
                            ScanSpec{}, &scan),
             "scan");
  ScanItem item;
  BenchCheck(scan->Next(&item), "first record");
  const std::string record = item.view.raw().ToString();
  const RecordView view(Slice(record), &desc->schema);
  scan.reset();
  BenchCheck(db->Commit(txn), "commit");

  ExprEvaluator ev;
  ev.SetParams({Value::Int(view.GetInt(0)),
                Value::Double(view.GetDouble(2) - 1.0)});
  const ExprPtr pred =
      Expr::And(Expr::Eq(Expr::Field(0), Expr::Param(0)),
                Expr::Binary(ExprOp::kGt, Expr::Field(2), Expr::Param(1)));
  CompiledPredicate compiled;
  ev.Compile(*pred, desc->schema, &compiled);
  if (compile && !compiled.compiled()) {
    state.SkipWithError("predicate did not compile");
    return;
  }
  for (auto _ : state) {
    bool passes = false;
    const Status s = compile ? compiled.EvalPredicate(view, &passes)
                             : ev.EvalPredicate(*pred, view, &passes);
    benchmark::DoNotOptimize(passes);
    if (!s.ok() || !passes) {
      state.SkipWithError("predicate failed on its own record");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_EvalPredicate, walker, false);
BENCHMARK_CAPTURE(BM_EvalPredicate, compiled, true);

}  // namespace
}  // namespace bench
}  // namespace dmx

DMX_BENCH_MAIN("predicate")
