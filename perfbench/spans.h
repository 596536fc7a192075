// Spans for the traced run: one per public engine call the benchmark
// makes, parented to the client operation that made it. Each client
// thread owns a SpanLog, so recording takes no lock; a null log (the
// untraced run) makes ScopedSpan free of clock reads.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The public calls the benchmark wraps. kOp is the client operation
/// (a transaction or a statement) that parents the others.
enum class SpanName : uint8_t {
  kOp,
  kBegin,
  kCommit,
  kLookup,
  kFetch,
  kUpdate,
  kUpdateVetoed,
  kInsert,
  kExecute,
  kCheckpoint,
};

const char* SpanNameString(SpanName name);
/// The src/ module that owns the call: "txn", "attach", "sm", "core",
/// "query", or "client" for kOp.
const char* SpanLayer(SpanName name);

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  uint64_t op_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  // index into the same SpanLog, -1 for a root
  SpanName name = SpanName::kOp;
};

class SpanLog {
 public:
  explicit SpanLog(size_t reserve) { spans_.reserve(reserve); }

  int32_t Open(SpanName name, uint64_t op_id, int32_t parent) {
    spans_.push_back({op_id, NowNanos(), 0, parent, name});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t index) { spans_[index].end_ns = NowNanos(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; does
/// nothing when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, uint64_t op_id, int32_t parent)
      : log_(log), index_(log ? log->Open(name, op_id, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  int32_t index_;
};

/// What the traced run reports from its spans.
struct SpanSummary {
  /// Durations in microseconds, per span name.
  std::map<SpanName, std::vector<double>> durations_us;
  /// Self time (duration minus child spans) summed per layer, in us.
  std::map<std::string, double> self_us;
};

SpanSummary Summarize(const std::vector<const SpanLog*>& logs);

/// Write every span as CSV (thread,op,index,parent,name,start_ns,end_ns);
/// false on an I/O error.
bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
