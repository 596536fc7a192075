#include "spans.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kOp: return "op";
    case SpanName::kBegin: return "Database::Begin";
    case SpanName::kCommit: return "Database::Commit";
    case SpanName::kLookup: return "Database::Lookup";
    case SpanName::kFetch: return "Database::Fetch";
    case SpanName::kUpdate: return "Database::Update";
    case SpanName::kUpdateVetoed: return "Database::Update(vetoed)";
    case SpanName::kInsert: return "Database::Insert";
    case SpanName::kExecute: return "Session::Execute";
    case SpanName::kCheckpoint: return "Database::Checkpoint";
  }
  return "?";
}

const char* SpanLayer(SpanName name) {
  switch (name) {
    case SpanName::kBegin:
    case SpanName::kCommit: return "txn";
    case SpanName::kLookup: return "attach";
    case SpanName::kFetch:
    case SpanName::kUpdate:
    case SpanName::kInsert: return "sm";
    // A vetoed update is the core's two-step protocol at work: the
    // storage-method step, the attachment's veto, and the log-driven
    // partial rollback.
    case SpanName::kUpdateVetoed:
    case SpanName::kCheckpoint: return "core";
    case SpanName::kExecute: return "query";
    case SpanName::kOp: break;
  }
  return "client";
}

SpanSummary Summarize(const std::vector<const SpanLog*>& logs) {
  SpanSummary out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const uint64_t dur = s.end_ns - s.start_ns;
      out.durations_us[s.name].push_back(static_cast<double>(dur) / 1e3);
      out.self_us[SpanLayer(s.name)] +=
          static_cast<double>(dur - child_ns[i]) / 1e3;
    }
  }
  return out;
}

bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fputs("thread,op,index,parent,name,start_ns,end_ns\n", f);
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      fprintf(f, "%zu,%" PRIu64 ",%zu,%d,%s,%" PRIu64 ",%" PRIu64 "\n", t,
              s.op_id, i, s.parent, SpanNameString(s.name), s.start_ns,
              s.end_ns);
    }
  }
  return fclose(f) == 0;
}

}  // namespace perfbench
