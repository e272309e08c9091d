#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

// One timed call into an engine layer, recorded by the benchmark around the
// public API call (the engine itself is not instrumented). Spans of one
// request (a query execution, a refresh function, a checkpoint) share
// `request`; `parent` is the id of the enclosing span, 0 for a root.
struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  int client;
  int64_t start_ns;
  int64_t end_ns;
};

// Per-client span buffer. Each client thread owns one, so recording takes no
// lock; the buffers are merged and written once the run has ended. A
// disabled log records nothing and hands out id 0.
class SpanLog {
 public:
  SpanLog(bool enabled, int client, std::atomic<uint64_t>* ids)
      : enabled_(enabled), client_(client), ids_(ids) {}

  bool enabled() const { return enabled_; }

  uint64_t NextId() {
    return enabled_ ? ids_->fetch_add(1, std::memory_order_relaxed) : 0;
  }

  // Records [start_ns, end_ns) and returns the span's id.
  uint64_t Add(const char* name, uint64_t id, uint64_t parent,
               uint64_t request, int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return 0;
    spans_.push_back(Span{name, id, parent, request, client_, start_ns,
                          end_ns});
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int client_;
  std::atomic<uint64_t>* ids_;
  std::vector<Span> spans_;
};

// Writes every span as one JSON object per line, times relative to `t0_ns`.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs,
                       int64_t t0_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"client\":%d,\"start_us\":%.3f,"
                   "\"end_us\":%.3f}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.client,
                   static_cast<double>(s.start_ns - t0_ns) / 1e3,
                   static_cast<double>(s.end_ns - t0_ns) / 1e3);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
