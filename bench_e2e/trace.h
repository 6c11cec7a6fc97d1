// Span tracing for the end-to-end benchmark.
//
// Spans are recorded only by the benchmark's own code, around calls into
// each layer's public functions (see decorators.h); the program under test
// is never modified. A span is (name, start, end, id, parent, query): the
// parent links a layer call to the call that caused it, and the query id
// groups every span of one query. Spans live in memory and are written out
// when the benchmark ends.
//
// A span's self time is its duration minus the part of that interval its
// children cover (children are clipped to the parent, so a child that ends
// after its parent only counts inside it). Where children run concurrently
// (the dist coordinator's per-worker dispatch threads), the union is
// subtracted once. For layer shares the benchmark also attributes wall time:
// every instant of a root span goes to exactly one span, concurrent children
// splitting their shared instants equally, so the attributed self times of a
// query add up to its wall time.

#ifndef EXSAMPLE_BENCH_E2E_TRACE_H_
#define EXSAMPLE_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace exsample {
namespace e2e {

/// steady_clock nanoseconds.
int64_t NowNs();

struct Span {
  /// A string literal: names are compared and grouped by content.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  /// Id of the causing span, or -1 for a root.
  int64_t parent = -1;
  int64_t query = -1;
};

/// In-memory span sink shared by every thread of a traced run. Code that
/// takes a Tracer* treats null as "tracing off".
class Tracer {
 public:
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const Span& span);
  /// Every span recorded so far (call once the traced threads are joined).
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::atomic<int64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times the enclosing scope as one span. On one thread, nested scopes parent
/// to the innermost open scope and inherit its query id; the explicit
/// constructor sets both for spans whose cause runs on another thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name);
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent, int64_t query);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// -1 when tracing is off.
  int64_t id() const { return span_.id; }

 private:
  Tracer* const tracer_;
  Span span_;
  int64_t saved_current_ = -1;
  int64_t saved_query_ = -1;
};

struct SpanTimes {
  /// Duration minus the union of the (clipped) children intervals.
  int64_t self_ns = 0;
  /// Wall time attributed to this span alone (see file comment).
  double attributed_ns = 0.0;
};

/// Self and attributed time of every span, index-parallel to `spans`. Spans
/// whose parent id is not in `spans` are treated as roots.
std::vector<SpanTimes> ComputeSpanTimes(const std::vector<Span>& spans);

/// Per-name totals over a span set.
struct LayerTotals {
  int64_t count = 0;
  double self_ns = 0.0;
  double attributed_ns = 0.0;
  /// Every span's duration, in recording order.
  std::vector<double> durations_ns;
};

struct TraceSummary {
  std::map<std::string, LayerTotals> layers;
  /// Summed duration of the root spans: the traced wall time.
  double root_ns = 0.0;
  /// Summed attributed time of every span (equals root_ns unless children
  /// stick out of their parents).
  double attributed_ns = 0.0;
};

TraceSummary Summarize(const std::vector<Span>& spans);

/// Writes the spans as one JSON document to `path` (times relative to the
/// earliest start). Returns false when the file cannot be written.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace e2e
}  // namespace exsample

#endif  // EXSAMPLE_BENCH_E2E_TRACE_H_
