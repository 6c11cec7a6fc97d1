#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace exsample {
namespace e2e {
namespace {

// The innermost open ScopedSpan on this thread, and its query.
thread_local int64_t tl_current = -1;
thread_local int64_t tl_query = -1;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : ScopedSpan(tracer, name, tl_current, tl_query) {}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
                       int64_t query)
    : tracer_(tracer) {
  span_.id = -1;
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.query = query;
  saved_current_ = tl_current;
  saved_query_ = tl_query;
  tl_current = span_.id;
  tl_query = query;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tl_current = saved_current_;
  tl_query = saved_query_;
  tracer_->Add(span_);
}

std::vector<SpanTimes> ComputeSpanTimes(const std::vector<Span>& spans) {
  const size_t n = spans.size();
  std::unordered_map<int64_t, size_t> index;
  index.reserve(n);
  for (size_t i = 0; i < n; ++i) index.emplace(spans[i].id, i);

  std::vector<std::vector<size_t>> children(n);
  // Breadth-first visit order: roots first, every child after its parent.
  std::vector<size_t> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto it = spans[i].parent < 0 ? index.end() : index.find(spans[i].parent);
    if (it != index.end() && it->second != i) {
      children[it->second].push_back(i);
    } else {
      order.push_back(i);
    }
  }

  std::vector<SpanTimes> out(n);
  // Fraction of each span's duration that is attributed to its subtree:
  // 1 for roots, less for children sharing instants with siblings.
  std::vector<double> scale(n, 0.0);
  std::vector<double> received(n, 0.0);
  for (size_t i : order) scale[i] = 1.0;

  struct Edge {
    int64_t t;
    int delta;
    size_t child;
  };
  std::vector<Edge> edges;
  std::vector<size_t> active;
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t p = order[k];
    const Span& parent = spans[p];
    edges.clear();
    for (size_t c : children[p]) {
      const int64_t start = std::max(spans[c].start_ns, parent.start_ns);
      const int64_t end = std::min(spans[c].end_ns, parent.end_ns);
      if (end > start) {
        edges.push_back({start, +1, c});
        edges.push_back({end, -1, c});
      }
      order.push_back(c);
    }
    // Ends sort before starts at one instant: touching children never
    // count as concurrent.
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.t != b.t ? a.t < b.t : a.delta < b.delta;
    });
    active.clear();
    int64_t cursor = parent.start_ns;
    int64_t uncovered = 0;
    for (const Edge& edge : edges) {
      const int64_t segment = edge.t - cursor;
      if (segment > 0) {
        if (active.empty()) {
          uncovered += segment;
        } else {
          const double share = scale[p] * static_cast<double>(segment) /
                               static_cast<double>(active.size());
          for (size_t c : active) received[c] += share;
        }
        cursor = edge.t;
      }
      if (edge.delta > 0) {
        active.push_back(edge.child);
      } else {
        active.erase(std::find(active.begin(), active.end(), edge.child));
      }
    }
    if (parent.end_ns > cursor) uncovered += parent.end_ns - cursor;
    out[p].self_ns = uncovered;
    out[p].attributed_ns = scale[p] * static_cast<double>(uncovered);
    for (size_t c : children[p]) {
      const int64_t duration = spans[c].end_ns - spans[c].start_ns;
      scale[c] = duration > 0 ? received[c] / static_cast<double>(duration)
                              : 0.0;
    }
  }
  return out;
}

TraceSummary Summarize(const std::vector<Span>& spans) {
  const std::vector<SpanTimes> times = ComputeSpanTimes(spans);
  std::unordered_map<int64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  TraceSummary summary;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    LayerTotals& layer = summary.layers[span.name];
    ++layer.count;
    layer.self_ns += static_cast<double>(times[i].self_ns);
    layer.attributed_ns += times[i].attributed_ns;
    layer.durations_ns.push_back(duration);
    summary.attributed_ns += times[i].attributed_ns;
    auto it = span.parent < 0 ? index.end() : index.find(span.parent);
    if (it == index.end() || it->second == i) summary.root_ns += duration;
  }
  return summary;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t origin = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start_ns < origin) origin = spans[i].start_ns;
  }
  std::fprintf(out,
               "{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"id\","
               "\"parent\",\"query\"],\"spans\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%s[\"%s\",%lld,%lld,%lld,%lld,%lld]", i ? "," : "",
                 s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.query));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace e2e
}  // namespace exsample
