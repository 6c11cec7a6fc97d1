// Unit test of span self time and wall-time attribution (trace.h): nested
// spans, concurrent children (the dist coordinator's parallel dispatch
// threads), a child that ends after its parent, and an orphan.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"

namespace {

using exsample::e2e::ComputeSpanTimes;
using exsample::e2e::ScopedSpan;
using exsample::e2e::Span;
using exsample::e2e::SpanTimes;
using exsample::e2e::Summarize;
using exsample::e2e::Tracer;

int failures = 0;

void Expect(bool ok, const char* what, double got, double want) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s: got %g, want %g\n", what, got, want);
}

void ExpectNear(const char* what, double got, double want) {
  Expect(std::fabs(got - want) < 1e-6, what, got, want);
}

Span Make(const char* name, int64_t start, int64_t end, int64_t id,
          int64_t parent) {
  return Span{name, start, end, id, parent, 7};
}

void Nested() {
  // root [0,100]: A [10,40] holding A1 [20,30], then B [50,90].
  const std::vector<Span> spans = {
      Make("root", 0, 100, 1, -1), Make("a", 10, 40, 2, 1),
      Make("a1", 20, 30, 3, 2), Make("b", 50, 90, 4, 1)};
  const std::vector<SpanTimes> t = ComputeSpanTimes(spans);
  ExpectNear("nested root self", static_cast<double>(t[0].self_ns), 30);
  ExpectNear("nested a self", static_cast<double>(t[1].self_ns), 20);
  ExpectNear("nested a1 self", static_cast<double>(t[2].self_ns), 10);
  ExpectNear("nested b self", static_cast<double>(t[3].self_ns), 40);
  double attributed = 0.0;
  for (const SpanTimes& s : t) attributed += s.attributed_ns;
  ExpectNear("nested attributed sum", attributed, 100);
}

void OverlappingChildren() {
  // Two dispatch threads under one round: c1 [10,60] and c2 [30,80]
  // overlap on [30,60]; c2 itself holds c2a [40,50].
  const std::vector<Span> spans = {
      Make("round", 0, 100, 1, -1), Make("c1", 10, 60, 2, 1),
      Make("c2", 30, 80, 3, 1), Make("c2a", 40, 50, 4, 3)};
  const std::vector<SpanTimes> t = ComputeSpanTimes(spans);
  // Union of the children is [10,80]: subtracted once, not twice.
  ExpectNear("overlap root self", static_cast<double>(t[0].self_ns), 30);
  ExpectNear("overlap c1 self", static_cast<double>(t[1].self_ns), 50);
  ExpectNear("overlap c2 self", static_cast<double>(t[2].self_ns), 40);
  // Attribution: [10,30] c1 alone, [30,60] split, [60,80] c2 alone.
  ExpectNear("overlap c1 attributed", t[1].attributed_ns, 35);
  // c2 receives 35 of its 50: scale 0.7 over its self 40 and c2a's 10.
  ExpectNear("overlap c2 attributed", t[2].attributed_ns, 28);
  ExpectNear("overlap c2a attributed", t[3].attributed_ns, 7);
  double attributed = 0.0;
  for (const SpanTimes& s : t) attributed += s.attributed_ns;
  ExpectNear("overlap attributed sum", attributed, 100);
}

void ChildOutlivesParent() {
  // The child [40,70] ends after its parent [0,50]: only [40,50] is
  // inside the parent, and only that part is subtracted or attributed.
  const std::vector<Span> spans = {Make("parent", 0, 50, 1, -1),
                                   Make("child", 40, 70, 2, 1)};
  const std::vector<SpanTimes> t = ComputeSpanTimes(spans);
  ExpectNear("late child parent self", static_cast<double>(t[0].self_ns), 40);
  ExpectNear("late child self", static_cast<double>(t[1].self_ns), 30);
  ExpectNear("late child attributed", t[1].attributed_ns, 10);
  const auto summary = Summarize(spans);
  ExpectNear("late child root_ns", summary.root_ns, 50);
  ExpectNear("late child attributed_ns", summary.attributed_ns, 50);
}

void Orphan() {
  // A span whose parent was never recorded counts as a root.
  const std::vector<Span> spans = {Make("root", 0, 10, 1, -1),
                                   Make("orphan", 20, 35, 2, 99)};
  const auto summary = Summarize(spans);
  ExpectNear("orphan root_ns", summary.root_ns, 25);
  ExpectNear("orphan attributed_ns", summary.attributed_ns, 25);
}

void ScopedParents() {
  Tracer tracer;
  int64_t root_id = -1;
  {
    ScopedSpan root(&tracer, "root", -1, 3);
    root_id = root.id();
    { ScopedSpan child(&tracer, "child"); }
    std::thread worker([&tracer, root_id] {
      ScopedSpan remote(&tracer, "remote", root_id, 3);
    });
    worker.join();
  }
  { ScopedSpan off(nullptr, "off"); }
  const std::vector<Span>& spans = tracer.spans();
  Expect(spans.size() == 3, "scoped span count",
         static_cast<double>(spans.size()), 3);
  for (const Span& s : spans) {
    const bool root = std::string(s.name) == "root";
    Expect(s.parent == (root ? -1 : root_id), s.name,
           static_cast<double>(s.parent), static_cast<double>(root_id));
    Expect(s.query == 3, "scoped query", static_cast<double>(s.query), 3);
  }
}

}  // namespace

int main() {
  Nested();
  OverlappingChildren();
  ChildOutlivesParent();
  Orphan();
  ScopedParents();
  if (failures > 0) return 1;
  std::printf("span_test: all checks passed\n");
  return 0;
}
