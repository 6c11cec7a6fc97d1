// The four bench_e2e workloads. Each runs in its own process (one workload
// per invocation), so set-up time, CPU time and peak memory belong to it.

#ifndef EXSAMPLE_BENCH_E2E_WORKLOADS_H_
#define EXSAMPLE_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report.h"
#include "trace.h"

namespace exsample {
namespace e2e {

struct RunOptions {
  /// Drives every input: arrivals, query mix, query seeds, dataset seeds.
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Per-layer run: spans on, per-layer metrics out.
  bool trace = false;
  /// The exsample_serve binary the TCP workloads start.
  std::string serve_binary;
  /// Where traced runs write their spans.
  std::string out_dir;
};

Outcome RunTcpShort(const RunOptions& options);
Outcome RunTcpMixed(const RunOptions& options);
Outcome RunScanFlat(const RunOptions& options);
Outcome RunDistLocal(const RunOptions& options);

/// End-to-end inputs every workload collects.
struct EndToEnd {
  std::vector<double> setup_seconds;
  /// Per query of the latency sample.
  std::vector<double> ttfr_seconds;
  std::vector<double> ttk_seconds;
  /// Throughput window.
  int64_t queries = 0;
  int64_t frames = 0;
  double wall_seconds = 0.0;
  /// Modeled decode + inference seconds and the results they bought.
  double modeled_seconds = 0.0;
  int64_t results = 0;
  /// CPU time of the process doing the work over the throughput window.
  double cpu_seconds = 0.0;
  double peak_rss_mb = 0.0;
};

void SetEndToEnd(const EndToEnd& e2e, Outcome* out);

/// Counts from the decomposed (or directly traced) engine runs.
struct EngineCounts {
  int64_t queries = 0;
  int64_t frames = 0;
  int64_t results = 0;
  int64_t true_instances = 0;
  int64_t detections = 0;
  std::vector<double> track_frame_ns;
};

/// core.*, detect.* and track.* from the engine-run spans (root spans named
/// "query" or "shard") and their counts.
void SetEngineLayers(const TraceSummary& engine_spans,
                     const EngineCounts& counts, Outcome* out);

/// Reports the p99 of the generator's lateness and fails the run when it
/// exceeds 2000 us: an open loop must keep to its schedule for latencies
/// measured from the due time to mean anything. In an open loop a send is
/// late by its time past the due time; in a closed loop the next query is
/// due when the previous one ends, so its lateness is the gap the benchmark
/// itself left.
void CheckLateness(const std::vector<double>& late_ns, Outcome* out);

/// Writes each phase's spans to out_dir (file names go to the detail line)
/// and sets trace.accounted_frac over all of them.
void FinishTrace(const RunOptions& options, const std::string& workload,
                 const std::vector<std::pair<std::string, const Tracer*>>&
                     phases,
                 Outcome* out);

}  // namespace e2e
}  // namespace exsample

#endif  // EXSAMPLE_BENCH_E2E_WORKLOADS_H_
