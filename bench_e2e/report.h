// Metric tables, statistics helpers and the result line of bench_e2e.

#ifndef EXSAMPLE_BENCH_E2E_REPORT_H_
#define EXSAMPLE_BENCH_E2E_REPORT_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "detect/detection.h"
#include "util/json.h"

namespace exsample {
namespace e2e {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every workload reports every end-to-end metric (untraced runs) ...
extern const std::vector<MetricDef> kEndToEndMetrics;
/// ... and every per-layer metric (traced runs); a layer the workload does
/// not exercise reports 0.
extern const std::vector<MetricDef> kPerLayerMetrics;

/// What one workload run measured and checked.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Failed output checks. Any entry makes the run exit non-zero without
  /// a result line.
  std::vector<std::string> errors;
  /// The load generator missed its schedule (see CheckLateness): one of
  /// the errors, and the one a new attempt can clear.
  bool late = false;
  std::map<std::string, double> values;
  /// Everything else worth keeping (phases, workload-specific metrics),
  /// printed on the line before the result.
  Json detail = Json::Object();

  void Fail(const std::string& message) { errors.push_back(message); }
};

/// Prints the detail line and the result line (the table chosen by
/// `traced`) to stdout. Returns the process exit code: 0, or 1 when a check
/// failed, a request failed or an end-to-end metric is missing or zero.
int Finish(const Outcome& outcome, bool traced);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// FNV-1a over an ordered result stream: frame, score and box of each
/// detection. Doubles are folded bit for bit; the serve protocol prints them
/// in shortest round-trip form, so parsed and in-memory results agree.
class Fingerprint {
 public:
  void Add(int64_t frame, double score, double x, double y, double w,
           double h);
  void Add(const detect::Detection& d) {
    Add(d.frame, d.score, d.box.x, d.box.y, d.box.w, d.box.h);
  }
  uint64_t value() const { return hash_; }

 private:
  void Fold(uint64_t v);
  uint64_t hash_ = 1469598103934665603ULL;
};

std::string Hex(uint64_t v);

/// utime + stime of a process (pid 0 = this one), in seconds.
double CpuSeconds(pid_t pid);
/// VmHWM of a process (pid 0 = this one), in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

}  // namespace e2e
}  // namespace exsample

#endif  // EXSAMPLE_BENCH_E2E_REPORT_H_
