// Decomposition: re-runs a query in-process through the layer decorators,
// building exactly the job the server (or a dist worker) built for it and
// deriving the same seeds, so the re-run must reproduce the query's result
// fingerprint. That check is what makes the per-layer numbers of a traced
// run measure the same work as the untraced query.

#ifndef EXSAMPLE_BENCH_E2E_DECOMPOSE_H_
#define EXSAMPLE_BENCH_E2E_DECOMPOSE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/synthetic.h"
#include "decorators.h"
#include "detect/simulated_detector.h"
#include "trace.h"

namespace exsample {
namespace e2e {

/// The fields of one single-class serve `open` this benchmark sends.
struct OpenShape {
  std::string preset;
  double scale = 0.05;
  std::string class_name;
  int64_t limit = 0;            ///< 0 = none
  double budget_seconds = 0.0;  ///< 0 = none
  bool tracker = false;
  int64_t pipeline_depth = 0;
  int64_t detect_batch = 8;
};

/// Outcome of one in-process query run.
struct Rerun {
  uint64_t fingerprint = 0;
  int64_t results = 0;
  int64_t true_instances = 0;
  int64_t frames = 0;
  int64_t detections = 0;
  double modeled_seconds = 0.0;
  /// Wall seconds to the first result (at the granularity the caller
  /// observes it).
  double ttfr_seconds = -1.0;
};

/// One query engine over decorated layers (a simulated detector for
/// `class_id`, an oracle or tracker discriminator), seeded the way
/// serve::QuerySession seeds a job with seed `job_seed`.
struct DecoratedEngine {
  DecoratedEngine(const data::Dataset& dataset,
                  const std::vector<video::Chunk>* chunks,
                  detect::ClassId class_id,
                  const detect::DetectorConfig& detector_config, bool tracker,
                  uint64_t job_seed, const core::EngineConfig& config,
                  Tracer* tracer, std::vector<double>* track_frame_ns);

  /// The finished run's counts and fingerprint (ttfr_seconds is left to the
  /// caller).
  Rerun Summarize(const core::QueryResult& result) const;

  std::unique_ptr<TracedDetector> detector;
  std::unique_ptr<TracedDiscriminator> discriminator;
  std::unique_ptr<core::QueryEngine> engine;
};

/// Datasets generated in-process the way serve::DatasetPool generates them
/// for a server started with the same --seed.
class DatasetCache {
 public:
  explicit DatasetCache(uint64_t seed) : seed_(seed) {}
  /// nullptr for an unknown preset.
  const data::Dataset* Get(const std::string& preset, double scale);
  double generate_seconds() const { return generate_seconds_; }

 private:
  const uint64_t seed_;
  std::map<std::string, std::unique_ptr<data::Dataset>> datasets_;
  double generate_seconds_ = 0.0;
};

/// Re-runs serve session `session_id` of a server started with --seed
/// `seed`: the job serve::ProtocolHandler builds for `shape`, the seeds
/// serve::QuerySession derives, sliced like the scheduler. The root span is
/// "query" with query id `session_id`. Returns false (with `error`) when
/// the class is unknown.
bool RerunSession(const data::Dataset& dataset, const OpenShape& shape,
                  uint64_t seed, int64_t session_id, Tracer* tracer,
                  std::vector<double>* track_frame_ns, Rerun* out,
                  std::string* error);

/// Re-runs shard `shard` of `num_shards` of a dist query the way
/// dist::WorkerState runs it for a backend seeded with `seed`, advancing it
/// by the recorded pick budgets. `pick_fingerprints` gets one fingerprint
/// per budget (that pick's new results). The root span is "shard" with
/// query id `query`.
void RerunShard(const data::Dataset& dataset, const std::string& class_name,
                int32_t shard, int32_t num_shards, uint64_t seed,
                const std::vector<int64_t>& budgets, Tracer* tracer,
                int64_t query, std::vector<double>* track_frame_ns,
                std::vector<uint64_t>* pick_fingerprints, Rerun* out);

}  // namespace e2e
}  // namespace exsample

#endif  // EXSAMPLE_BENCH_E2E_DECOMPOSE_H_
