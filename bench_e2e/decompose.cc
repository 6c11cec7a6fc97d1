#include "decompose.h"

#include <utility>

#include "core/frame_source.h"
#include "data/presets.h"
#include "exec/multi_query_runner.h"
#include "report.h"
#include "util/rng.h"

namespace exsample {
namespace e2e {

DecoratedEngine::DecoratedEngine(
    const data::Dataset& dataset, const std::vector<video::Chunk>* chunks,
    detect::ClassId class_id, const detect::DetectorConfig& detector_config,
    bool tracker, uint64_t job_seed, const core::EngineConfig& config,
    Tracer* tracer, std::vector<double>* track_frame_ns) {
  SplitMix64 stream(job_seed);
  const uint64_t engine_seed = stream.Next();
  const uint64_t detector_seed = stream.Next();
  detector = std::make_unique<TracedDetector>(
      std::make_unique<detect::SimulatedDetector>(
          &dataset.ground_truth, class_id, detector_config, detector_seed),
      tracer);
  std::unique_ptr<track::Discriminator> inner;
  if (tracker) {
    inner = std::make_unique<track::TrackerDiscriminator>();
  } else {
    inner = std::make_unique<track::OracleDiscriminator>();
  }
  discriminator = std::make_unique<TracedDiscriminator>(std::move(inner),
                                                        tracer, track_frame_ns);
  engine = std::make_unique<core::QueryEngine>(
      &dataset.repo, MakeTracedSource(config, dataset.repo, chunks, tracer),
      detector.get(), discriminator.get(), config, engine_seed);
}

Rerun DecoratedEngine::Summarize(const core::QueryResult& result) const {
  Rerun out;
  Fingerprint fingerprint;
  for (const detect::Detection& d : result.results) fingerprint.Add(d);
  out.fingerprint = fingerprint.value();
  out.results = static_cast<int64_t>(result.results.size());
  out.true_instances = result.true_instances.final_count();
  out.frames = result.frames_processed;
  out.detections = detector->detections();
  out.modeled_seconds = result.total_seconds();
  return out;
}

const data::Dataset* DatasetCache::Get(const std::string& preset,
                                       double scale) {
  const std::string key = preset + "@" + std::to_string(scale);
  auto it = datasets_.find(key);
  if (it != datasets_.end()) return it->second.get();
  bool known = false;
  for (const std::string& name : data::PresetNames()) known |= name == preset;
  if (!known) return nullptr;
  const int64_t start = NowNs();
  auto dataset =
      std::make_unique<data::Dataset>(data::MakePreset(preset, scale, seed_));
  generate_seconds_ += static_cast<double>(NowNs() - start) * 1e-9;
  return datasets_.emplace(key, std::move(dataset)).first->second.get();
}

bool RerunSession(const data::Dataset& dataset, const OpenShape& shape,
                  uint64_t seed, int64_t session_id, Tracer* tracer,
                  std::vector<double>* track_frame_ns, Rerun* out,
                  std::string* error) {
  const data::ClassSpec* cls = dataset.FindClass(shape.class_name);
  if (cls == nullptr) {
    *error = "class '" + shape.class_name + "' not in " + shape.preset;
    return false;
  }
  // The job ProtocolHandler::HandleOpen builds for a single-class open with
  // no strategy/policy overrides. Pipelining is left out: it never changes
  // results, only wall-clock overlap.
  core::EngineConfig config;
  core::ApplyStrategyName("exsample", &config);
  core::QuerySpec spec;
  spec.class_id = cls->class_id;
  if (shape.limit > 0) spec.result_limit = shape.limit;
  spec.max_seconds = shape.budget_seconds;

  const int64_t start = NowNs();
  double ttfr_seconds = -1.0;
  core::QueryResult result;
  core::StepStatus status;
  std::unique_ptr<DecoratedEngine> parts;
  {
    ScopedSpan root(tracer, "query", -1, session_id);
    parts = std::make_unique<DecoratedEngine>(
        dataset, &dataset.chunks, cls->class_id, detect::DetectorConfig{},
        shape.tracker, exec::MultiQueryRunner::JobSeed(seed, session_id),
        config, tracer, track_frame_ns);
    parts->engine->Begin(spec);
    do {
      // serve::SessionManager's default slice.
      status = parts->engine->Step(256);
      if (ttfr_seconds < 0.0 && status.total_results > 0) {
        ttfr_seconds = static_cast<double>(NowNs() - start) * 1e-9;
      }
    } while (status.running());
    result = parts->engine->TakeResult();
  }
  *out = parts->Summarize(result);
  out->ttfr_seconds = ttfr_seconds;
  return true;
}

void RerunShard(const data::Dataset& dataset, const std::string& class_name,
                int32_t shard, int32_t num_shards, uint64_t seed,
                const std::vector<int64_t>& budgets, Tracer* tracer,
                int64_t query, std::vector<double>* track_frame_ns,
                std::vector<uint64_t>* pick_fingerprints, Rerun* out) {
  const data::ClassSpec* cls = dataset.FindClass(class_name);
  // dist::WorkerState::HandleOpen: shard s of L owns chunks
  // [s*m/L, (s+1)*m/L), renumbered from 0 but keeping their frames.
  const int64_t m = static_cast<int64_t>(dataset.chunks.size());
  const int64_t lo = shard * m / num_shards;
  const int64_t hi = (shard + 1) * m / num_shards;
  std::vector<video::Chunk> chunks;
  for (int64_t i = lo; i < hi; ++i) {
    video::Chunk chunk;
    chunk.id = static_cast<video::ChunkId>(i - lo);
    chunk.frames = dataset.chunks[static_cast<size_t>(i)].frames;
    chunks.push_back(std::move(chunk));
  }
  core::EngineConfig config;
  config.strategy = core::Strategy::kExSample;
  core::QuerySpec spec;
  spec.class_id = cls->class_id;

  core::QueryResult result;
  std::unique_ptr<DecoratedEngine> parts;
  {
    ScopedSpan root(tracer, "shard", -1, query);
    parts = std::make_unique<DecoratedEngine>(
        dataset, &chunks, cls->class_id, detect::DetectorConfig{},
        /*tracker=*/false, exec::MultiQueryRunner::JobSeed(seed, shard),
        config, tracer, track_frame_ns);
    parts->engine->Begin(spec);
    size_t drained = 0;
    for (int64_t frames : budgets) {
      parts->engine->Step(frames);
      const std::vector<detect::Detection>& results =
          parts->engine->result().results;
      Fingerprint fingerprint;
      for (size_t i = drained; i < results.size(); ++i) {
        fingerprint.Add(results[i]);
      }
      drained = results.size();
      pick_fingerprints->push_back(fingerprint.value());
    }
    result = parts->engine->TakeResult();
  }
  *out = parts->Summarize(result);
}

}  // namespace e2e
}  // namespace exsample
