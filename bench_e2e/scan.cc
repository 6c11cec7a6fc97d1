// scan_flat: back-to-back in-process queries (closed loop, one thread) with
// the paper's flat Thompson policy on a 200k-frame, 20k-chunk skewed
// repository. Every flat pick scores all 20k chunks, so the core policy and
// chunk-statistics work dominates; net, serve, json and track do none.

#include <memory>
#include <vector>

#include "data/synthetic.h"
#include "decompose.h"
#include "exec/multi_query_runner.h"
#include "workloads.h"

namespace exsample {
namespace e2e {
namespace {

constexpr int64_t kLimit = 10;
/// Repositories per run, each generated from its own seed; queries take
/// them in turn, so a run's numbers average over repositories rather than
/// hinge on one.
constexpr int64_t kRepositories = 4;

/// The skewed many-chunk repository of bench_scale's end-to-end phase:
/// 300 instances clustered around the middle of one 200k-frame video cut
/// into 10-frame chunks.
data::Dataset ManyChunkDataset(uint64_t seed) {
  data::DatasetSpec spec;
  spec.name = "many_chunks";
  spec.num_videos = 1;
  spec.frames_per_video = 200000;
  spec.chunk_frames = 10;
  data::ClassSpec c;
  c.class_id = 0;
  c.name = "obj";
  c.num_instances = 300;
  c.mean_duration_frames = 120.0;
  c.placement = data::Placement::kNormal;
  c.stddev_fraction = 0.05;
  spec.classes.push_back(c);
  return data::GenerateDataset(spec, seed);
}

/// One query (perfect detector, oracle discriminator) with query seed
/// `seed`, advanced `step` frames at a time. Its time to first result is
/// taken when the discriminator first reports a new object.
Rerun RunQuery(const data::Dataset& dataset, uint64_t seed, int64_t step,
               Tracer* tracer, int64_t query,
               std::vector<double>* track_frame_ns) {
  core::EngineConfig config;
  config.strategy = core::Strategy::kExSample;
  config.policy = core::PolicyKind::kThompson;
  core::QuerySpec spec;
  spec.class_id = 0;
  spec.result_limit = kLimit;

  const int64_t start = NowNs();
  core::QueryResult result;
  std::unique_ptr<DecoratedEngine> parts;
  {
    ScopedSpan root(tracer, "query", -1, query);
    parts = std::make_unique<DecoratedEngine>(
        dataset, &dataset.chunks, 0, detect::PerfectDetectorConfig(),
        /*tracker=*/false, seed, config, tracer, track_frame_ns);
    parts->engine->Begin(spec);
    while (parts->engine->Step(step).running()) {
    }
    result = parts->engine->TakeResult();
    // Destroy the engine inside the query's time: tearing down per-chunk
    // state is part of what a query costs.
    parts->engine.reset();
  }
  Rerun out = parts->Summarize(result);
  out.ttfr_seconds =
      static_cast<double>(parts->discriminator->first_result_ns() - start) *
      1e-9;
  return out;
}

}  // namespace

Outcome RunScanFlat(const RunOptions& options) {
  Outcome out;
  EndToEnd e2e;
  std::vector<std::unique_ptr<data::Dataset>> datasets;
  for (int i = 0; i < 7; ++i) {
    const int64_t start = NowNs();
    datasets.clear();
    for (int64_t r = 0; r < kRepositories; ++r) {
      datasets.push_back(std::make_unique<data::Dataset>(ManyChunkDataset(
          exec::MultiQueryRunner::JobSeed(options.seed, -1 - r))));
    }
    e2e.setup_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }

  Tracer tracer;
  Tracer* traced = options.trace ? &tracer : nullptr;
  EngineCounts counts;
  std::vector<uint64_t> seeds;
  std::vector<Rerun> queries;
  std::vector<double> gaps_ns;
  const double cpu_start = CpuSeconds(0);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(options.seconds * 1e9);
  int64_t previous_end = start;
  while (NowNs() < end) {
    const int64_t query = static_cast<int64_t>(queries.size());
    const uint64_t seed = exec::MultiQueryRunner::JobSeed(options.seed, query);
    const int64_t query_start = NowNs();
    gaps_ns.push_back(static_cast<double>(query_start - previous_end));
    Rerun q = RunQuery(*datasets[query % kRepositories], seed, 16, traced,
                           query, traced ? &counts.track_frame_ns : nullptr);
    previous_end = NowNs();
    e2e.ttk_seconds.push_back(static_cast<double>(previous_end - query_start) *
                              1e-9);
    e2e.ttfr_seconds.push_back(q.ttfr_seconds);
    seeds.push_back(seed);
    queries.push_back(q);
  }
  e2e.wall_seconds = static_cast<double>(previous_end - start) * 1e-9;
  e2e.cpu_seconds = CpuSeconds(0) - cpu_start;
  e2e.peak_rss_mb = PeakRssMb(0);

  // Checks, outside the timed loop: k distinct true instances per query,
  // and sliced re-runs (Step(7) instead of Step(16)) match bit for bit —
  // every 10th query, or every query in a traced run, where this also
  // proves the traced queries did the untraced work.
  out.attempted = static_cast<int64_t>(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Rerun& q = queries[i];
    if (q.true_instances < kLimit) {
      out.Fail("query " + std::to_string(i) + " found " +
               std::to_string(q.true_instances) + " distinct true instances");
    }
    if (!options.trace && i % 10 != 0) continue;
    const Rerun again =
        RunQuery(*datasets[i % kRepositories], seeds[i], 7, nullptr,
                 static_cast<int64_t>(i), nullptr);
    if (again.fingerprint != q.fingerprint || again.frames != q.frames) {
      out.Fail("query " + std::to_string(i) + " re-run with Step(7) gave " +
               Hex(again.fingerprint) + " after " +
               std::to_string(again.frames) + " frames, not " +
               Hex(q.fingerprint) + " after " + std::to_string(q.frames));
    }
  }

  e2e.queries = static_cast<int64_t>(queries.size());
  for (const Rerun& q : queries) {
    e2e.frames += q.frames;
    e2e.results += q.results;
    e2e.modeled_seconds += q.modeled_seconds;
    counts.frames += q.frames;
    counts.results += q.results;
    counts.true_instances += q.true_instances;
    counts.detections += q.detections;
  }
  counts.queries = e2e.queries;
  CheckLateness(gaps_ns, &out);
  if (!options.trace) {
    SetEndToEnd(e2e, &out);
    return out;
  }
  SetEngineLayers(Summarize(tracer.spans()), counts, &out);
  out.values["data.generate_s"] = Median(e2e.setup_seconds);
  out.values["trace.ttk_p50_ms"] = Quantile(e2e.ttk_seconds, 0.5) * 1e3;
  FinishTrace(options, "scan_flat", {{"engine", &tracer}}, &out);
  return out;
}

}  // namespace e2e
}  // namespace exsample
