// dist_local: back-to-back distributed queries (closed loop), one
// dist::Coordinator at a time over an in-process dist::LocalShardBackend
// with 4 workers and 8 logical shards. Every pick is a full JSON round trip
// through dist::WorkerState plus a coordinator merge and a per-round
// dispatch thread per worker, so the dist, wire and json path dominates;
// net and the serve scheduler do no work.

#include <memory>
#include <string>
#include <vector>

#include "decompose.h"
#include "decorators.h"
#include "dist/coordinator.h"
#include "dist/wire.h"
#include "exec/multi_query_runner.h"
#include "workloads.h"

namespace exsample {
namespace e2e {
namespace {

constexpr char kPreset[] = "dashcam";
constexpr char kClass[] = "bicycle";
constexpr double kScale = 0.5;
constexpr int kWorkers = 4;
constexpr int32_t kShards = 8;
constexpr int64_t kLimit = 300;
/// In-process clusters per run, each with its own repository and shard
/// streams (its backend seed); queries take them in turn, so a run's
/// numbers average over repositories rather than hinge on one.
constexpr int64_t kClusters = 8;
/// Traced runs keep every pick of one query in this many for the
/// decomposition (a query is ~9k frames; all of them would be ~30 spans
/// per millisecond of run).
constexpr int64_t kDecomposeEvery = 200;

dist::CoordinatorOptions QueryOptions(uint64_t coordinator_seed) {
  dist::CoordinatorOptions options;
  options.shard.preset = kPreset;
  options.shard.class_name = kClass;
  options.shard.scale = kScale;
  options.num_shards = kShards;
  options.seed = coordinator_seed;
  options.result_limit = kLimit;
  options.frames_per_pick = 256;
  options.picks_per_round = 4;
  return options;
}

std::unique_ptr<dist::LocalShardBackend> MakeBackend(int workers,
                                                     uint64_t seed) {
  dist::LocalShardBackend::Options options;
  options.num_workers = workers;
  options.seed = seed;
  options.default_scale = kScale;
  return std::make_unique<dist::LocalShardBackend>(options);
}

uint64_t ClusterSeed(uint64_t seed, int64_t cluster) {
  return exec::MultiQueryRunner::JobSeed(seed, -1 - cluster);
}

uint64_t ResultsFingerprint(const std::vector<detect::Detection>& results) {
  Fingerprint fingerprint;
  for (const detect::Detection& d : results) fingerprint.Add(d);
  return fingerprint.value();
}

struct DistQuery {
  int64_t cluster = 0;
  uint64_t coordinator_seed = 0;
  uint64_t fingerprint = 0;
  int64_t rounds = 0;
  int64_t retries = 0;
  /// Per shard, the recorded picks (decomposed queries only).
  std::vector<std::vector<TracedShardBackend::RecordedPick>> picks;
};

}  // namespace

Outcome RunDistLocal(const RunOptions& options) {
  Outcome out;
  EndToEnd e2e;
  // Set-up: every cluster's backend with its workers, and the repository
  // they share (generated on the first dist.open).
  std::vector<std::unique_ptr<dist::LocalShardBackend>> backends;
  for (int i = 0; i < 7; ++i) {
    const int64_t start = NowNs();
    backends.clear();
    for (int64_t k = 0; k < kClusters; ++k) {
      backends.push_back(MakeBackend(kWorkers, ClusterSeed(options.seed, k)));
      dist::ShardSpec spec = QueryOptions(0).shard;
      spec.num_shards = kShards;
      auto opened = backends.back()->Open(0, spec);
      auto reported =
          opened.ok() ? backends.back()->Report(0) : opened.status();
      if (!reported.ok()) {
        out.Fail("set-up dist.open failed: " + reported.status().ToString());
        return out;
      }
    }
    e2e.setup_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }

  Tracer tracer;
  Tracer* traced = options.trace ? &tracer : nullptr;
  std::vector<std::unique_ptr<TracedShardBackend>> decorated;
  for (auto& backend : backends) {
    decorated.push_back(
        std::make_unique<TracedShardBackend>(backend.get(), traced));
  }
  std::vector<DistQuery> queries;
  std::vector<double> gaps_ns;
  const double cpu_start = CpuSeconds(0);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(options.seconds * 1e9);
  int64_t previous_end = start;
  while (NowNs() < end) {
    const int64_t query = static_cast<int64_t>(queries.size());
    DistQuery q;
    q.cluster = query % kClusters;
    q.coordinator_seed = exec::MultiQueryRunner::JobSeed(options.seed, query);
    TracedShardBackend& backend = *decorated[static_cast<size_t>(q.cluster)];
    const bool keep_picks = traced != nullptr && query % kDecomposeEvery == 0;
    const int64_t query_start = NowNs();
    gaps_ns.push_back(static_cast<double>(query_start - previous_end));
    Result<dist::CoordinatorResult> run = [&] {
      ScopedSpan root(traced, "query", -1, query);
      backend.BeginQuery(query, root.id(), kShards, keep_picks);
      dist::Coordinator coordinator(&backend,
                                    QueryOptions(q.coordinator_seed));
      return coordinator.Run();
    }();
    previous_end = NowNs();
    ++out.attempted;
    if (!run.ok()) {
      ++out.failed;
      out.Fail("query " + std::to_string(query) + ": " +
               run.status().ToString());
      break;
    }
    const dist::CoordinatorResult& r = run.value();
    if (r.stop_reason != "limit" ||
        static_cast<int64_t>(r.results.size()) != kLimit) {
      out.Fail("query " + std::to_string(query) + " stopped on '" +
               r.stop_reason + "' with " + std::to_string(r.results.size()) +
               " results");
    }
    e2e.ttk_seconds.push_back(static_cast<double>(previous_end - query_start) *
                              1e-9);
    e2e.ttfr_seconds.push_back(
        static_cast<double>(backend.first_result_ns() - query_start) * 1e-9);
    e2e.frames += r.frames_processed;
    e2e.results += static_cast<int64_t>(r.results.size());
    e2e.modeled_seconds += r.cost_seconds;
    q.fingerprint = ResultsFingerprint(r.results);
    q.rounds = r.rounds;
    q.retries = r.retries;
    if (keep_picks) q.picks = backend.picks();
    queries.push_back(std::move(q));
  }
  e2e.wall_seconds = static_cast<double>(previous_end - start) * 1e-9;
  e2e.cpu_seconds = CpuSeconds(0) - cpu_start;
  e2e.peak_rss_mb = PeakRssMb(0);
  e2e.queries = static_cast<int64_t>(queries.size());

  // Every 10th query again on a 1-worker backend: logical shards make the
  // results independent of the worker count.
  std::vector<std::unique_ptr<dist::LocalShardBackend>> single(kClusters);
  for (size_t i = 0; i < queries.size() && out.errors.empty(); i += 10) {
    auto& backend = single[static_cast<size_t>(queries[i].cluster)];
    if (backend == nullptr) {
      backend = MakeBackend(1, ClusterSeed(options.seed, queries[i].cluster));
    }
    dist::Coordinator coordinator(backend.get(),
                                  QueryOptions(queries[i].coordinator_seed));
    auto run = coordinator.Run();
    if (!run.ok() ||
        ResultsFingerprint(run.value().results) != queries[i].fingerprint) {
      out.Fail("query " + std::to_string(i) +
               " on a 1-worker backend did not reproduce " +
               Hex(queries[i].fingerprint));
    }
  }
  CheckLateness(gaps_ns, &out);
  if (!options.trace) {
    SetEndToEnd(e2e, &out);
    return out;
  }

  // Decomposition: each kept query's shard sessions re-run in-process from
  // their recorded pick budgets must reproduce every pick's results.
  Tracer engine_tracer;
  EngineCounts counts;
  std::vector<std::unique_ptr<DatasetCache>> datasets(kClusters);
  int64_t rpcs = 0;
  double wire_ns = 0.0, parse_ns = 0.0, dump_ns = 0.0, wire_bytes = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].picks.empty()) continue;
    ++counts.queries;
    const int64_t k = queries[i].cluster;
    const uint64_t cluster_seed = ClusterSeed(options.seed, k);
    auto& cache = datasets[static_cast<size_t>(k)];
    if (cache == nullptr) cache = std::make_unique<DatasetCache>(cluster_seed);
    const data::Dataset* dataset = cache->Get(kPreset, kScale);
    for (int32_t s = 0; s < kShards; ++s) {
      const auto& picks = queries[i].picks[static_cast<size_t>(s)];
      if (picks.empty()) continue;
      std::vector<int64_t> budgets;
      for (const auto& pick : picks) budgets.push_back(pick.frames);
      std::vector<uint64_t> fingerprints;
      Rerun rerun;
      RerunShard(*dataset, kClass, s, kShards, cluster_seed, budgets,
                 &engine_tracer, static_cast<int64_t>(i),
                 &counts.track_frame_ns, &fingerprints, &rerun);
      counts.frames += rerun.frames;
      counts.results += rerun.results;
      counts.true_instances += rerun.true_instances;
      counts.detections += rerun.detections;
      for (size_t p = 0; p < picks.size(); ++p) {
        if (fingerprints[p] != ResultsFingerprint(picks[p].results)) {
          out.Fail("query " + std::to_string(i) + " shard " +
                   std::to_string(s) + " pick " + std::to_string(p) +
                   ": decomposition does not reproduce the pick's results");
        }
        // The wire cost of the recorded reply, re-encoded and re-parsed
        // the way LocalShardBackend round-trips every reply.
        dist::PickReply reply;
        reply.new_results = picks[p].results;
        const int64_t t0 = NowNs();
        const std::string text = dist::PickReplyJson(reply, 0).Dump();
        const int64_t t1 = NowNs();
        auto parsed = Json::Parse(text);
        const int64_t t2 = NowNs();
        if (parsed.ok()) {
          ++rpcs;
          dump_ns += static_cast<double>(t1 - t0);
          parse_ns += static_cast<double>(t2 - t1);
          wire_ns += static_cast<double>(t2 - t0);
          wire_bytes += static_cast<double>(text.size());
        }
      }
    }
  }
  SetEngineLayers(Summarize(engine_tracer.spans()), counts, &out);

  const TraceSummary live = Summarize(tracer.spans());
  auto& v = out.values;
  int64_t rounds = 0, retries = 0;
  for (const DistQuery& q : queries) {
    rounds += q.rounds;
    retries += q.retries;
  }
  if (auto it = live.layers.find("dist.pick"); it != live.layers.end()) {
    v["dist.rpc.p50"] = Quantile(it->second.durations_ns, 0.5) * 1e-3;
    v["dist.rpc.p99"] = Quantile(it->second.durations_ns, 0.99) * 1e-3;
  }
  if (auto it = live.layers.find("query"); it != live.layers.end()) {
    v["dist.coord_self"] =
        rounds > 0 ? it->second.self_ns * 1e-3 / static_cast<double>(rounds)
                   : 0.0;
  }
  const double n = static_cast<double>(queries.size());
  v["dist.rounds.per_query"] = static_cast<double>(rounds) / n;
  v["dist.retries.per_query"] = static_cast<double>(retries) / n;
  if (rpcs > 0) {
    v["dist.wire_json"] = wire_ns * 1e-3 / static_cast<double>(rpcs);
    v["util.json.parse"] = parse_ns / wire_bytes;
    v["util.json.dump"] = dump_ns / wire_bytes;
  }
  double generate_seconds = 0.0;
  for (const auto& cache : datasets) {
    if (cache != nullptr) generate_seconds += cache->generate_seconds();
  }
  v["data.generate_s"] = generate_seconds;
  v["trace.ttk_p50_ms"] = Quantile(e2e.ttk_seconds, 0.5) * 1e3;
  FinishTrace(options, "dist_local",
              {{"coordinator", &tracer}, {"engine", &engine_tracer}}, &out);
  return out;
}

}  // namespace e2e
}  // namespace exsample
