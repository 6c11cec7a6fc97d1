#include "workloads.h"

#include <cstdio>

namespace exsample {
namespace e2e {
namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

const LayerTotals* Find(const TraceSummary& summary, const char* name) {
  auto it = summary.layers.find(name);
  return it == summary.layers.end() ? nullptr : &it->second;
}

}  // namespace

void SetEndToEnd(const EndToEnd& e2e, Outcome* out) {
  auto& v = out->values;
  v["setup_s"] = Median(e2e.setup_seconds);
  v["ttfr_p50_ms"] = Quantile(e2e.ttfr_seconds, 0.50) * 1e3;
  v["ttk_p50_ms"] = Quantile(e2e.ttk_seconds, 0.50) * 1e3;
  v["queries_per_s"] =
      Ratio(static_cast<double>(e2e.queries), e2e.wall_seconds);
  v["frames_per_s"] =
      Ratio(static_cast<double>(e2e.frames), e2e.wall_seconds);
  v["cpu_ms_per_query"] =
      Ratio(e2e.cpu_seconds * 1e3, static_cast<double>(e2e.queries));
  v["modeled_s_per_result"] =
      Ratio(e2e.modeled_seconds, static_cast<double>(e2e.results));
  v["peak_rss_mb"] = e2e.peak_rss_mb;
  // Tails stay out of the metric set: over ten seeds the p95 of tcp_short
  // spreads by 0.3-0.5 of its median on a shared 4-vCPU host (wake-up
  // stalls), beyond any usable regression bound.
  out->detail.Set("ttfr_p95_ms", Quantile(e2e.ttfr_seconds, 0.95) * 1e3)
      .Set("ttfr_p99_ms", Quantile(e2e.ttfr_seconds, 0.99) * 1e3)
      .Set("ttk_p95_ms", Quantile(e2e.ttk_seconds, 0.95) * 1e3)
      .Set("ttk_p99_ms", Quantile(e2e.ttk_seconds, 0.99) * 1e3);
  out->detail
      .Set("latency_sample", static_cast<int64_t>(e2e.ttk_seconds.size()))
      .Set("ttfr_sample", static_cast<int64_t>(e2e.ttfr_seconds.size()))
      .Set("setup_samples", static_cast<int64_t>(e2e.setup_seconds.size()))
      .Set("queries", e2e.queries)
      .Set("wall_seconds", e2e.wall_seconds);
}

void SetEngineLayers(const TraceSummary& engine_spans,
                     const EngineCounts& counts, Outcome* out) {
  auto& v = out->values;
  const double frames = static_cast<double>(counts.frames);
  if (const LayerTotals* pick = Find(engine_spans, "core.pick")) {
    v["core.pick_us.p50"] = Quantile(pick->durations_ns, 0.50) * 1e-3;
    v["core.pick_us.p99"] = Quantile(pick->durations_ns, 0.99) * 1e-3;
    v["core.pick.share"] = Ratio(pick->attributed_ns, engine_spans.root_ns);
  }
  if (const LayerTotals* make = Find(engine_spans, "core.make_source")) {
    v["core.make_source_us.per_query"] =
        Ratio(make->self_ns * 1e-3, static_cast<double>(make->count));
  }
  double root_self_ns = 0.0;
  for (const char* root : {"query", "shard"}) {
    if (const LayerTotals* layer = Find(engine_spans, root)) {
      root_self_ns += layer->self_ns;
    }
  }
  v["core.engine.self_us.per_frame"] = Ratio(root_self_ns * 1e-3, frames);
  v["core.frames.per_result"] =
      Ratio(frames, static_cast<double>(counts.results));
  if (const LayerTotals* detect = Find(engine_spans, "detect")) {
    v["detect.detect_us.per_frame"] = Ratio(detect->self_ns * 1e-3, frames);
  }
  v["detect.dets.per_frame"] =
      Ratio(static_cast<double>(counts.detections), frames);
  v["track.match_us.per_frame.p50"] =
      Quantile(counts.track_frame_ns, 0.50) * 1e-3;
  v["track.match_us.per_frame.p99"] =
      Quantile(counts.track_frame_ns, 0.99) * 1e-3;
  double track_ns = 0.0;
  for (const char* name : {"track.match", "track.add"}) {
    if (const LayerTotals* layer = Find(engine_spans, name)) {
      track_ns += layer->attributed_ns;
    }
  }
  v["track.share"] = Ratio(track_ns, engine_spans.root_ns);
  v["track.results.per_true_instance"] =
      Ratio(static_cast<double>(counts.results),
            static_cast<double>(counts.true_instances));
  v["trace.decomposed_queries"] = static_cast<double>(counts.queries);
}

void CheckLateness(const std::vector<double>& late_ns, Outcome* out) {
  const double late_p99_us = Quantile(late_ns, 0.99) * 1e-3;
  out->values["gen.late_us.p99"] = late_p99_us;
  out->detail.Set("gen_late_us_p99", late_p99_us);
  if (late_p99_us > 2000.0) {
    out->late = true;
    char message[160];
    std::snprintf(message, sizeof(message),
                  "load generator ran late (p99 %.0f us > 2000 us): the "
                  "run is invalid",
                  late_p99_us);
    out->Fail(message);
  }
}

void FinishTrace(const RunOptions& options, const std::string& workload,
                 const std::vector<std::pair<std::string, const Tracer*>>&
                     phases,
                 Outcome* out) {
  double root_ns = 0.0;
  double attributed_ns = 0.0;
  Json written = Json::Array();
  for (const auto& [phase, tracer] : phases) {
    const TraceSummary summary = Summarize(tracer->spans());
    root_ns += summary.root_ns;
    attributed_ns += summary.attributed_ns;
    const std::string name = "trace_" + workload + "_" + phase + ".json";
    const std::string path = options.out_dir + "/" + name;
    if (WriteSpans(tracer->spans(), path)) {
      written.Append(name);
    } else {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    }
  }
  const double accounted = Ratio(attributed_ns, root_ns);
  out->values["trace.accounted_frac"] = accounted;
  out->detail.Set("trace_files", std::move(written));
  if (accounted < 0.9 || accounted > 1.1) {
    out->Fail("layer self times account for " + std::to_string(accounted) +
              " of the traced wall time (want within 10%)");
  }
}

}  // namespace e2e
}  // namespace exsample
