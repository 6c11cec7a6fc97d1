#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace exsample {
namespace e2e {

const std::vector<MetricDef> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"ttfr_p50_ms", "ms"},
    {"ttk_p50_ms", "ms"},
    {"queries_per_s", "1/s"},
    {"frames_per_s", "1/s"},
    {"cpu_ms_per_query", "ms"},
    {"modeled_s_per_result", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayerMetrics = {
    {"core.pick_us.p50", "us"},
    {"core.pick_us.p99", "us"},
    {"core.pick.share", "frac"},
    {"core.make_source_us.per_query", "us"},
    {"core.engine.self_us.per_frame", "us"},
    {"core.frames.per_result", "count"},
    {"detect.detect_us.per_frame", "us"},
    {"detect.dets.per_frame", "count"},
    {"track.match_us.per_frame.p50", "us"},
    {"track.match_us.per_frame.p99", "us"},
    {"track.share", "frac"},
    {"track.results.per_true_instance", "ratio"},
    {"data.generate_s", "s"},
    {"gen.late_us.p99", "us"},
    {"trace.ttk_p50_ms", "ms"},
    {"trace.accounted_frac", "frac"},
    {"trace.decomposed_queries", "count"},
    {"net.open_rtt.p50", "us/open"},
    {"net.poll_rtt.p50", "us/poll"},
    {"net.poll_rtt.p99", "us/poll"},
    {"net.reply_bytes.per_poll", "B/poll"},
    {"net.requests.per_query", "count"},
    {"net.rtt.share", "frac"},
    {"serve.protocol.open.p50", "us/open"},
    {"serve.protocol.poll.p50", "us/poll"},
    {"serve.protocol.poll.p99", "us/poll"},
    {"util.json.parse", "ns/B"},
    {"util.json.dump", "ns/B"},
    {"serve.scheduler.server_ttfr.p50", "us/session"},
    {"serve.scheduler.server_ttfr.p99", "us/session"},
    {"serve.scheduler.wait.p50", "us/session"},
    {"serve.scheduler.wait.p99", "us/session"},
    {"serve.scheduler.slice.mean", "us/slice"},
    {"serve.scheduler.slices.per_query", "count"},
    {"exec.pipeline.detect_starved.per_batch", "count"},
    {"exec.pipeline.frames.per_detect_batch", "count"},
    {"exec.pipeline.wasted_decode.frac", "frac"},
    {"dist.rpc.p50", "us/rpc"},
    {"dist.rpc.p99", "us/rpc"},
    {"dist.wire_json", "us/rpc"},
    {"dist.coord_self", "us/round"},
    {"dist.rounds.per_query", "count"},
    {"dist.retries.per_query", "count"},
};

int Finish(const Outcome& outcome, bool traced) {
  std::vector<std::string> errors = outcome.errors;
  if (outcome.failed > 0) {
    errors.push_back(std::to_string(outcome.failed) + " of " +
                     std::to_string(outcome.attempted) + " requests failed");
  }
  if (outcome.attempted < 1) errors.push_back("no query was attempted");
  const std::vector<MetricDef>& table =
      traced ? kPerLayerMetrics : kEndToEndMetrics;
  Json metrics = Json::Object();
  for (const MetricDef& def : table) {
    if (!errors.empty()) break;  // a failed run measured nothing to check
    auto it = outcome.values.find(def.name);
    const double value = it == outcome.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value) || (!traced && value <= 0.0)) {
      errors.push_back(std::string("metric ") + def.name +
                       " was not measured");
    }
    metrics.Set(def.name,
                Json::Object().Set("value", value).Set("unit", def.unit));
  }
  if (!errors.empty()) {
    std::fprintf(stderr, "bench_e2e: %s\n", outcome.detail.Dump().c_str());
    for (const std::string& error : errors) {
      std::fprintf(stderr, "bench_e2e: check failed: %s\n", error.c_str());
    }
    return 1;
  }
  std::printf("%s\n",
              Json::Object().Set("detail", outcome.detail).Dump().c_str());
  std::printf("%s\n", Json::Object()
                          .Set("correct", true)
                          .Set("attempted", outcome.attempted)
                          .Set("failed", outcome.failed)
                          .Set("metrics", std::move(metrics))
                          .Dump()
                          .c_str());
  std::fflush(stdout);
  return 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(position);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

void Fingerprint::Fold(uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    hash_ ^= (v >> (8 * b)) & 0xff;
    hash_ *= 1099511628211ULL;
  }
}

void Fingerprint::Add(int64_t frame, double score, double x, double y,
                      double w, double h) {
  Fold(static_cast<uint64_t>(frame));
  for (double v : {score, x, y, w, h}) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Fold(bits);
  }
}

std::string Hex(uint64_t v) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

double CpuSeconds(pid_t pid) {
  if (pid == 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) +
             static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
  }
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace e2e
}  // namespace exsample
