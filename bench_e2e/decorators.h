// Bench-side decorators of the public layer interfaces. Each forwards every
// call to the wrapped object and, when given a Tracer, times the layer call
// as a span; with a null Tracer they only forward, so a decorated run does
// the same work in the same order as an undecorated one.

#ifndef EXSAMPLE_BENCH_E2E_DECORATORS_H_
#define EXSAMPLE_BENCH_E2E_DECORATORS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/frame_source.h"
#include "detect/detector.h"
#include "dist/coordinator.h"
#include "trace.h"
#include "track/discriminator.h"

namespace exsample {
namespace e2e {

/// core::FrameSource: NextBatch is the policy pick ("core.pick").
class TracedFrameSource : public core::FrameSource {
 public:
  TracedFrameSource(std::unique_ptr<core::FrameSource> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  int64_t remaining() const override { return inner_->remaining(); }
  std::vector<core::PickedFrame> NextBatch(int64_t want, Rng* rng) override {
    ScopedSpan span(tracer_, "core.pick");
    return inner_->NextBatch(want, rng);
  }
  void OnFeedback(const core::PickedFrame& pick,
                  const track::MatchResult& match) override {
    inner_->OnFeedback(pick, match);
  }
  void OnFrameCost(const core::PickedFrame& pick, double seconds) override {
    inner_->OnFrameCost(pick, seconds);
  }
  const core::ChunkStats* chunk_stats() const override {
    return inner_->chunk_stats();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::FrameSource> inner_;
  Tracer* const tracer_;
};

/// core::MakeFrameSource timed as "core.make_source" (per query: a flat
/// ExSample source builds per-chunk state for every chunk), decorated.
inline std::unique_ptr<core::FrameSource> MakeTracedSource(
    const core::FrameSourceConfig& config, const video::VideoRepository& repo,
    const std::vector<video::Chunk>* chunks, Tracer* tracer) {
  ScopedSpan span(tracer, "core.make_source");
  return std::make_unique<TracedFrameSource>(
      core::MakeFrameSource(config, repo, chunks), tracer);
}

/// detect::ObjectDetector: one "detect" span per frame; counts detections.
class TracedDetector : public detect::ObjectDetector {
 public:
  TracedDetector(std::unique_ptr<detect::ObjectDetector> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::vector<detect::Detection> Detect(video::FrameId frame) override {
    ScopedSpan span(tracer_, "detect");
    std::vector<detect::Detection> dets = inner_->Detect(frame);
    detections_ += static_cast<int64_t>(dets.size());
    return dets;
  }
  double InferenceSeconds() const override {
    return inner_->InferenceSeconds();
  }
  int64_t frames_processed() const override {
    return inner_->frames_processed();
  }
  int64_t detections() const { return detections_; }

 private:
  std::unique_ptr<detect::ObjectDetector> inner_;
  Tracer* const tracer_;
  int64_t detections_ = 0;
};

/// track::Discriminator: "track.match" (GetMatches) and "track.add" (Add)
/// spans. The engine calls the two back to back once per frame; with a
/// `frame_ns` sink the decorator also appends each frame's match + add time.
/// It also notes when the first new result (d0) was found, which is the
/// query's time to first result at frame granularity.
class TracedDiscriminator : public track::Discriminator {
 public:
  TracedDiscriminator(std::unique_ptr<track::Discriminator> inner,
                      Tracer* tracer, std::vector<double>* frame_ns)
      : inner_(std::move(inner)), tracer_(tracer), frame_ns_(frame_ns) {}

  track::MatchResult GetMatches(
      video::FrameId frame,
      const std::vector<detect::Detection>& dets) const override {
    const int64_t start = frame_ns_ != nullptr ? NowNs() : 0;
    track::MatchResult match;
    {
      ScopedSpan span(tracer_, "track.match");
      match = inner_->GetMatches(frame, dets);
    }
    if (frame_ns_ != nullptr) match_ns_ = NowNs() - start;
    if (first_result_ns_ < 0 && !match.d0.empty()) first_result_ns_ = NowNs();
    return match;
  }
  void Add(video::FrameId frame,
           const std::vector<detect::Detection>& dets) override {
    const int64_t start = frame_ns_ != nullptr ? NowNs() : 0;
    {
      ScopedSpan span(tracer_, "track.add");
      inner_->Add(frame, dets);
    }
    if (frame_ns_ != nullptr) {
      frame_ns_->push_back(static_cast<double>(match_ns_ + NowNs() - start));
    }
  }
  int64_t num_distinct() const override { return inner_->num_distinct(); }
  /// NowNs() when GetMatches first returned a new result; -1 before.
  int64_t first_result_ns() const { return first_result_ns_; }

 private:
  std::unique_ptr<track::Discriminator> inner_;
  Tracer* const tracer_;
  std::vector<double>* const frame_ns_;
  mutable int64_t match_ns_ = 0;
  mutable int64_t first_result_ns_ = -1;
};

/// dist::ShardBackend: "dist.open" / "dist.pick" / "dist.stats" /
/// "dist.report" spans parented to the current query's root span (the
/// coordinator calls from its dispatch threads, so the parent is passed
/// explicitly). Also notes when the query's first result arrives and, when
/// asked, keeps every pick's budget and results for the decomposition.
class TracedShardBackend : public dist::ShardBackend {
 public:
  struct RecordedPick {
    int64_t frames = 0;
    std::vector<detect::Detection> results;
  };

  TracedShardBackend(dist::ShardBackend* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Starts a query: resets the first-result clock and the pick log.
  void BeginQuery(int64_t query, int64_t root_span, int32_t num_shards,
                  bool keep_picks) {
    query_ = query;
    root_span_ = root_span;
    first_result_ns_.store(-1, std::memory_order_relaxed);
    keep_picks_ = keep_picks;
    picks_.assign(keep_picks ? static_cast<size_t>(num_shards) : 0, {});
  }
  /// When the first pick reply carrying a result arrived (-1 if none yet).
  int64_t first_result_ns() const {
    return first_result_ns_.load(std::memory_order_relaxed);
  }
  /// Per shard, in call order (BeginQuery(keep_picks = true) only).
  const std::vector<std::vector<RecordedPick>>& picks() const { return picks_; }

  int num_workers() const override { return inner_->num_workers(); }
  int WorkerOf(int32_t shard) const override {
    return inner_->WorkerOf(shard);
  }
  Result<dist::OpenReply> Open(int32_t shard,
                               const dist::ShardSpec& spec) override {
    ScopedSpan span(tracer_, "dist.open", root_span_, query_);
    return inner_->Open(shard, spec);
  }
  Result<dist::PickReply> Pick(int32_t shard, int64_t frames) override {
    Result<dist::PickReply> reply = [&] {
      ScopedSpan span(tracer_, "dist.pick", root_span_, query_);
      return inner_->Pick(shard, frames);
    }();
    if (reply.ok() && !reply.value().new_results.empty()) {
      int64_t none = -1;
      first_result_ns_.compare_exchange_strong(none, NowNs(),
                                               std::memory_order_relaxed);
    }
    // Each shard's calls are serialized by the coordinator, so its slot
    // of picks_ has one writer.
    if (keep_picks_ && reply.ok()) {
      picks_[static_cast<size_t>(shard)].push_back(
          RecordedPick{frames, reply.value().new_results});
    }
    return reply;
  }
  Result<dist::StatsReply> Stats(int32_t shard) override {
    ScopedSpan span(tracer_, "dist.stats", root_span_, query_);
    return inner_->Stats(shard);
  }
  Result<dist::ReportReply> Report(int32_t shard) override {
    ScopedSpan span(tracer_, "dist.report", root_span_, query_);
    return inner_->Report(shard);
  }
  Status Revive(int worker) override { return inner_->Revive(worker); }

 private:
  dist::ShardBackend* const inner_;
  Tracer* const tracer_;
  int64_t query_ = -1;
  int64_t root_span_ = -1;
  std::atomic<int64_t> first_result_ns_{-1};
  bool keep_picks_ = false;
  std::vector<std::vector<RecordedPick>> picks_;
};

}  // namespace e2e
}  // namespace exsample

#endif  // EXSAMPLE_BENCH_E2E_DECORATORS_H_
