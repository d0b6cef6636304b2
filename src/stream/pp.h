#ifndef COCONUT_STREAM_PP_H_
#define COCONUT_STREAM_PP_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>

#include "core/index.h"
#include "stream/streaming_index.h"
#include "stream/wal.h"

namespace coconut {
namespace stream {

/// Post-Processing (PP): one monolithic index; window queries examine the
/// timestamp of every encountered entry and discard those outside the
/// window (Section 3). Cheap to maintain, but queries over small windows
/// still pay for the whole structure — there is no partition skipping.
class PostProcessingIndex : public StreamingIndex {
 public:
  /// Wraps any static index (ADS+, CTree or CLSM, materialized or not).
  /// The inner index must already be Finalized if it requires it (CTree).
  explicit PostProcessingIndex(
      std::unique_ptr<core::DataSeriesIndex> inner,
      TimestampPolicy policy = TimestampPolicy::kPermissive)
      : inner_(std::move(inner)), policy_(policy) {}

  Status Ingest(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      COCONUT_RETURN_NOT_OK(
          ApplyTimestampPolicy(policy_, last_timestamp_, &timestamp));
    }
    // Commit the watermark only after the entry is actually admitted — a
    // rejected insert (length mismatch, surfaced background error) must
    // not tighten what kStrict accepts next.
    COCONUT_RETURN_NOT_OK(inner_->Insert(series_id, znorm_values, timestamp));
    std::lock_guard<std::mutex> lock(mu_);
    last_timestamp_ = std::max(last_timestamp_, timestamp);
    return Status::OK();
  }

  Status FlushAll() override { return inner_->Finalize(); }

  Result<core::SearchResult> ApproxSearch(
      std::span<const float> query, const core::SearchOptions& options,
      core::QueryCounters* counters) override {
    // The window rides inside options; every index family filters entry
    // timestamps during evaluation — which *is* post-processing.
    return inner_->ApproxSearch(query, options, counters);
  }

  Result<core::SearchResult> ExactSearch(
      std::span<const float> query, const core::SearchOptions& options,
      core::QueryCounters* counters) override {
    return inner_->ExactSearch(query, options, counters);
  }

  uint64_t num_entries() const override { return inner_->num_entries(); }
  size_t num_partitions() const override { return 1; }
  uint64_t index_bytes() const override { return inner_->index_bytes(); }
  std::string describe() const override { return inner_->describe() + "-PP"; }

  core::DataSeriesIndex* inner() { return inner_.get(); }

  /// Lock-free-readable exactly when the inner structure is: async CLSM
  /// serves queries from epoch-published snapshots, while ADS+/CTree
  /// inners walk live structures and share BufferPool pages.
  bool ConcurrentReadsSafe() const override {
    return inner_->ConcurrentReadsSafe();
  }

  /// Hook for wrappers whose inner index has richer concurrent stats than
  /// the default entries/partitions pair (the factory wires CLSM's
  /// race-free snapshot through here).
  using StatsProvider = std::function<StreamingStats()>;
  void set_stats_provider(StatsProvider provider) {
    stats_provider_ = std::move(provider);
  }

  StreamingStats SnapshotStats() const override {
    if (stats_provider_) return stats_provider_();
    return StreamingIndex::SnapshotStats();
  }

  /// All mutation flows through the inner index (including CLSM's
  /// background cascades), so its stamp is the authoritative one.
  uint64_t snapshot_version() const override {
    return inner_->snapshot_version();
  }

  /// Hook for durable wrappers: the factory wires the inner structure's
  /// own manifest restore (CLSM's run-set rebuild) through here; the
  /// facade adds nothing of its own to a checkpoint.
  using ManifestRestorer = std::function<Status(std::span<const uint8_t>)>;
  void set_manifest_restorer(ManifestRestorer restorer) {
    manifest_restorer_ = std::move(restorer);
  }

  /// The WAL the inner structure appends to (not owned); the facade only
  /// needs it for the CommitDurable ack gate.
  void set_wal(Wal* wal) { wal_ = wal; }

  Status RestoreFromManifest(std::span<const uint8_t> manifest) override {
    if (manifest_restorer_) return manifest_restorer_(manifest);
    return StreamingIndex::RestoreFromManifest(manifest);
  }

  void RestoreWatermark(int64_t timestamp) override {
    std::lock_guard<std::mutex> lock(mu_);
    last_timestamp_ = std::max(last_timestamp_, timestamp);
  }

  Status CommitDurable() override {
    if (wal_ == nullptr) return Status::OK();
    return wal_->Commit();
  }

 private:
  std::unique_ptr<core::DataSeriesIndex> inner_;
  StatsProvider stats_provider_;
  ManifestRestorer manifest_restorer_;
  Wal* wal_ = nullptr;
  TimestampPolicy policy_;
  /// Guards the policy state only; concurrency of the inner index itself
  /// is the inner index's business (CLSM is concurrent, ADS+/CTree are
  /// single-caller).
  std::mutex mu_;
  int64_t last_timestamp_ = INT64_MIN;
};

}  // namespace stream
}  // namespace coconut

#endif  // COCONUT_STREAM_PP_H_
