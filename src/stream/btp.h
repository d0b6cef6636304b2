#ifndef COCONUT_STREAM_BTP_H_
#define COCONUT_STREAM_BTP_H_

#include <memory>
#include <string>

#include "stream/tp.h"

namespace coconut {
namespace stream {

/// Bounded Temporal Partitioning (BTP, Section 3): temporal partitioning
/// whose partition count stays logarithmic. Every buffer flush seals a
/// size-class-0 partition; whenever `merge_k` partitions share a size
/// class they are sort-merged (sequentially — sortable summarizations at
/// work) into one partition of the next class. Newer data therefore lives
/// in small partitions, older data migrates into large contiguous ones:
/// small windows skip the big partitions like TP, large windows prune
/// within few big sorted runs like PP, and approximate queries touch at
/// most O(log n) partitions.
///
/// Only available over sorted partitions (the whole point); the paper's
/// variant matrix accordingly lists BTP for CLSM/Coconut only.
///
/// With a background pool, the seal AND its merge cascade run as one
/// deferred task on the index's strand, so the sealed partition sequence —
/// and therefore every merge decision — is identical to the synchronous
/// build regardless of pool size (the merge-determinism suite pins this).
/// Queries keep reading the pre-merge snapshot until the swap publishes;
/// input files are unlinked only after publication (open fds keep
/// in-flight scans valid).
class BoundedTemporalPartitioningIndex : public TemporalPartitioningIndex {
 public:
  struct BtpOptions {
    series::SaxConfig sax;
    bool materialized = false;
    size_t buffer_entries = 4096;
    /// Partitions of equal size class that trigger a merge (>= 2).
    int merge_k = 2;
    /// See TemporalPartitioningIndex::Options.
    TimestampPolicy timestamp_policy = TimestampPolicy::kPermissive;
    ThreadPool* background = nullptr;
    size_t max_inflight_seals = 0;
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
    std::function<Status()> seal_test_hook{};
    /// See TemporalPartitioningIndex::Options::wal.
    Wal* wal = nullptr;
  };

  static Result<std::unique_ptr<BoundedTemporalPartitioningIndex>> Create(
      storage::StorageManager* storage, const std::string& prefix,
      const BtpOptions& options, storage::BufferPool* pool,
      core::RawSeriesStore* raw);

  /// Drain here, not just in the base: a background seal calls the
  /// virtual AfterSeal(), which must not race the vptr rewrite during
  /// destruction (Drain is reusable; the base draining again is a no-op).
  ~BoundedTemporalPartitioningIndex() override { core_.Drain(); }

  std::string describe() const override {
    return options_.materialized ? "CLSMFull-BTP" : "CLSM-BTP";
  }

  uint64_t merges_performed() const {
    return SnapshotStats().merges_completed;
  }

  /// Largest size class currently present (0 when no partitions).
  int max_size_class() const;

 protected:
  /// Consolidates equal-sized partitions until no class has merge_k left.
  /// Runs on the strand (async) or inline (sync); serialized with seals.
  Status AfterSeal() override;

  /// The merge-output name sequence rides along in checkpoint manifests so
  /// a recovered index never reuses a name an orphaned file may hold.
  uint64_t ManifestAuxCounter() const override { return next_merge_id_; }
  void RestoreManifestAuxCounter(uint64_t value) override {
    next_merge_id_ = value;
  }

 private:
  BoundedTemporalPartitioningIndex(storage::StorageManager* storage,
                                   std::string prefix, const Options& options,
                                   storage::BufferPool* pool,
                                   core::RawSeriesStore* raw, int merge_k)
      : TemporalPartitioningIndex(storage, std::move(prefix), options, pool,
                                  raw),
        merge_k_(merge_k) {}

  int merge_k_;
  /// Only touched by the (serialized) seal/merge path.
  uint64_t next_merge_id_ = 0;
};

}  // namespace stream
}  // namespace coconut

#endif  // COCONUT_STREAM_BTP_H_
