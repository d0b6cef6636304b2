#ifndef COCONUT_STREAM_TP_H_
#define COCONUT_STREAM_TP_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ads/ads_index.h"
#include "common/thread_pool.h"
#include "core/entry.h"
#include "core/raw_store.h"
#include "seqtable/seq_table.h"
#include "seqtable/table_search.h"
#include "stream/buffered_stream.h"
#include "stream/streaming_index.h"

namespace coconut {
namespace stream {

class Wal;

/// Which structure backs each sealed temporal partition.
enum class PartitionBackend {
  kSeqTable,  ///< Sorted compact partitions ("CTreeTP").
  kAds,       ///< One ADS+ tree per partition ("ADS+TP").
};

/// Temporal Partitioning (TP, Section 3): every time the in-memory buffer
/// fills, its contents are sealed into a new immutable partition tagged
/// with its [min, max] arrival-time range. Window queries touch only
/// partitions whose range intersects the window — small windows skip
/// nearly everything — but partitions accumulate without bound, so large
/// windows pay one probe per partition.
///
/// Ingestion, the pending list, backpressure, the epoch-published read
/// snapshot and the WAL hooks live in the streaming write core
/// (stream::BufferedStream), shared with CLSM; TP supplies the seal step
/// (sort one buffer generation into a SeqTable partition, then BTP's
/// AfterSeal cascade), the checkpoint manifest, and the visit order over
/// its partition set. Readers never take a lock and never block behind a
/// backpressure-stalled producer; every acknowledged entry is visible to
/// the very next query.
///
/// The kAds backend ("ADS+TP", synchronous only) admits into a live ADS+
/// tree instead of the buffer and publishes through the core's EditLive.
/// Without a background pool the index keeps its single-caller contract,
/// but reads go through the same snapshot path.
class TemporalPartitioningIndex : public StreamingIndex {
 public:
  struct Options {
    series::SaxConfig sax;
    bool materialized = false;
    PartitionBackend backend = PartitionBackend::kSeqTable;
    /// Entries buffered before sealing a partition.
    size_t buffer_entries = 4096;
    /// Leaf capacity for kAds partitions.
    size_t ads_leaf_capacity = 1024;
    /// What Ingest does with a timestamp below the max accepted so far.
    TimestampPolicy timestamp_policy = TimestampPolicy::kPermissive;
    /// Background pool for seals and merge cascades (not owned; must
    /// outlive the index). nullptr = synchronous, the classic behaviour.
    /// Requires the kSeqTable backend (a live ADS+ tree cannot be sealed
    /// behind ingestion's back).
    ThreadPool* background = nullptr;
    /// Bounded backpressure: cap on detached-but-unflushed buffers (each
    /// holds up to buffer_entries series in memory). 0 = unbounded, the
    /// pre-cap behaviour. Only meaningful in async mode — a synchronous
    /// index seals inline and never accumulates pending buffers. FlushAll
    /// ignores the cap (a drain must always make progress).
    size_t max_inflight_seals = 0;
    /// What Ingest does at the cap: block until a seal retires, or refuse
    /// the entry with ResourceExhausted.
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
    /// Test seam: runs at the head of every seal task (on the strand in
    /// async mode). Tests throttle it to keep seals in flight, or return
    /// a non-OK status to inject a seal failure. Never set in production.
    std::function<Status()> seal_test_hook{};
    /// Write-ahead log (not owned; must outlive the index). When set,
    /// Ingest records every admission into it (inside the admission
    /// critical section, so log order == admission order) and every
    /// completed seal appends a checkpoint. kSeqTable backend only.
    Wal* wal = nullptr;
  };

  /// Externally visible shape of one sealed partition, for tests and the
  /// server's stats endpoints. Taken from a consistent snapshot.
  struct PartitionInfo {
    std::string name;
    uint64_t entries = 0;
    int size_class = 0;
    int64_t t_min = 0;
    int64_t t_max = 0;
  };

  struct SealedPartition {
    std::shared_ptr<seqtable::SeqTable> table;  // kSeqTable backend.
    std::shared_ptr<ads::AdsIndex> ads;         // kAds backend.
    int64_t t_min = 0;
    int64_t t_max = 0;
    uint64_t entries = 0;
    int size_class = 0;  // Used by the BTP subclass.
    std::string name;
  };
  using Partitions = std::vector<std::shared_ptr<const SealedPartition>>;

  /// The sealed state TP publishes through the write core: immutable once
  /// published (merges swap in a replacement), with its stats mirrors
  /// precomputed so stats reads are pure loads.
  struct PartitionSet {
    Partitions partitions;  // Oldest first.
    /// kAds: the partition being built, live; it mutates in place, so
    /// every admission publishes a fresh set carrying its entry count.
    std::shared_ptr<ads::AdsIndex> live_ads;
    uint64_t live_ads_entries = 0;
    uint64_t entries = 0;  // Partitions plus the live tree.
    uint64_t bytes = 0;    // Partition files plus the live tree's.
  };
  using Core = BufferedStream<PartitionSet>;

  static Result<std::unique_ptr<TemporalPartitioningIndex>> Create(
      storage::StorageManager* storage, const std::string& prefix,
      const Options& options, storage::BufferPool* pool,
      core::RawSeriesStore* raw);

  ~TemporalPartitioningIndex() override;

  Status Ingest(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp) override;
  Status FlushAll() override;
  Result<core::SearchResult> ApproxSearch(
      std::span<const float> query, const core::SearchOptions& options,
      core::QueryCounters* counters) override;
  Result<core::SearchResult> ExactSearch(
      std::span<const float> query, const core::SearchOptions& options,
      core::QueryCounters* counters) override;
  uint64_t num_entries() const override { return core_.num_entries(); }
  size_t num_partitions() const override;
  uint64_t index_bytes() const override;
  std::string describe() const override;
  StreamingStats SnapshotStats() const override;
  Status RestoreFromManifest(std::span<const uint8_t> manifest) override;
  void RestoreWatermark(int64_t timestamp) override {
    core_.RestoreWatermark(timestamp);
  }
  Status CommitDurable() override { return core_.CommitDurable(); }
  uint64_t snapshot_version() const override {
    return core_.snapshot_version();
  }

  bool async() const { return core_.async(); }

  /// Readers are lock-free (epoch-guarded snapshot loads) whenever the
  /// index is async: async mode reads partitions with direct preads (no
  /// shared BufferPool frames), so any number of queries may run against
  /// each other and against Ingest. Sync mode keeps the single-caller
  /// contract (reads share the caller's pool).
  bool ConcurrentReadsSafe() const override { return async(); }

  /// Metadata of every sealed partition, oldest first.
  std::vector<PartitionInfo> SnapshotPartitions() const;

  /// Entries of sealed partition `idx` in stored (key) order — the
  /// merge-determinism suite compares these across thread counts.
  /// kSeqTable partitions only.
  Result<std::vector<core::IndexEntry>> DumpPartitionEntries(size_t idx) const;

  /// Test seam for the epoch-reclamation suite: the raw published
  /// snapshot. Must only be loaded and dereferenced under an
  /// epoch::EpochGuard held for the whole use.
  const Core::Snapshot* snapshot_for_testing() const {
    return core_.snapshot();
  }

 protected:
  TemporalPartitioningIndex(storage::StorageManager* storage,
                            std::string prefix, const Options& options,
                            storage::BufferPool* pool,
                            core::RawSeriesStore* raw);

  /// Pool sealed partitions read through: the caller's pool when
  /// synchronous, nullptr (direct preads) when concurrent queries must not
  /// share cache frames.
  storage::BufferPool* ReadPool() const { return async() ? nullptr : pool_; }

  std::shared_ptr<const PartitionSet> CurrentPartitions() const {
    return core_.sealed();
  }

  /// Publishes `partitions` through the core; `retired` (may be null) is
  /// the pending buffer they absorb.
  void PublishPartitions(Partitions partitions, const PendingBuffer* retired,
                         uint64_t merges_delta);

  /// Hook for BTP: consolidation after a partition is appended. Runs on
  /// the strand (async) or inline (sync); it is the only partition-set
  /// mutator besides the seal step, and the two are serialized.
  virtual Status AfterSeal() { return Status::OK(); }

  /// One extra manifest counter for the subclass (BTP's merge-output name
  /// sequence); TP itself has none.
  virtual uint64_t ManifestAuxCounter() const { return 0; }
  virtual void RestoreManifestAuxCounter(uint64_t value) { (void)value; }

  storage::StorageManager* storage_;
  std::string prefix_;
  Options options_;
  storage::BufferPool* pool_;
  core::RawSeriesStore* raw_;

 private:
  /// The seal step: sorts one pending buffer into a SeqTable partition,
  /// publishes it, then runs AfterSeal.
  Status SealBuffer(const PendingBuffer& pending);

  /// Serializes the partition set, the name/progress counters and the
  /// admit count it covers.
  void EncodeManifest(std::vector<uint8_t>* manifest,
                      uint64_t* durable_entries) const;

  /// kAds, under the core's admission mutex: the live tree's next edge —
  /// republished in place, or (when `seal`) moved into a partition.
  Result<Core::LiveEdit> LiveAdsEdit(const PartitionSet& current, bool seal);

  /// The approximate pass (live tree, unsealed buffers, partitions newest
  /// to oldest) over one view — ApproxSearch's whole body and
  /// ExactSearch's bound-tightening seed, so the two cannot drift.
  Status ApproxPass(const Core::View& view, const seqtable::SearchContext& ctx,
                    const core::SearchOptions& options,
                    seqtable::KnnCollector* best);

  // kAds backend (synchronous only; touched under the core's mutex): the
  // live tree, its arrival-time range and the partition name sequence.
  std::shared_ptr<ads::AdsIndex> live_ads_;
  int64_t live_t_min_ = INT64_MAX;
  int64_t live_t_max_ = INT64_MIN;
  uint64_t next_ads_id_ = 0;

 protected:
  /// Declared last, so destroyed first: its teardown waits out every
  /// reader before any other member dies.
  /// Subclasses overriding AfterSeal call core_.Drain() from their own
  /// destructor, so no seal makes a virtual call during destruction.
  Core core_;
};

}  // namespace stream
}  // namespace coconut

#endif  // COCONUT_STREAM_TP_H_
