#ifndef COCONUT_STREAM_STREAMING_INDEX_H_
#define COCONUT_STREAM_STREAMING_INDEX_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/types.h"

namespace coconut {
namespace stream {

/// What Ingest does when a timestamp arrives below the largest timestamp
/// accepted so far (the documented stream-order contract).
enum class TimestampPolicy {
  /// Accept out-of-order timestamps as-is. Partition [t_min, t_max]
  /// metadata tracks the true range, so answers stay exact; the cost is
  /// temporally overlapping partitions that window pruning cannot skip.
  /// This is how real sensor feeds behave and the default.
  kPermissive,
  /// Reject regressions: Ingest returns InvalidArgument and the series is
  /// not admitted. Equal timestamps are fine (non-decreasing contract).
  kStrict,
  /// Clamp regressions up to the largest timestamp accepted so far; the
  /// series is admitted under the clamped (non-decreasing) timestamp.
  kClamp,
};

/// The one timestamp-policy check: applies `policy` to `*timestamp`
/// against `watermark`, the largest timestamp accepted so far. kStrict
/// refuses a regression with a wire-stable message, kClamp raises it to
/// the watermark, kPermissive leaves it. The caller commits the watermark
/// only once the entry is admitted.
inline Status ApplyTimestampPolicy(TimestampPolicy policy, int64_t watermark,
                                   int64_t* timestamp) {
  if (*timestamp >= watermark || policy == TimestampPolicy::kPermissive) {
    return Status::OK();
  }
  if (policy == TimestampPolicy::kStrict) {
    return Status::InvalidArgument(
        "timestamp regression rejected by kStrict policy");
  }
  *timestamp = watermark;
  return Status::OK();
}

/// What Ingest does when the index has hit its bounded-backpressure cap
/// (VariantSpec::max_inflight_seals): every detached-but-unflushed buffer
/// holds up to buffer_entries series in memory, so without a bound a
/// producer outrunning the background flusher grows memory without limit.
enum class BackpressurePolicy {
  /// Ingest blocks until a background seal retires (the default): the
  /// producer is paced to the flusher and no entry is ever refused.
  kBlock,
  /// Ingest returns ResourceExhausted without admitting the entry; the
  /// caller retries (HTTP clients see a structured resource_exhausted
  /// ApiError / 429). Subsequent ingests succeed once a seal retires.
  kReject,
};

/// The stall/reject bookkeeping and blocking wait of the streaming write
/// core (stream::BufferedStream), which gates TP/BTP and CLSM admissions
/// on its one pending-buffer list. The gate owns no lock: Block waits on
/// the core's admission mutex, and the core calls Notify() — still under
/// that mutex — whenever a pending buffer retires or a seal records an
/// error, so a blocked producer always wakes. Writers (Block/Reject) are
/// serialized by that mutex, but all *reads* (stalls/rejects/samples/
/// percentiles) are lock-free: the counters are atomic and the sample
/// window is a fixed array of atomic doubles, so stats snapshots never
/// queue behind a backpressure-blocked ingest holding the admission path.
class BackpressureGate {
 public:
  /// Counts and returns the structured refusal (one wire-stable message
  /// shape across index families).
  Status Reject(size_t pending, size_t cap) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "ingest rejected: " + std::to_string(pending) +
        " seals in flight >= max_inflight_seals (" + std::to_string(cap) +
        "); retry after the stream drains");
  }

  /// Counts a stall, waits on the owner's mutex until `done` holds (the
  /// owner's "pending below cap OR background error" predicate), and
  /// records the stall duration into the bounded percentile window.
  template <typename Pred>
  void Block(std::unique_lock<std::mutex>* lock, Pred done) {
    stalls_.fetch_add(1, std::memory_order_relaxed);
    WallTimer stall;
    cv_.wait(*lock, std::move(done));
    const size_t count = sample_count_.load(std::memory_order_relaxed);
    const size_t slot = count < kSampleWindow ? count : next_;
    samples_[slot].store(stall.ElapsedMillis(), std::memory_order_relaxed);
    if (count < kSampleWindow) {
      sample_count_.store(count + 1, std::memory_order_release);
    } else {
      next_ = (next_ + 1) % kSampleWindow;
    }
  }

  /// Wakes blocked producers; owner calls this under its state mutex.
  void Notify() { cv_.notify_all(); }

  uint64_t stalls() const { return stalls_.load(std::memory_order_relaxed); }
  uint64_t rejects() const { return rejects_.load(std::memory_order_relaxed); }

  /// Copy of the bounded stall-sample window — lock-free, callable while a
  /// producer is blocked in Block(). A sample being overwritten
  /// concurrently reads as either the old or the new stall duration
  /// (atomic per slot), which is fine for a percentile estimate. Feeds
  /// StreamingStats::stall_samples so cross-shard aggregation can merge
  /// sample multisets instead of percentile scalars.
  std::vector<double> SnapshotSamples() const {
    const size_t count = sample_count_.load(std::memory_order_acquire);
    std::vector<double> out(count);
    for (size_t i = 0; i < count; ++i) {
      out[i] = samples_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Percentile over the recorded stall window (0 when nothing stalled).
  double StallPercentileMs(double p) const {
    std::vector<double> sorted = SnapshotSamples();
    if (sorted.empty()) return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const size_t idx =
        static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
  }

 private:
  /// Stall samples kept for the p50/p99 estimate: large enough that one
  /// burst does not wash the window out, small enough to sort in a stats
  /// snapshot without a visible pause.
  static constexpr size_t kSampleWindow = 256;

  std::condition_variable cv_;
  std::atomic<uint64_t> stalls_{0};
  std::atomic<uint64_t> rejects_{0};
  std::array<std::atomic<double>, kSampleWindow> samples_{};
  /// Grows 0..kSampleWindow then sticks; release-published after the slot
  /// write so a reader never sees count cover an unwritten slot.
  std::atomic<size_t> sample_count_{0};
  /// Overwrite cursor once the window is full; owner's mutex serializes
  /// writers, so plain.
  size_t next_ = 0;
};

/// Consistent view of a streaming index's progress, safe to read while
/// other threads ingest and background tasks seal/merge. Lock-free: served
/// from the index's epoch-published snapshot plus atomic gate counters, so
/// it never waits behind a backpressure-blocked producer.
struct StreamingStats {
  /// Entries acknowledged by Ingest (buffered + in-flight + sealed).
  uint64_t entries = 0;
  /// Entries still in the in-memory ingest buffer.
  uint64_t buffered = 0;
  /// Sealed partitions currently queryable.
  uint64_t sealed_partitions = 0;
  /// Background seals/flushes/merge-cascades enqueued but not finished.
  uint64_t pending_tasks = 0;
  /// Buffer seals / memtable flushes completed since creation.
  uint64_t seals_completed = 0;
  /// Partition/run merges completed since creation.
  uint64_t merges_completed = 0;
  /// Buffers detached from the ingest path but not yet flushed — the
  /// quantity max_inflight_seals bounds. Today this equals pending_tasks
  /// for every producer (both read the pending list), but it is named
  /// separately on the wire because it is *defined* as the bounded
  /// quantity: pending_tasks may later grow to count non-seal background
  /// work (e.g. standalone compactions) that the cap does not cover.
  uint64_t seals_inflight = 0;
  /// Times Ingest blocked on the seal cap (BackpressurePolicy::kBlock).
  uint64_t ingest_stalls = 0;
  /// Times Ingest returned ResourceExhausted (BackpressurePolicy::kReject).
  uint64_t ingest_rejects = 0;
  /// Stall-duration percentiles over the most recent stalls, in
  /// milliseconds (0 when nothing ever stalled).
  double stall_ms_p50 = 0.0;
  double stall_ms_p99 = 0.0;
  /// The bounded stall-sample window the percentiles were computed from
  /// (up to BackpressureGate's window per index). Carried so Add() can
  /// merge the underlying multisets: a max of per-shard p50s is not the
  /// p50 of anything, but a percentile over the pooled samples is the
  /// exact percentile of the pooled window.
  std::vector<double> stall_samples;

  /// Percentile over an unsorted sample vector using the same nearest-rank
  /// convention as BackpressureGate::StallPercentileMs (index p*(n-1) of
  /// the sorted samples); 0 when empty.
  static double PercentileMs(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t idx =
        static_cast<size_t>(p * static_cast<double>(samples.size() - 1));
    return samples[idx];
  }

  /// Folds another snapshot in (the cross-shard gather): counts sum;
  /// stall-sample windows concatenate and the percentile fields are
  /// recomputed over the pooled multiset, so the aggregate p50/p99 is the
  /// true percentile of the merged window — per-shard exact percentiles
  /// stay available shard by shard.
  void Add(const StreamingStats& other) {
    entries += other.entries;
    buffered += other.buffered;
    sealed_partitions += other.sealed_partitions;
    pending_tasks += other.pending_tasks;
    seals_completed += other.seals_completed;
    merges_completed += other.merges_completed;
    seals_inflight += other.seals_inflight;
    ingest_stalls += other.ingest_stalls;
    ingest_rejects += other.ingest_rejects;
    stall_samples.insert(stall_samples.end(), other.stall_samples.begin(),
                         other.stall_samples.end());
    stall_ms_p50 = PercentileMs(stall_samples, 0.50);
    stall_ms_p99 = PercentileMs(stall_samples, 0.99);
  }
};

/// Facade over the streaming schemes of Section 3 (PP, TP, BTP): the read
/// interface (core::IndexReader) plus ingestion, the drain barrier, stats
/// and the write-ahead-log hooks. Values in each temporal window are
/// treated as time-ordered sequences: series arrive with timestamps, and
/// queries carry a window of interest in SearchOptions.window.
///
/// Threading: implementations created with a background pool are
/// concurrent — one thread may Ingest while any number of threads query;
/// seals and merges run on the pool and queries execute against immutable
/// snapshots of the sealed partition set (ConcurrentReadsSafe). Without a
/// background pool the index is single-caller, exactly as before.
class StreamingIndex : public core::IndexReader {
 public:
  /// Ingests one z-normalized series stamped `timestamp`. Timestamps are
  /// expected to be non-decreasing across calls (stream order); what
  /// happens when they are not is governed by the index's TimestampPolicy
  /// (see above — never silent misordering: permissive tracking, rejection,
  /// or clamping, each documented and pinned by tests).
  virtual Status Ingest(uint64_t series_id,
                        std::span<const float> znorm_values,
                        int64_t timestamp) = 0;

  /// Drain barrier: seals any in-memory buffer and blocks until every
  /// deferred seal, flush and merge cascade has completed. Afterwards the
  /// index answers queries identically to one built synchronously over the
  /// same input, and the first error any background task hit is returned.
  virtual Status FlushAll() = 0;

  /// Sealed partitions currently held (1 for PP's monolithic index).
  virtual size_t num_partitions() const = 0;

  /// The default serves indexes with no queryable state to version.
  uint64_t snapshot_version() const override { return 0; }

  /// Race-free progress snapshot; the base implementation covers
  /// single-threaded wrappers whose accessors are already consistent.
  virtual StreamingStats SnapshotStats() const {
    StreamingStats stats;
    stats.entries = num_entries();
    stats.sealed_partitions = num_partitions();
    return stats;
  }

  // ---- durability hooks (write-ahead logging; see stream/wal.h). The
  // defaults keep non-durable indexes and wrappers untouched.

  /// Rebuilds the sealed-partition state a checkpoint manifest describes
  /// (partition/run files on disk, counters, deterministic name
  /// sequences). Called once, on an empty index, before WAL replay.
  virtual Status RestoreFromManifest(std::span<const uint8_t> manifest) {
    (void)manifest;
    return Status::NotSupported(describe() +
                                " does not support manifest restore");
  }

  /// Seeds the timestamp-policy watermark with the max timestamp among
  /// entries recovery did NOT replay through Ingest (manifest-restored and
  /// truncated-away admits), so strict/clamp semantics survive a restart.
  virtual void RestoreWatermark(int64_t timestamp) { (void)timestamp; }

  /// Makes every record buffered in the index's write-ahead log(s)
  /// durable — the acknowledgement gate for a durable stream. The sharded
  /// wrapper fans this out to its per-shard logs; an index without a WAL
  /// returns OK. Runs on the admission thread, after the batch.
  virtual Status CommitDurable() { return Status::OK(); }
};

}  // namespace stream
}  // namespace coconut

#endif  // COCONUT_STREAM_STREAMING_INDEX_H_
