#ifndef COCONUT_STREAM_BUFFERED_STREAM_H_
#define COCONUT_STREAM_BUFFERED_STREAM_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "seqtable/table_search.h"
#include "stream/buffer_gen.h"
#include "stream/epoch.h"
#include "stream/streaming_index.h"

namespace coconut {
namespace stream {

class Wal;

/// The option checks every buffered stream shares; `family` ("TP", "BTP",
/// "CLSM") names the structure in the raw-store message.
Status ValidateStreamOptions(const series::SaxConfig& sax,
                             size_t buffer_entries, bool materialized,
                             const core::RawSeriesStore* raw,
                             const std::string& family);

/// A buffer generation moved out of the ingest path, waiting for (or
/// undergoing) its seal. The generation is immutable from detach (count
/// frozen), so queries evaluate it without copying.
struct PendingBuffer {
  std::shared_ptr<const BufferGen> gen;
  size_t count = 0;
  int64_t t_min = 0;  // Arrival-time range of the entries.
  int64_t t_max = 0;
  uint64_t seq = 0;   // Detach ordinal (TP names its partition after it).

  std::span<const core::IndexEntry> entries() const {
    return gen->EntrySpan(count);
  }
  std::span<const float> payloads() const { return gen->PayloadSpan(count); }
  /// Entry indices in key order: the sort that turns a buffer into a run.
  std::vector<size_t> KeyOrder() const;
};

/// The streaming write core of TP/BTP and CLSM, which Coconut presents as
/// one design: buffer the stream, sort the buffer into a run, merge runs.
/// Only the seal step differs — TP sorts a generation into a partition
/// (BTP then merges equal-sized ones), CLSM merges it into level 0 and
/// cascades — so each structure owns a BufferedStream and supplies that
/// step plus its checkpoint manifest; the core owns everything else:
///
///  - admission: the admission mutex, the live BufferGen, the timestamp
///    policy, the BackpressureGate, and the WAL record at the commit point;
///  - the pending list: detach, enqueue on the per-index SerialExecutor
///    strand (FIFO, so the seal sequence equals the synchronous one), and
///    retire on publish. A failed seal — inline or on the strand — sets
///    the sticky background status that every later Ingest and Flush
///    returns;
///  - the epoch-published read snapshot (live buffer, pending list, the
///    owner's immutable `Sealed` state, counters) and the snapshot-version
///    stamp. Readers bracket a query in an epoch::EpochGuard, load the
///    pointer and never take the admission mutex; writers republish at
///    every structural edge and retire the superseded snapshot;
///  - the durability hooks: a checkpoint after every seal, and replaced
///    files unlinked only once a checkpoint no longer references them.
///
/// `Sealed` is the owner's immutable sealed-set type and must expose an
/// `entries` mirror (entries reachable through it). The core is explicitly
/// instantiated for TP's partition set and CLSM's run set.
template <typename Sealed>
class BufferedStream {
 public:
  struct Options {
    series::SaxConfig sax;
    bool materialized = false;
    /// Entries per buffer generation; a full generation detaches.
    size_t buffer_entries = 0;
    TimestampPolicy timestamp_policy = TimestampPolicy::kPermissive;
    /// nullptr = synchronous: seals run inline in the admitting thread.
    ThreadPool* background = nullptr;
    size_t max_inflight_seals = 0;
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
    std::function<Status()> seal_test_hook{};
    Wal* wal = nullptr;
    storage::StorageManager* storage = nullptr;
    /// The owner's seal step: makes one pending buffer durable on disk and
    /// publishes it (Publish with the buffer retired). Strand-serialized.
    std::function<Status(const PendingBuffer&)> seal;
    /// Serializes the owner's sealed state and the admit count it covers
    /// (a WAL checkpoint manifest). Called on the strand after each seal.
    std::function<void(std::vector<uint8_t>*, uint64_t*)> encode_manifest;
  };

  /// Everything one query evaluates, published through an atomic pointer
  /// and retired through the epoch manager. Only the live buffer's
  /// published count advances after publication (append-only).
  struct Snapshot {
    std::shared_ptr<const BufferGen> buffer;
    std::vector<std::shared_ptr<const PendingBuffer>> pending;
    std::shared_ptr<const Sealed> sealed;
    // Mirrors, exact as of publication.
    uint64_t entries_pending = 0;
    uint64_t seals_completed = 0;
    uint64_t merges_completed = 0;
  };

  /// One query's frozen view: the snapshot plus the buffer prefix captured
  /// once, so the approximate seed and the exact pass evaluate the same
  /// entries while admissions race ahead. Valid under the caller's guard.
  struct View {
    const Snapshot* snap = nullptr;
    std::span<const core::IndexEntry> buffer;
    std::span<const float> buffer_payloads;
  };

  /// The writer-side state a checkpoint manifest records (and a restore
  /// reinstalls), captured under the admission mutex.
  struct Progress {
    std::shared_ptr<const Sealed> sealed;
    uint64_t next_seq = 0;
    uint64_t seals_completed = 0;
    uint64_t merges_completed = 0;
  };

  /// An in-place admission's outcome (see EditLive); a null `sealed`
  /// means nothing changed.
  struct LiveEdit {
    std::shared_ptr<const Sealed> sealed;
    bool sealed_one = false;
  };

  BufferedStream(Options options, std::shared_ptr<const Sealed> initial);
  /// Drains the strand, unpublishes, and waits out every reader that could
  /// still hold a snapshot.
  ~BufferedStream();

  BufferedStream(const BufferedStream&) = delete;
  BufferedStream& operator=(const BufferedStream&) = delete;

  /// Summarizes and admits one series; detaches the buffer when it fills
  /// and seals it (on the strand when async, inline otherwise).
  Status Admit(uint64_t series_id, std::span<const float> znorm_values,
               int64_t timestamp);

  /// The drain barrier: detaches any partial buffer, waits for every seal,
  /// and returns the sticky background status.
  Status Flush();

  /// Blocks until the strand is empty. Each owner calls this at the top of
  /// its destructor, before any member a queued seal reaches dies.
  void Drain() {
    if (executor_ != nullptr) executor_->Drain();
  }

  /// Publishes `sealed`; `retired` (may be null) leaves the pending list in
  /// the same critical section, so entries are never invisible or
  /// double-visible, and counts as a completed seal.
  void Publish(std::shared_ptr<const Sealed> sealed,
               const PendingBuffer* retired, uint64_t merges_delta);

  /// For TP's kAds backend, which admits into a live tree instead of the
  /// buffer (synchronous only). Under the admission mutex: applies the
  /// timestamp policy to `*timestamp` (skipped when null), runs
  /// `edit(current_sealed)` -> Result<LiveEdit>, and installs its outcome.
  template <typename Edit>
  Status EditLive(int64_t* timestamp, Edit edit);

  Progress CaptureProgress() const;
  /// Installs a checkpoint's sealed state; the stream must be empty.
  Status Restore(Progress progress);
  void RestoreWatermark(int64_t timestamp);

  /// Removes a replaced file: immediately without a WAL; with one, at the
  /// next checkpoint, since the last durable checkpoint may still
  /// reference it. Strand-serialized. An epoch-held snapshot may keep the
  /// file open past the unlink; its preads stay valid (POSIX).
  Status RetireFile(const std::string& name);

  /// Group-commits the attached WAL (OK without one) — the ack gate.
  Status CommitDurable();

  // ---- readers (snapshot, CaptureView: under the caller's EpochGuard).

  const Snapshot* snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }
  View CaptureView() const;
  /// The current sealed state; lock-free (takes its own guard).
  std::shared_ptr<const Sealed> sealed() const;
  uint64_t num_entries() const;
  /// The common StreamingStats fields of `snap`; the owner adds
  /// sealed_partitions.
  StreamingStats Stats(const Snapshot& snap) const;

  /// The live buffer prefix, then the pending generations newest first:
  /// the in-memory part of both the approximate pass (max_verifications =
  /// approx_candidates) and the exact pass (-1).
  static Status ScanUnsealed(const View& view,
                             const seqtable::SearchContext& ctx,
                             const core::SearchOptions& options,
                             int max_verifications,
                             seqtable::KnnCollector* collector);

  /// Bumped on every admission and every publication.
  uint64_t snapshot_version() const {
    return version_.load(std::memory_order_acquire);
  }
  bool async() const { return executor_ != nullptr; }

 private:
  /// Builds a snapshot of the current state, swaps it in, and returns the
  /// superseded one for Retire after the lock is released. Caller holds mu_.
  const Snapshot* RepublishLocked();
  /// Moves a non-empty buffer generation into the pending list and
  /// republishes (`*retired` gets the superseded snapshot). Async: enqueues
  /// its seal and returns null; sync: returns it for the caller to seal
  /// inline once off the lock.
  std::shared_ptr<const PendingBuffer> DetachLocked(const Snapshot** retired);
  Status ApplyBackpressureLocked(std::unique_lock<std::mutex>* lock);
  /// The seal step plus its checkpoint; a failure becomes the sticky
  /// background status, whether it ran inline or on the strand.
  Status RunSeal(const PendingBuffer& pending);
  /// WAL checkpoint of the owner's manifest, then the deferred unlinks.
  Status CheckpointDurable();
  void RecordBackgroundError(const Status& status);
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }
  static void Retire(const Snapshot* snap) {
    epoch::EpochManager::Global().Retire(snap);
  }

  const Options options_;

  /// Guards the writer-side state below and serializes republication.
  /// Never held across seal I/O; readers never take it.
  mutable std::mutex mu_;
  std::shared_ptr<BufferGen> gen_;
  std::vector<std::shared_ptr<const PendingBuffer>> pending_;
  std::shared_ptr<const Sealed> sealed_;
  int64_t live_t_min_ = INT64_MAX;
  int64_t live_t_max_ = INT64_MIN;
  int64_t watermark_ = INT64_MIN;
  uint64_t next_seq_ = 0;
  uint64_t seals_completed_ = 0;
  uint64_t merges_completed_ = 0;
  Status background_status_;
  /// Notified under mu_ whenever a pending buffer retires or a background
  /// error lands, so a blocked admission always wakes.
  BackpressureGate backpressure_;

  std::atomic<const Snapshot*> snapshot_{nullptr};
  std::atomic<uint64_t> version_{0};

  /// Replaced files awaiting the next checkpoint; strand-only.
  std::vector<std::string> pending_unlinks_;

  std::unique_ptr<SerialExecutor> executor_;
};

template <typename Sealed>
template <typename Edit>
Status BufferedStream<Sealed>::EditLive(int64_t* timestamp, Edit edit) {
  const Snapshot* retired = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (timestamp != nullptr) {
      COCONUT_RETURN_NOT_OK(ApplyTimestampPolicy(options_.timestamp_policy,
                                                 watermark_, timestamp));
    }
    COCONUT_ASSIGN_OR_RETURN(LiveEdit result, edit(*sealed_));
    if (result.sealed == nullptr) return Status::OK();
    if (timestamp != nullptr) watermark_ = std::max(watermark_, *timestamp);
    sealed_ = std::move(result.sealed);
    if (result.sealed_one) ++seals_completed_;
    BumpVersion();
    retired = RepublishLocked();
  }
  Retire(retired);
  return Status::OK();
}

}  // namespace stream
}  // namespace coconut

#endif  // COCONUT_STREAM_BUFFERED_STREAM_H_
