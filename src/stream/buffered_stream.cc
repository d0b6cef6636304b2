#include "stream/buffered_stream.h"

#include "clsm/clsm.h"
#include "series/paa.h"
#include "stream/tp.h"
#include "stream/wal.h"

namespace coconut {
namespace stream {

Status ValidateStreamOptions(const series::SaxConfig& sax,
                             size_t buffer_entries, bool materialized,
                             const core::RawSeriesStore* raw,
                             const std::string& family) {
  if (!sax.Valid()) return Status::InvalidArgument("invalid SaxConfig");
  if (buffer_entries == 0) {
    return Status::InvalidArgument("buffer_entries must be > 0");
  }
  if (!materialized && raw == nullptr) {
    return Status::InvalidArgument("non-materialized " + family +
                                   " needs a raw store for verification");
  }
  return Status::OK();
}

std::vector<size_t> PendingBuffer::KeyOrder() const {
  const std::span<const core::IndexEntry> all = entries();
  std::vector<size_t> order(count);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&all](size_t a, size_t b) {
    return core::EntryKeyLess()(all[a], all[b]);
  });
  return order;
}

template <typename Sealed>
BufferedStream<Sealed>::BufferedStream(Options options,
                                       std::shared_ptr<const Sealed> initial)
    : options_(std::move(options)),
      gen_(std::make_shared<BufferGen>(
          options_.buffer_entries,
          static_cast<size_t>(options_.sax.series_length),
          options_.materialized)),
      sealed_(std::move(initial)) {
  if (options_.background != nullptr) {
    executor_ = std::make_unique<SerialExecutor>(options_.background);
  }
  // First publication; no reader exists yet and nothing is superseded.
  std::lock_guard<std::mutex> lock(mu_);
  RepublishLocked();
}

template <typename Sealed>
BufferedStream<Sealed>::~BufferedStream() {
  Drain();
  // Unpublish, then wait for epoch quiescence: a reader that loaded the
  // snapshot before teardown finishes inside its guard before the snapshot
  // (or anything it references) is freed.
  Retire(snapshot_.exchange(nullptr, std::memory_order_acq_rel));
  epoch::EpochManager::Global().Synchronize();
}

template <typename Sealed>
const typename BufferedStream<Sealed>::Snapshot*
BufferedStream<Sealed>::RepublishLocked() {
  auto* snap = new Snapshot();
  snap->buffer = gen_;
  snap->pending = pending_;
  snap->sealed = sealed_;
  for (const auto& p : pending_) snap->entries_pending += p->count;
  snap->seals_completed = seals_completed_;
  snap->merges_completed = merges_completed_;
  return snapshot_.exchange(snap, std::memory_order_acq_rel);
}

template <typename Sealed>
std::shared_ptr<const PendingBuffer> BufferedStream<Sealed>::DetachLocked(
    const Snapshot** retired) {
  const size_t count = gen_->published.load(std::memory_order_relaxed);
  if (count == 0) return nullptr;
  auto pending = std::make_shared<PendingBuffer>();
  pending->gen = gen_;
  pending->count = count;
  pending->t_min = live_t_min_;
  pending->t_max = live_t_max_;
  pending->seq = next_seq_++;
  live_t_min_ = INT64_MAX;
  live_t_max_ = INT64_MIN;
  pending_.push_back(pending);
  // Fresh generation for the ingest path; the detached one is frozen and
  // lives on through the pending descriptor and published snapshots.
  gen_ = std::make_shared<BufferGen>(
      options_.buffer_entries,
      static_cast<size_t>(options_.sax.series_length), options_.materialized);
  *retired = RepublishLocked();
  if (!async()) return pending;
  // Enqueued under mu_, so strand order always matches detach order even
  // when Admit and Flush race. Safe: Submit only takes the executor's own
  // queue lock, never mu_.
  executor_->Submit([this, pending] { RunSeal(*pending); });
  return nullptr;
}

template <typename Sealed>
Status BufferedStream<Sealed>::RunSeal(const PendingBuffer& pending) {
  // Test seam: fault-injection suites throttle seals here (to pile up
  // in-flight buffers against the cap) or fail them outright.
  Status status =
      options_.seal_test_hook ? options_.seal_test_hook() : Status::OK();
  if (status.ok()) status = options_.seal(pending);
  if (status.ok()) status = CheckpointDurable();
  if (!status.ok()) RecordBackgroundError(status);
  return status;
}

template <typename Sealed>
Status BufferedStream<Sealed>::CheckpointDurable() {
  if (options_.wal == nullptr) return Status::OK();
  // The seal and its cascade are complete and synced; record the sealed
  // state durably so recovery replays only the suffix.
  std::vector<uint8_t> manifest;
  uint64_t durable = 0;
  options_.encode_manifest(&manifest, &durable);
  COCONUT_RETURN_NOT_OK(options_.wal->AppendCheckpoint(durable, manifest));
  // Only now is it safe to drop files the previous checkpoint referenced.
  std::vector<std::string> unlinks;
  unlinks.swap(pending_unlinks_);
  for (const std::string& name : unlinks) {
    COCONUT_RETURN_NOT_OK(options_.storage->RemoveFile(name));
  }
  return Status::OK();
}

template <typename Sealed>
void BufferedStream<Sealed>::RecordBackgroundError(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (background_status_.ok()) background_status_ = status;
  // Wake admissions blocked on the seal cap: with the sealer dead the cap
  // will never clear, and they must surface the error instead of hanging.
  backpressure_.Notify();
}

template <typename Sealed>
Status BufferedStream<Sealed>::ApplyBackpressureLocked(
    std::unique_lock<std::mutex>* lock) {
  const size_t cap = options_.max_inflight_seals;
  if (cap == 0 || !async()) return Status::OK();
  // Only the admission that would detach one more buffer is gated; the
  // buffer itself is already bounded by buffer_entries.
  if (gen_->published.load(std::memory_order_relaxed) + 1 <
          options_.buffer_entries ||
      pending_.size() < cap) {
    return Status::OK();
  }
  if (options_.backpressure == BackpressurePolicy::kReject) {
    return backpressure_.Reject(pending_.size(), cap);
  }
  backpressure_.Block(lock, [this, cap] {
    return pending_.size() < cap || !background_status_.ok();
  });
  return background_status_;
}

template <typename Sealed>
Status BufferedStream<Sealed>::Admit(uint64_t series_id,
                                     std::span<const float> znorm_values,
                                     int64_t timestamp) {
  const size_t len = static_cast<size_t>(options_.sax.series_length);
  if (znorm_values.size() != len) {
    return Status::InvalidArgument("series length mismatch");
  }
  // Summarize outside the lock: the SAX computation is the CPU-heavy part
  // of admission and needs no shared state.
  core::IndexEntry entry;
  entry.key = series::InterleaveSax(
      series::ComputeSax(znorm_values, options_.sax), options_.sax);
  entry.series_id = series_id;

  std::shared_ptr<const PendingBuffer> pending;
  const Snapshot* retired = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!background_status_.ok()) return background_status_;
    // Backpressure gates admission before any state commits: a refused or
    // error-woken entry leaves the watermark, range and buffer untouched.
    COCONUT_RETURN_NOT_OK(ApplyBackpressureLocked(&lock));
    COCONUT_RETURN_NOT_OK(ApplyTimestampPolicy(options_.timestamp_policy,
                                               watermark_, &timestamp));
    watermark_ = std::max(watermark_, timestamp);
    entry.timestamp = timestamp;
    const uint64_t n = gen_->published.load(std::memory_order_relaxed);
    gen_->entries[n] = entry;
    if (options_.materialized) {
      std::copy(znorm_values.begin(), znorm_values.end(),
                gen_->payloads.get() + n * len);
    }
    // The admission commit point, still under mu_: log record order is
    // exactly the admission order (a checkpoint from the strand cannot
    // slip between the write and the record). The policy-applied
    // timestamp is logged, so replay through this path is idempotent.
    if (options_.wal != nullptr) {
      options_.wal->AppendAdmit(series_id, timestamp, znorm_values);
    }
    live_t_min_ = std::min(live_t_min_, timestamp);
    live_t_max_ = std::max(live_t_max_, timestamp);
    // Admitted (visible to snapshot readers) from this release store.
    gen_->published.store(n + 1, std::memory_order_release);
    BumpVersion();
    if (n + 1 >= options_.buffer_entries) pending = DetachLocked(&retired);
  }
  Retire(retired);
  // Sync mode: seal inline, off the lock (the seal step re-acquires mu_).
  if (pending != nullptr) return RunSeal(*pending);
  return Status::OK();
}

template <typename Sealed>
Status BufferedStream<Sealed>::Flush() {
  std::shared_ptr<const PendingBuffer> pending;
  const Snapshot* retired = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending = DetachLocked(&retired);
  }
  Retire(retired);
  if (pending != nullptr) COCONUT_RETURN_NOT_OK(RunSeal(*pending));
  Drain();
  std::lock_guard<std::mutex> lock(mu_);
  return background_status_;
}

template <typename Sealed>
void BufferedStream<Sealed>::Publish(std::shared_ptr<const Sealed> sealed,
                                     const PendingBuffer* retired_pending,
                                     uint64_t merges_delta) {
  const Snapshot* retired = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sealed_ = std::move(sealed);
    // A seal or a merge changes the queryable set (and can change
    // approximate pruning order even when the contents are identical).
    BumpVersion();
    if (retired_pending != nullptr) {
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->get() == retired_pending) {
          pending_.erase(it);
          break;
        }
      }
      ++seals_completed_;
      // A pending buffer retired: admissions blocked on the cap may go on.
      backpressure_.Notify();
    }
    merges_completed_ += merges_delta;
    retired = RepublishLocked();
  }
  Retire(retired);
}

template <typename Sealed>
typename BufferedStream<Sealed>::Progress
BufferedStream<Sealed>::CaptureProgress() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Progress{sealed_, next_seq_, seals_completed_, merges_completed_};
}

template <typename Sealed>
Status BufferedStream<Sealed>::Restore(Progress progress) {
  const Snapshot* retired = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (gen_->published.load(std::memory_order_relaxed) != 0 ||
        !pending_.empty() || sealed_->entries != 0) {
      return Status::InvalidArgument(
          "manifest restore requires an empty index");
    }
    sealed_ = std::move(progress.sealed);
    next_seq_ = progress.next_seq;
    seals_completed_ = progress.seals_completed;
    merges_completed_ = progress.merges_completed;
    BumpVersion();
    retired = RepublishLocked();
  }
  Retire(retired);
  return Status::OK();
}

template <typename Sealed>
void BufferedStream<Sealed>::RestoreWatermark(int64_t timestamp) {
  std::lock_guard<std::mutex> lock(mu_);
  watermark_ = std::max(watermark_, timestamp);
}

template <typename Sealed>
Status BufferedStream<Sealed>::RetireFile(const std::string& name) {
  if (options_.wal != nullptr) {
    pending_unlinks_.push_back(name);
    return Status::OK();
  }
  return options_.storage->RemoveFile(name);
}

template <typename Sealed>
Status BufferedStream<Sealed>::CommitDurable() {
  if (options_.wal == nullptr) return Status::OK();
  return options_.wal->Commit();
}

template <typename Sealed>
typename BufferedStream<Sealed>::View BufferedStream<Sealed>::CaptureView()
    const {
  View view;
  view.snap = snapshot();
  // Capture the published count once: both passes must evaluate exactly
  // the same prefix even while admissions race the count forward.
  const uint64_t n =
      view.snap->buffer->published.load(std::memory_order_acquire);
  view.buffer = view.snap->buffer->EntrySpan(n);
  view.buffer_payloads = view.snap->buffer->PayloadSpan(n);
  return view;
}

template <typename Sealed>
std::shared_ptr<const Sealed> BufferedStream<Sealed>::sealed() const {
  // Every change of sealed_ republishes in the same critical section, so
  // the published copy is current — and reading it never takes mu_.
  epoch::EpochGuard guard;
  return snapshot()->sealed;
}

template <typename Sealed>
uint64_t BufferedStream<Sealed>::num_entries() const {
  epoch::EpochGuard guard;
  return Stats(*snapshot()).entries;
}

template <typename Sealed>
StreamingStats BufferedStream<Sealed>::Stats(const Snapshot& snap) const {
  // Pure snapshot and atomic reads: never blocks, even while a
  // backpressure-stalled producer holds the admission path.
  StreamingStats stats;
  stats.buffered = snap.buffer->published.load(std::memory_order_acquire);
  stats.entries = stats.buffered + snap.entries_pending + snap.sealed->entries;
  stats.pending_tasks = snap.pending.size();
  stats.seals_completed = snap.seals_completed;
  stats.merges_completed = snap.merges_completed;
  stats.seals_inflight = snap.pending.size();
  stats.ingest_stalls = backpressure_.stalls();
  stats.ingest_rejects = backpressure_.rejects();
  stats.stall_ms_p50 = backpressure_.StallPercentileMs(0.50);
  stats.stall_ms_p99 = backpressure_.StallPercentileMs(0.99);
  stats.stall_samples = backpressure_.SnapshotSamples();
  return stats;
}

template <typename Sealed>
Status BufferedStream<Sealed>::ScanUnsealed(
    const View& view, const seqtable::SearchContext& ctx,
    const core::SearchOptions& options, int max_verifications,
    seqtable::KnnCollector* collector) {
  COCONUT_RETURN_NOT_OK(seqtable::EvaluateCandidates(
      ctx, options, view.buffer, view.buffer_payloads, max_verifications,
      collector));
  const auto& pending = view.snap->pending;
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    COCONUT_RETURN_NOT_OK(seqtable::EvaluateCandidates(
        ctx, options, (*it)->entries(), (*it)->payloads(), max_verifications,
        collector));
  }
  return Status::OK();
}

template class BufferedStream<TemporalPartitioningIndex::PartitionSet>;
template class BufferedStream<clsm::Clsm::RunSet>;

}  // namespace stream
}  // namespace coconut
