#include "stream/tp.h"

#include <algorithm>

#include "common/timer.h"
#include "series/paa.h"
#include "stream/wal.h"

namespace coconut {
namespace stream {

namespace {

using core::IndexEntry;
using core::SearchOptions;
using core::SearchResult;
using core::TimeWindow;

}  // namespace

TemporalPartitioningIndex::TemporalPartitioningIndex(
    storage::StorageManager* storage, std::string prefix,
    const Options& options, storage::BufferPool* pool,
    core::RawSeriesStore* raw)
    : storage_(storage),
      prefix_(std::move(prefix)),
      options_(options),
      pool_(pool),
      raw_(raw),
      partitions_(std::make_shared<PartitionSet>()) {
  if (options_.backend == PartitionBackend::kSeqTable) {
    gen_ = std::make_shared<BufferGen>(
        options_.buffer_entries,
        static_cast<size_t>(options_.sax.series_length),
        options_.materialized);
  }
  if (options_.background != nullptr) {
    executor_ = std::make_unique<SerialExecutor>(options_.background);
  }
  // First publication; no reader exists yet and nothing is superseded.
  RepublishSnapshotLocked();
}

TemporalPartitioningIndex::~TemporalPartitioningIndex() {
  // Background tasks close over `this`; drain them before members die.
  DrainBackground();
  // Unpublish and wait for epoch quiescence: a reader that loaded the
  // snapshot before this destructor ran finishes inside its guard before
  // the snapshot (or anything it references) is freed.
  const QuerySnapshot* last =
      snapshot_.exchange(nullptr, std::memory_order_acq_rel);
  epoch::EpochManager::Global().Retire(last);
  epoch::EpochManager::Global().Synchronize();
}

Result<std::unique_ptr<TemporalPartitioningIndex>>
TemporalPartitioningIndex::Create(storage::StorageManager* storage,
                                  const std::string& prefix,
                                  const Options& options,
                                  storage::BufferPool* pool,
                                  core::RawSeriesStore* raw) {
  if (!options.sax.Valid()) {
    return Status::InvalidArgument("invalid SaxConfig");
  }
  if (options.buffer_entries == 0) {
    return Status::InvalidArgument("buffer_entries must be > 0");
  }
  if (!options.materialized && raw == nullptr) {
    return Status::InvalidArgument(
        "non-materialized TP needs a raw store for verification");
  }
  if (options.background != nullptr &&
      options.backend == PartitionBackend::kAds) {
    return Status::InvalidArgument(
        "background ingestion requires the kSeqTable backend (a live ADS+ "
        "tree cannot be sealed behind ingestion's back)");
  }
  if (options.wal != nullptr && options.backend == PartitionBackend::kAds) {
    return Status::InvalidArgument(
        "durability requires the kSeqTable backend (an ADS+ partition has "
        "no checkpointable manifest)");
  }
  return std::unique_ptr<TemporalPartitioningIndex>(
      new TemporalPartitioningIndex(storage, prefix, options, pool, raw));
}

Status TemporalPartitioningIndex::EnsureCurrentAdsLocked() {
  if (current_ads_ != nullptr) return Status::OK();
  ads::AdsIndex::Options aopts;
  aopts.sax = options_.sax;
  aopts.materialized = options_.materialized;
  aopts.leaf_capacity = options_.ads_leaf_capacity;
  aopts.global_buffer_entries = options_.buffer_entries;
  COCONUT_ASSIGN_OR_RETURN(
      std::unique_ptr<ads::AdsIndex> ads,
      ads::AdsIndex::Create(
          storage_, prefix_ + ".p" + std::to_string(next_partition_id_),
          aopts, raw_));
  current_ads_ = std::move(ads);
  return Status::OK();
}

size_t TemporalPartitioningIndex::UnsealedCountLocked() const {
  if (options_.backend == PartitionBackend::kAds) {
    return current_ads_ == nullptr
               ? 0
               : static_cast<size_t>(current_ads_->num_entries());
  }
  return gen_ == nullptr
             ? 0
             : static_cast<size_t>(
                   gen_->published.load(std::memory_order_relaxed));
}

const TemporalPartitioningIndex::QuerySnapshot*
TemporalPartitioningIndex::RepublishSnapshotLocked() {
  auto* snap = new QuerySnapshot();
  snap->buffer = gen_;
  snap->pending = pending_;
  snap->partitions = partitions_;
  snap->current_ads = current_ads_;
  if (current_ads_ != nullptr) {
    snap->ads_buffered = current_ads_->num_entries();
  }
  for (const auto& p : pending_) snap->entries_pending += p->count;
  uint64_t bytes = 0;
  for (const auto& p : *partitions_) {
    snap->entries_sealed += p->entries;
    if (p->table != nullptr) bytes += p->table->file_bytes();
    if (p->ads != nullptr) bytes += p->ads->total_file_bytes();
  }
  if (current_ads_ != nullptr) bytes += current_ads_->total_file_bytes();
  snap->index_bytes = bytes;
  snap->seals_completed = seals_completed_;
  snap->merges_completed = merges_completed_;
  return snapshot_.exchange(snap, std::memory_order_acq_rel);
}

std::shared_ptr<const TemporalPartitioningIndex::PartitionSet>
TemporalPartitioningIndex::CurrentPartitions() const {
  epoch::EpochGuard guard;
  return snapshot_.load(std::memory_order_acquire)->partitions;
}

void TemporalPartitioningIndex::PublishPartitions(
    std::shared_ptr<const PartitionSet> set,
    const PendingSeal* retired_pending, bool count_seal,
    uint64_t merges_delta) {
  const QuerySnapshot* retired = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    partitions_ = std::move(set);
    // Publication changes the queryable partition set (a seal or a merge
    // can change approx-search pruning order even when contents are
    // identical).
    BumpSnapshotVersion();
    if (retired_pending != nullptr) {
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->get() == retired_pending) {
          pending_.erase(it);
          break;
        }
      }
      // A pending seal retired: ingests blocked on the seal cap may
      // proceed.
      backpressure_.Notify();
    }
    if (count_seal) ++seals_completed_;
    merges_completed_ += merges_delta;
    retired = RepublishSnapshotLocked();
  }
  epoch::EpochManager::Global().Retire(retired);
}

void TemporalPartitioningIndex::RecordBackgroundError(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (background_status_.ok()) background_status_ = status;
  // Wake ingests blocked on the seal cap: with the flusher dead the cap
  // will never clear, and they must surface the error instead of hanging.
  backpressure_.Notify();
}

Status TemporalPartitioningIndex::ApplyBackpressureLocked(
    std::unique_lock<std::mutex>* lock) {
  const size_t cap = options_.max_inflight_seals;
  if (cap == 0 || !async()) return Status::OK();
  // Only the admission that would detach one more buffer is gated; the
  // buffer itself is already bounded by buffer_entries.
  if (UnsealedCountLocked() + 1 < options_.buffer_entries ||
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

Status TemporalPartitioningIndex::BackgroundStatus() const {
  std::lock_guard<std::mutex> lock(mu_);
  return background_status_;
}

std::shared_ptr<TemporalPartitioningIndex::PendingSeal>
TemporalPartitioningIndex::DetachBufferLocked() {
  const size_t count = UnsealedCountLocked();
  if (count == 0) return nullptr;
  auto pending = std::make_shared<PendingSeal>();
  pending->gen = gen_;
  pending->count = count;
  pending->t_min = unsealed_t_min_;
  pending->t_max = unsealed_t_max_;
  unsealed_t_min_ = INT64_MAX;
  unsealed_t_max_ = INT64_MIN;
  pending->name = prefix_ + ".p" + std::to_string(next_partition_id_++);
  pending_.push_back(pending);
  // Fresh generation for the ingest path; the detached one is frozen (its
  // writer is gone) and lives on through the pending descriptor and any
  // published snapshots.
  gen_ = std::make_shared<BufferGen>(
      options_.buffer_entries,
      static_cast<size_t>(options_.sax.series_length), options_.materialized);
  return pending;
}

void TemporalPartitioningIndex::EnqueueSealLocked(
    std::shared_ptr<const PendingSeal> pending) {
  // Called with mu_ held so strand order always matches detach order even
  // when Ingest and FlushAll race. Safe: Submit only takes the executor's
  // own queue lock, never mu_.
  executor_->Submit([this, pending = std::move(pending)] {
    const Status status = SealTask(pending);
    if (!status.ok()) RecordBackgroundError(status);
  });
}

Status TemporalPartitioningIndex::SealTask(
    std::shared_ptr<const PendingSeal> pending) {
  // Test seam: fault-injection suites throttle seals here (to pile up
  // in-flight buffers against the cap) or fail them outright.
  if (options_.seal_test_hook) {
    COCONUT_RETURN_NOT_OK(options_.seal_test_hook());
  }
  // Sort by key and lay the buffer out as one compact partition. All the
  // I/O happens here, off the ingest lock.
  const size_t len = options_.sax.series_length;
  const std::span<const IndexEntry> entries = pending->entries();
  const std::span<const float> payloads = pending->payloads();
  std::vector<size_t> order(pending->count);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&entries](size_t a, size_t b) {
    return core::EntryKeyLess()(entries[a], entries[b]);
  });
  seqtable::SeqTableOptions topts;
  topts.sax = options_.sax;
  topts.materialized = options_.materialized;
  COCONUT_ASSIGN_OR_RETURN(
      std::unique_ptr<seqtable::SeqTableBuilder> builder,
      seqtable::SeqTableBuilder::Create(storage_, pending->name, topts));
  for (size_t i : order) {
    std::span<const float> payload;
    if (options_.materialized) {
      payload = payloads.subspan(i * len, len);
    }
    COCONUT_RETURN_NOT_OK(builder->Add(entries[i], payload));
  }
  auto partition = std::make_shared<SealedPartition>();
  partition->entries = builder->entries_added();
  COCONUT_RETURN_NOT_OK(builder->Finish());
  COCONUT_ASSIGN_OR_RETURN(
      std::unique_ptr<seqtable::SeqTable> table,
      seqtable::SeqTable::Open(storage_, pending->name, ReadPool()));
  partition->table = std::move(table);
  partition->t_min = pending->t_min;
  partition->t_max = pending->t_max;
  partition->name = pending->name;

  auto next = std::make_shared<PartitionSet>(*CurrentPartitions());
  next->push_back(std::move(partition));
  PublishPartitions(std::move(next), pending.get(), /*count_seal=*/true,
                    /*merges_delta=*/0);
  COCONUT_RETURN_NOT_OK(AfterSeal());
  return CheckpointDurable();
}

Status TemporalPartitioningIndex::Ingest(uint64_t series_id,
                                         std::span<const float> znorm_values,
                                         int64_t timestamp) {
  if (znorm_values.size() != static_cast<size_t>(options_.sax.series_length)) {
    return Status::InvalidArgument("series length mismatch");
  }

  if (options_.backend == PartitionBackend::kAds) {
    // Synchronous-only backend; everything under the lock for simplicity.
    const QuerySnapshot* retired = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (options_.timestamp_policy == TimestampPolicy::kStrict &&
          timestamp < last_timestamp_) {
        return Status::InvalidArgument(
            "timestamp regression rejected by kStrict policy");
      }
      if (options_.timestamp_policy == TimestampPolicy::kClamp) {
        timestamp = std::max(timestamp, last_timestamp_);
      }
      COCONUT_RETURN_NOT_OK(EnsureCurrentAdsLocked());
      COCONUT_RETURN_NOT_OK(
          current_ads_->Insert(series_id, znorm_values, timestamp));
      // Watermark and range commit only once the entry is actually
      // admitted.
      last_timestamp_ = std::max(last_timestamp_, timestamp);
      unsealed_t_min_ = std::min(unsealed_t_min_, timestamp);
      unsealed_t_max_ = std::max(unsealed_t_max_, timestamp);
      if (UnsealedCountLocked() >= options_.buffer_entries) {
        COCONUT_RETURN_NOT_OK(current_ads_->FlushAll());
        auto partition = std::make_shared<SealedPartition>();
        partition->entries = current_ads_->num_entries();
        partition->ads = std::move(current_ads_);
        current_ads_ = nullptr;
        partition->t_min = unsealed_t_min_;
        partition->t_max = unsealed_t_max_;
        partition->name =
            prefix_ + ".p" + std::to_string(next_partition_id_++);
        unsealed_t_min_ = INT64_MAX;
        unsealed_t_max_ = INT64_MIN;
        auto next = std::make_shared<PartitionSet>(*partitions_);
        next->push_back(std::move(partition));
        partitions_ = std::move(next);
        ++seals_completed_;
      }
      // Admission (and the occasional inline seal) changed the answer set.
      // The live ADS+ tree mutates in place, so every admission republishes
      // the snapshot — that keeps the stats mirrors exact without readers
      // ever touching the tree's internals.
      BumpSnapshotVersion();
      retired = RepublishSnapshotLocked();
    }
    epoch::EpochManager::Global().Retire(retired);
    return Status::OK();
  }

  // Summarize outside the lock: the SAX computation is the CPU-heavy part
  // of admission and needs no shared state.
  IndexEntry entry;
  entry.key = series::InterleaveSax(
      series::ComputeSax(znorm_values, options_.sax), options_.sax);
  entry.series_id = series_id;

  std::shared_ptr<const PendingSeal> pending;
  const QuerySnapshot* retired = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!background_status_.ok()) return background_status_;
    // Backpressure gates admission before any state commits: a refused or
    // error-woken entry leaves the watermark, ranges and buffer untouched.
    COCONUT_RETURN_NOT_OK(ApplyBackpressureLocked(&lock));
    if (options_.timestamp_policy == TimestampPolicy::kStrict &&
        timestamp < last_timestamp_) {
      return Status::InvalidArgument(
          "timestamp regression rejected by kStrict policy");
    }
    if (options_.timestamp_policy == TimestampPolicy::kClamp) {
      timestamp = std::max(timestamp, last_timestamp_);
    }
    last_timestamp_ = std::max(last_timestamp_, timestamp);
    entry.timestamp = timestamp;
    const uint64_t n = gen_->published.load(std::memory_order_relaxed);
    gen_->entries[n] = entry;
    if (options_.materialized) {
      std::copy(znorm_values.begin(), znorm_values.end(),
                gen_->payloads.get() +
                    n * static_cast<size_t>(options_.sax.series_length));
    }
    // This is the admission commit point, still under mu_: the log record
    // order is exactly the admission order (a checkpoint from the strand
    // cannot slip between the write and the record). The clamped timestamp
    // is logged so replay through this same path is idempotent.
    if (options_.wal != nullptr) {
      options_.wal->AppendAdmit(series_id, timestamp, znorm_values);
    }
    unsealed_t_min_ = std::min(unsealed_t_min_, timestamp);
    unsealed_t_max_ = std::max(unsealed_t_max_, timestamp);
    // The entry is admitted (visible to snapshot readers) from here: the
    // release store pairs with readers' acquire load of the count.
    gen_->published.store(n + 1, std::memory_order_release);
    BumpSnapshotVersion();
    if (n + 1 >= options_.buffer_entries) {
      pending = DetachBufferLocked();
      retired = RepublishSnapshotLocked();
      if (pending != nullptr && async()) {
        EnqueueSealLocked(pending);
        pending = nullptr;
      }
    }
  }
  if (retired != nullptr) epoch::EpochManager::Global().Retire(retired);
  // Sync mode: seal inline, off the lock (SealTask re-acquires mu_).
  if (pending != nullptr) return SealTask(std::move(pending));
  return Status::OK();
}

Status TemporalPartitioningIndex::FlushAll() {
  if (options_.backend == PartitionBackend::kAds) {
    const QuerySnapshot* retired = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (UnsealedCountLocked() == 0) return Status::OK();
      COCONUT_RETURN_NOT_OK(current_ads_->FlushAll());
      auto partition = std::make_shared<SealedPartition>();
      partition->entries = current_ads_->num_entries();
      partition->ads = std::move(current_ads_);
      current_ads_ = nullptr;
      partition->t_min = unsealed_t_min_;
      partition->t_max = unsealed_t_max_;
      partition->name = prefix_ + ".p" + std::to_string(next_partition_id_++);
      unsealed_t_min_ = INT64_MAX;
      unsealed_t_max_ = INT64_MIN;
      auto next = std::make_shared<PartitionSet>(*partitions_);
      next->push_back(std::move(partition));
      partitions_ = std::move(next);
      ++seals_completed_;
      BumpSnapshotVersion();
      retired = RepublishSnapshotLocked();
    }
    epoch::EpochManager::Global().Retire(retired);
    return Status::OK();
  }

  std::shared_ptr<const PendingSeal> pending;
  const QuerySnapshot* retired = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending = DetachBufferLocked();
    if (pending != nullptr) {
      retired = RepublishSnapshotLocked();
      if (async()) {
        EnqueueSealLocked(pending);
        pending = nullptr;
      }
    }
  }
  if (retired != nullptr) epoch::EpochManager::Global().Retire(retired);
  if (pending != nullptr) {
    COCONUT_RETURN_NOT_OK(SealTask(std::move(pending)));
  }
  if (async()) executor_->Drain();
  return BackgroundStatus();
}

TemporalPartitioningIndex::QueryView
TemporalPartitioningIndex::CaptureView() const {
  QueryView view;
  view.snap = snapshot_.load(std::memory_order_acquire);
  if (view.snap->buffer != nullptr) {
    // Capture the published count once: the approximate seed and the
    // exact pass must evaluate exactly the same prefix even while
    // admissions race the count forward.
    const uint64_t n =
        view.snap->buffer->published.load(std::memory_order_acquire);
    view.buffer = view.snap->buffer->EntrySpan(n);
    view.buffer_payloads = view.snap->buffer->PayloadSpan(n);
  }
  return view;
}

Status TemporalPartitioningIndex::ApproxPassOverSnapshot(
    const QueryView& view, const seqtable::SearchContext& ctx,
    const SearchOptions& options, seqtable::KnnCollector* best) {
  const QuerySnapshot& snap = *view.snap;
  // Newest data first: the unsealed tail, in-flight seals, then partitions
  // newest to oldest.
  if (snap.current_ads != nullptr && snap.ads_buffered > 0) {
    COCONUT_ASSIGN_OR_RETURN(
        SearchResult r,
        snap.current_ads->ApproxSearch(ctx.query, options, ctx.counters));
    best->Offer(r);
  }
  COCONUT_RETURN_NOT_OK(seqtable::EvaluateCandidates(
      ctx, options, view.buffer, view.buffer_payloads,
      options.approx_candidates, best));
  for (auto it = snap.pending.rbegin(); it != snap.pending.rend(); ++it) {
    COCONUT_RETURN_NOT_OK(seqtable::EvaluateCandidates(
        ctx, options, (*it)->entries(), (*it)->payloads(),
        options.approx_candidates, best));
  }
  for (auto it = snap.partitions->rbegin(); it != snap.partitions->rend();
       ++it) {
    const SealedPartition& p = **it;
    if (!options.window.Intersects(p.t_min, p.t_max)) {
      if (ctx.counters != nullptr) ++ctx.counters->partitions_skipped;
      continue;
    }
    if (ctx.counters != nullptr) ++ctx.counters->partitions_visited;
    // Fully covered partitions skip per-entry timestamp checks.
    SearchOptions inner = options;
    if (options.window.Covers(p.t_min, p.t_max)) {
      inner.window = TimeWindow::All();
    }
    COCONUT_ASSIGN_OR_RETURN(
        SearchResult r,
        p.table != nullptr
            ? seqtable::ApproxSearchTable(*p.table, ctx, inner)
            : p.ads->ApproxSearch(ctx.query, inner, ctx.counters));
    best->Offer(r);
  }
  return Status::OK();
}

Result<SearchResult> TemporalPartitioningIndex::ApproxSearch(
    std::span<const float> query, const SearchOptions& options,
    core::QueryCounters* counters) {
  // Lock-free read: the guard spans the whole query (including partition
  // I/O), so everything the snapshot references stays alive without any
  // reference-count traffic.
  epoch::EpochGuard guard;
  const QueryView view = CaptureView();
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector best(1);
  COCONUT_RETURN_NOT_OK(ApproxPassOverSnapshot(view, ctx, options, &best));
  return best.Nearest();
}

Result<SearchResult> TemporalPartitioningIndex::ExactSearch(
    std::span<const float> query, const SearchOptions& options,
    core::QueryCounters* counters) {
  // One view serves both passes, so the approximate seed and the exact
  // scan see the same entries even while ingestion races ahead.
  epoch::EpochGuard guard;
  const QueryView view = CaptureView();
  const QuerySnapshot& snap = *view.snap;
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector best(1);
  // Approximate pass (cheap, tightens the bound) over the snapshot.
  COCONUT_RETURN_NOT_OK(ApproxPassOverSnapshot(view, ctx, options, &best));

  // Exact pass: every intersecting source with the shared best-so-far.
  if (snap.current_ads != nullptr && snap.ads_buffered > 0) {
    COCONUT_ASSIGN_OR_RETURN(
        SearchResult r, snap.current_ads->ExactSearch(query, options,
                                                      counters));
    best.Offer(r);
  }
  COCONUT_RETURN_NOT_OK(seqtable::EvaluateCandidates(
      ctx, options, view.buffer, view.buffer_payloads,
      /*max_verifications=*/-1, &best));
  for (auto it = snap.pending.rbegin(); it != snap.pending.rend(); ++it) {
    COCONUT_RETURN_NOT_OK(seqtable::EvaluateCandidates(
        ctx, options, (*it)->entries(), (*it)->payloads(),
        /*max_verifications=*/-1, &best));
  }
  for (auto it = snap.partitions->rbegin(); it != snap.partitions->rend();
       ++it) {
    const SealedPartition& p = **it;
    if (!options.window.Intersects(p.t_min, p.t_max)) continue;
    SearchOptions inner = options;
    if (options.window.Covers(p.t_min, p.t_max)) {
      inner.window = TimeWindow::All();
    }
    if (p.table != nullptr) {
      COCONUT_RETURN_NOT_OK(
          seqtable::ExactScanTable(*p.table, ctx, inner, &best));
    } else {
      COCONUT_ASSIGN_OR_RETURN(SearchResult r,
                               p.ads->ExactSearch(query, inner, counters));
      best.Offer(r);
    }
  }
  return best.Nearest();
}

uint64_t TemporalPartitioningIndex::num_entries() const {
  epoch::EpochGuard guard;
  const QuerySnapshot* snap = snapshot_.load(std::memory_order_acquire);
  uint64_t total =
      snap->entries_sealed + snap->entries_pending + snap->ads_buffered;
  if (snap->buffer != nullptr) {
    total += snap->buffer->published.load(std::memory_order_acquire);
  }
  return total;
}

size_t TemporalPartitioningIndex::num_partitions() const {
  epoch::EpochGuard guard;
  return snapshot_.load(std::memory_order_acquire)->partitions->size();
}

uint64_t TemporalPartitioningIndex::index_bytes() const {
  epoch::EpochGuard guard;
  return snapshot_.load(std::memory_order_acquire)->index_bytes;
}

StreamingStats TemporalPartitioningIndex::SnapshotStats() const {
  // Pure snapshot + atomic reads: never blocks, even while a
  // backpressure-stalled producer holds the admission path.
  epoch::EpochGuard guard;
  const QuerySnapshot* snap = snapshot_.load(std::memory_order_acquire);
  StreamingStats stats;
  stats.buffered = snap->ads_buffered;
  if (snap->buffer != nullptr) {
    stats.buffered += snap->buffer->published.load(std::memory_order_acquire);
  }
  stats.entries = stats.buffered + snap->entries_pending + snap->entries_sealed;
  stats.sealed_partitions = snap->partitions->size();
  stats.pending_tasks = snap->pending.size();
  stats.seals_completed = snap->seals_completed;
  stats.merges_completed = snap->merges_completed;
  stats.seals_inflight = snap->pending.size();
  stats.ingest_stalls = backpressure_.stalls();
  stats.ingest_rejects = backpressure_.rejects();
  stats.stall_ms_p50 = backpressure_.StallPercentileMs(0.50);
  stats.stall_ms_p99 = backpressure_.StallPercentileMs(0.99);
  stats.stall_samples = backpressure_.SnapshotSamples();
  return stats;
}

std::vector<TemporalPartitioningIndex::PartitionInfo>
TemporalPartitioningIndex::SnapshotPartitions() const {
  std::shared_ptr<const PartitionSet> parts = CurrentPartitions();
  std::vector<PartitionInfo> infos;
  infos.reserve(parts->size());
  for (const auto& p : *parts) {
    PartitionInfo info;
    info.name = p->name;
    info.entries = p->entries;
    info.size_class = p->size_class;
    info.t_min = p->t_min;
    info.t_max = p->t_max;
    infos.push_back(std::move(info));
  }
  return infos;
}

Result<std::vector<core::IndexEntry>>
TemporalPartitioningIndex::DumpPartitionEntries(size_t idx) const {
  std::shared_ptr<const PartitionSet> parts = CurrentPartitions();
  if (idx >= parts->size()) {
    return Status::OutOfRange("partition index out of range");
  }
  const SealedPartition& p = *(*parts)[idx];
  if (p.table == nullptr) {
    return Status::NotSupported("entry dumps require kSeqTable partitions");
  }
  std::vector<core::IndexEntry> entries;
  entries.reserve(p.entries);
  seqtable::SeqTable::Scanner scanner = p.table->NewScanner();
  core::IndexEntry entry;
  while (true) {
    COCONUT_ASSIGN_OR_RETURN(bool has, scanner.Next(&entry, nullptr));
    if (!has) break;
    entries.push_back(entry);
  }
  return entries;
}

void TemporalPartitioningIndex::EncodeManifest(std::vector<uint8_t>* manifest,
                                               uint64_t* durable_entries) const {
  std::shared_ptr<const PartitionSet> parts;
  uint64_t next_id = 0;
  uint64_t seals = 0;
  uint64_t merges = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    parts = partitions_;
    next_id = next_partition_id_;
    seals = seals_completed_;
    merges = merges_completed_;
  }
  manifest->clear();
  *durable_entries = 0;
  WalPutU32(manifest, static_cast<uint32_t>(parts->size()));
  for (const auto& p : *parts) {
    WalPutString(manifest, p->name);
    WalPutU64(manifest, p->entries);
    WalPutI64(manifest, p->t_min);
    WalPutI64(manifest, p->t_max);
    WalPutU32(manifest, static_cast<uint32_t>(p->size_class));
    *durable_entries += p->entries;
  }
  WalPutU64(manifest, next_id);
  WalPutU64(manifest, seals);
  WalPutU64(manifest, merges);
  // The subclass's own deterministic-name counter (BTP's merge outputs);
  // read on the strand, where every mutation of it happens.
  WalPutU64(manifest, ManifestAuxCounter());
}

Status TemporalPartitioningIndex::RestoreFromManifest(
    std::span<const uint8_t> manifest) {
  if (options_.backend != PartitionBackend::kSeqTable) {
    return Status::NotSupported(
        "manifest restore requires the kSeqTable backend");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (UnsealedCountLocked() != 0 || !pending_.empty() ||
        !partitions_->empty()) {
      return Status::InvalidArgument(
          "manifest restore requires an empty index");
    }
  }
  WalReader reader(manifest);
  uint32_t count = 0;
  if (!reader.GetU32(&count)) {
    return Status::DataLoss("checkpoint manifest truncated");
  }
  auto set = std::make_shared<PartitionSet>();
  set->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    auto partition = std::make_shared<SealedPartition>();
    uint32_t size_class = 0;
    if (!reader.GetString(&partition->name) ||
        !reader.GetU64(&partition->entries) ||
        !reader.GetI64(&partition->t_min) ||
        !reader.GetI64(&partition->t_max) || !reader.GetU32(&size_class)) {
      return Status::DataLoss("checkpoint manifest truncated");
    }
    partition->size_class = static_cast<int>(size_class);
    COCONUT_ASSIGN_OR_RETURN(
        std::unique_ptr<seqtable::SeqTable> table,
        seqtable::SeqTable::Open(storage_, partition->name, ReadPool()));
    if (table->num_entries() != partition->entries) {
      return Status::DataLoss(
          "partition " + partition->name + " holds " +
          std::to_string(table->num_entries()) + " entries, checkpoint "
          "manifest recorded " + std::to_string(partition->entries));
    }
    partition->table = std::move(table);
    set->push_back(std::move(partition));
  }
  uint64_t next_id = 0;
  uint64_t seals = 0;
  uint64_t merges = 0;
  uint64_t aux = 0;
  if (!reader.GetU64(&next_id) || !reader.GetU64(&seals) ||
      !reader.GetU64(&merges) || !reader.GetU64(&aux) || !reader.AtEnd()) {
    return Status::DataLoss("checkpoint manifest truncated");
  }
  const QuerySnapshot* retired = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    partitions_ = std::move(set);
    next_partition_id_ = next_id;
    seals_completed_ = seals;
    merges_completed_ = merges;
    BumpSnapshotVersion();
    retired = RepublishSnapshotLocked();
  }
  epoch::EpochManager::Global().Retire(retired);
  RestoreManifestAuxCounter(aux);
  return Status::OK();
}

void TemporalPartitioningIndex::RestoreWatermark(int64_t timestamp) {
  std::lock_guard<std::mutex> lock(mu_);
  last_timestamp_ = std::max(last_timestamp_, timestamp);
}

Status TemporalPartitioningIndex::CommitDurable() {
  if (options_.wal == nullptr) return Status::OK();
  return options_.wal->Commit();
}

Status TemporalPartitioningIndex::CheckpointDurable() {
  if (options_.wal == nullptr) return Status::OK();
  std::vector<uint8_t> manifest;
  uint64_t durable = 0;
  EncodeManifest(&manifest, &durable);
  COCONUT_RETURN_NOT_OK(options_.wal->AppendCheckpoint(durable, manifest));
  // Only now is it safe to drop files the previous checkpoint referenced.
  std::vector<std::string> unlinks;
  unlinks.swap(pending_unlinks_);
  for (const std::string& name : unlinks) {
    COCONUT_RETURN_NOT_OK(storage_->RemoveFile(name));
  }
  return Status::OK();
}

Status TemporalPartitioningIndex::RetireFile(const std::string& name) {
  if (options_.wal != nullptr) {
    pending_unlinks_.push_back(name);
    return Status::OK();
  }
  return storage_->RemoveFile(name);
}

std::string TemporalPartitioningIndex::describe() const {
  std::string base = options_.backend == PartitionBackend::kAds
                         ? (options_.materialized ? "ADSFull" : "ADS+")
                         : (options_.materialized ? "CTreeFull" : "CTree");
  return base + "-TP";
}

}  // namespace stream
}  // namespace coconut
