#include "clsm/clsm.h"

#include <algorithm>

#include "common/timer.h"
#include "series/paa.h"
#include "stream/wal.h"

namespace coconut {
namespace clsm {

namespace {

using core::IndexEntry;
using core::SearchOptions;
using core::SearchResult;
using seqtable::LeafView;
using seqtable::SeqTable;
using seqtable::SeqTableBuilder;
using seqtable::SeqTableOptions;

SeqTableOptions RunOptions(const Clsm::Options& options) {
  SeqTableOptions topts;
  topts.sax = options.sax;
  topts.materialized = options.materialized;
  topts.fill_factor = 1.0;  // Runs are immutable: always fully packed.
  return topts;
}

/// One input of a two-way merge: either the sorted memtable or a run scan.
class MergeSource {
 public:
  virtual ~MergeSource() = default;
  /// Loads the next entry; false at end.
  virtual Result<bool> Next(IndexEntry* entry, std::vector<float>* payload) = 0;
};

class MemtableSource : public MergeSource {
 public:
  MemtableSource(std::vector<IndexEntry> entries, std::vector<float> payloads,
                 size_t series_length)
      : entries_(std::move(entries)),
        payloads_(std::move(payloads)),
        len_(series_length) {}

  Result<bool> Next(IndexEntry* entry, std::vector<float>* payload) override {
    if (pos_ >= entries_.size()) return false;
    *entry = entries_[pos_];
    if (payload != nullptr && !payloads_.empty()) {
      payload->assign(payloads_.begin() + pos_ * len_,
                      payloads_.begin() + (pos_ + 1) * len_);
    }
    ++pos_;
    return true;
  }

 private:
  std::vector<IndexEntry> entries_;
  std::vector<float> payloads_;
  size_t len_;
  size_t pos_ = 0;
};

class TableSource : public MergeSource {
 public:
  explicit TableSource(const SeqTable* table) : scanner_(table->NewScanner()) {}

  Result<bool> Next(IndexEntry* entry, std::vector<float>* payload) override {
    return scanner_.Next(entry, payload);
  }

 private:
  SeqTable::Scanner scanner_;
};

}  // namespace

Clsm::Clsm(storage::StorageManager* storage, std::string prefix,
           Options options, storage::BufferPool* pool,
           core::RawSeriesStore* raw)
    : storage_(storage),
      prefix_(std::move(prefix)),
      options_(options),
      pool_(pool),
      raw_(raw),
      gen_(std::make_shared<stream::BufferGen>(
          options_.buffer_entries,
          static_cast<size_t>(options_.sax.series_length),
          options_.materialized)),
      runs_(std::make_shared<RunSet>()) {
  if (options_.background != nullptr) {
    executor_ = std::make_unique<SerialExecutor>(options_.background);
  }
  // Initial publication; no readers exist yet, so nothing to retire.
  std::lock_guard<std::mutex> lock(mu_);
  RepublishSnapshotLocked();
}

Clsm::~Clsm() {
  // Background tasks close over `this`; drain them before members die.
  if (executor_ != nullptr) executor_->Drain();
  // Unpublish, then wait out every reader that could still hold any
  // snapshot of this tree before members are torn down.
  stream::epoch::EpochManager::Global().Retire(
      snapshot_.exchange(nullptr, std::memory_order_acq_rel));
  stream::epoch::EpochManager::Global().Synchronize();
}

Result<std::unique_ptr<Clsm>> Clsm::Create(storage::StorageManager* storage,
                                           const std::string& prefix,
                                           const Options& options,
                                           storage::BufferPool* pool,
                                           core::RawSeriesStore* raw) {
  if (!options.sax.Valid()) {
    return Status::InvalidArgument("invalid SaxConfig");
  }
  if (options.growth_factor < 2) {
    return Status::InvalidArgument("growth_factor must be >= 2");
  }
  if (options.buffer_entries == 0) {
    return Status::InvalidArgument("buffer_entries must be > 0");
  }
  if (!options.materialized && raw == nullptr) {
    return Status::InvalidArgument(
        "non-materialized CLSM needs a raw store for verification");
  }
  return std::unique_ptr<Clsm>(
      new Clsm(storage, prefix, options, pool, raw));
}

uint64_t Clsm::LevelCapacity(size_t level) const {
  uint64_t cap = options_.buffer_entries;
  for (size_t i = 0; i <= level; ++i) {
    cap *= static_cast<uint64_t>(options_.growth_factor);
  }
  return cap;
}

std::string Clsm::RunName(size_t level) {
  return prefix_ + ".L" + std::to_string(level) + "." +
         std::to_string(version_++);
}

const Clsm::QuerySnapshot* Clsm::RepublishSnapshotLocked() {
  auto snap = std::make_unique<QuerySnapshot>();
  snap->memtable = gen_;
  snap->pending = pending_;
  snap->runs = runs_;
  for (const auto& pending : pending_) snap->entries_pending += pending->count;
  for (const auto& level : *runs_) {
    if (level != nullptr) snap->entries_in_runs += level->num_entries();
  }
  snap->entries_rewritten = entries_rewritten_;
  snap->merges_performed = merges_performed_;
  snap->flushes_completed = flushes_completed_;
  return snapshot_.exchange(snap.release(), std::memory_order_acq_rel);
}

Clsm::QueryView Clsm::CaptureView() const {
  QueryView view;
  view.snap = snapshot_.load(std::memory_order_acquire);
  if (view.snap->memtable != nullptr) {
    // Capture the published count ONCE: the approximate seed and the exact
    // pass must evaluate the identical prefix even while admissions race
    // the count forward.
    const size_t count = static_cast<size_t>(
        view.snap->memtable->published.load(std::memory_order_acquire));
    view.memtable = view.snap->memtable->EntrySpan(count);
    view.memtable_payloads = view.snap->memtable->PayloadSpan(count);
  }
  return view;
}

std::shared_ptr<Clsm::PendingFlush> Clsm::DetachMemtableLocked() {
  const size_t count = MemtableCountLocked();
  if (count == 0) return nullptr;
  auto pending = std::make_shared<PendingFlush>();
  pending->gen = gen_;
  pending->count = count;
  pending_.push_back(pending);
  gen_ = std::make_shared<stream::BufferGen>(
      options_.buffer_entries,
      static_cast<size_t>(options_.sax.series_length), options_.materialized);
  return pending;
}

void Clsm::EnqueueFlushLocked(std::shared_ptr<const PendingFlush> pending) {
  // Called with mu_ held so strand order always matches detach order even
  // when Insert and FlushBuffer race. Safe: Submit only takes the
  // executor's own queue lock, never mu_.
  executor_->Submit([this, pending = std::move(pending)] {
    const Status status = FlushTask(pending);
    if (!status.ok()) RecordBackgroundError(status);
  });
}

void Clsm::RecordBackgroundError(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (background_status_.ok()) background_status_ = status;
  // Wake inserts blocked on the flush cap: with the flusher dead the cap
  // will never clear, and they must surface the error instead of hanging.
  backpressure_.Notify();
}

void Clsm::PublishRuns(std::shared_ptr<const RunSet> runs,
                       const PendingFlush* retired_pending,
                       uint64_t rewritten, uint64_t merges) {
  const QuerySnapshot* superseded = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    runs_ = std::move(runs);
    // Run-set publication (flush or cascade) changes the queryable snapshot.
    snapshot_version_.fetch_add(1, std::memory_order_acq_rel);
    if (retired_pending != nullptr) {
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->get() == retired_pending) {
          pending_.erase(it);
          break;
        }
      }
      ++flushes_completed_;
      // A pending flush retired: inserts blocked on the cap may proceed.
      backpressure_.Notify();
    }
    entries_rewritten_ += rewritten;
    merges_performed_ += merges;
    superseded = RepublishSnapshotLocked();
  }
  stream::epoch::EpochManager::Global().Retire(superseded);
}

Status Clsm::ApplyBackpressureLocked(std::unique_lock<std::mutex>* lock) {
  const size_t cap = options_.max_inflight_seals;
  if (cap == 0 || !async()) return Status::OK();
  if (MemtableCountLocked() + 1 < options_.buffer_entries ||
      pending_.size() < cap) {
    return Status::OK();
  }
  if (options_.backpressure == stream::BackpressurePolicy::kReject) {
    return backpressure_.Reject(pending_.size(), cap);
  }
  backpressure_.Block(lock, [this, cap] {
    return pending_.size() < cap || !background_status_.ok();
  });
  return background_status_;
}

Status Clsm::Insert(uint64_t series_id, std::span<const float> znorm_values,
                    int64_t timestamp) {
  if (znorm_values.size() != static_cast<size_t>(options_.sax.series_length)) {
    return Status::InvalidArgument("series length mismatch");
  }
  // Summarize outside the lock: admission needs no shared state.
  IndexEntry entry;
  entry.key = series::InterleaveSax(
      series::ComputeSax(znorm_values, options_.sax), options_.sax);
  entry.series_id = series_id;
  entry.timestamp = timestamp;

  std::shared_ptr<const PendingFlush> pending;
  const QuerySnapshot* superseded = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!background_status_.ok()) return background_status_;
    // Backpressure gates admission before any state commits: a refused or
    // error-woken entry leaves the memtable untouched.
    COCONUT_RETURN_NOT_OK(ApplyBackpressureLocked(&lock));
    const uint64_t n = gen_->published.load(std::memory_order_relaxed);
    gen_->entries[n] = entry;
    if (options_.materialized) {
      std::copy(znorm_values.begin(), znorm_values.end(),
                gen_->payloads.get() + n * gen_->series_length);
    }
    // The admission commit point, still under mu_: log record order is
    // exactly the admission order. The PP facade clamps timestamps before
    // Insert, so what is logged replays idempotently through this path.
    if (options_.wal != nullptr) {
      options_.wal->AppendAdmit(series_id, timestamp, znorm_values);
    }
    // Admitted: visible to snapshot readers from this release store.
    gen_->published.store(n + 1, std::memory_order_release);
    snapshot_version_.fetch_add(1, std::memory_order_acq_rel);
    if (n + 1 >= options_.buffer_entries) {
      pending = DetachMemtableLocked();
      if (pending != nullptr) {
        superseded = RepublishSnapshotLocked();
        if (async()) {
          EnqueueFlushLocked(pending);
          pending = nullptr;
        }
      }
    }
  }
  stream::epoch::EpochManager::Global().Retire(superseded);
  // Sync mode: flush inline, off the lock (FlushTask re-acquires mu_).
  if (pending != nullptr) return FlushTask(std::move(pending));
  return Status::OK();
}

Status Clsm::FlushBuffer() {
  std::shared_ptr<const PendingFlush> pending;
  const QuerySnapshot* superseded = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending = DetachMemtableLocked();
    if (pending != nullptr) {
      superseded = RepublishSnapshotLocked();
      if (async()) {
        EnqueueFlushLocked(pending);
        pending = nullptr;
      }
    }
  }
  stream::epoch::EpochManager::Global().Retire(superseded);
  if (pending != nullptr) {
    COCONUT_RETURN_NOT_OK(FlushTask(std::move(pending)));
  }
  if (async()) executor_->Drain();
  std::lock_guard<std::mutex> lock(mu_);
  return background_status_;
}

Status Clsm::MergeIntoLevel(RunSet* work, size_t level,
                            std::span<const IndexEntry> mem_entries,
                            std::span<const float> mem_payloads,
                            bool from_memtable,
                            std::vector<std::string>* retired,
                            uint64_t* rewritten) {
  const size_t len = options_.sax.series_length;

  // Assemble the newer input.
  std::unique_ptr<MergeSource> newer;
  if (from_memtable) {
    // Sort the buffer: indices sorted by key, then payloads permuted. The
    // detached generation is immutable, so the spans read race-free.
    std::vector<size_t> order(mem_entries.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&mem_entries](size_t a, size_t b) {
                return core::EntryKeyLess()(mem_entries[a], mem_entries[b]);
              });
    std::vector<IndexEntry> sorted_entries(mem_entries.size());
    std::vector<float> sorted_payloads;
    if (options_.materialized) sorted_payloads.resize(mem_payloads.size());
    for (size_t i = 0; i < order.size(); ++i) {
      sorted_entries[i] = mem_entries[order[i]];
      if (options_.materialized) {
        std::copy(mem_payloads.begin() + order[i] * len,
                  mem_payloads.begin() + (order[i] + 1) * len,
                  sorted_payloads.begin() + i * len);
      }
    }
    newer = std::make_unique<MemtableSource>(std::move(sorted_entries),
                                             std::move(sorted_payloads), len);
  } else {
    newer = std::make_unique<TableSource>((*work)[level - 1].get());
  }

  if (work->size() <= level) work->resize(level + 1);

  // Older input: the existing run at this level, if any.
  std::unique_ptr<MergeSource> older;
  if ((*work)[level] != nullptr) {
    older = std::make_unique<TableSource>((*work)[level].get());
  }

  const std::string new_name = RunName(level);
  COCONUT_ASSIGN_OR_RETURN(
      std::unique_ptr<SeqTableBuilder> builder,
      SeqTableBuilder::Create(storage_, new_name, RunOptions(options_)));

  // Two-way merge; ties go to the newer input (freshness, though entries
  // are append-only here so order among equals is cosmetic).
  IndexEntry a_entry, b_entry;
  std::vector<float> a_payload, b_payload;
  COCONUT_ASSIGN_OR_RETURN(bool a_has, newer->Next(&a_entry, &a_payload));
  bool b_has = false;
  if (older != nullptr) {
    COCONUT_ASSIGN_OR_RETURN(b_has, older->Next(&b_entry, &b_payload));
  }
  while (a_has || b_has) {
    const bool take_a =
        a_has && (!b_has || !core::EntryKeyLess()(b_entry, a_entry));
    if (take_a) {
      COCONUT_RETURN_NOT_OK(builder->Add(
          a_entry, options_.materialized
                       ? std::span<const float>(a_payload)
                       : std::span<const float>()));
      COCONUT_ASSIGN_OR_RETURN(a_has, newer->Next(&a_entry, &a_payload));
    } else {
      COCONUT_RETURN_NOT_OK(builder->Add(
          b_entry, options_.materialized
                       ? std::span<const float>(b_payload)
                       : std::span<const float>()));
      COCONUT_ASSIGN_OR_RETURN(b_has, older->Next(&b_entry, &b_payload));
    }
  }
  *rewritten += builder->entries_added();
  COCONUT_RETURN_NOT_OK(builder->Finish());

  // Swap the merged run into the working copy; remember replaced names so
  // their files are unlinked after publication.
  if ((*work)[level] != nullptr) {
    retired->push_back((*work)[level]->name());
  }
  if (!from_memtable) {
    retired->push_back((*work)[level - 1]->name());
    (*work)[level - 1] = nullptr;
  }
  COCONUT_ASSIGN_OR_RETURN(std::shared_ptr<SeqTable> opened,
                           SeqTable::Open(storage_, new_name, ReadPool()));
  (*work)[level] = std::move(opened);
  return Status::OK();
}

Status Clsm::FlushTask(std::shared_ptr<const PendingFlush> pending) {
  // Test seam: fault-injection suites throttle flushes here (to pile up
  // in-flight memtables against the cap) or fail them outright.
  if (options_.seal_test_hook) {
    COCONUT_RETURN_NOT_OK(options_.seal_test_hook());
  }
  // Working copy of the current run set: this path is the only mutator and
  // is serialized (strand in async mode, single caller in sync mode).
  RunSet work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    work = *runs_;
  }

  // Level-0 merge folds the detached memtable in; publish immediately so
  // the pending data is retired the instant it is queryable on disk.
  std::vector<std::string> retired;
  uint64_t rewritten = 0;
  COCONUT_RETURN_NOT_OK(MergeIntoLevel(&work, 0, pending->entries(),
                                       pending->payloads(),
                                       /*from_memtable=*/true, &retired,
                                       &rewritten));
  PublishRuns(std::make_shared<RunSet>(work), pending.get(), rewritten,
              /*merges=*/1);
  for (const std::string& name : retired) {
    COCONUT_RETURN_NOT_OK(RetireFile(name));
  }

  // Cascade: push overflowing runs down, publishing after every merge so
  // queries always see a complete, consistent set.
  for (size_t level = 0; level < work.size(); ++level) {
    if (work[level] == nullptr) continue;
    if (work[level]->num_entries() <= LevelCapacity(level)) break;
    retired.clear();
    rewritten = 0;
    COCONUT_RETURN_NOT_OK(MergeIntoLevel(&work, level + 1, {}, {},
                                         /*from_memtable=*/false, &retired,
                                         &rewritten));
    PublishRuns(std::make_shared<RunSet>(work), /*retired_pending=*/nullptr,
                rewritten, /*merges=*/1);
    for (const std::string& name : retired) {
      COCONUT_RETURN_NOT_OK(RetireFile(name));
    }
  }
  // The cascade is complete and its outputs are synced; record the new
  // run set durably so recovery replays only the suffix.
  return CheckpointDurable();
}

void Clsm::EncodeManifest(std::vector<uint8_t>* manifest,
                          uint64_t* durable_entries) const {
  std::shared_ptr<const RunSet> runs;
  uint64_t version = 0;
  uint64_t rewritten = 0;
  uint64_t merges = 0;
  uint64_t flushes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    runs = runs_;
    version = version_;
    rewritten = entries_rewritten_;
    merges = merges_performed_;
    flushes = flushes_completed_;
  }
  manifest->clear();
  *durable_entries = 0;
  stream::WalPutU32(manifest, static_cast<uint32_t>(runs->size()));
  for (const auto& level : *runs) {
    stream::WalPutU32(manifest, level != nullptr ? 1 : 0);
    if (level == nullptr) continue;
    stream::WalPutString(manifest, level->name());
    stream::WalPutU64(manifest, level->num_entries());
    *durable_entries += level->num_entries();
  }
  stream::WalPutU64(manifest, version);
  stream::WalPutU64(manifest, rewritten);
  stream::WalPutU64(manifest, merges);
  stream::WalPutU64(manifest, flushes);
}

Status Clsm::RestoreFromManifest(std::span<const uint8_t> manifest) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (MemtableCountLocked() != 0 || !pending_.empty() || !runs_->empty()) {
      return Status::InvalidArgument(
          "manifest restore requires an empty tree");
    }
  }
  stream::WalReader reader(manifest);
  uint32_t level_count = 0;
  if (!reader.GetU32(&level_count)) {
    return Status::DataLoss("checkpoint manifest truncated");
  }
  auto runs = std::make_shared<RunSet>();
  runs->resize(level_count);
  for (uint32_t i = 0; i < level_count; ++i) {
    uint32_t present = 0;
    if (!reader.GetU32(&present)) {
      return Status::DataLoss("checkpoint manifest truncated");
    }
    if (present == 0) continue;
    std::string name;
    uint64_t entries = 0;
    if (!reader.GetString(&name) || !reader.GetU64(&entries)) {
      return Status::DataLoss("checkpoint manifest truncated");
    }
    COCONUT_ASSIGN_OR_RETURN(std::shared_ptr<SeqTable> table,
                             SeqTable::Open(storage_, name, ReadPool()));
    if (table->num_entries() != entries) {
      return Status::DataLoss(
          "run " + name + " holds " + std::to_string(table->num_entries()) +
          " entries, checkpoint manifest recorded " + std::to_string(entries));
    }
    (*runs)[i] = std::move(table);
  }
  uint64_t version = 0;
  uint64_t rewritten = 0;
  uint64_t merges = 0;
  uint64_t flushes = 0;
  if (!reader.GetU64(&version) || !reader.GetU64(&rewritten) ||
      !reader.GetU64(&merges) || !reader.GetU64(&flushes) ||
      !reader.AtEnd()) {
    return Status::DataLoss("checkpoint manifest truncated");
  }
  const QuerySnapshot* superseded = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    runs_ = std::move(runs);
    version_ = version;
    entries_rewritten_ = rewritten;
    merges_performed_ = merges;
    flushes_completed_ = flushes;
    snapshot_version_.fetch_add(1, std::memory_order_acq_rel);
    superseded = RepublishSnapshotLocked();
  }
  stream::epoch::EpochManager::Global().Retire(superseded);
  return Status::OK();
}

Status Clsm::CommitDurable() {
  if (options_.wal == nullptr) return Status::OK();
  return options_.wal->Commit();
}

Status Clsm::CheckpointDurable() {
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

Status Clsm::RetireFile(const std::string& name) {
  if (options_.wal != nullptr) {
    pending_unlinks_.push_back(name);
    return Status::OK();
  }
  return storage_->RemoveFile(name);
}

uint64_t Clsm::num_entries() const {
  stream::epoch::EpochGuard guard;
  const QuerySnapshot* snap = snapshot_.load(std::memory_order_acquire);
  uint64_t total = snap->entries_pending + snap->entries_in_runs;
  if (snap->memtable != nullptr) {
    total += snap->memtable->published.load(std::memory_order_acquire);
  }
  return total;
}

size_t Clsm::num_active_levels() const {
  stream::epoch::EpochGuard guard;
  const QuerySnapshot* snap = snapshot_.load(std::memory_order_acquire);
  size_t active = 0;
  for (const auto& level : *snap->runs) {
    if (level != nullptr) ++active;
  }
  return active;
}

uint64_t Clsm::level_entries(size_t level) const {
  stream::epoch::EpochGuard guard;
  const QuerySnapshot* snap = snapshot_.load(std::memory_order_acquire);
  if (level >= snap->runs->size() || (*snap->runs)[level] == nullptr) return 0;
  return (*snap->runs)[level]->num_entries();
}

uint64_t Clsm::total_file_bytes() const {
  stream::epoch::EpochGuard guard;
  const QuerySnapshot* snap = snapshot_.load(std::memory_order_acquire);
  uint64_t total = 0;
  for (const auto& level : *snap->runs) {
    if (level != nullptr) total += level->file_bytes();
  }
  return total;
}

stream::StreamingStats Clsm::SnapshotStats() const {
  stream::epoch::EpochGuard guard;
  const QuerySnapshot* snap = snapshot_.load(std::memory_order_acquire);
  stream::StreamingStats stats;
  stats.buffered =
      snap->memtable != nullptr
          ? static_cast<size_t>(
                snap->memtable->published.load(std::memory_order_acquire))
          : 0;
  stats.entries = stats.buffered + snap->entries_pending + snap->entries_in_runs;
  uint64_t runs = 0;
  for (const auto& level : *snap->runs) {
    if (level != nullptr) ++runs;
  }
  stats.sealed_partitions = runs;
  stats.pending_tasks = snap->pending.size();
  stats.seals_completed = snap->flushes_completed;
  stats.merges_completed = snap->merges_performed;
  stats.seals_inflight = snap->pending.size();
  stats.ingest_stalls = backpressure_.stalls();
  stats.ingest_rejects = backpressure_.rejects();
  stats.stall_ms_p50 = backpressure_.StallPercentileMs(0.50);
  stats.stall_ms_p99 = backpressure_.StallPercentileMs(0.99);
  stats.stall_samples = backpressure_.SnapshotSamples();
  return stats;
}

Status Clsm::ApproxPassOverSnapshot(const QueryView& view,
                                    const seqtable::SearchContext& ctx,
                                    const SearchOptions& options,
                                    seqtable::KnnCollector* best) {
  COCONUT_RETURN_NOT_OK(seqtable::EvaluateCandidates(
      ctx, options, view.memtable, view.memtable_payloads,
      options.approx_candidates, best));
  for (const auto& pending : view.snap->pending) {
    COCONUT_RETURN_NOT_OK(seqtable::EvaluateCandidates(
        ctx, options, pending->entries(), pending->payloads(),
        options.approx_candidates, best));
  }
  for (const auto& level : *view.snap->runs) {
    if (level == nullptr) continue;
    COCONUT_ASSIGN_OR_RETURN(SearchResult r,
                             seqtable::ApproxSearchTable(*level, ctx, options));
    best->Offer(r);
  }
  return Status::OK();
}

Status Clsm::ExactPassOverSnapshot(const QueryView& view,
                                   const seqtable::SearchContext& ctx,
                                   const SearchOptions& options,
                                   seqtable::KnnCollector* collector) {
  // In-memory entries first (cheap, tightens the bound): the memtable and
  // any flushes still in flight.
  COCONUT_RETURN_NOT_OK(seqtable::EvaluateCandidates(
      ctx, options, view.memtable, view.memtable_payloads,
      /*max_verifications=*/-1, collector));
  for (const auto& pending : view.snap->pending) {
    COCONUT_RETURN_NOT_OK(seqtable::EvaluateCandidates(
        ctx, options, pending->entries(), pending->payloads(),
        /*max_verifications=*/-1, collector));
  }
  for (const auto& level : *view.snap->runs) {
    if (level == nullptr) continue;
    COCONUT_RETURN_NOT_OK(
        seqtable::ExactScanTable(*level, ctx, options, collector));
  }
  return Status::OK();
}

Result<SearchResult> Clsm::ApproxSearch(std::span<const float> query,
                                        const SearchOptions& options,
                                        core::QueryCounters* counters) {
  stream::epoch::EpochGuard guard;
  const QueryView view = CaptureView();
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector best(1);
  COCONUT_RETURN_NOT_OK(ApproxPassOverSnapshot(view, ctx, options, &best));
  return best.Nearest();
}

Result<SearchResult> Clsm::ExactSearch(std::span<const float> query,
                                       const SearchOptions& options,
                                       core::QueryCounters* counters) {
  // One captured view serves the approximate seed and the exact scans, so
  // both passes see the same entries even while ingestion races ahead.
  stream::epoch::EpochGuard guard;
  const QueryView view = CaptureView();
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector best(1);
  COCONUT_RETURN_NOT_OK(ApproxPassOverSnapshot(view, ctx, options, &best));
  COCONUT_RETURN_NOT_OK(ExactPassOverSnapshot(view, ctx, options, &best));
  return best.Nearest();
}

Result<std::vector<SearchResult>> Clsm::KnnSearch(
    std::span<const float> query, size_t k, const SearchOptions& options,
    core::QueryCounters* counters) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  stream::epoch::EpochGuard guard;
  const QueryView view = CaptureView();
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector collector(k);
  COCONUT_RETURN_NOT_OK(ExactPassOverSnapshot(view, ctx, options, &collector));
  return collector.Take();
}

}  // namespace clsm
}  // namespace coconut
