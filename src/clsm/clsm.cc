#include "clsm/clsm.h"

#include <algorithm>

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

/// Builds an immutable run set with its stats mirrors.
std::shared_ptr<const Clsm::RunSet> MakeRunSet(
    std::vector<std::shared_ptr<SeqTable>> levels, uint64_t rewritten) {
  auto runs = std::make_shared<Clsm::RunSet>();
  for (const auto& level : levels) {
    if (level == nullptr) continue;
    runs->entries += level->num_entries();
    runs->bytes += level->file_bytes();
    ++runs->runs;
  }
  runs->levels = std::move(levels);
  runs->entries_rewritten = rewritten;
  return runs;
}

/// One input of a two-way merge: either the sorted memtable or a run scan.
class MergeSource {
 public:
  virtual ~MergeSource() = default;
  /// Loads the next entry; false at end.
  virtual Result<bool> Next(IndexEntry* entry, std::vector<float>* payload) = 0;
};

/// The detached memtable in key order, read in place (the generation is
/// immutable from detach).
class MemtableSource : public MergeSource {
 public:
  explicit MemtableSource(const stream::PendingBuffer& memtable)
      : entries_(memtable.entries()),
        payloads_(memtable.payloads()),
        order_(memtable.KeyOrder()),
        len_(memtable.gen->series_length) {}

  Result<bool> Next(IndexEntry* entry, std::vector<float>* payload) override {
    if (pos_ >= order_.size()) return false;
    const size_t i = order_[pos_++];
    *entry = entries_[i];
    if (payload != nullptr && !payloads_.empty()) {
      payload->assign(payloads_.begin() + i * len_,
                      payloads_.begin() + (i + 1) * len_);
    }
    return true;
  }

 private:
  std::span<const IndexEntry> entries_;
  std::span<const float> payloads_;
  std::vector<size_t> order_;
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
      core_(
          Core::Options{
              .sax = options.sax,
              .materialized = options.materialized,
              .buffer_entries = options.buffer_entries,
              // The PP facade applies the timestamp policy before Insert.
              .timestamp_policy = stream::TimestampPolicy::kPermissive,
              .background = options.background,
              .max_inflight_seals = options.max_inflight_seals,
              .backpressure = options.backpressure,
              .seal_test_hook = options.seal_test_hook,
              .wal = options.wal,
              .storage = storage,
              .seal =
                  [this](const stream::PendingBuffer& p) {
                    return FlushMemtable(p);
                  },
              .encode_manifest =
                  [this](std::vector<uint8_t>* manifest, uint64_t* durable) {
                    EncodeManifest(manifest, durable);
                  }},
          MakeRunSet({}, 0)) {}

Clsm::~Clsm() {
  // Queued flushes close over `this`; drain them before members die.
  core_.Drain();
}

Result<std::unique_ptr<Clsm>> Clsm::Create(storage::StorageManager* storage,
                                           const std::string& prefix,
                                           const Options& options,
                                           storage::BufferPool* pool,
                                           core::RawSeriesStore* raw) {
  COCONUT_RETURN_NOT_OK(stream::ValidateStreamOptions(
      options.sax, options.buffer_entries, options.materialized, raw, "CLSM"));
  if (options.growth_factor < 2) {
    return Status::InvalidArgument("growth_factor must be >= 2");
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

Status Clsm::MergeIntoLevel(Levels* work, size_t level,
                            const stream::PendingBuffer* memtable,
                            std::vector<std::string>* retired,
                            uint64_t* rewritten) {
  // The newer input: the memtable (level 0) or the run one level up.
  std::unique_ptr<MergeSource> newer;
  if (memtable != nullptr) {
    newer = std::make_unique<MemtableSource>(*memtable);
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
  if (memtable == nullptr) {
    retired->push_back((*work)[level - 1]->name());
    (*work)[level - 1] = nullptr;
  }
  COCONUT_ASSIGN_OR_RETURN(std::shared_ptr<SeqTable> opened,
                           SeqTable::Open(storage_, new_name, ReadPool()));
  (*work)[level] = std::move(opened);
  return Status::OK();
}

Status Clsm::FlushMemtable(const stream::PendingBuffer& pending) {
  // Working copy of the current run set: this path is the only mutator and
  // is serialized (strand in async mode, single caller in sync mode).
  const std::shared_ptr<const RunSet> current = core_.sealed();
  Levels work = current->levels;
  uint64_t rewritten = current->entries_rewritten;

  // Level-0 merge folds the detached memtable in; publish immediately so
  // the pending data is retired the instant it is queryable on disk.
  std::vector<std::string> retired;
  COCONUT_RETURN_NOT_OK(
      MergeIntoLevel(&work, 0, &pending, &retired, &rewritten));
  core_.Publish(MakeRunSet(work, rewritten), &pending, /*merges_delta=*/1);
  for (const std::string& name : retired) {
    COCONUT_RETURN_NOT_OK(core_.RetireFile(name));
  }

  // Cascade: push overflowing runs down, publishing after every merge so
  // queries always see a complete, consistent set.
  for (size_t level = 0; level < work.size(); ++level) {
    if (work[level] == nullptr) continue;
    if (work[level]->num_entries() <= LevelCapacity(level)) break;
    retired.clear();
    COCONUT_RETURN_NOT_OK(MergeIntoLevel(&work, level + 1,
                                         /*memtable=*/nullptr, &retired,
                                         &rewritten));
    core_.Publish(MakeRunSet(work, rewritten), /*retired=*/nullptr,
                  /*merges_delta=*/1);
    for (const std::string& name : retired) {
      COCONUT_RETURN_NOT_OK(core_.RetireFile(name));
    }
  }
  return Status::OK();
}

void Clsm::EncodeManifest(std::vector<uint8_t>* manifest,
                          uint64_t* durable_entries) const {
  const Core::Progress progress = core_.CaptureProgress();
  const RunSet& runs = *progress.sealed;
  manifest->clear();
  *durable_entries = 0;
  stream::WalPutU32(manifest, static_cast<uint32_t>(runs.levels.size()));
  for (const auto& level : runs.levels) {
    stream::WalPutU32(manifest, level != nullptr ? 1 : 0);
    if (level == nullptr) continue;
    stream::WalPutString(manifest, level->name());
    stream::WalPutU64(manifest, level->num_entries());
    *durable_entries += level->num_entries();
  }
  stream::WalPutU64(manifest, version_);
  stream::WalPutU64(manifest, runs.entries_rewritten);
  stream::WalPutU64(manifest, progress.merges_completed);
  stream::WalPutU64(manifest, progress.seals_completed);
}

Status Clsm::RestoreFromManifest(std::span<const uint8_t> manifest) {
  stream::WalReader reader(manifest);
  uint32_t level_count = 0;
  if (!reader.GetU32(&level_count)) {
    return Status::DataLoss("checkpoint manifest truncated");
  }
  Levels levels(level_count);
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
    levels[i] = std::move(table);
  }
  uint64_t version = 0;
  uint64_t rewritten = 0;
  Core::Progress progress;
  if (!reader.GetU64(&version) || !reader.GetU64(&rewritten) ||
      !reader.GetU64(&progress.merges_completed) ||
      !reader.GetU64(&progress.seals_completed) || !reader.AtEnd()) {
    return Status::DataLoss("checkpoint manifest truncated");
  }
  progress.sealed = MakeRunSet(std::move(levels), rewritten);
  COCONUT_RETURN_NOT_OK(core_.Restore(std::move(progress)));
  version_ = version;
  return Status::OK();
}

uint64_t Clsm::level_entries(size_t level) const {
  const std::shared_ptr<const RunSet> runs = core_.sealed();
  if (level >= runs->levels.size() || runs->levels[level] == nullptr) {
    return 0;
  }
  return runs->levels[level]->num_entries();
}

stream::StreamingStats Clsm::SnapshotStats() const {
  stream::epoch::EpochGuard guard;
  const Core::Snapshot& snap = *core_.snapshot();
  stream::StreamingStats stats = core_.Stats(snap);
  stats.sealed_partitions = snap.sealed->runs;
  return stats;
}

Status Clsm::ApproxPass(const Core::View& view,
                        const seqtable::SearchContext& ctx,
                        const SearchOptions& options,
                        seqtable::KnnCollector* best) {
  COCONUT_RETURN_NOT_OK(Core::ScanUnsealed(view, ctx, options,
                                           options.approx_candidates, best));
  for (const auto& level : view.snap->sealed->levels) {
    if (level == nullptr) continue;
    COCONUT_ASSIGN_OR_RETURN(SearchResult r,
                             seqtable::ApproxSearchTable(*level, ctx, options));
    best->Offer(r);
  }
  return Status::OK();
}

Status Clsm::ExactPass(const Core::View& view,
                       const seqtable::SearchContext& ctx,
                       const SearchOptions& options,
                       seqtable::KnnCollector* collector) {
  // In-memory entries first (cheap, tightens the bound): the memtable and
  // any flushes still in flight.
  COCONUT_RETURN_NOT_OK(Core::ScanUnsealed(view, ctx, options,
                                           /*max_verifications=*/-1,
                                           collector));
  for (const auto& level : view.snap->sealed->levels) {
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
  const Core::View view = core_.CaptureView();
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector best(1);
  COCONUT_RETURN_NOT_OK(ApproxPass(view, ctx, options, &best));
  return best.Nearest();
}

Result<SearchResult> Clsm::ExactSearch(std::span<const float> query,
                                       const SearchOptions& options,
                                       core::QueryCounters* counters) {
  // One captured view serves the approximate seed and the exact scans, so
  // both passes see the same entries even while ingestion races ahead.
  stream::epoch::EpochGuard guard;
  const Core::View view = core_.CaptureView();
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector best(1);
  COCONUT_RETURN_NOT_OK(ApproxPass(view, ctx, options, &best));
  COCONUT_RETURN_NOT_OK(ExactPass(view, ctx, options, &best));
  return best.Nearest();
}

Result<std::vector<SearchResult>> Clsm::KnnSearch(
    std::span<const float> query, size_t k, const SearchOptions& options,
    core::QueryCounters* counters) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  stream::epoch::EpochGuard guard;
  const Core::View view = core_.CaptureView();
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector collector(k);
  COCONUT_RETURN_NOT_OK(ExactPass(view, ctx, options, &collector));
  return collector.Take();
}

}  // namespace clsm
}  // namespace coconut
