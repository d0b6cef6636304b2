#include "stream/tp.h"

#include <algorithm>

#include "stream/wal.h"

namespace coconut {
namespace stream {

namespace {

using core::IndexEntry;
using core::SearchOptions;
using core::SearchResult;
using core::TimeWindow;
using PartitionSet = TemporalPartitioningIndex::PartitionSet;

/// Builds an immutable set with its stats mirrors.
std::shared_ptr<const PartitionSet> MakeSet(
    TemporalPartitioningIndex::Partitions partitions,
    std::shared_ptr<ads::AdsIndex> live_ads) {
  auto set = std::make_shared<PartitionSet>();
  for (const auto& p : partitions) {
    set->entries += p->entries;
    if (p->table != nullptr) set->bytes += p->table->file_bytes();
    if (p->ads != nullptr) set->bytes += p->ads->index_bytes();
  }
  if (live_ads != nullptr) {
    set->live_ads_entries = live_ads->num_entries();
    set->entries += set->live_ads_entries;
    set->bytes += live_ads->index_bytes();
  }
  set->partitions = std::move(partitions);
  set->live_ads = std::move(live_ads);
  return set;
}

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
      core_(
          Core::Options{
              .sax = options.sax,
              .materialized = options.materialized,
              // kAds admits into its live tree, never the buffer.
              .buffer_entries = options.backend == PartitionBackend::kAds
                                    ? 0
                                    : options.buffer_entries,
              .timestamp_policy = options.timestamp_policy,
              .background = options.background,
              .max_inflight_seals = options.max_inflight_seals,
              .backpressure = options.backpressure,
              .seal_test_hook = options.seal_test_hook,
              .wal = options.wal,
              .storage = storage,
              .seal = [this](const PendingBuffer& p) { return SealBuffer(p); },
              .encode_manifest =
                  [this](std::vector<uint8_t>* manifest, uint64_t* durable) {
                    EncodeManifest(manifest, durable);
                  }},
          MakeSet({}, nullptr)) {}

TemporalPartitioningIndex::~TemporalPartitioningIndex() {
  // Queued seals close over `this`; drain them before members die.
  core_.Drain();
}

Result<std::unique_ptr<TemporalPartitioningIndex>>
TemporalPartitioningIndex::Create(storage::StorageManager* storage,
                                  const std::string& prefix,
                                  const Options& options,
                                  storage::BufferPool* pool,
                                  core::RawSeriesStore* raw) {
  COCONUT_RETURN_NOT_OK(ValidateStreamOptions(
      options.sax, options.buffer_entries, options.materialized, raw, "TP"));
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

void TemporalPartitioningIndex::PublishPartitions(Partitions partitions,
                                                  const PendingBuffer* retired,
                                                  uint64_t merges_delta) {
  core_.Publish(MakeSet(std::move(partitions), nullptr), retired,
                merges_delta);
}

Status TemporalPartitioningIndex::SealBuffer(const PendingBuffer& pending) {
  // Sort by key and lay the buffer out as one compact partition. All the
  // I/O happens here, off the admission lock.
  const size_t len = options_.sax.series_length;
  const std::span<const IndexEntry> entries = pending.entries();
  const std::span<const float> payloads = pending.payloads();
  const std::string name = prefix_ + ".p" + std::to_string(pending.seq);
  seqtable::SeqTableOptions topts;
  topts.sax = options_.sax;
  topts.materialized = options_.materialized;
  COCONUT_ASSIGN_OR_RETURN(
      std::unique_ptr<seqtable::SeqTableBuilder> builder,
      seqtable::SeqTableBuilder::Create(storage_, name, topts));
  for (size_t i : pending.KeyOrder()) {
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
      seqtable::SeqTable::Open(storage_, name, ReadPool()));
  partition->table = std::move(table);
  partition->t_min = pending.t_min;
  partition->t_max = pending.t_max;
  partition->name = name;

  Partitions next = CurrentPartitions()->partitions;
  next.push_back(std::move(partition));
  PublishPartitions(std::move(next), &pending, /*merges_delta=*/0);
  return AfterSeal();
}

Result<TemporalPartitioningIndex::Core::LiveEdit>
TemporalPartitioningIndex::LiveAdsEdit(const PartitionSet& current,
                                       bool seal) {
  if (!seal) return Core::LiveEdit{MakeSet(current.partitions, live_ads_)};
  COCONUT_RETURN_NOT_OK(live_ads_->Finalize());
  auto partition = std::make_shared<SealedPartition>();
  partition->entries = live_ads_->num_entries();
  partition->ads = std::move(live_ads_);
  partition->t_min = live_t_min_;
  partition->t_max = live_t_max_;
  partition->name = prefix_ + ".p" + std::to_string(next_ads_id_++);
  live_t_min_ = INT64_MAX;
  live_t_max_ = INT64_MIN;
  Partitions next = current.partitions;
  next.push_back(std::move(partition));
  return Core::LiveEdit{MakeSet(std::move(next), nullptr), true};
}

Status TemporalPartitioningIndex::Ingest(uint64_t series_id,
                                         std::span<const float> znorm_values,
                                         int64_t timestamp) {
  if (options_.backend == PartitionBackend::kSeqTable) {
    return core_.Admit(series_id, znorm_values, timestamp);
  }
  if (znorm_values.size() != static_cast<size_t>(options_.sax.series_length)) {
    return Status::InvalidArgument("series length mismatch");
  }
  // The live tree mutates in place, so every admission publishes a fresh
  // set: the stats mirrors stay exact without readers touching the tree.
  return core_.EditLive(
      &timestamp, [&](const PartitionSet& current) -> Result<Core::LiveEdit> {
        if (live_ads_ == nullptr) {
          ads::AdsIndex::Options aopts;
          aopts.sax = options_.sax;
          aopts.materialized = options_.materialized;
          aopts.leaf_capacity = options_.ads_leaf_capacity;
          aopts.global_buffer_entries = options_.buffer_entries;
          COCONUT_ASSIGN_OR_RETURN(
              live_ads_,
              ads::AdsIndex::Create(
                  storage_, prefix_ + ".p" + std::to_string(next_ads_id_),
                  aopts, raw_));
        }
        COCONUT_RETURN_NOT_OK(
            live_ads_->Insert(series_id, znorm_values, timestamp));
        live_t_min_ = std::min(live_t_min_, timestamp);
        live_t_max_ = std::max(live_t_max_, timestamp);
        return LiveAdsEdit(current,
                           live_ads_->num_entries() >= options_.buffer_entries);
      });
}

Status TemporalPartitioningIndex::FlushAll() {
  if (options_.backend == PartitionBackend::kSeqTable) return core_.Flush();
  return core_.EditLive(
      nullptr, [&](const PartitionSet& current) -> Result<Core::LiveEdit> {
        if (live_ads_ == nullptr || live_ads_->num_entries() == 0) {
          return Core::LiveEdit{};
        }
        return LiveAdsEdit(current, /*seal=*/true);
      });
}

Status TemporalPartitioningIndex::ApproxPass(const Core::View& view,
                                             const seqtable::SearchContext& ctx,
                                             const SearchOptions& options,
                                             seqtable::KnnCollector* best) {
  const PartitionSet& set = *view.snap->sealed;
  // Newest data first: the unsealed tail, in-flight seals, then partitions
  // newest to oldest.
  if (set.live_ads != nullptr && set.live_ads_entries > 0) {
    COCONUT_ASSIGN_OR_RETURN(
        SearchResult r,
        set.live_ads->ApproxSearch(ctx.query, options, ctx.counters));
    best->Offer(r);
  }
  COCONUT_RETURN_NOT_OK(Core::ScanUnsealed(view, ctx, options,
                                           options.approx_candidates, best));
  for (auto it = set.partitions.rbegin(); it != set.partitions.rend(); ++it) {
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
  const Core::View view = core_.CaptureView();
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector best(1);
  COCONUT_RETURN_NOT_OK(ApproxPass(view, ctx, options, &best));
  return best.Nearest();
}

Result<SearchResult> TemporalPartitioningIndex::ExactSearch(
    std::span<const float> query, const SearchOptions& options,
    core::QueryCounters* counters) {
  // One view serves both passes, so the approximate seed and the exact
  // scan see the same entries even while ingestion races ahead.
  epoch::EpochGuard guard;
  const Core::View view = core_.CaptureView();
  const PartitionSet& set = *view.snap->sealed;
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector best(1);
  // Approximate pass (cheap, tightens the bound) over the snapshot.
  COCONUT_RETURN_NOT_OK(ApproxPass(view, ctx, options, &best));

  // Exact pass: every intersecting source with the shared best-so-far.
  if (set.live_ads != nullptr && set.live_ads_entries > 0) {
    COCONUT_ASSIGN_OR_RETURN(
        SearchResult r, set.live_ads->ExactSearch(query, options, counters));
    best.Offer(r);
  }
  COCONUT_RETURN_NOT_OK(Core::ScanUnsealed(view, ctx, options,
                                           /*max_verifications=*/-1, &best));
  for (auto it = set.partitions.rbegin(); it != set.partitions.rend(); ++it) {
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

size_t TemporalPartitioningIndex::num_partitions() const {
  epoch::EpochGuard guard;
  return core_.snapshot()->sealed->partitions.size();
}

uint64_t TemporalPartitioningIndex::index_bytes() const {
  epoch::EpochGuard guard;
  return core_.snapshot()->sealed->bytes;
}

StreamingStats TemporalPartitioningIndex::SnapshotStats() const {
  epoch::EpochGuard guard;
  const Core::Snapshot& snap = *core_.snapshot();
  StreamingStats stats = core_.Stats(snap);
  stats.buffered += snap.sealed->live_ads_entries;
  stats.sealed_partitions = snap.sealed->partitions.size();
  return stats;
}

std::vector<TemporalPartitioningIndex::PartitionInfo>
TemporalPartitioningIndex::SnapshotPartitions() const {
  std::shared_ptr<const PartitionSet> set = CurrentPartitions();
  std::vector<PartitionInfo> infos;
  infos.reserve(set->partitions.size());
  for (const auto& p : set->partitions) {
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
  std::shared_ptr<const PartitionSet> set = CurrentPartitions();
  if (idx >= set->partitions.size()) {
    return Status::OutOfRange("partition index out of range");
  }
  const SealedPartition& p = *set->partitions[idx];
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
  const Core::Progress progress = core_.CaptureProgress();
  manifest->clear();
  *durable_entries = 0;
  const Partitions& parts = progress.sealed->partitions;
  WalPutU32(manifest, static_cast<uint32_t>(parts.size()));
  for (const auto& p : parts) {
    WalPutString(manifest, p->name);
    WalPutU64(manifest, p->entries);
    WalPutI64(manifest, p->t_min);
    WalPutI64(manifest, p->t_max);
    WalPutU32(manifest, static_cast<uint32_t>(p->size_class));
    *durable_entries += p->entries;
  }
  WalPutU64(manifest, progress.next_seq);
  WalPutU64(manifest, progress.seals_completed);
  WalPutU64(manifest, progress.merges_completed);
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
  WalReader reader(manifest);
  uint32_t count = 0;
  if (!reader.GetU32(&count)) {
    return Status::DataLoss("checkpoint manifest truncated");
  }
  Partitions parts;
  parts.reserve(count);
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
    parts.push_back(std::move(partition));
  }
  Core::Progress progress;
  uint64_t aux = 0;
  if (!reader.GetU64(&progress.next_seq) ||
      !reader.GetU64(&progress.seals_completed) ||
      !reader.GetU64(&progress.merges_completed) || !reader.GetU64(&aux) ||
      !reader.AtEnd()) {
    return Status::DataLoss("checkpoint manifest truncated");
  }
  progress.sealed = MakeSet(std::move(parts), nullptr);
  COCONUT_RETURN_NOT_OK(core_.Restore(std::move(progress)));
  RestoreManifestAuxCounter(aux);
  return Status::OK();
}

std::string TemporalPartitioningIndex::describe() const {
  std::string base = options_.backend == PartitionBackend::kAds
                         ? (options_.materialized ? "ADSFull" : "ADS+")
                         : (options_.materialized ? "CTreeFull" : "CTree");
  return base + "-TP";
}

}  // namespace stream
}  // namespace coconut
