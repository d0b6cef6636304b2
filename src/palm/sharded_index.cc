#include "palm/sharded_index.h"

#include <algorithm>

namespace coconut {
namespace palm {

using Shard = ShardSet<core::DataSeriesIndex>::Shard;

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Create(
    storage::StorageManager* root, const std::string& name,
    const Options& options) {
  if (options.spec.mode != StreamMode::kStatic) {
    return Status::InvalidArgument("sharding supports static indexes only");
  }
  auto sharded = std::unique_ptr<ShardedIndex>(new ShardedIndex(options));
  // Each shard is a complete stack of the wrapped variant. The construction
  // sort budget is split so concurrent shard builds stay inside the
  // configured total.
  auto open = [&options](size_t, Shard& shard) -> Status {
    VariantSpec shard_spec = options.spec;
    shard_spec.num_shards = 1;
    shard_spec.memory_budget_bytes = std::max<size_t>(
        64 << 10, options.spec.memory_budget_bytes / options.num_shards);
    COCONUT_ASSIGN_OR_RETURN(
        shard.raw,
        core::RawSeriesStore::Create(shard.storage.get(), "raw",
                                     options.spec.sax.series_length));
    COCONUT_ASSIGN_OR_RETURN(
        shard.index,
        CreateStaticIndex(shard_spec, shard.storage.get(), "index",
                          shard.pool.get(), shard.raw.get()));
    return Status::OK();
  };
  COCONUT_RETURN_NOT_OK(sharded->shards_.Open(
      root, name, options.num_shards, options.pool_bytes_per_shard,
      options.spec.sax, /*keep_files=*/false, open));
  return sharded;
}

Status ShardedIndex::Insert(uint64_t series_id,
                            std::span<const float> znorm_values,
                            int64_t timestamp) {
  if (static_cast<int>(znorm_values.size()) !=
      options_.spec.sax.series_length) {
    return Status::InvalidArgument("series length mismatch");
  }
  // Routing recomputes the summarization the inner Insert derives again;
  // accepted duplication — passing a precomputed key down would change
  // DataSeriesIndex::Insert for every family, and builds are dominated by
  // the construction sort, not SAX.
  Shard& shard = shards_[ShardOf(znorm_values)];
  // The inner index speaks shard-local ids (its raw-store ordinals); the
  // mapping back to global ids is applied at gather time.
  COCONUT_ASSIGN_OR_RETURN(uint64_t local_id, shard.raw->Append(znorm_values));
  COCONUT_RETURN_NOT_OK(shard.index->Insert(local_id, znorm_values, timestamp));
  shard.local_to_global.Set(local_id, series_id);
  BumpSnapshotVersion();
  return Status::OK();
}

Status ShardedIndex::Finalize() {
  if (finalized_) return Status::OK();
  // Shards touch disjoint storage managers, pools and raw stores, so their
  // finalizes (CTree bulk sorts included) run concurrently.
  COCONUT_RETURN_NOT_OK(shards_.BuildAll([](Shard& shard) -> Status {
    COCONUT_RETURN_NOT_OK(shard.raw->Flush());
    return shard.index->Finalize();
  }));
  finalized_ = true;  // Only a fully successful build seals the index.
  BumpSnapshotVersion();
  return Status::OK();
}

Status ShardedIndex::ExactSearchBatch(
    std::span<const std::span<const float>> queries,
    const core::SearchOptions& options,
    std::span<core::SearchResult> results,
    std::span<core::QueryCounters> counters) {
  const size_t nq = queries.size();
  const size_t k = shards_.size();
  if (nq == 0) return Status::OK();
  for (size_t q = 0; q < nq; ++q) results[q] = core::SearchResult{};

  // Scatter: every shard scores the whole batch over its partition in one
  // shared pass. Per-shard result/counter slabs keep the workers disjoint.
  std::vector<Status> statuses(k);
  std::vector<std::vector<core::SearchResult>> shard_results(
      k, std::vector<core::SearchResult>(nq));
  std::vector<std::vector<core::QueryCounters>> shard_counters(
      k, std::vector<core::QueryCounters>(nq));
  shards_.Scatter([&](size_t i) {
    statuses[i] = shards_[i].index->ExactSearchBatch(
        queries, options, shard_results[i], shard_counters[i]);
  });

  for (size_t i = 0; i < k; ++i) {
    COCONUT_RETURN_NOT_OK(statuses[i]);
    for (size_t q = 0; q < nq; ++q) {
      COCONUT_RETURN_NOT_OK(
          shards_.Gather(i, shard_results[i][q], &results[q]));
      if (!counters.empty()) counters[q].Add(shard_counters[i][q]);
    }
  }
  return Status::OK();
}

void ShardedIndex::PoolCounters(uint64_t* hits, uint64_t* misses) const {
  uint64_t h = 0;
  uint64_t m = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    h += shards_[i].pool->hits();
    m += shards_[i].pool->misses();
  }
  if (hits != nullptr) *hits = h;
  if (misses != nullptr) *misses = m;
}

}  // namespace palm
}  // namespace coconut
