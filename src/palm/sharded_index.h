#ifndef COCONUT_PALM_SHARDED_INDEX_H_
#define COCONUT_PALM_SHARDED_INDEX_H_

#include <memory>
#include <string>

#include "core/index.h"
#include "palm/factory.h"
#include "palm/shard_set.h"
#include "storage/storage_manager.h"

namespace coconut {
namespace palm {

/// One logical static index split by invSAX key range across K shards of
/// the wrapped variant — a ShardSet (shard_set.h) owns the shard stacks,
/// routing, fan-out, id maps and gather; this wrapper adds the build path.
///
/// Routing: a series' interleaved sortable key is mapped to a shard by a
/// contiguous, monotone split of the key space — shard boundaries are
/// key-range boundaries, exactly the "split the sorted order at arbitrary
/// keys" property Coconut's sortable summarizations buy. Every series lands
/// in exactly one shard, so the shards partition the dataset.
///
/// Queries scatter-gather, so the gathered minimum distance equals the
/// unsharded exact answer — the equivalence sharded_oracle_test pins
/// against brute force. The one permitted divergence: when two series sit
/// at *exactly* equal distance, the gather deterministically returns the
/// smaller global id, while an unsharded traversal keeps whichever it
/// encountered first.
///
/// Threading: Insert/Finalize are single-caller (the build path); Finalize
/// builds the shards concurrently, one thread per shard. Searches are safe
/// for concurrent callers: each shard's inner index — whose buffer pool and
/// tracker are single-threaded by contract — is serialized behind its
/// shard mutex, and distinct shards proceed in parallel.
class ShardedIndex : public core::DataSeriesIndex {
 public:
  struct Options {
    /// The per-shard variant. num_shards inside this spec is ignored (the
    /// wrapper owns sharding); the sort memory budget is divided across
    /// shards so concurrent shard builds respect the configured total.
    VariantSpec spec;
    size_t num_shards = 2;
    /// Per-shard buffer pool budget.
    size_t pool_bytes_per_shard = 4ull << 20;
  };

  /// Creates K empty shards under `root->directory()/name_shardN`.
  static Result<std::unique_ptr<ShardedIndex>> Create(
      storage::StorageManager* root, const std::string& name,
      const Options& options);

  // --- core::DataSeriesIndex ---
  Status Insert(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp) override;
  Status Finalize() override;
  Result<core::SearchResult> ApproxSearch(std::span<const float> query,
                                          const core::SearchOptions& options,
                                          core::QueryCounters* counters)
      override {
    return shards_.Search(query, options, counters, /*exact=*/false);
  }
  Result<core::SearchResult> ExactSearch(std::span<const float> query,
                                         const core::SearchOptions& options,
                                         core::QueryCounters* counters)
      override {
    return shards_.Search(query, options, counters, /*exact=*/true);
  }
  /// Batched scatter-gather: each shard answers the whole batch in one
  /// pass (its inner index's ExactSearchBatch — a shared leaf-level scan
  /// through the batched distance kernels for CTree shards), then each
  /// query gathers as ExactSearch does.
  Status ExactSearchBatch(std::span<const std::span<const float>> queries,
                          const core::SearchOptions& options,
                          std::span<core::SearchResult> results,
                          std::span<core::QueryCounters> counters) override;
  uint64_t num_entries() const override { return shards_.num_entries(); }
  uint64_t index_bytes() const override { return shards_.index_bytes(); }
  std::string describe() const override { return shards_.describe("Sharded"); }

  /// Wrapper-level mutations plus the sum of per-shard inner stamps — a
  /// monotone sum (every term only grows), so equal reads bracketing a
  /// query still prove no shard changed in between.
  uint64_t snapshot_version() const override {
    return core::DataSeriesIndex::snapshot_version() +
           shards_.snapshot_version();
  }

  size_t num_shards() const { return shards_.size(); }

  /// The shard a series with these (z-normalized) values routes to —
  /// exposed so tests can construct queries that straddle boundaries.
  size_t ShardOf(std::span<const float> znorm_values) const {
    return shards_.ShardOf(znorm_values);
  }

  /// Entries resident in one shard (balance inspection).
  uint64_t shard_entries(size_t shard) const {
    return shards_[shard].index->num_entries();
  }

  /// Sum of every shard's I/O counters.
  storage::IoStats AggregateIoStats() const {
    return shards_.AggregateIoStats();
  }

  /// Aggregate buffer-pool hit/miss counters across shards.
  void PoolCounters(uint64_t* hits, uint64_t* misses) const;

 private:
  explicit ShardedIndex(Options options) : options_(std::move(options)) {}

  Options options_;
  ShardSet<core::DataSeriesIndex> shards_;
  bool finalized_ = false;
};

}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_SHARDED_INDEX_H_
