#ifndef COCONUT_PALM_SHARDED_STREAMING_INDEX_H_
#define COCONUT_PALM_SHARDED_STREAMING_INDEX_H_

#include <memory>
#include <mutex>
#include <string>

#include "palm/factory.h"
#include "palm/shard_set.h"
#include "storage/storage_manager.h"
#include "stream/streaming_index.h"

namespace coconut {
namespace palm {

/// One logical *live stream* split by invSAX key range across K shards —
/// the fusion of the two scale axes. A ShardSet (shard_set.h) owns the
/// shard stacks, routing, fan-out, id maps and gather, exactly as under the
/// static ShardedIndex; this wrapper adds the global timestamp watermark
/// and the per-shard write-ahead logs. Each shard is a full, independent
/// async streaming stack (inner CTree-TP / CLSM-BTP / CLSM-PP), and each
/// shard's seal/flush/merge cascades run FIFO on that shard's own
/// SerialExecutor strand over the shared background pool. Temporal
/// partitioning happens *inside* every shard as before, so the layout is
/// the ROADMAP's "temporal × key-range" grid.
///
/// Routing: a series' interleaved sortable key is computed once at ingest
/// and mapped to a shard by the same contiguous monotone split the static
/// ShardedIndex uses — which shard a series lands in depends only on its
/// values, never on scheduling, so shard contents are deterministic (the
/// determinism suite pins this).
///
/// Queries scatter-gather: each shard evaluates one atomic snapshot of its
/// own buffer/pending/partition state (the PR 3 snapshot machinery) and
/// the gather keeps the closest candidate, ties broken toward the smaller
/// global id. Shards cover the stream disjointly and each per-shard search
/// is exact over its shard, so the gathered minimum equals the unsharded
/// exact answer.
///
/// Threading: Ingest is safe for concurrent callers (per-shard ingest
/// locks serialize the raw append + inner ingest + id-map update; the
/// global timestamp watermark has its own lock). Queries and stats reads
/// run concurrently with ingestion — inner async indexes are
/// snapshot-isolated by contract. FlushAll() is a cross-shard drain
/// barrier.
///
/// Backpressure: VariantSpec::max_inflight_seals applies per shard (each
/// shard's flusher is an independent strand); a blocked or rejected
/// Ingest reports through the same path as unsharded, and SnapshotStats()
/// aggregates the per-shard counters via StreamingStats::Add.
class ShardedStreamingIndex : public stream::StreamingIndex {
 public:
  struct Options {
    /// The per-shard variant. num_shards inside this spec is ignored (the
    /// wrapper owns sharding); must be an async-capable streaming cell.
    VariantSpec spec;
    size_t num_shards = 2;
    /// Per-shard buffer pool budget.
    size_t pool_bytes_per_shard = 4ull << 20;
  };

  /// Creates K empty shards under `root->directory()/name_shardN`. With
  /// spec.durable set, each shard also gets its own fresh write-ahead log.
  static Result<std::unique_ptr<ShardedStreamingIndex>> Create(
      storage::StorageManager* root, const std::string& name,
      const Options& options);

  /// Recovers K durable shards left behind by a previous process: each
  /// shard's log is scanned, its raw store cut back to the durable prefix,
  /// its checkpointed partition state restored and the acknowledged log
  /// suffix replayed through the normal ingest path. The global timestamp
  /// watermark and the per-shard id maps are rebuilt from the logs.
  static Result<std::unique_ptr<ShardedStreamingIndex>> Recover(
      storage::StorageManager* root, const std::string& name,
      const Options& options);

  /// Whether Recover() has durable per-shard state to work from (spec
  /// durable streams leave `<name>_shard0/wal` behind).
  static bool HasDurableState(const storage::StorageManager* root,
                              const std::string& name) {
    return root->Exists(name + "_shard0/wal");
  }

  ~ShardedStreamingIndex() override;

  // --- stream::StreamingIndex ---
  Status Ingest(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp) override;
  Status FlushAll() override;
  Result<core::SearchResult> ApproxSearch(
      std::span<const float> query, const core::SearchOptions& options,
      core::QueryCounters* counters) override {
    return shards_.Search(query, options, counters, /*exact=*/false);
  }
  Result<core::SearchResult> ExactSearch(
      std::span<const float> query, const core::SearchOptions& options,
      core::QueryCounters* counters) override {
    return shards_.Search(query, options, counters, /*exact=*/true);
  }
  uint64_t num_entries() const override { return shards_.num_entries(); }
  size_t num_partitions() const override;
  uint64_t index_bytes() const override { return shards_.index_bytes(); }
  std::string describe() const override {
    return shards_.describe("ShardedStream");
  }
  stream::StreamingStats SnapshotStats() const override;

  /// Group-commits every shard's write-ahead log — the sharded ack gate.
  /// OK when the stream is not durable.
  Status CommitDurable() override;

  /// Reclaims every shard's log prefix behind its newest durable
  /// checkpoint (call after FlushAll, when checkpoints cover everything).
  Status TruncateDurableLogs();

  /// The smallest unused global series id after Recover() (max mapped
  /// global id + 1; 0 for an empty stream).
  uint64_t recovered_next_series_id() const { return recovered_next_id_; }

  /// Sum of per-shard inner stamps — monotone (every shard's counter only
  /// grows), so equal reads bracketing a query prove no shard admitted or
  /// published anything in between. All mutation goes through the inner
  /// indexes (AdmitToShard → inner Ingest; cascades bump inside), so the
  /// wrapper needs no counter of its own.
  uint64_t snapshot_version() const override {
    return shards_.snapshot_version();
  }

  size_t num_shards() const { return shards_.size(); }

  /// The shard a series with these (z-normalized) values routes to —
  /// exposed so tests can replay the routing and build per-range oracles.
  size_t ShardOf(std::span<const float> znorm_values) const {
    return shards_.ShardOf(znorm_values);
  }

  /// Shard i's inner streaming index (tests compare per-shard partition
  /// sets bit-for-bit against unsharded references).
  stream::StreamingIndex* shard(size_t i) { return shards_[i].index.get(); }

  /// Per-shard progress snapshot (shard-local counters, shard-local
  /// percentiles).
  stream::StreamingStats ShardStats(size_t i) const {
    return shards_[i].index->SnapshotStats();
  }

  /// Sum of every shard's I/O counters.
  storage::IoStats AggregateIoStats() const {
    return shards_.AggregateIoStats();
  }

  /// All shards wrap the same spec, so one delegate answers for the group:
  /// the gather path reads each shard's epoch-published snapshot and the
  /// lock-free id map, never an admission lock.
  bool ConcurrentReadsSafe() const override {
    return shards_.size() > 0 && shards_[0].index->ConcurrentReadsSafe();
  }

 private:
  explicit ShardedStreamingIndex(Options options)
      : options_(std::move(options)) {}

  /// Shared body of Create/Recover: builds the K shard stacks, opening
  /// (and, when `recover` is set, replaying) the per-shard logs.
  static Result<std::unique_ptr<ShardedStreamingIndex>> Build(
      storage::StorageManager* root, const std::string& name,
      const Options& options, bool recover);

  /// Routes one entry to its shard and admits it (raw append + id map +
  /// inner Ingest under the shard's admission lock). Policy enforcement
  /// happens in Ingest, above this.
  Status AdmitToShard(uint64_t series_id,
                      std::span<const float> znorm_values, int64_t timestamp);

  Options options_;
  ShardSet<stream::StreamingIndex> shards_;

  /// Global stream-order state: the timestamp policy must see one
  /// watermark across shards, or a regression straddling two shards would
  /// slip past kStrict/kClamp. Held across the whole admission for the
  /// non-permissive policies (a global order is one serialization point);
  /// kPermissive never touches it.
  std::mutex watermark_mu_;
  int64_t last_timestamp_ = INT64_MIN;

  /// See recovered_next_series_id().
  uint64_t recovered_next_id_ = 0;
};

}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_SHARDED_STREAMING_INDEX_H_
