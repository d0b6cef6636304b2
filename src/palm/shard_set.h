#ifndef COCONUT_PALM_SHARD_SET_H_
#define COCONUT_PALM_SHARD_SET_H_

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/index.h"
#include "core/raw_store.h"
#include "palm/shard_route.h"
#include "series/isax.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "stream/streaming_index.h"
#include "stream/wal.h"

namespace coconut {
namespace palm {

/// The in-process scatter-gather core under both sharded wrappers: one
/// logical index split by invSAX key range (shard_route.h) across K shards,
/// each a full, independent stack — its own StorageManager (the
/// subdirectory `<name>_shard<i>`), BufferPool, RawSeriesStore and inner
/// index. `Inner` is core::DataSeriesIndex (ShardedIndex) or
/// stream::StreamingIndex (ShardedStreamingIndex).
///
/// Queries fan out (RunOnEach) on an internal pool of min(K,
/// kMaxQueryThreads) threads; each shard answers over its own partition
/// with shard-local ids, and the one gather step (GatherAnswer) maps them
/// back through the shard's IdMap and keeps the nearest. The shards
/// cover the data disjointly and each per-shard search is exact over its
/// shard, so the gathered minimum equals the unsharded exact answer.
///
/// Reads into a shard whose index is not ConcurrentReadsSafe (static
/// inners keep single-threaded query state: buffer-pool page pointers,
/// access tracker) serialize behind its mutex while distinct shards run
/// in parallel; epoch-snapshot streams are read without it. Asked of the
/// inner index, never configured.
template <class Inner>
class ShardSet {
 public:
  /// Query fan-out threads: one per shard, at most this many.
  static constexpr size_t kMaxQueryThreads = 8;

  struct Shard {
    std::unique_ptr<storage::StorageManager> storage;
    std::unique_ptr<storage::BufferPool> pool;
    std::unique_ptr<core::RawSeriesStore> raw;
    /// Per-shard write-ahead log (durable streams only). Declared before
    /// the index, which holds a raw pointer to it, so it outlives the
    /// index's destructor.
    std::unique_ptr<stream::Wal> wal;
    std::unique_ptr<Inner> index;
    /// Shard-local raw-store ordinal -> global series id; lock-free so the
    /// gather never waits on a backpressure-blocked admission.
    IdMap local_to_global;
    /// Serializes reads unless the index is ConcurrentReadsSafe, and a
    /// stream's admission (raw append, id map and inner Ingest must agree
    /// on the local ordinal).
    std::mutex mu;
  };

  /// Opens shard i's raw store and inner index (and, for a durable stream,
  /// its log) over the storage manager and pool the core made for it.
  using OpenShard = std::function<Status(size_t i, Shard& shard)>;

  /// Builds K shard stacks under `root->directory()/<name>_shard<i>`: each
  /// gets its storage manager (emptied first unless `keep_files`) and a
  /// buffer pool of `pool_bytes_per_shard`; `open` fills in the rest.
  Status Open(storage::StorageManager* root, const std::string& name,
              size_t num_shards, size_t pool_bytes_per_shard,
              const series::SaxConfig& sax, bool keep_files,
              const OpenShard& open);

  size_t size() const { return shards_.size(); }
  Shard& operator[](size_t i) { return *shards_[i]; }
  const Shard& operator[](size_t i) const { return *shards_[i]; }

  /// The shard a (z-normalized) series routes to — the same key range
  /// whether it arrives in a bulk build or on a live stream.
  size_t ShardOf(std::span<const float> znorm_values) const;

  /// Runs fn(i) for every shard on the query pool and returns once all
  /// have finished; shard i's mutex is held around fn(i) unless its index
  /// is ConcurrentReadsSafe.
  void Scatter(const std::function<void(size_t)>& fn);

  /// Runs fn on every shard concurrently, one build thread per shard (the
  /// shards touch disjoint storage), and returns the first failure in
  /// shard order.
  Status BuildAll(const std::function<Status(Shard&)>& fn);

  /// Runs fn on every shard in order — all of them, even after a failure,
  /// so one failed shard does not leave another's work half done — and
  /// returns the first failure.
  Status ForEach(const std::function<Status(Shard&)>& fn);

  /// One query scattered to every shard and gathered; `counters` receives
  /// the sum over shards.
  Result<core::SearchResult> Search(std::span<const float> query,
                                    const core::SearchOptions& options,
                                    core::QueryCounters* counters, bool exact);

  /// Folds shard i's answer into `best` (GatherAnswer, shard_route.h).
  Status Gather(size_t i, const core::SearchResult& answer,
                core::SearchResult* best) const;

  uint64_t num_entries() const;
  uint64_t index_bytes() const;
  /// Sum of the inner stamps — monotone, since every term only grows.
  uint64_t snapshot_version() const;
  /// Sum of every shard's I/O counters (internally thread-safe reads).
  storage::IoStats AggregateIoStats() const;
  /// `<label>[<K>x<inner describe>]`.
  std::string describe(const std::string& label) const;

 private:
  series::SaxConfig sax_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> query_pool_;  // Null when K == 1.
};

extern template class ShardSet<core::DataSeriesIndex>;
extern template class ShardSet<stream::StreamingIndex>;

}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_SHARD_SET_H_
