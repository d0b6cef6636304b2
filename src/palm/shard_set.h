#ifndef COCONUT_PALM_SHARD_SET_H_
#define COCONUT_PALM_SHARD_SET_H_

#include <array>
#include <atomic>
#include <bit>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/index.h"
#include "core/raw_store.h"
#include "series/isax.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "stream/streaming_index.h"
#include "stream/wal.h"

namespace coconut {
namespace palm {

/// Lock-free, grow-only map from shard-local raw-store ordinal to global
/// series id. A chunked spine (chunk k holds kBase << k slots, bases
/// contiguous) so growth never relocates published slots. Writers of one
/// map are serialized. A streaming shard's writer (under its admission
/// lock) fills slot `local_id` before the inner index publishes the entry
/// that cites it; a reader only looks up ordinals it obtained from a
/// published entry, so the release/acquire pair on the inner index's
/// admission orders every Set before the Get that needs it. A static build
/// is single-caller and queried only after Finalize. Slot and spine stores
/// are atomic, so even an out-of-thin-air probe reads cleanly.
class IdMap {
 public:
  IdMap() = default;
  IdMap(const IdMap&) = delete;
  IdMap& operator=(const IdMap&) = delete;
  ~IdMap() {
    for (auto& slot : chunks_) delete[] slot.load(std::memory_order_relaxed);
  }

  /// Writer side; callers are serialized (see above).
  void Set(uint64_t local_id, uint64_t global_id) {
    const size_t c = ChunkIndex(local_id);
    std::atomic<uint64_t>* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      chunk = new std::atomic<uint64_t>[ChunkCapacity(c)]();
      chunks_[c].store(chunk, std::memory_order_release);
    }
    chunk[local_id - ChunkBase(c)].store(global_id, std::memory_order_relaxed);
  }

  uint64_t Get(uint64_t local_id) const {
    const size_t c = ChunkIndex(local_id);
    std::atomic<uint64_t>* chunk = chunks_[c].load(std::memory_order_acquire);
    return chunk[local_id - ChunkBase(c)].load(std::memory_order_relaxed);
  }

  /// Chunk k covers [kBase*(2^k - 1), kBase*(2^(k+1) - 1)); public so
  /// tests can probe the chunk edges.
  static size_t ChunkIndex(uint64_t id) {
    return static_cast<size_t>(std::bit_width((id >> kBaseBits) + 1)) - 1;
  }
  static uint64_t ChunkBase(size_t c) {
    return ((uint64_t{1} << c) - 1) << kBaseBits;
  }

 private:
  /// First chunk holds 1024 ids; 48 doubling chunks cover ~2.8e17.
  static constexpr size_t kBaseBits = 10;
  static constexpr size_t kMaxChunks = 48;

  static size_t ChunkCapacity(size_t c) { return size_t{1} << (kBaseBits + c); }

  std::array<std::atomic<std::atomic<uint64_t>*>, kMaxChunks> chunks_{};
};

/// The in-process scatter-gather core under both sharded wrappers: one
/// logical index split by invSAX key range (shard_route.h) across K shards,
/// each a full, independent stack — its own StorageManager (the
/// subdirectory `<name>_shard<i>`), BufferPool, RawSeriesStore and inner
/// index. `Inner` is core::DataSeriesIndex (ShardedIndex) or
/// stream::StreamingIndex (ShardedStreamingIndex).
///
/// Queries fan out on an internal pool of min(K, kMaxQueryThreads)
/// threads; each shard answers over its own partition with shard-local ids,
/// and the gather maps them back through the shard's IdMap and keeps the
/// nearest answer under the one gather rule (GatherPrefers). The shards
/// cover the data disjointly and each per-shard search is exact over its
/// shard, so the gathered minimum equals the unsharded exact answer.
template <class Inner>
class ShardSet {
 public:
  /// Static inner indexes keep single-threaded query state (buffer-pool
  /// page pointers, access tracker), so reads into one shard serialize
  /// behind its mutex while distinct shards run in parallel. Streaming
  /// inner indexes evaluate epoch-published snapshots and are read without
  /// it. Picked by the inner type, never configured.
  static constexpr bool kSerializeReads =
      std::is_same_v<Inner, core::DataSeriesIndex>;
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
    /// Static shards: serializes reads (kSerializeReads). Streaming
    /// shards: serializes admission (raw append, id map and inner Ingest
    /// must agree on the local ordinal).
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
  /// have finished; static shards hold shard i's mutex around fn(i).
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

  /// Folds shard i's answer into `best`: maps its local id to the global
  /// id, then applies GatherPrefers. A not-found answer is skipped.
  void Gather(size_t i, core::SearchResult answer,
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
  /// The one fan-out loop: fn(i) for every shard on `pool` (inline when
  /// null), returning once all have finished. The per-call WaitGroup keeps
  /// concurrent callers of a shared pool independent (ThreadPool::Wait
  /// would wait for everyone's tasks).
  void RunOnEach(ThreadPool* pool, const std::function<void(size_t)>& fn);

  series::SaxConfig sax_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> query_pool_;  // Null when K == 1.
};

extern template class ShardSet<core::DataSeriesIndex>;
extern template class ShardSet<stream::StreamingIndex>;

}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_SHARD_SET_H_
