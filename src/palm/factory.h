#ifndef COCONUT_PALM_FACTORY_H_
#define COCONUT_PALM_FACTORY_H_

#include <functional>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "core/index.h"
#include "series/isax.h"
#include "core/raw_store.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "stream/streaming_index.h"

namespace coconut {
namespace stream {
class Wal;
}  // namespace stream
namespace palm {

/// The three index families of the demo.
enum class IndexFamily { kAds, kCTree, kClsm };

/// Streaming scheme (kStatic = no temporal dimension).
enum class StreamMode { kStatic, kPP, kTP, kBTP };

/// One cell of the Figure-1 variant matrix plus its tuning knobs. The
/// factory validates combinations against the matrix: BTP exists only for
/// CLSM (it requires sort-merged partitions), TP only for ADS+/CTree.
struct VariantSpec {
  IndexFamily family = IndexFamily::kCTree;
  bool materialized = false;
  StreamMode mode = StreamMode::kStatic;
  series::SaxConfig sax;

  /// CTree: build-time leaf occupancy.
  double fill_factor = 1.0;
  /// CLSM: growth factor T.
  int growth_factor = 4;
  /// CLSM buffer / TP-BTP partition buffer, in entries.
  size_t buffer_entries = 4096;
  /// CTree construction-sort budget; also sizes the ADS+ global buffer.
  size_t memory_budget_bytes = 64ull << 20;
  /// Worker threads for the construction sort (CTree bulk load): N
  /// pipelines run generation behind ingestion and range-partitions the
  /// final merge across N workers; 1 = synchronous. The sorted bytes are
  /// the same either way, but a threaded sort writes more: its chunks are
  /// budget / (N + 1), so it spills more runs and writes range files too
  /// (500k random 32-byte records under a 4 MiB budget, N = 4: 4 -> 20
  /// runs, 3 -> 39 random and 3,904 -> 7,780 sequential page writes).
  size_t construction_threads = 1;
  /// ADS+: leaf split threshold.
  size_t ads_leaf_capacity = 1024;
  /// BTP: equal-size partitions per consolidation.
  int btp_merge_k = 2;

  /// Shards: > 1 partitions the dataset by invSAX key range across that
  /// many independent per-shard storage managers / buffer pools, queried
  /// scatter-gather on min(K, 8) threads (exact results are unchanged).
  /// Static indexes build shards concurrently, one thread per shard
  /// (ShardedIndex); streaming variants require async_ingest and route
  /// each live series to its key-range shard, whose seal/merge cascades
  /// run on per-shard strands (ShardedStreamingIndex). 1 = unsharded.
  size_t num_shards = 1;

  /// Streaming: what Ingest does with a timestamp below the largest one
  /// accepted so far (see stream::TimestampPolicy).
  stream::TimestampPolicy timestamp_policy =
      stream::TimestampPolicy::kPermissive;
  /// Streaming: defer seals, flushes and merge cascades to a background
  /// pool so Ingest never blocks on index I/O and queries run against
  /// snapshots. Valid for the buffering streaming variants — CTree-TP,
  /// CLSM-BTP and CLSM-PP; after FlushAll() (a drain barrier) the index
  /// answers identically to a synchronous build over the same input.
  bool async_ingest = false;
  /// Pool carrying the deferred work when async_ingest is set (not owned;
  /// must outlive the index). nullptr = the process-wide
  /// SharedBackgroundPool().
  ThreadPool* background_pool = nullptr;

  /// Bounded ingest backpressure (async streaming only): cap on
  /// detached-but-unflushed buffers per index — per *shard* when sharded —
  /// each holding up to buffer_entries series in memory. 0 = unbounded.
  size_t max_inflight_seals = 0;
  /// At the cap, Ingest either blocks until a seal retires or returns
  /// ResourceExhausted (a structured resource_exhausted ApiError / HTTP
  /// 429 on the wire).
  stream::BackpressurePolicy backpressure_policy =
      stream::BackpressurePolicy::kBlock;
  /// Test seam, process-local like background_pool (never on the wire):
  /// runs at the head of every background seal/flush so fault-injection
  /// suites can throttle or fail the flusher.
  std::function<Status()> seal_test_hook{};

  /// Durability ("durability": "on"|"off" on the wire): attach a
  /// write-ahead log — per shard, when sharded — so every acknowledged
  /// ingest survives a crash and create_stream recovers an existing
  /// stream instead of clearing it. Valid for the buffering streaming
  /// variants only (CTree-TP, CLSM-BTP, CLSM-PP): ADS+ partitions have
  /// no checkpointable manifest and a static build has no stream to
  /// re-ack.
  bool durable = false;
  /// Process-local (never on the wire): the open WAL the created index
  /// appends to (not owned; must outlive the index). The api layer opens
  /// it per stream; the sharded wrapper opens its own per-shard logs and
  /// ignores this field.
  stream::Wal* wal = nullptr;
  /// Test seam, process-local like seal_test_hook: forwarded as the
  /// Wal::Options::test_hook of every log this spec opens (the unsharded
  /// stream log, or all per-shard logs), so the kill-test harness can
  /// crash the process at named durability edges.
  std::function<void(const char*)> wal_test_hook{};
};

/// Variant display name, e.g. "CTreeFull-PP", "CLSM-BTP", "ADS+".
std::string VariantName(const VariantSpec& spec);

/// Whether `spec` is a cell of the paper's variant matrix.
bool SpecIsValid(const VariantSpec& spec, std::string* why);

/// Creates a static (mode kStatic) index.
Result<std::unique_ptr<core::DataSeriesIndex>> CreateStaticIndex(
    const VariantSpec& spec, storage::StorageManager* storage,
    const std::string& name, storage::BufferPool* pool,
    core::RawSeriesStore* raw);

/// Creates a streaming (PP/TP/BTP) index.
Result<std::unique_ptr<stream::StreamingIndex>> CreateStreamingIndex(
    const VariantSpec& spec, storage::StorageManager* storage,
    const std::string& name, storage::BufferPool* pool,
    core::RawSeriesStore* raw);

}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_FACTORY_H_
