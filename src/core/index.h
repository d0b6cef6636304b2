#ifndef COCONUT_CORE_INDEX_H_
#define COCONUT_CORE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"
#include "core/types.h"

namespace coconut {
namespace core {

/// The one read interface of every index in the Figure-1 matrix, static
/// (DataSeriesIndex) or streaming (stream::StreamingIndex): both answer
/// through the same scan core, so the Palm server, the factory, the
/// sharded wrappers and the streaming facades all query through this
/// interface and hold one pointer per index.
class IndexReader {
 public:
  virtual ~IndexReader() = default;

  virtual Result<SearchResult> ApproxSearch(std::span<const float> query,
                                            const SearchOptions& options,
                                            QueryCounters* counters) = 0;

  virtual Result<SearchResult> ExactSearch(std::span<const float> query,
                                           const SearchOptions& options,
                                           QueryCounters* counters) = 0;

  /// Exact search for a batch of same-length queries under one set of
  /// options. `results` must have queries.size() slots; `counters`, when
  /// non-empty, must too (one per query). Families with a shared-scan
  /// implementation override this so each candidate read is scored against
  /// every query (the batched distance kernels); the default is a
  /// sequential loop, so the batch form is always exact — per-query results
  /// match ExactSearch up to tie-breaks among equidistant series.
  virtual Status ExactSearchBatch(std::span<const std::span<const float>> queries,
                                  const SearchOptions& options,
                                  std::span<SearchResult> results,
                                  std::span<QueryCounters> counters) {
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryCounters* c = counters.empty() ? nullptr : &counters[i];
      COCONUT_ASSIGN_OR_RETURN(results[i], ExactSearch(queries[i], options, c));
    }
    return Status::OK();
  }

  virtual uint64_t num_entries() const = 0;

  /// Bytes of index structures on disk (excludes the raw data file).
  virtual uint64_t index_bytes() const = 0;

  /// Human-readable variant name, e.g. "CTreeFull".
  virtual std::string describe() const = 0;

  /// Monotonic snapshot-version stamp: bumped on every mutation that can
  /// change any query answer (admission, Finalize, background publication
  /// of sealed runs/partitions). Two equal reads bracketing a query prove
  /// the query saw a single stable snapshot, which is what the
  /// service-layer answer cache keys its validity on. Never decreases.
  ///
  /// Structures with a write core of their own (CLSM, TP/BTP) forward its
  /// stamp, facades (PP) their inner index's, and sharded fan-outs sum
  /// their shards' (sound because every component only increases).
  virtual uint64_t snapshot_version() const = 0;

  /// True when any number of threads may call the search/stats accessors
  /// concurrently with each other AND with ingestion, with no external
  /// serialization: the epoch-based read path (readers load a published
  /// immutable snapshot, never take the admission mutex, and never touch
  /// a shared BufferPool whose page pointers a concurrent reader could
  /// invalidate). Async TP/BTP/CLSM, PP over async CLSM and the sharded
  /// stream qualify; static indexes and sync streams do not. The service
  /// uses this to bypass its per-index operation mutex on the query path,
  /// and ShardSet to skip its per-shard read lock.
  virtual bool ConcurrentReadsSafe() const { return false; }
};

/// The static side of the matrix (ADS+, CTree, CLSM — materialized or
/// not): the read interface plus construction.
///
/// Lifecycle: Insert() any number of series (z-normalized), then
/// Finalize(). For bulk-built structures (CTree) Insert before Finalize
/// feeds the construction sort and queries are only legal afterwards; for
/// incremental structures (CLSM, ADS+) Finalize merely drains buffers.
/// Post-Finalize Inserts are supported by every family (the B-tree takes
/// the top-down insert path with its fill-factor slack).
class DataSeriesIndex : public IndexReader {
 public:
  /// Adds one z-normalized series under `series_id`.
  virtual Status Insert(uint64_t series_id,
                        std::span<const float> znorm_values,
                        int64_t timestamp) = 0;

  /// Seals construction / drains buffers. Idempotent.
  virtual Status Finalize() = 0;

  uint64_t snapshot_version() const override {
    return snapshot_version_.load(std::memory_order_acquire);
  }

 protected:
  /// Marks a mutation; implementations without a write core call this at
  /// every admission / publication site. Thread-safe.
  void BumpSnapshotVersion() {
    snapshot_version_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  std::atomic<uint64_t> snapshot_version_{0};
};

}  // namespace core
}  // namespace coconut

#endif  // COCONUT_CORE_INDEX_H_
