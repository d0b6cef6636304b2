#ifndef COCONUT_CLSM_CLSM_H_
#define COCONUT_CLSM_CLSM_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/entry.h"
#include "core/index.h"
#include "core/raw_store.h"
#include "core/types.h"
#include "seqtable/seq_table.h"
#include "seqtable/table_search.h"
#include "stream/buffered_stream.h"
#include "stream/streaming_index.h"

namespace coconut {
namespace stream {
class Wal;
}  // namespace stream
namespace clsm {

/// CoconutLSM: the write-optimized index of the paper. Incoming series
/// accumulate in an in-memory buffer; every flush and every compaction is a
/// sort-merge producing a fresh compact SeqTable with purely sequential
/// I/O. This is only possible because the summarizations are sortable — a
/// log-structured merge over unsortable iSAX words has no merge order.
///
/// Leveling policy: disk level i (0-based) holds at most one run of at most
/// buffer_entries * growth_factor^(i+1) entries. A higher growth factor
/// means fewer levels (faster reads, each query touches every run) but
/// more rewriting per merge (slower ingestion) — the Section 2 read/write
/// knob.
///
/// Ingestion, the pending list, backpressure, the epoch-published read
/// snapshot and the WAL hooks live in the streaming write core
/// (stream::BufferedStream), shared with TP/BTP. CLSM supplies the flush
/// step — the level-0 merge of one detached memtable plus the leveling
/// cascade, publishing after every merge — the checkpoint manifest, and
/// the visit order over its run set. The flush runs as one task on the
/// core's per-index strand, so the run sequence is identical to the
/// synchronous build; replaced run files are unlinked only after the new
/// set is published (open fds keep in-flight scans valid). Without a
/// background pool the insert side keeps its single-caller contract, but
/// reads go through the same snapshot path.
///
/// CLSM is a static index in its own right (Finalize forces the buffer to
/// disk) and the inner structure of CLSM-PP.
class Clsm : public core::DataSeriesIndex {
 public:
  struct Options {
    series::SaxConfig sax;
    /// Materialized ("CLSMFull"): series travel through every merge.
    bool materialized = false;
    /// LSM growth factor T (>= 2).
    int growth_factor = 4;
    /// In-memory buffer capacity in entries (the paper's memory budget).
    size_t buffer_entries = 1024;
    /// Background pool for flushes and merge cascades (not owned; must
    /// outlive the index). nullptr = synchronous.
    ThreadPool* background = nullptr;
    /// Bounded backpressure: cap on detached-but-unflushed memtables (each
    /// holds up to buffer_entries series in memory). 0 = unbounded. Only
    /// meaningful in async mode; Finalize ignores the cap (a drain
    /// must always make progress).
    size_t max_inflight_seals = 0;
    /// What Insert does at the cap: block until a flush retires, or
    /// refuse the entry with ResourceExhausted.
    stream::BackpressurePolicy backpressure =
        stream::BackpressurePolicy::kBlock;
    /// Test seam: runs at the head of every flush task (on the strand in
    /// async mode) — fault-injection tests throttle or fail it. Never set
    /// in production.
    std::function<Status()> seal_test_hook{};
    /// Write-ahead log (not owned; must outlive the index). When set,
    /// Insert records every admission into it (inside the admission
    /// critical section, so log order == admission order) and every
    /// completed flush cascade appends a checkpoint frame.
    stream::Wal* wal = nullptr;
  };

  /// The sealed state CLSM publishes through the write core: immutable
  /// once published, with its stats mirrors precomputed.
  struct RunSet {
    /// Index = level; nullptr = empty level.
    std::vector<std::shared_ptr<seqtable::SeqTable>> levels;
    /// Cumulative entries rewritten by flushes and compactions.
    uint64_t entries_rewritten = 0;
    uint64_t entries = 0;  // Across all runs.
    uint64_t bytes = 0;    // Across all run files.
    size_t runs = 0;       // Non-empty levels.
  };
  using Core = stream::BufferedStream<RunSet>;

  /// Creates an empty LSM tree writing runs named `<prefix>.L<i>.<version>`.
  /// `raw` is required for non-materialized verification; `pool` optional.
  static Result<std::unique_ptr<Clsm>> Create(storage::StorageManager* storage,
                                              const std::string& prefix,
                                              const Options& options,
                                              storage::BufferPool* pool,
                                              core::RawSeriesStore* raw);

  ~Clsm() override;

  /// Buffers one (z-normalized) series; triggers a flush/merge cascade when
  /// the buffer fills (deferred to the background pool in async mode).
  Status Insert(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp) override {
    return core_.Admit(series_id, znorm_values, timestamp);
  }

  /// Forces the buffer to disk. In async mode this is the drain barrier:
  /// it blocks until every deferred flush and cascade has completed and
  /// returns the first background error, if any.
  Status Finalize() override { return core_.Flush(); }

  Result<core::SearchResult> ApproxSearch(std::span<const float> query,
                                          const core::SearchOptions& options,
                                          core::QueryCounters* counters)
      override;

  Result<core::SearchResult> ExactSearch(std::span<const float> query,
                                         const core::SearchOptions& options,
                                         core::QueryCounters* counters)
      override;

  /// Exact k-nearest-neighbors across the buffer and every run; the
  /// k-th-best bound is shared, so later runs prune harder.
  Result<std::vector<core::SearchResult>> KnnSearch(
      std::span<const float> query, size_t k,
      const core::SearchOptions& options, core::QueryCounters* counters);

  uint64_t num_entries() const override { return core_.num_entries(); }
  size_t buffered_entries() const {
    stream::epoch::EpochGuard guard;
    return static_cast<size_t>(
        core_.snapshot()->buffer->published.load(std::memory_order_acquire));
  }

  /// Flush tasks enqueued but not yet folded into a level.
  size_t pending_flushes() const {
    stream::epoch::EpochGuard guard;
    return core_.snapshot()->pending.size();
  }

  /// Number of disk levels currently holding a run.
  size_t num_active_levels() const { return core_.sealed()->runs; }

  /// Entries in level i's run (0 when empty).
  uint64_t level_entries(size_t level) const;

  /// Total bytes across all run files.
  uint64_t index_bytes() const override { return core_.sealed()->bytes; }

  std::string describe() const override {
    return options_.materialized ? "CLSMFull" : "CLSM";
  }

  /// Cumulative entries rewritten by flushes and compactions — the write
  /// amplification the growth factor trades against read cost.
  uint64_t entries_rewritten() const {
    return core_.sealed()->entries_rewritten;
  }
  uint64_t merges_performed() const {
    stream::epoch::EpochGuard guard;
    return core_.snapshot()->merges_completed;
  }

  /// Race-free progress snapshot for the streaming facade. Lock-free:
  /// served from the published snapshot and atomic gate counters, so it
  /// never stalls behind a backpressure-blocked insert.
  stream::StreamingStats SnapshotStats() const;

  /// The write core's stamp: bumped on every Insert admission and every
  /// run-set publication (flush or merge cascade), so the service answer
  /// cache stays exact while the cascade runs in the background.
  uint64_t snapshot_version() const override {
    return core_.snapshot_version();
  }

  /// Async CLSM serves every read from the core's epoch-published
  /// snapshot; a sync tree reads through the shared BufferPool.
  bool ConcurrentReadsSafe() const override { return async(); }

  bool async() const { return core_.async(); }

  const Options& options() const { return options_; }

  /// Rebuilds the run set a WAL checkpoint manifest describes (run files
  /// on disk plus the naming/progress counters). Called once, on an empty
  /// tree, before WAL replay. The PP facade forwards
  /// StreamingIndex::RestoreFromManifest here.
  Status RestoreFromManifest(std::span<const uint8_t> manifest);

  /// Group-commits the attached WAL (OK without one) — the ack gate.
  Status CommitDurable() { return core_.CommitDurable(); }

 private:
  using Levels = std::vector<std::shared_ptr<seqtable::SeqTable>>;

  Clsm(storage::StorageManager* storage, std::string prefix, Options options,
       storage::BufferPool* pool, core::RawSeriesStore* raw);

  uint64_t LevelCapacity(size_t level) const;
  std::string RunName(size_t level);

  storage::BufferPool* ReadPool() const { return async() ? nullptr : pool_; }

  /// The flush step: level-0 merge of one detached memtable, then the
  /// cascade, publishing after every merge. Strand-serialized; the only
  /// run-set mutator.
  Status FlushMemtable(const stream::PendingBuffer& pending);

  /// Merges `work[level-1]` (or, when non-null, the memtable in key
  /// order) into `work[level]`, updating the working copy and returning
  /// the names of replaced runs.
  Status MergeIntoLevel(Levels* work, size_t level,
                        const stream::PendingBuffer* memtable,
                        std::vector<std::string>* retired,
                        uint64_t* rewritten);

  /// Serializes the run set (names, entries, naming/progress counters)
  /// and the admit count it covers.
  void EncodeManifest(std::vector<uint8_t>* manifest,
                      uint64_t* durable_entries) const;

  /// The approximate pass (memtable, in-flight flushes, every run) over
  /// one query view — ApproxSearch's whole body and ExactSearch's
  /// bound-tightening seed, so the two cannot drift.
  Status ApproxPass(const Core::View& view, const seqtable::SearchContext& ctx,
                    const core::SearchOptions& options,
                    seqtable::KnnCollector* best);

  /// The exact pass (memtable, in-flight flushes, then every run with the
  /// shared bound, so later runs prune harder) — ExactSearch after its
  /// seed, and KnnSearch's whole body.
  Status ExactPass(const Core::View& view, const seqtable::SearchContext& ctx,
                   const core::SearchOptions& options,
                   seqtable::KnnCollector* collector);

  storage::StorageManager* storage_;
  std::string prefix_;
  Options options_;
  storage::BufferPool* pool_;
  core::RawSeriesStore* raw_;

  /// Run-file name sequence; only touched by the (serialized) flush path.
  uint64_t version_ = 0;

  /// Declared last, so destroyed first: its teardown waits out every
  /// reader before any other member dies.
  Core core_;
};

}  // namespace clsm
}  // namespace coconut

#endif  // COCONUT_CLSM_CLSM_H_
