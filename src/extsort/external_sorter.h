#ifndef COCONUT_EXTSORT_EXTERNAL_SORTER_H_
#define COCONUT_EXTSORT_EXTERNAL_SORTER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "storage/storage_manager.h"

namespace coconut {
namespace extsort {

/// Pull-based stream of sorted fixed-size records.
class SortedStream {
 public:
  virtual ~SortedStream() = default;

  /// Copies the next record into `out` (record_size bytes). Returns false at
  /// end of stream; a non-OK status only on I/O failure.
  virtual Result<bool> Next(uint8_t* out) = 0;

  virtual size_t record_size() const = 0;
};

/// Counters describing how a sort executed — the evidence for the
/// memory-vs-construction experiment (E5): with enough memory the sort is
/// one in-memory pass; with less it spills runs and merges them with
/// sequential I/O; with very little it needs multiple merge passes.
///
/// Only the thread that calls Add and Finish updates them. `records` is the
/// same whatever `threads` is; `runs_spilled` (and with it `merge_passes`)
/// is not, because threaded run generation cuts smaller chunks.
struct SortStats {
  uint64_t records = 0;
  uint64_t runs_spilled = 0;
  uint64_t merge_passes = 0;
  /// Worker threads that generated runs (1 = synchronous sort-and-spill).
  uint64_t threads_used = 1;
  /// Worker threads that executed the final merge (1 = serial merge).
  uint64_t merge_threads_used = 1;
  /// Disjoint key ranges the final merge was partitioned into (1 = one
  /// streaming k-way merge).
  uint64_t merge_ranges = 1;
  bool in_memory = false;
};

/// Two-pass (or multi-pass under extreme memory pressure) external merge
/// sort over fixed-size binary records, the construction engine of every
/// Coconut index. Records are accumulated up to the memory budget, sorted,
/// and spilled as sequential runs; Finish() k-way-merges the runs into one
/// sorted stream using one input page per run plus one output page.
///
/// `threads` is the one parallelism input, and it drives both phases:
///  - Run generation: the producer keeps filling chunks of
///    budget / (threads + 1) while `threads` workers sort and spill earlier
///    chunks, so one producer chunk plus the in-flight ones fit the budget.
///  - Final merge: sampled splitters carve the key space into up to
///    `threads` disjoint ranges, each k-way-merged into its own range file
///    on a pool, and Finish streams their concatenation. It declines to the
///    serial streaming merge when the budget cannot feed two range merges
///    or one key class fills the sample. Intermediate passes (more runs
///    than the fan-in) are always serial.
///
/// The sort is stable — equal records keep input order — and every record
/// equal to a splitter lands in the range at or above it, so no tie class
/// straddles a boundary. Output bytes are therefore identical whatever the
/// thread count or budget (the determinism the oracle tests pin down). The
/// cost of threads is I/O: smaller chunks mean more runs, and the range
/// files are one extra sequential materialization.
class ExternalSorter {
 public:
  struct Options {
    /// Size of one record in bytes (> 0).
    size_t record_size = 0;
    /// Cap on buffered bytes before spilling a run. Also bounds merge
    /// fan-in: max_fan_in = budget / kPageSize - 1 (>= 2).
    size_t memory_budget_bytes = 64 << 20;
    /// Worker threads for run generation and the final merge. 1 =
    /// synchronous sort-and-spill in Add and one streaming merge.
    size_t threads = 1;
    /// Where run files live. Not owned.
    storage::StorageManager* storage = nullptr;
    /// Prefix for run file names (unique per concurrent sort).
    std::string temp_prefix = "sort";
    /// Strict-weak-order over serialized records.
    std::function<bool(const uint8_t*, const uint8_t*)> less;
  };

  /// Validates options; fails on zero record size / missing storage / less.
  static Result<std::unique_ptr<ExternalSorter>> Create(Options options);

  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Buffers one record, spilling a sorted run if the budget is exhausted.
  Status Add(const void* record);

  /// Seals input and returns the merged sorted stream. The sorter must stay
  /// alive while the stream is consumed. Call at most once.
  Result<std::unique_ptr<SortedStream>> Finish();

  const SortStats& stats() const { return stats_; }

 private:
  explicit ExternalSorter(Options options);

  bool parallel() const { return options_.threads > 1; }
  /// Sorts the buffered chunk and writes it to run file
  /// `temp_prefix + ".run" + id`: inline when serial, on the worker pool
  /// otherwise (blocking while `threads` chunks are already in flight, which
  /// keeps memory under the budget).
  Status SpillRun();
  /// Drains outstanding chunks and joins the worker pool. Idempotent.
  void StopWorkers();
  /// One intermediate pass: merges each fan-in group of run_names_ into a
  /// fresh file, in order, and returns the next pass's run names.
  Result<std::vector<std::string>> MergePass(size_t fan_in);
  /// Merges `inputs` into `output_name` and deletes the inputs.
  Status MergeRuns(const std::vector<std::string>& inputs,
                   const std::string& output_name);
  /// Samples run files and returns ascending, deduplicated splitter records
  /// carving the key space into at most `num_ranges` disjoint ranges.
  Result<std::vector<std::vector<uint8_t>>> PickSplitters(size_t num_ranges);
  /// Range-partitioned final merge over run_names_: merges every key range
  /// into its own file on a pool and returns a stream over the ordered
  /// concatenation (byte-identical to the serial merge), or nullptr when it
  /// declines.
  Result<std::unique_ptr<SortedStream>> PartitionedFinalMerge(
      size_t num_ranges);

  Options options_;
  size_t max_buffered_records_;
  std::vector<uint8_t> buffer_;
  size_t buffered_records_ = 0;
  // Every live run or merge file, in input order: merge order must follow
  // it for stable (deterministic) output. A run is listed when it is cut,
  // before a worker writes it, so the destructor also removes partial runs.
  std::vector<std::string> run_names_;
  uint64_t next_run_id_ = 0;  // Numbers run and intermediate merge files.
  SortStats stats_;
  bool finished_ = false;

  std::unique_ptr<ThreadPool> pool_;  // Run generation; spawned lazily.
  std::mutex mu_;
  std::condition_variable space_cv_;  // Producer waits for a free slot.
  size_t chunks_in_flight_ = 0;  // Queued + currently being spilled.
  Status worker_error_;
};

/// Convenience for tests: sorts `records` (concatenated fixed-size records)
/// and returns the sorted concatenation.
Result<std::vector<uint8_t>> SortToBytes(ExternalSorter::Options options,
                                         const std::vector<uint8_t>& records);

}  // namespace extsort
}  // namespace coconut

#endif  // COCONUT_EXTSORT_EXTERNAL_SORTER_H_
