#ifndef COCONUT_CTREE_CTREE_H_
#define COCONUT_CTREE_CTREE_H_

#include <memory>
#include <span>
#include <string>

#include "common/status.h"
#include "core/index.h"
#include "core/raw_store.h"
#include "core/types.h"
#include "extsort/external_sorter.h"
#include "seqtable/seq_table.h"
#include "seqtable/table_search.h"

namespace coconut {
namespace ctree {

/// CoconutTree: the read-optimized, compact and contiguous B+-tree of the
/// paper. Bulk construction runs every (summarization, id) record through a
/// two-pass external sort and lays leaves out densely with sequential
/// writes — no top-down insertions, no sparse nodes. The leaf fill factor
/// reserves headroom for later inserts (the read/write trade-off knob of
/// Section 2): a lower fill factor makes post-build inserts cheap (in-place
/// page rewrites) at the cost of a longer leaf level to scan.
class CTree {
 public:
  struct Options {
    series::SaxConfig sax;
    /// Materialized ("CTreeFull"): series values live inside leaf pages.
    bool materialized = false;
    /// Build-time leaf occupancy in (0, 1].
    double fill_factor = 1.0;
    /// Memory budget for the construction sort (the GUI's memory knob).
    size_t sort_memory_bytes = 64ull << 20;
    /// Worker threads for the construction sort's run generation and final
    /// merge (the sorted bytes, and so the tree, are the same either way).
    size_t sort_threads = 1;
  };

  /// Accumulates records and bulk-builds the tree via external sorting.
  class Builder {
   public:
    static Result<std::unique_ptr<Builder>> Create(
        storage::StorageManager* storage, const std::string& name,
        const Options& options);

    /// Adds one (already z-normalized) series. The summarization is
    /// computed here; materialized builds carry the values through the sort.
    Status Add(uint64_t series_id, std::span<const float> znorm_values,
               int64_t timestamp);

    /// Sorts, writes the leaf level sequentially, and opens the tree.
    /// `pool` (optional) caches pages for subsequent queries; `raw` is
    /// required for non-materialized query verification.
    Result<std::unique_ptr<CTree>> Finish(storage::BufferPool* pool,
                                          core::RawSeriesStore* raw);

    const extsort::SortStats& sort_stats() const { return sorter_->stats(); }

   private:
    Builder(storage::StorageManager* storage, std::string name,
            const Options& options)
        : storage_(storage), name_(std::move(name)), options_(options) {}

    storage::StorageManager* storage_;
    std::string name_;
    Options options_;
    std::unique_ptr<extsort::ExternalSorter> sorter_;
    std::vector<uint8_t> record_scratch_;
  };

  /// Reopens a previously built tree.
  static Result<std::unique_ptr<CTree>> Open(storage::StorageManager* storage,
                                             const std::string& name,
                                             storage::BufferPool* pool,
                                             core::RawSeriesStore* raw);

  /// Nearest-neighbor approximation: one root-to-leaf probe.
  Result<core::SearchResult> ApproxSearch(std::span<const float> query,
                                          const core::SearchOptions& options,
                                          core::QueryCounters* counters);

  /// Exact nearest neighbor: approximate answer, then a skip-sequential
  /// scan of the leaf level pruned by per-leaf SAX regions.
  Result<core::SearchResult> ExactSearch(std::span<const float> query,
                                         const core::SearchOptions& options,
                                         core::QueryCounters* counters);

  /// Batched exact search: per-query approximate seeds, then ONE
  /// skip-sequential scan of the leaf level scoring every query via the
  /// batched distance kernels (seqtable::ExactScanTableMulti). Exact for
  /// each query; `results` must have queries.size() slots and `counters`,
  /// when non-empty, one slot per query.
  Status ExactSearchBatch(std::span<const std::span<const float>> queries,
                          const core::SearchOptions& options,
                          std::span<core::SearchResult> results,
                          std::span<core::QueryCounters> counters);

  /// Exact k-nearest-neighbors (k >= 1): skip-sequential scan pruned by
  /// the running k-th-best distance. Results ascend by distance.
  Result<std::vector<core::SearchResult>> KnnSearch(
      std::span<const float> query, size_t k,
      const core::SearchOptions& options, core::QueryCounters* counters);

  /// Post-build insert. With fill_factor < 1 most inserts rewrite one leaf
  /// page in place; full leaves split, appending a page at the file's end.
  Status Insert(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp);

  /// Persists directory updates accumulated by Insert calls.
  Status Flush();

  uint64_t num_entries() const { return table_->num_entries(); }
  size_t num_leaves() const { return table_->num_leaves(); }
  uint64_t file_bytes() const { return table_->file_bytes(); }
  const seqtable::SeqTable& table() const { return *table_; }
  const Options& options() const { return options_; }

 private:
  CTree(std::unique_ptr<seqtable::SeqTable> table, const Options& options,
        core::RawSeriesStore* raw)
      : table_(std::move(table)), options_(options), raw_(raw) {}

  std::unique_ptr<seqtable::SeqTable> table_;
  Options options_;
  core::RawSeriesStore* raw_;  // Not owned; may be null for materialized.
  bool dirty_ = false;
};

/// CTree as a core::DataSeriesIndex: Inserts before Finalize feed the
/// external-sort bulk build (CTree::Builder); Finalize opens the tree, and
/// later Inserts take its top-down insert path (leaf rewrite or split).
/// Queries are legal only after Finalize.
class CTreeIndex : public core::DataSeriesIndex {
 public:
  static Result<std::unique_ptr<CTreeIndex>> Create(
      storage::StorageManager* storage, const std::string& name,
      const CTree::Options& options, storage::BufferPool* pool,
      core::RawSeriesStore* raw);

  Status Insert(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp) override;
  Status Finalize() override;
  Result<core::SearchResult> ApproxSearch(std::span<const float> query,
                                          const core::SearchOptions& options,
                                          core::QueryCounters* counters)
      override;
  Result<core::SearchResult> ExactSearch(std::span<const float> query,
                                         const core::SearchOptions& options,
                                         core::QueryCounters* counters)
      override;
  /// The tree's shared-scan batch path instead of the sequential default.
  Status ExactSearchBatch(std::span<const std::span<const float>> queries,
                          const core::SearchOptions& options,
                          std::span<core::SearchResult> results,
                          std::span<core::QueryCounters> counters) override;
  /// Series admitted so far: the builder's count before Finalize.
  uint64_t num_entries() const override {
    return tree_ != nullptr ? tree_->num_entries() : pending_;
  }
  uint64_t index_bytes() const override {
    return tree_ != nullptr ? tree_->file_bytes() : 0;
  }
  std::string describe() const override {
    return options_.materialized ? "CTreeFull" : "CTree";
  }

  /// Valid only after Finalize().
  CTree* tree() { return tree_.get(); }

 private:
  CTreeIndex(const CTree::Options& options, storage::BufferPool* pool,
             core::RawSeriesStore* raw)
      : options_(options), pool_(pool), raw_(raw) {}

  /// The tree, or an Internal error when queried before Finalize.
  Result<CTree*> Tree() const;

  CTree::Options options_;
  storage::BufferPool* pool_;
  core::RawSeriesStore* raw_;
  std::unique_ptr<CTree::Builder> builder_;  // Null after Finalize.
  std::unique_ptr<CTree> tree_;              // Null before Finalize.
  uint64_t pending_ = 0;
};

}  // namespace ctree
}  // namespace coconut

#endif  // COCONUT_CTREE_CTREE_H_
