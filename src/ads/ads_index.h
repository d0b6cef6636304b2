#ifndef COCONUT_ADS_ADS_INDEX_H_
#define COCONUT_ADS_ADS_INDEX_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/entry.h"
#include "core/index.h"
#include "core/raw_store.h"
#include "core/types.h"
#include "seqtable/table_search.h"
#include "series/distance.h"
#include "storage/storage_manager.h"

namespace coconut {
namespace ads {

/// One node of the ADS+ iSAX tree. Internal nodes are binary (children
/// refine one segment's symbol by one bit); leaves hold an in-memory buffer
/// plus an on-disk file of already-flushed entries.
struct AdsNode {
  /// Per-segment symbol prefix, right-aligned: prefix[s] in
  /// [0, 2^prefix_bits[s]).
  series::SaxWord prefix{};
  std::array<uint8_t, series::kMaxSegments> prefix_bits{};

  bool is_leaf = true;
  int split_segment = -1;
  std::unique_ptr<AdsNode> child0;  // Next bit 0.
  std::unique_ptr<AdsNode> child1;  // Next bit 1.

  // Leaf state.
  std::vector<core::IndexEntry> buffer;
  std::vector<float> buffer_payloads;
  std::unique_ptr<storage::File> file;  // Created on first flush.
  std::string file_name;
  uint64_t entries_on_disk = 0;

  uint64_t total_entries() const { return buffer.size() + entries_on_disk; }
};

/// Reimplementation of ADS+ (Zoumpatianos et al.), the state-of-the-art
/// adaptive data series index the demo uses as its baseline. Construction
/// is top-down: each series descends to its leaf's in-memory buffer;
/// buffers spill to per-leaf files (random I/O scattered across many
/// files); overflowing leaves split by promoting one segment's cardinality
/// (iSAX 2.0 policy) and rewriting their entries. These are precisely the
/// structural properties — sparse nodes, non-contiguous layout, random
/// construction I/O — that Coconut's sortable summarizations remove.
class AdsIndex : public core::DataSeriesIndex {
 public:
  struct Options {
    series::SaxConfig sax;
    /// ADSFull: leaf files embed the series values.
    bool materialized = false;
    /// Max entries a leaf may reach before it splits.
    size_t leaf_capacity = 1024;
    /// Total in-memory buffered entries across all leaves (the memory
    /// budget). When exceeded, the fullest leaf buffer is flushed.
    size_t global_buffer_entries = 8192;
  };

  static Result<std::unique_ptr<AdsIndex>> Create(
      storage::StorageManager* storage, const std::string& prefix,
      const Options& options, core::RawSeriesStore* raw);

  /// Top-down insertion of one z-normalized series.
  Status Insert(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp) override;

  /// Spills every leaf buffer to disk.
  Status Finalize() override;

  /// Descends to the query's leaf and verifies its best candidates.
  Result<core::SearchResult> ApproxSearch(std::span<const float> query,
                                          const core::SearchOptions& options,
                                          core::QueryCounters* counters)
      override;

  /// Best-first tree search with MINDIST pruning (exact).
  Result<core::SearchResult> ExactSearch(std::span<const float> query,
                                         const core::SearchOptions& options,
                                         core::QueryCounters* counters)
      override;

  /// Exact k-nearest-neighbors via best-first traversal pruned by the
  /// running k-th-best distance.
  Result<std::vector<core::SearchResult>> KnnSearch(
      std::span<const float> query, size_t k,
      const core::SearchOptions& options, core::QueryCounters* counters);

  uint64_t num_entries() const override { return num_entries_; }
  size_t num_leaves() const;
  size_t num_nodes() const;
  uint64_t index_bytes() const override;
  std::string describe() const override {
    return options_.materialized ? "ADSFull" : "ADS+";
  }
  size_t buffered_entries() const { return total_buffered_; }

  const Options& options() const { return options_; }

 private:
  AdsIndex(storage::StorageManager* storage, std::string prefix,
           const Options& options, core::RawSeriesStore* raw)
      : storage_(storage),
        prefix_(std::move(prefix)),
        options_(options),
        raw_(raw) {}

  /// Root fan-out key: bit s = most significant bit of segment s's symbol.
  uint32_t RootMask(const series::SaxWord& word) const;

  /// Finds (or creates) the leaf for `word`, descending internal nodes.
  AdsNode* DescendToLeaf(const series::SaxWord& word, bool create_root);

  Status FlushLeaf(AdsNode* leaf);
  Status SplitLeaf(AdsNode* leaf);
  Status LoadLeafEntries(const AdsNode& leaf,
                         std::vector<core::IndexEntry>* entries,
                         std::vector<float>* payloads) const;
  Status EvaluateLeaf(const AdsNode& leaf, const seqtable::SearchContext& ctx,
                      const core::SearchOptions& options,
                      int max_verifications, seqtable::KnnCollector* collector);
  /// Descends to the query's leaf (or the closest subtree's) and
  /// evaluates its best candidates: ApproxSearch's body, ExactSearch's seed.
  Status ApproxPass(const seqtable::SearchContext& ctx,
                    const core::SearchOptions& options,
                    seqtable::KnnCollector* best);
  /// Best-first node walk with MINDIST pruning against the collector's
  /// bound, shared by ExactSearch (k=1) and KnnSearch.
  Status BestFirstWalk(const seqtable::SearchContext& ctx,
                       const core::SearchOptions& options,
                       seqtable::KnnCollector* collector);
  series::SaxRegion NodeRegion(const AdsNode& node) const;

  storage::StorageManager* storage_;
  std::string prefix_;
  Options options_;
  core::RawSeriesStore* raw_;

  std::unordered_map<uint32_t, std::unique_ptr<AdsNode>> root_children_;
  uint64_t num_entries_ = 0;
  size_t total_buffered_ = 0;
  uint64_t next_leaf_id_ = 0;
  size_t record_size_ = 0;
};

}  // namespace ads
}  // namespace coconut

#endif  // COCONUT_ADS_ADS_INDEX_H_
