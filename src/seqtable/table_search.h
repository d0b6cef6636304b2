#ifndef COCONUT_SEQTABLE_TABLE_SEARCH_H_
#define COCONUT_SEQTABLE_TABLE_SEARCH_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/raw_store.h"
#include "core/types.h"
#include "seqtable/seq_table.h"

namespace coconut {
namespace seqtable {

/// Everything a query needs, bundled so the same engine serves CTree, CLSM
/// levels and TP/BTP partitions. The query must already be z-normalized.
struct SearchContext {
  series::SaxConfig sax;
  std::span<const float> query;      ///< z-normalized query values.
  std::span<const float> query_paa;  ///< PAA of the query.
  series::SortableKey query_key;     ///< Interleaved key of the query.
  /// Raw store for verification fetches on non-materialized tables. May be
  /// nullptr for materialized-only search.
  core::RawSeriesStore* raw = nullptr;
  /// Optional per-query counters.
  core::QueryCounters* counters = nullptr;
};

/// Builds a SearchContext from a z-normalized query. The PAA buffer is
/// owned by the caller via `paa_storage`.
SearchContext MakeSearchContext(const series::SaxConfig& sax,
                                std::span<const float> query,
                                std::vector<float>* paa_storage,
                                core::RawSeriesStore* raw,
                                core::QueryCounters* counters);

/// Accumulates the k nearest neighbors during a search. The pruning bound
/// is the distance of the current k-th best (infinite until k results are
/// collected), so single-NN search is the k=1 special case.
///
/// The contract every scan relies on: bound() never rises, and Offer
/// keeps a result exactly when it is strictly nearer than bound() (a
/// repeated series id keeps only its nearer copy). For k=1 that is
/// SearchResult::Improve, so a KnnCollector(1) seeded with an approximate
/// answer is the 1-NN best-so-far.
class KnnCollector {
 public:
  explicit KnnCollector(size_t k) : k_(k) {}

  /// Current pruning bound: the k-th best squared distance (or +inf).
  double bound() const;

  /// Offers one verified result; keeps it if it beats the k-th best.
  /// Duplicate series ids are collapsed (the closer one wins).
  void Offer(const core::SearchResult& result);

  /// The nearest result held (not found while empty): the answer of a
  /// k=1 search.
  core::SearchResult Nearest() const;

  /// Results sorted by ascending distance.
  std::vector<core::SearchResult> Take();

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }

 private:
  size_t k_;
  // Max-heap by distance: the root is the current k-th best.
  std::vector<core::SearchResult> heap_;
};

/// The ranked entry scan: the one place a span of entries (a table leaf,
/// an in-memory buffer, an ADS+ leaf) becomes verified answers. Entries
/// outside options.window are skipped; every other entry counts in
/// entries_examined and is ranked by its MINDIST lower bound. Candidates
/// are then verified nearest-bound first, at most `max_verifications` of
/// them (all when < 0), stopping at the first whose bound is not below
/// collector->bound(): the bound never rises, so no later candidate can
/// be kept. Each verification reads the series from `payloads` or, when
/// `payloads` is empty (a non-materialized source), from ctx.raw (one
/// raw_fetches each), then offers its early-abandoned distance.
/// `payloads` holds entries.size() * series_length floats or none.
Status EvaluateCandidates(const SearchContext& ctx,
                          const core::SearchOptions& options,
                          std::span<const core::IndexEntry> entries,
                          std::span<const float> payloads,
                          int max_verifications, KnnCollector* collector);

/// Approximate search: probes the leaf whose key range contains the query
/// key (the iSAX intuition: co-located summarizations are likely near
/// neighbors), ranks its entries by MINDIST, and verifies the best
/// `options.approx_candidates` candidates against the actual series.
/// Widens to neighboring leaves when a time window filters everything out.
Result<core::SearchResult> ApproxSearchTable(const SeqTable& table,
                                             const SearchContext& ctx,
                                             const core::SearchOptions& options);

/// Exact-search continuation: skip-sequential scan of the whole leaf level.
/// Leaves whose SAX bounding region lower-bounds at or above the
/// collector's bound are skipped without I/O; every other leaf goes
/// through EvaluateCandidates. Serves 1-NN and kNN alike: callers seed the
/// collector (with an approximate answer, or with earlier runs and
/// partitions) and share it across tables, so later tables prune harder.
Status ExactScanTable(const SeqTable& table, const SearchContext& ctx,
                      const core::SearchOptions& options,
                      KnnCollector* collector);

/// 1-NN form of the scan above: a KnnCollector(1) seeded with *best,
/// whose answer is written back to *best.
Status ExactScanTable(const SeqTable& table, const SearchContext& ctx,
                      const core::SearchOptions& options,
                      core::SearchResult* best);

/// Multi-query exact-search continuation: ONE skip-sequential scan of the
/// leaf level scores every query, so each leaf read, key deinterleave and
/// region build is shared across the batch and candidate verification goes
/// through the batched early-abandon distance kernel. All contexts must
/// share the table's SaxConfig (their counters may differ; a raw fetch
/// shared by several queries is attributed to the first verifying one).
/// Improves bests[q] in place, exactly like per-query ExactScanTable calls
/// would. It stays in entry order rather than the ranked order of
/// EvaluateCandidates: each query would rank the leaf differently, and
/// walking it once is what lets one fetch serve every query that still
/// needs the entry. The two orders can only differ on exact distance ties.
Status ExactScanTableMulti(const SeqTable& table,
                           std::span<const SearchContext> ctxs,
                           const core::SearchOptions& options,
                           std::span<core::SearchResult> bests);

}  // namespace seqtable
}  // namespace coconut

#endif  // COCONUT_SEQTABLE_TABLE_SEARCH_H_
