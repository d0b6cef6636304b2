#include "seqtable/table_search.h"

#include <algorithm>

#include "series/distance.h"
#include "series/paa.h"

namespace coconut {
namespace seqtable {

namespace {

using core::IndexEntry;
using core::SearchOptions;
using core::SearchResult;

// A candidate awaiting verification, ordered by its lower bound.
struct Candidate {
  double mindist;
  size_t index_in_leaf;
};

Status CheckPayloads(const SearchContext& ctx, size_t num_entries,
                     std::span<const float> payloads) {
  if (!payloads.empty() &&
      payloads.size() != num_entries * ctx.sax.series_length) {
    return Status::Internal("payloads do not match the entry count");
  }
  return Status::OK();
}

// Points *values at the series of entries[i]: its payload slice when the
// source is materialized, else a raw-store fetch into *buffer (counted in
// ctx's raw_fetches).
Status FetchSeries(const SearchContext& ctx, const IndexEntry& entry,
                   std::span<const float> payloads, size_t i,
                   std::vector<float>* buffer,
                   std::span<const float>* values) {
  const size_t len = ctx.sax.series_length;
  if (!payloads.empty()) {
    *values = payloads.subspan(i * len, len);
    return Status::OK();
  }
  if (ctx.raw == nullptr) {
    return Status::Internal(
        "non-materialized verification requires a raw store");
  }
  buffer->resize(len);
  COCONUT_RETURN_NOT_OK(ctx.raw->Get(entry.series_id, *buffer));
  if (ctx.counters != nullptr) ++ctx.counters->raw_fetches;
  *values = *buffer;
  return Status::OK();
}

// Whether a leaf region lower-bounds at or above `bound`; counts the prune.
bool PruneLeaf(const SearchContext& ctx, const series::SaxRegion& region,
               double bound) {
  if (series::MinDistSquared(ctx.query_paa, region, ctx.sax) < bound) {
    return false;
  }
  if (ctx.counters != nullptr) ++ctx.counters->leaves_pruned;
  return true;
}

bool FartherFirst(const SearchResult& a, const SearchResult& b) {
  return a.distance_sq < b.distance_sq;
}

}  // namespace

SearchContext MakeSearchContext(const series::SaxConfig& sax,
                                std::span<const float> query,
                                std::vector<float>* paa_storage,
                                core::RawSeriesStore* raw,
                                core::QueryCounters* counters) {
  SearchContext ctx;
  ctx.sax = sax;
  ctx.query = query;
  *paa_storage = series::ComputePaa(query, sax.num_segments);
  ctx.query_paa = *paa_storage;
  ctx.query_key =
      series::InterleaveSax(series::ComputeSaxFromPaa(*paa_storage, sax), sax);
  ctx.raw = raw;
  ctx.counters = counters;
  return ctx;
}

double KnnCollector::bound() const {
  if (heap_.size() < k_) return std::numeric_limits<double>::infinity();
  return heap_.front().distance_sq;
}

void KnnCollector::Offer(const SearchResult& result) {
  if (!result.found || result.distance_sq >= bound()) return;
  // Collapse duplicate ids: keep only the closer observation.
  for (auto& existing : heap_) {
    if (existing.series_id == result.series_id) {
      if (result.distance_sq < existing.distance_sq) {
        existing = result;
        std::make_heap(heap_.begin(), heap_.end(), FartherFirst);
      }
      return;
    }
  }
  heap_.push_back(result);
  std::push_heap(heap_.begin(), heap_.end(), FartherFirst);
  if (heap_.size() > k_) {
    std::pop_heap(heap_.begin(), heap_.end(), FartherFirst);
    heap_.pop_back();
  }
}

SearchResult KnnCollector::Nearest() const {
  if (heap_.empty()) return SearchResult{};
  return *std::min_element(heap_.begin(), heap_.end(), FartherFirst);
}

std::vector<SearchResult> KnnCollector::Take() {
  std::sort_heap(heap_.begin(), heap_.end(), FartherFirst);
  return std::move(heap_);
}

Status EvaluateCandidates(const SearchContext& ctx,
                          const SearchOptions& options,
                          std::span<const IndexEntry> entries,
                          std::span<const float> payloads,
                          int max_verifications, KnnCollector* collector) {
  COCONUT_RETURN_NOT_OK(CheckPayloads(ctx, entries.size(), payloads));
  std::vector<Candidate> candidates;
  candidates.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const IndexEntry& entry = entries[i];
    if (!options.window.Contains(entry.timestamp)) continue;
    if (ctx.counters != nullptr) ++ctx.counters->entries_examined;
    const series::SaxWord word = series::DeinterleaveKey(entry.key, ctx.sax);
    const double lb = series::MinDistSquaredToSax(ctx.query_paa, word, ctx.sax);
    candidates.push_back(Candidate{lb, i});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.mindist < b.mindist;
            });
  const size_t limit = max_verifications < 0
                           ? candidates.size()
                           : std::min<size_t>(candidates.size(),
                                              static_cast<size_t>(
                                                  max_verifications));
  std::vector<float> fetched;  // One fetch buffer for the whole scan.
  for (size_t c = 0; c < limit; ++c) {
    const Candidate& cand = candidates[c];
    // The lower bound only tightens as the collector fills; stop early.
    if (cand.mindist >= collector->bound()) break;
    const IndexEntry& entry = entries[cand.index_in_leaf];
    std::span<const float> values;
    COCONUT_RETURN_NOT_OK(FetchSeries(ctx, entry, payloads,
                                      cand.index_in_leaf, &fetched, &values));
    SearchResult candidate;
    candidate.found = true;
    candidate.series_id = entry.series_id;
    candidate.timestamp = entry.timestamp;
    candidate.distance_sq = series::EuclideanSquaredEarlyAbandon(
        ctx.query, values, collector->bound());
    collector->Offer(candidate);
  }
  return Status::OK();
}

Result<SearchResult> ApproxSearchTable(const SeqTable& table,
                                       const SearchContext& ctx,
                                       const SearchOptions& options) {
  if (table.num_leaves() == 0) return SearchResult{};
  KnnCollector best(1);

  const size_t home = table.FindLeafForKey(ctx.query_key);
  // Probe the home leaf; if a time window filtered out every entry, widen
  // outward ring by ring so streaming queries still return an answer.
  const size_t max_ring = table.num_leaves();
  for (size_t ring = 0; ring < max_ring; ++ring) {
    bool probed_any = false;
    for (int side = 0; side < 2; ++side) {
      if (ring == 0 && side == 1) continue;
      size_t idx;
      if (side == 0) {
        if (home + ring >= table.num_leaves()) continue;
        idx = home + ring;
      } else {
        if (ring > home) continue;
        idx = home - ring;
      }
      probed_any = true;
      LeafView view;
      COCONUT_RETURN_NOT_OK(table.ReadLeaf(idx, &view));
      if (ctx.counters != nullptr) ++ctx.counters->leaves_visited;
      COCONUT_RETURN_NOT_OK(EvaluateCandidates(ctx, options, view.entries,
                                               view.payloads,
                                               options.approx_candidates,
                                               &best));
    }
    if (best.size() > 0) break;
    if (!probed_any) break;
  }
  return best.Nearest();
}

Status ExactScanTable(const SeqTable& table, const SearchContext& ctx,
                      const SearchOptions& options, KnnCollector* collector) {
  for (size_t leaf = 0; leaf < table.num_leaves(); ++leaf) {
    if (PruneLeaf(ctx, table.LeafRegion(leaf), collector->bound())) continue;
    LeafView view;
    COCONUT_RETURN_NOT_OK(table.ReadLeaf(leaf, &view));
    if (ctx.counters != nullptr) ++ctx.counters->leaves_visited;
    COCONUT_RETURN_NOT_OK(EvaluateCandidates(ctx, options, view.entries,
                                             view.payloads,
                                             /*max_verifications=*/-1,
                                             collector));
  }
  return Status::OK();
}

Status ExactScanTable(const SeqTable& table, const SearchContext& ctx,
                      const SearchOptions& options, SearchResult* best) {
  KnnCollector collector(1);
  collector.Offer(*best);
  COCONUT_RETURN_NOT_OK(ExactScanTable(table, ctx, options, &collector));
  if (collector.size() > 0) *best = collector.Nearest();
  return Status::OK();
}

Status ExactScanTableMulti(const SeqTable& table,
                           std::span<const SearchContext> ctxs,
                           const core::SearchOptions& options,
                           std::span<core::SearchResult> bests) {
  const size_t nq = ctxs.size();
  if (nq == 0) return Status::OK();
  if (nq == 1) return ExactScanTable(table, ctxs[0], options, &bests[0]);
  const series::SaxConfig& sax = ctxs[0].sax;

  std::vector<char> leaf_live(nq, 0);
  std::vector<size_t> verify;  // ordinals scoring the current entry
  std::vector<const float*> qptrs;
  std::vector<double> thresholds;
  std::vector<double> dists(nq);
  std::vector<float> fetched;
  verify.reserve(nq);
  qptrs.reserve(nq);
  thresholds.reserve(nq);

  for (size_t leaf = 0; leaf < table.num_leaves(); ++leaf) {
    const series::SaxRegion region = table.LeafRegion(leaf);
    bool any_live = false;
    for (size_t q = 0; q < nq; ++q) {
      leaf_live[q] = !PruneLeaf(ctxs[q], region, bests[q].distance_sq);
      any_live = any_live || leaf_live[q];
    }
    if (!any_live) continue;
    LeafView view;
    COCONUT_RETURN_NOT_OK(table.ReadLeaf(leaf, &view));
    COCONUT_RETURN_NOT_OK(
        CheckPayloads(ctxs[0], view.entries.size(), view.payloads));
    for (size_t q = 0; q < nq; ++q) {
      if (leaf_live[q] && ctxs[q].counters != nullptr) {
        ++ctxs[q].counters->leaves_visited;
      }
    }
    for (size_t i = 0; i < view.entries.size(); ++i) {
      const IndexEntry& entry = view.entries[i];
      if (!options.window.Contains(entry.timestamp)) continue;
      // One deinterleave + region build serves the whole batch.
      const series::SaxWord word = series::DeinterleaveKey(entry.key, sax);
      const series::SaxRegion entry_region = series::RegionFromSax(word, sax);
      verify.clear();
      qptrs.clear();
      thresholds.clear();
      for (size_t q = 0; q < nq; ++q) {
        if (!leaf_live[q]) continue;
        if (ctxs[q].counters != nullptr) ++ctxs[q].counters->entries_examined;
        if (series::MinDistSquared(ctxs[q].query_paa, entry_region, sax) >=
            bests[q].distance_sq) {
          continue;
        }
        verify.push_back(q);
        qptrs.push_back(ctxs[q].query.data());
        thresholds.push_back(bests[q].distance_sq);
      }
      if (verify.empty()) continue;
      // One physical fetch serves every query of the batch; it is charged
      // to the first verifying query so raw_fetches still counts real I/O.
      std::span<const float> values;
      COCONUT_RETURN_NOT_OK(FetchSeries(ctxs[verify[0]], entry, view.payloads,
                                        i, &fetched, &values));
      series::EuclideanSquaredEarlyAbandonBatch(
          values,
          std::span<const float* const>(qptrs.data(), qptrs.size()),
          std::span<const double>(thresholds.data(), thresholds.size()),
          std::span<double>(dists.data(), verify.size()));
      for (size_t v = 0; v < verify.size(); ++v) {
        SearchResult candidate;
        candidate.found = true;
        candidate.series_id = entry.series_id;
        candidate.timestamp = entry.timestamp;
        candidate.distance_sq = dists[v];
        bests[verify[v]].Improve(candidate);
      }
    }
  }
  return Status::OK();
}

}  // namespace seqtable
}  // namespace coconut
