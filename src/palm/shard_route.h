#ifndef COCONUT_PALM_SHARD_ROUTE_H_
#define COCONUT_PALM_SHARD_ROUTE_H_

#include <cstdint>
#include <span>

#include "series/isax.h"
#include "series/sortable.h"

namespace coconut {
namespace palm {

/// The one key-range split and the one gather rule every sharding layer
/// uses: the in-process ShardSet (under ShardedIndex and
/// ShardedStreamingIndex) and the distributed coordinator. They MUST route
/// identically — the cross-layer equivalence and determinism guarantees
/// assume a series lands in the same key range whether it arrives in a
/// bulk build, on a live stream or through a coordinator — and gather
/// identically, so the math lives here exactly once.

/// Shard owning sortable-key word `w` under the contiguous monotone
/// uniform split: shard i owns [i * 2^64 / K, (i+1) * 2^64 / K).
inline size_t ShardOfKeyWord(uint64_t w, size_t num_shards) {
  const auto k = static_cast<unsigned __int128>(num_shards);
  return static_cast<size_t>((static_cast<unsigned __int128>(w) * k) >> 64);
}

/// Shard a (z-normalized) series routes to: its interleaved sortable key's
/// leading word under the split above.
inline size_t ShardOfSeries(std::span<const float> znorm_values,
                            const series::SaxConfig& sax,
                            size_t num_shards) {
  const series::SaxWord word = series::ComputeSax(znorm_values, sax);
  const series::SortableKey key = series::InterleaveSax(word, sax);
  return ShardOfKeyWord(key.words[0], num_shards);
}

/// The gather rule: whether `answer`, one shard's answer with its id
/// already mapped to the global id space, replaces `best`, the answer
/// gathered so far. A not-found answer never does; otherwise the nearer
/// wins, and at an exactly equal distance the smaller global id wins, so
/// the gathered answer depends on neither the shard layout nor the order
/// the shards answer in. `kDistance` names the distance member: squared in
/// process (core::SearchResult::distance_sq), Euclidean on the wire
/// (api::QueryReport::distance); both order answers the same way.
template <auto kDistance, class Answer>
bool GatherPrefers(const Answer& answer, const Answer& best) {
  if (!answer.found) return false;
  if (!best.found) return true;
  const double d = answer.*kDistance;
  const double b = best.*kDistance;
  return d < b || (d == b && answer.series_id < best.series_id);
}

}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_SHARD_ROUTE_H_
