#ifndef COCONUT_PALM_SHARD_ROUTE_H_
#define COCONUT_PALM_SHARD_ROUTE_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "common/status.h"
#include "series/isax.h"
#include "series/sortable.h"

namespace coconut {
namespace palm {

/// The one key-range split, the one id map and the one gather step every
/// sharding layer uses: the in-process ShardSet (under ShardedIndex and
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

/// Lock-free, grow-only map from shard-local ordinal to global series id. A
/// chunked spine (chunk k holds kBase << k slots, bases contiguous) so
/// growth never relocates published slots. Writers of one map are
/// serialized, and every writer sets a slot before the shard can return
/// its ordinal: an in-process streaming shard sets it under its admission
/// lock before the inner index publishes the entry citing it (the
/// release/acquire pair on that admission orders the Set before any
/// lookup), a static build is queried only after Finalize, and the
/// coordinator sets a sub-batch's slots before sending it. Slot and spine
/// stores are atomic, so even a probe of a foreign ordinal reads cleanly:
/// Find reports a miss.
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
    // Slots hold id + 1, so a slot never set (0) reads as a miss.
    chunk[local_id - ChunkBase(c)].store(global_id + 1,
                                         std::memory_order_relaxed);
  }

  /// The global id of a slot known to be set.
  uint64_t Get(uint64_t local_id) const { return *Find(local_id); }

  /// The global id of `local_id`, or nullopt when that slot was never set —
  /// in particular past the highest slot ever set.
  std::optional<uint64_t> Find(uint64_t local_id) const {
    const size_t c = ChunkIndex(local_id);
    if (c >= kMaxChunks) return std::nullopt;
    std::atomic<uint64_t>* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) return std::nullopt;
    const uint64_t slot =
        chunk[local_id - ChunkBase(c)].load(std::memory_order_relaxed);
    if (slot == 0) return std::nullopt;
    return slot - 1;
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

/// The gather step: maps one shard's answer from its local id through the
/// shard's id map, then folds it into `best` under GatherPrefers. A
/// not-found answer is skipped. A local id the map does not cover — the
/// shard holds a series this layer never mapped, e.g. a stream ingested
/// through another coordinator — is refused as Internal rather than
/// answered with a mistranslated id; `shard_name()` names the shard then.
template <auto kDistance, class Answer, class ShardName>
Status GatherAnswer(const IdMap& ids, Answer answer, Answer* best,
                    const ShardName& shard_name) {
  if (!answer.found) return Status::OK();
  const std::optional<uint64_t> global_id = ids.Find(answer.series_id);
  if (!global_id.has_value()) {
    return Status::Internal(shard_name() + " returned local series id " +
                            std::to_string(answer.series_id) +
                            " outside its id map");
  }
  answer.series_id = *global_id;
  if (GatherPrefers<kDistance>(answer, *best)) *best = std::move(answer);
  return Status::OK();
}

}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_SHARD_ROUTE_H_
