// The sharding core's two shared pieces, tested in isolation: the
// lock-free shard-local -> global id map (every chunk edge, its miss
// check, one writer racing readers) and the one gather rule, applied to
// hand-made shard answers of both shapes it serves — in-process
// core::SearchResult (squared distance) and the coordinator's
// api::QueryReport (Euclidean distance off the wire).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "core/types.h"
#include "palm/api.h"
#include "palm/shard_route.h"

namespace coconut {
namespace palm {
namespace {

uint64_t GlobalFor(uint64_t local) { return local * 7919 + 13; }

TEST(IdMapTest, ChunkEdges) {
  EXPECT_EQ(IdMap::ChunkIndex(0), 0u);
  EXPECT_EQ(IdMap::ChunkIndex(1023), 0u);
  EXPECT_EQ(IdMap::ChunkIndex(1024), 1u);
  EXPECT_EQ(IdMap::ChunkIndex(3071), 1u);
  EXPECT_EQ(IdMap::ChunkIndex(3072), 2u);
  EXPECT_EQ(IdMap::ChunkBase(10), 1023u * 1024u);
  EXPECT_EQ(IdMap::ChunkIndex(IdMap::ChunkBase(10) - 1), 9u);
  EXPECT_EQ(IdMap::ChunkIndex(IdMap::ChunkBase(10)), 10u);
}

// One writer publishes ids at every chunk edge (and, densely, the first
// three chunks) while readers look up only ids already published — the
// contract the gather relies on. Readers must see every published slot.
TEST(IdMapTest, OneWriterConcurrentReaders) {
  std::vector<uint64_t> ids(3 * 1024 + 1);
  std::iota(ids.begin(), ids.end(), 0);
  ids.push_back(IdMap::ChunkBase(10));

  IdMap map;
  std::atomic<size_t> published{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      size_t checked = 0;
      while (checked < ids.size()) {
        const size_t seen = published.load(std::memory_order_acquire);
        for (; checked < seen; ++checked) {
          if (map.Get(ids[checked]) != GlobalFor(ids[checked])) failed = true;
        }
      }
    });
  }
  for (size_t j = 0; j < ids.size(); ++j) {
    map.Set(ids[j], GlobalFor(ids[j]));
    published.store(j + 1, std::memory_order_release);
  }
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  for (uint64_t id : {0u, 1023u, 1024u, 3071u, 3072u}) {
    EXPECT_EQ(map.Get(id), GlobalFor(id)) << id;
  }
  EXPECT_EQ(map.Get(IdMap::ChunkBase(10)), GlobalFor(IdMap::ChunkBase(10)));
}

// Find is the gather's miss check: a slot that was set maps (global id 0
// included); a slot never set misses, whether its chunk exists yet or not,
// and so does one past the highest slot ever set.
TEST(IdMapTest, FindAtChunkEdges) {
  IdMap map;
  EXPECT_FALSE(map.Find(0).has_value());
  map.Set(0, 0);
  ASSERT_TRUE(map.Find(0).has_value());
  EXPECT_EQ(*map.Find(0), 0u);
  for (size_t c = 1; c <= 10; ++c) {
    const uint64_t base = IdMap::ChunkBase(c);
    EXPECT_FALSE(map.Find(base - 1).has_value()) << c;
    EXPECT_FALSE(map.Find(base).has_value()) << c;
    map.Set(base - 1, GlobalFor(base - 1));
    map.Set(base, GlobalFor(base));
    ASSERT_TRUE(map.Find(base - 1).has_value()) << c;
    ASSERT_TRUE(map.Find(base).has_value()) << c;
    EXPECT_EQ(*map.Find(base - 1), GlobalFor(base - 1)) << c;
    EXPECT_EQ(*map.Find(base), GlobalFor(base)) << c;
    EXPECT_FALSE(map.Find(base - 2).has_value()) << c;  // unset, same chunk
    EXPECT_FALSE(map.Find(base + 1).has_value()) << c;  // past the mark
  }
  EXPECT_FALSE(map.Find(IdMap::ChunkBase(11)).has_value());
  EXPECT_FALSE(map.Find(std::numeric_limits<uint64_t>::max()).has_value());
}

core::SearchResult InProcess(bool found, uint64_t global_id, double d) {
  core::SearchResult r;
  r.found = found;
  r.series_id = global_id;
  r.distance_sq = d * d;
  r.timestamp = static_cast<int64_t>(global_id) * 10;
  return r;
}

api::QueryReport OffTheWire(bool found, uint64_t global_id, double d) {
  api::QueryReport r;
  r.found = found;
  r.series_id = global_id;
  r.distance = d;
  r.timestamp = static_cast<int64_t>(global_id) * 10;
  return r;
}

struct Answer {
  bool found;
  uint64_t global_id;
  double distance;
};

// Gathers `answers` in every order the shards could answer in and checks
// each order yields `want_id` (or nothing when `want_id` is nullopt), for
// both answer shapes.
void ExpectGather(std::vector<Answer> answers,
                  std::optional<uint64_t> want_id) {
  std::vector<size_t> order(answers.size());
  std::iota(order.begin(), order.end(), 0);
  do {
    core::SearchResult best;
    api::QueryReport wire_best;
    for (size_t i : order) {
      const Answer& a = answers[i];
      const core::SearchResult r = InProcess(a.found, a.global_id, a.distance);
      if (GatherPrefers<&core::SearchResult::distance_sq>(r, best)) best = r;
      const api::QueryReport w = OffTheWire(a.found, a.global_id, a.distance);
      if (GatherPrefers<&api::QueryReport::distance>(w, wire_best)) {
        wire_best = w;
      }
    }
    ASSERT_EQ(best.found, want_id.has_value());
    ASSERT_EQ(wire_best.found, want_id.has_value());
    if (want_id.has_value()) {
      EXPECT_EQ(best.series_id, *want_id);
      EXPECT_EQ(best.timestamp, static_cast<int64_t>(*want_id) * 10);
      EXPECT_EQ(wire_best.series_id, *want_id);
      EXPECT_EQ(wire_best.timestamp, static_cast<int64_t>(*want_id) * 10);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(GatherRuleTest, NearerWins) {
  ExpectGather({{true, 9, 1.0}, {true, 2, 2.0}, {true, 5, 3.5}}, 9);
}

TEST(GatherRuleTest, EqualDistanceGoesToSmallerGlobalId) {
  ExpectGather({{true, 7, 1.5}, {true, 3, 1.5}, {true, 5, 1.5}}, 3);
  // A farther answer with a smaller id never beats a nearer one.
  ExpectGather({{true, 1, 2.0}, {true, 8, 1.5}, {true, 4, 1.5}}, 4);
}

TEST(GatherRuleTest, NotFoundShardIsSkipped) {
  // The not-found answers carry id 0 at distance 0: taken, they would win.
  ExpectGather({{false, 0, 0.0}, {true, 6, 4.0}, {false, 0, 0.0}}, 6);
  ExpectGather({{false, 0, 0.0}, {false, 0, 0.0}}, std::nullopt);
}

}  // namespace
}  // namespace palm
}  // namespace coconut
