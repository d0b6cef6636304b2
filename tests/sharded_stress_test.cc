// Concurrency stress over the sharding layer: many threads query one
// ShardedIndex — directly and through Service::QueryBatch — while other
// threads read IoStats and buffer-pool accounting mid-flight. Results must
// stay exact throughout (each query re-verified against the brute-force
// oracle) and the whole file must be clean under ASan/UBSan and TSan (CI
// runs both). This is the test that pins the per-shard query serialization
// and the thread-safe accounting snapshots.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "palm/api.h"
#include "palm/sharded_index.h"
#include "tests/test_util.h"

namespace coconut {
namespace palm {
namespace {

series::SaxConfig StressSax() {
  return series::SaxConfig{.series_length = 64, .num_segments = 8,
                           .bits_per_segment = 8};
}

VariantSpec ShardedSpec(size_t num_shards) {
  VariantSpec spec;
  spec.sax = StressSax();
  spec.family = IndexFamily::kCTree;
  spec.num_shards = num_shards;
  spec.construction_threads = 2;  // Parallel sort + merge inside shards.
  spec.memory_budget_bytes = 64 << 10;
  return spec;
}

// Many threads hammer ExactSearch on one ShardedIndex while readers poll
// aggregate I/O and pool counters. Every answer must equal the oracle.
TEST(ShardedStressTest, ConcurrentExactSearchStaysExact) {
  auto mgr = storage::MakeTempStorage("sharded_stress").TakeValue();
  auto raw = core::RawSeriesStore::Create(mgr.get(), "raw", 64).TakeValue();
  auto collection = testutil::RandomWalkCollection(300, 64, 101);
  ASSERT_TRUE(testutil::FillRawStore(raw.get(), collection).ok());

  auto index =
      CreateStaticIndex(ShardedSpec(4), mgr.get(), "idx", nullptr, raw.get())
          .TakeValue();
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(
        index->Insert(i, collection[i], static_cast<int64_t>(i)).ok());
  }
  ASSERT_TRUE(index->Finalize().ok());
  auto* sharded = dynamic_cast<ShardedIndex*>(index.get());
  ASSERT_NE(sharded, nullptr);

  // Precompute queries and oracle answers on one thread.
  constexpr size_t kQueries = 12;
  std::vector<std::vector<float>> queries;
  std::vector<testutil::BruteForceResult> expected;
  for (size_t q = 0; q < kQueries; ++q) {
    queries.push_back(testutil::NoisyCopy(collection, (q * 37 + 5) % 300,
                                          q % 3 == 0 ? 2.0 : 0.5, 600 + q));
    auto oracle = testutil::BruteForceKnn(collection, queries.back(), 1);
    expected.push_back(oracle[0]);
  }

  constexpr size_t kThreads = 8;
  constexpr size_t kItersPerThread = 16;
  std::atomic<bool> done{false};
  std::atomic<size_t> mismatches{0};

  // Accounting readers: aggregate snapshots are taken under the same
  // mutexes the I/O paths update, so polling mid-query is race-free.
  std::thread stats_reader([&] {
    uint64_t last_reads = 0;
    while (!done.load(std::memory_order_acquire)) {
      const storage::IoStats io = sharded->AggregateIoStats();
      EXPECT_GE(io.total_reads(), last_reads);  // Counters are monotone.
      last_reads = io.total_reads();
      uint64_t hits = 0;
      uint64_t misses = 0;
      sharded->PoolCounters(&hits, &misses);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t it = 0; it < kItersPerThread; ++it) {
        const size_t q = (t * kItersPerThread + it) % kQueries;
        core::QueryCounters counters;
        auto r = sharded->ExactSearch(queries[q], {}, &counters);
        if (!r.ok() || !r.value().found ||
            r.value().series_id != expected[q].index ||
            std::abs(r.value().distance_sq - expected[q].distance_sq) >
                1e-9) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  done.store(true, std::memory_order_release);
  stats_reader.join();

  EXPECT_EQ(mismatches.load(), 0u);
  // The run did real I/O and the counters saw it.
  EXPECT_GT(sharded->AggregateIoStats().total_ios(), 0u);
}

// Service::QueryBatch against sharded and unsharded indexes concurrently
// with accounting readers; every response must carry the oracle distance.
TEST(ShardedStressTest, QueryBatchOverShardedIndexUnderLoad) {
  const std::string root =
      storage::MakeTempStorage("sharded_stress_srv").TakeValue()->directory();
  auto server = api::Service::Create(root).TakeValue();

  auto collection = testutil::RandomWalkCollection(260, 64, 102);
  ASSERT_TRUE(server->RegisterDataset("data", collection, nullptr).ok());

  auto sharded_report = server->BuildIndex("shardy", ShardedSpec(4), "data");
  ASSERT_TRUE(sharded_report.ok()) << sharded_report.status().ToString();
  EXPECT_EQ(sharded_report.value().shards, 4u);
  ASSERT_TRUE(server->BuildIndex("flat", ShardedSpec(1), "data").ok());

  // Queries alternate between the two indexes; QueryBatch serializes per
  // index while the sharded handle fans out internally.
  constexpr size_t kBatch = 32;
  std::vector<api::QueryRequest> requests;
  std::vector<double> oracle_distance;
  for (size_t i = 0; i < kBatch; ++i) {
    api::QueryRequest req;
    req.index = i % 2 == 0 ? "shardy" : "flat";
    req.query = testutil::NoisyCopy(collection, (i * 29 + 3) % 260,
                                    i % 4 == 0 ? 2.0 : 0.5, 700 + i);
    req.exact = true;
    requests.push_back(req);
    // The server z-normalizes a copy; NoisyCopy output is already
    // normalized, so the oracle sees the same query.
    oracle_distance.push_back(testutil::BruteForceKnn(
                                  collection, requests.back().query, 1)[0]
                                  .distance_sq);
  }

  std::atomic<bool> done{false};
  storage::StorageManager* shardy_storage = server->index_storage("shardy");
  ASSERT_NE(shardy_storage, nullptr);
  auto* sharded =
      dynamic_cast<ShardedIndex*>(server->static_index("shardy"));
  ASSERT_NE(sharded, nullptr);
  std::thread stats_reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)shardy_storage->SnapshotIoStats();
      (void)sharded->AggregateIoStats();
      std::this_thread::yield();
    }
  });

  std::vector<std::vector<Result<api::QueryReport>>> rounds;
  for (int round = 0; round < 3; ++round) {
    rounds.push_back(server->QueryBatch(requests, 4));
  }
  done.store(true, std::memory_order_release);
  stats_reader.join();

  for (const auto& results : rounds) {
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      // The report carries sqrt(distance_sq); re-derive and compare.
      const double dist = results[i].value().distance;
      EXPECT_NEAR(dist * dist, oracle_distance[i], 1e-6)
          << "request " << i << ": " << results[i].value().ToJsonString();
    }
  }
}

}  // namespace
}  // namespace palm
}  // namespace coconut
