#include <gtest/gtest.h>

#include "ctree/ctree.h"
#include "tests/test_util.h"

namespace coconut {
namespace ctree {
namespace {

using core::SearchOptions;
using core::SearchResult;

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 64, .num_segments = 8,
                           .bits_per_segment = 8};
}

class CTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("ctree_test");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  std::unique_ptr<CTree> Build(const series::SeriesCollection& collection,
                               CTree::Options options,
                               const std::string& name = "ctree") {
    raw_ = core::RawSeriesStore::Create(mgr_.get(), name + ".raw", 64)
               .TakeValue();
    EXPECT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
    auto builder = CTree::Builder::Create(mgr_.get(), name, options).TakeValue();
    for (size_t i = 0; i < collection.size(); ++i) {
      EXPECT_TRUE(builder
                      ->Add(i, collection[i], static_cast<int64_t>(i))
                      .ok());
    }
    auto r = builder->Finish(nullptr, raw_.get());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.TakeValue();
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
};

TEST_F(CTreeTest, BuildAndCount) {
  auto collection = testutil::RandomWalkCollection(500, 64, 1);
  auto tree = Build(collection, {.sax = TestSax()});
  EXPECT_EQ(tree->num_entries(), 500u);
  EXPECT_GT(tree->num_leaves(), 0u);
}

TEST_F(CTreeTest, ExactSearchMatchesBruteForce) {
  auto collection = testutil::RandomWalkCollection(1000, 64, 2);
  auto tree = Build(collection, {.sax = TestSax()});
  for (int q = 0; q < 25; ++q) {
    auto query = testutil::NoisyCopy(collection, q * 41 % 1000, 0.4, 50 + q);
    auto truth = testutil::BruteForceNearest(collection, query);
    auto got = tree->ExactSearch(query, {}, nullptr).TakeValue();
    ASSERT_TRUE(got.found);
    EXPECT_NEAR(got.distance_sq, truth.distance_sq, 1e-6) << "query " << q;
  }
}

TEST_F(CTreeTest, MaterializedExactSearchMatchesBruteForce) {
  auto collection = testutil::RandomWalkCollection(600, 64, 3);
  auto tree =
      Build(collection, {.sax = TestSax(), .materialized = true});
  for (int q = 0; q < 15; ++q) {
    auto query = testutil::NoisyCopy(collection, q * 29 % 600, 0.4, 80 + q);
    auto truth = testutil::BruteForceNearest(collection, query);
    auto got = tree->ExactSearch(query, {}, nullptr).TakeValue();
    ASSERT_TRUE(got.found);
    EXPECT_NEAR(got.distance_sq, truth.distance_sq, 1e-6);
  }
}

TEST_F(CTreeTest, MaterializedQueriesNeedNoRawFetches) {
  auto collection = testutil::RandomWalkCollection(600, 64, 4);
  auto tree = Build(collection, {.sax = TestSax(), .materialized = true});
  core::QueryCounters counters;
  auto query = testutil::NoisyCopy(collection, 10, 0.3, 5);
  ASSERT_TRUE(tree->ExactSearch(query, {}, &counters).ok());
  EXPECT_EQ(counters.raw_fetches, 0u);

  // Non-materialized pays raw fetches for verification.
  auto tree2 = Build(collection, {.sax = TestSax()}, "ctree2");
  counters.Reset();
  ASSERT_TRUE(tree2->ExactSearch(query, {}, &counters).ok());
  EXPECT_GT(counters.raw_fetches, 0u);
}

TEST_F(CTreeTest, BulkBuildUsesSequentialWrites) {
  auto collection = testutil::RandomWalkCollection(3000, 64, 5);
  raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());

  mgr_->io_stats()->Reset();
  auto builder =
      CTree::Builder::Create(mgr_.get(), "ctree",
                             {.sax = TestSax(),
                              // Small budget to force an external sort.
                              .sort_memory_bytes = 32 * 1024})
          .TakeValue();
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(builder->Add(i, collection[i], 0).ok());
  }
  auto tree = builder->Finish(nullptr, raw_.get()).TakeValue();
  const auto& io = *mgr_->io_stats();
  // The whole pipeline (spill runs, merge, leaf writes) must be dominated
  // by sequential I/O; random writes stay O(1) (headers).
  EXPECT_GE(io.sequential_writes, 40u);
  EXPECT_LT(io.random_writes, 10u);
  EXPECT_GT(io.sequential_writes, io.random_writes * 5);
  EXPECT_GT(builder->sort_stats().runs_spilled, 1u);
}

// The construction sort's bytes do not depend on sort_threads, so neither
// does the tree: 1 and 4 sort threads lay out the same leaves.
TEST_F(CTreeTest, SortThreadsDoNotChangeTheTree) {
  auto collection = testutil::RandomWalkCollection(6000, 64, 13);
  raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  for (bool materialized : {false, true}) {
    // Both builds spill at these budgets (2 serial runs), and 4 threads cut
    // few enough runs that the final merge is range-partitioned too.
    const size_t budget = materialized ? size_t{1} << 20 : size_t{128} << 10;
    std::vector<seqtable::LeafView> leaves[2];
    extsort::SortStats stats[2];
    for (size_t t = 0; t < 2; ++t) {
      const size_t threads = t == 0 ? 1 : 4;
      const std::string name = "tree" + std::to_string(materialized) +
                               "_" + std::to_string(threads);
      auto builder =
          CTree::Builder::Create(mgr_.get(), name,
                                 {.sax = TestSax(),
                                  .materialized = materialized,
                                  .sort_memory_bytes = budget,
                                  .sort_threads = threads})
              .TakeValue();
      for (size_t i = 0; i < collection.size(); ++i) {
        ASSERT_TRUE(
            builder->Add(i, collection[i], static_cast<int64_t>(i)).ok());
      }
      auto tree = builder->Finish(nullptr, raw_.get()).TakeValue();
      leaves[t].resize(tree->num_leaves());
      for (size_t leaf = 0; leaf < leaves[t].size(); ++leaf) {
        ASSERT_TRUE(tree->table().ReadLeaf(leaf, &leaves[t][leaf]).ok());
      }
      stats[t] = builder->sort_stats();
    }
    SCOPED_TRACE(materialized ? "materialized" : "plain");
    EXPECT_GT(stats[0].runs_spilled, 1u);
    EXPECT_EQ(stats[0].threads_used, 1u);
    EXPECT_EQ(stats[1].threads_used, 4u);
    EXPECT_GT(stats[1].merge_ranges, 1u);
    ASSERT_EQ(leaves[1].size(), leaves[0].size());
    size_t entries = 0;
    for (size_t leaf = 0; leaf < leaves[0].size(); ++leaf) {
      EXPECT_EQ(leaves[1][leaf].entries, leaves[0][leaf].entries)
          << "leaf " << leaf;
      EXPECT_EQ(leaves[1][leaf].payloads, leaves[0][leaf].payloads)
          << "leaf " << leaf;
      entries += leaves[0][leaf].entries.size();
    }
    EXPECT_EQ(entries, collection.size());
  }
}

TEST_F(CTreeTest, ReopenPreservesTree) {
  auto collection = testutil::RandomWalkCollection(300, 64, 6);
  auto tree = Build(collection, {.sax = TestSax()});
  tree.reset();
  auto reopened =
      CTree::Open(mgr_.get(), "ctree", nullptr, raw_.get()).TakeValue();
  EXPECT_EQ(reopened->num_entries(), 300u);
  std::vector<float> query(collection[7].begin(), collection[7].end());
  auto got = reopened->ExactSearch(query, {}, nullptr).TakeValue();
  EXPECT_EQ(got.series_id, 7u);
  EXPECT_NEAR(got.distance_sq, 0.0, 1e-9);
}

// -------------------------------------------------------------- inserts

TEST_F(CTreeTest, InsertsIntoSlackThenSearchable) {
  auto collection = testutil::RandomWalkCollection(400, 64, 7);
  // Build from the first 300 with slack; insert the remaining 100.
  series::SeriesCollection base(64);
  for (size_t i = 0; i < 300; ++i) base.Append(collection[i]);

  raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  auto builder =
      CTree::Builder::Create(mgr_.get(), "ctree",
                             {.sax = TestSax(), .fill_factor = 0.7})
          .TakeValue();
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(builder->Add(i, base[i], static_cast<int64_t>(i)).ok());
  }
  auto tree = builder->Finish(nullptr, raw_.get()).TakeValue();

  for (size_t i = 300; i < 400; ++i) {
    ASSERT_TRUE(tree->Insert(i, collection[i], static_cast<int64_t>(i)).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->num_entries(), 400u);

  // Every inserted series is findable with distance 0.
  for (size_t i = 300; i < 400; i += 7) {
    std::vector<float> query(collection[i].begin(), collection[i].end());
    auto got = tree->ExactSearch(query, {}, nullptr).TakeValue();
    ASSERT_TRUE(got.found);
    EXPECT_NEAR(got.distance_sq, 0.0, 1e-9) << "inserted series " << i;
  }

  // And exact search still agrees with brute force over the union.
  for (int q = 0; q < 10; ++q) {
    auto query = testutil::NoisyCopy(collection, q * 39 % 400, 0.4, 90 + q);
    auto truth = testutil::BruteForceNearest(collection, query);
    auto got = tree->ExactSearch(query, {}, nullptr).TakeValue();
    EXPECT_NEAR(got.distance_sq, truth.distance_sq, 1e-6);
  }
}

TEST_F(CTreeTest, InsertsSplitFullLeaves) {
  auto collection = testutil::RandomWalkCollection(600, 64, 8);
  series::SeriesCollection base(64);
  for (size_t i = 0; i < 300; ++i) base.Append(collection[i]);

  raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  // Fill factor 1.0: every insert hits a full leaf eventually -> splits.
  auto builder = CTree::Builder::Create(mgr_.get(), "ctree",
                                        {.sax = TestSax(), .fill_factor = 1.0})
                     .TakeValue();
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(builder->Add(i, base[i], 0).ok());
  }
  auto tree = builder->Finish(nullptr, raw_.get()).TakeValue();
  const size_t leaves_before = tree->num_leaves();

  for (size_t i = 300; i < 600; ++i) {
    ASSERT_TRUE(tree->Insert(i, collection[i], 0).ok());
  }
  EXPECT_EQ(tree->num_entries(), 600u);
  EXPECT_GT(tree->num_leaves(), leaves_before);

  auto query = testutil::NoisyCopy(collection, 450, 0.3, 77);
  auto truth = testutil::BruteForceNearest(collection, query);
  auto got = tree->ExactSearch(query, {}, nullptr).TakeValue();
  EXPECT_NEAR(got.distance_sq, truth.distance_sq, 1e-6);
}

TEST_F(CTreeTest, LowFillFactorMakesInsertsCheaper) {
  auto collection = testutil::RandomWalkCollection(2000, 64, 9);
  series::SeriesCollection base(64);
  for (size_t i = 0; i < 1000; ++i) base.Append(collection[i]);

  auto measure = [&](double fill, const std::string& name) -> uint64_t {
    auto local_raw =
        core::RawSeriesStore::Create(mgr_.get(), name + ".raw", 64)
            .TakeValue();
    EXPECT_TRUE(testutil::FillRawStore(local_raw.get(), collection).ok());
    auto builder =
        CTree::Builder::Create(mgr_.get(), name,
                               {.sax = TestSax(), .fill_factor = fill})
            .TakeValue();
    for (size_t i = 0; i < 1000; ++i) {
      EXPECT_TRUE(builder->Add(i, base[i], 0).ok());
    }
    auto tree = builder->Finish(nullptr, local_raw.get()).TakeValue();
    storage::IoStats before = *mgr_->io_stats();
    for (size_t i = 1000; i < 2000; ++i) {
      EXPECT_TRUE(tree->Insert(i, collection[i], 0).ok());
    }
    storage::IoStats delta = mgr_->io_stats()->Since(before);
    return delta.total_ios();
  };

  const uint64_t io_full = measure(1.0, "full");
  const uint64_t io_slack = measure(0.6, "slack");
  // Slack absorbs inserts without splits: strictly less I/O.
  EXPECT_LT(io_slack, io_full);
}

TEST_F(CTreeTest, EmptyTreeSearchesFindNothing) {
  series::SeriesCollection empty(64);
  auto tree = Build(empty, {.sax = TestSax()});
  std::vector<float> query(64, 0.0f);
  auto a = tree->ApproxSearch(query, {}, nullptr).TakeValue();
  EXPECT_FALSE(a.found);
  auto e = tree->ExactSearch(query, {}, nullptr).TakeValue();
  EXPECT_FALSE(e.found);
}

TEST_F(CTreeTest, InsertIntoEmptyTree) {
  series::SeriesCollection empty(64);
  auto tree = Build(empty, {.sax = TestSax()});
  auto collection = testutil::RandomWalkCollection(10, 64, 10);
  // Register them in the raw store the tree verifies against.
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(raw_->Append(collection[i]).ok());
  }
  ASSERT_TRUE(raw_->Flush().ok());
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(tree->Insert(i, collection[i], 0).ok());
  }
  EXPECT_EQ(tree->num_entries(), 10u);
  std::vector<float> query(collection[3].begin(), collection[3].end());
  auto got = tree->ExactSearch(query, {}, nullptr).TakeValue();
  EXPECT_EQ(got.series_id, 3u);
}

TEST_F(CTreeTest, RejectsWrongLength) {
  auto collection = testutil::RandomWalkCollection(10, 64, 11);
  auto tree = Build(collection, {.sax = TestSax()});
  std::vector<float> short_series(32, 0.0f);
  EXPECT_FALSE(tree->Insert(99, short_series, 0).ok());
  auto builder =
      CTree::Builder::Create(mgr_.get(), "x", {.sax = TestSax()}).TakeValue();
  EXPECT_FALSE(builder->Add(0, short_series, 0).ok());
}

// Before Finalize the index counts the series its builder admitted: a
// refused insert is neither an entry nor a new snapshot version.
TEST_F(CTreeTest, IndexCountsOnlyAdmittedSeriesBeforeFinalize) {
  auto collection = testutil::RandomWalkCollection(10, 64, 12);
  raw_ = core::RawSeriesStore::Create(mgr_.get(), "idx.raw", 64).TakeValue();
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  auto index = CTreeIndex::Create(mgr_.get(), "idx", {.sax = TestSax()},
                                  nullptr, raw_.get())
                   .TakeValue();
  const uint64_t version = index->snapshot_version();
  std::vector<float> short_series(32, 0.0f);
  EXPECT_EQ(index->Insert(99, short_series, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index->num_entries(), 0u);
  EXPECT_EQ(index->snapshot_version(), version);

  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(index->Insert(i, collection[i], 0).ok());
  }
  EXPECT_EQ(index->num_entries(), 10u);
  ASSERT_TRUE(index->Finalize().ok());
  EXPECT_EQ(index->num_entries(), 10u);
  std::vector<float> query(collection[3].begin(), collection[3].end());
  EXPECT_EQ(index->ExactSearch(query, {}, nullptr).TakeValue().series_id, 3u);
}

}  // namespace
}  // namespace ctree
}  // namespace coconut
