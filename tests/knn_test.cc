// k-nearest-neighbor search across every index family: results must match
// a brute-force top-k exactly (same distances, ascending order), respect
// time windows, and handle the k >= collection edge cases.
#include <gtest/gtest.h>

#include <algorithm>

#include "ads/ads_index.h"
#include "clsm/clsm.h"
#include "ctree/ctree.h"
#include "seqtable/table_search.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 64, .num_segments = 8,
                           .bits_per_segment = 8};
}

std::vector<std::pair<double, size_t>> BruteForceTopK(
    const series::SeriesCollection& collection, std::span<const float> query,
    size_t k) {
  std::vector<std::pair<double, size_t>> all;
  for (size_t i = 0; i < collection.size(); ++i) {
    all.emplace_back(series::EuclideanSquared(query, collection[i]), i);
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(all.size(), k));
  return all;
}

void ExpectMatchesTruth(const std::vector<core::SearchResult>& got,
                        const std::vector<std::pair<double, size_t>>& truth,
                        const std::string& what) {
  ASSERT_EQ(got.size(), truth.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].distance_sq, truth[i].first, 1e-6)
        << what << " rank " << i;
    if (i > 0) {
      EXPECT_GE(got[i].distance_sq, got[i - 1].distance_sq) << what;
    }
  }
}

class KnnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("knn_test");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
    collection_ = testutil::RandomWalkCollection(600, 64, 3);
    raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
    ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection_).ok());
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  std::unique_ptr<ctree::CTree> MakeCTree(bool materialized = false) {
    auto builder =
        ctree::CTree::Builder::Create(
            mgr_.get(), "ctree",
            {.sax = TestSax(), .materialized = materialized})
            .TakeValue();
    for (size_t i = 0; i < collection_.size(); ++i) {
      EXPECT_TRUE(
          builder->Add(i, collection_[i], static_cast<int64_t>(i)).ok());
    }
    return builder->Finish(nullptr, raw_.get()).TakeValue();
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
  series::SeriesCollection collection_{64};
};

TEST_F(KnnTest, CollectorKeepsKBest) {
  seqtable::KnnCollector collector(3);
  EXPECT_EQ(collector.bound(), std::numeric_limits<double>::infinity());
  for (double d : {5.0, 1.0, 9.0, 3.0, 7.0}) {
    core::SearchResult r;
    r.found = true;
    r.series_id = static_cast<uint64_t>(d * 10);
    r.distance_sq = d;
    collector.Offer(r);
  }
  EXPECT_DOUBLE_EQ(collector.bound(), 5.0);
  auto top = collector.Take();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_DOUBLE_EQ(top[0].distance_sq, 1.0);
  EXPECT_DOUBLE_EQ(top[1].distance_sq, 3.0);
  EXPECT_DOUBLE_EQ(top[2].distance_sq, 5.0);
}

TEST_F(KnnTest, CollectorCollapsesDuplicateIds) {
  seqtable::KnnCollector collector(2);
  core::SearchResult r;
  r.found = true;
  r.series_id = 7;
  r.distance_sq = 4.0;
  collector.Offer(r);
  r.distance_sq = 2.0;  // Closer observation of the same series.
  collector.Offer(r);
  auto top = collector.Take();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].distance_sq, 2.0);
}

TEST_F(KnnTest, CTreeMatchesBruteForceTopK) {
  auto tree = MakeCTree();
  for (size_t k : {1u, 5u, 20u}) {
    for (int q = 0; q < 5; ++q) {
      auto query = testutil::NoisyCopy(collection_, q * 97 % 600, 0.5, q);
      auto truth = BruteForceTopK(collection_, query, k);
      auto got = tree->KnnSearch(query, k, {}, nullptr).TakeValue();
      ExpectMatchesTruth(got, truth, "CTree k=" + std::to_string(k));
    }
  }
}

TEST_F(KnnTest, MaterializedCTreeMatchesBruteForceTopK) {
  auto tree = MakeCTree(/*materialized=*/true);
  auto query = testutil::NoisyCopy(collection_, 123, 0.5, 9);
  auto truth = BruteForceTopK(collection_, query, 10);
  auto got = tree->KnnSearch(query, 10, {}, nullptr).TakeValue();
  ExpectMatchesTruth(got, truth, "CTreeFull");
}

TEST_F(KnnTest, ClsmMatchesBruteForceTopK) {
  auto lsm = clsm::Clsm::Create(mgr_.get(), "lsm",
                                {.sax = TestSax(), .growth_factor = 3,
                                 .buffer_entries = 100},
                                nullptr, raw_.get())
                 .TakeValue();
  for (size_t i = 0; i < collection_.size(); ++i) {
    ASSERT_TRUE(lsm->Insert(i, collection_[i], static_cast<int64_t>(i)).ok());
  }
  // Deliberately leave entries in the memtable.
  for (size_t k : {1u, 10u}) {
    auto query = testutil::NoisyCopy(collection_, 50, 0.5, 31);
    auto truth = BruteForceTopK(collection_, query, k);
    core::QueryCounters counters;
    auto got = lsm->KnnSearch(query, k, {}, &counters).TakeValue();
    ExpectMatchesTruth(got, truth, "CLSM k=" + std::to_string(k));
    EXPECT_GT(counters.entries_examined, 0u);
    EXPECT_GE(counters.entries_examined, counters.raw_fetches);
  }
  // Fresh arrivals stay in the memtable; a window over them alone must
  // still count every series it verifies as examined.
  auto recent = testutil::RandomWalkCollection(40, 64, 77);
  for (size_t j = 0; j < recent.size(); ++j) {
    const uint64_t id = raw_->Append(recent[j]).TakeValue();
    ASSERT_TRUE(lsm->Insert(id, recent[j], static_cast<int64_t>(id)).ok());
  }
  ASSERT_TRUE(raw_->Flush().ok());
  ASSERT_EQ(lsm->buffered_entries(), recent.size());
  core::SearchOptions opts;
  opts.window = core::TimeWindow{600, 639};
  auto query = testutil::NoisyCopy(recent, 7, 0.5, 32);
  core::QueryCounters counters;
  auto got = lsm->KnnSearch(query, 5, opts, &counters).TakeValue();
  ExpectMatchesTruth(got, BruteForceTopK(recent, query, 5), "CLSM memtable");
  EXPECT_GT(counters.entries_examined, 0u);
  EXPECT_GE(counters.entries_examined, counters.raw_fetches);
}

TEST_F(KnnTest, AdsMatchesBruteForceTopK) {
  auto ads = ads::AdsIndex::Create(mgr_.get(), "ads",
                                   {.sax = TestSax(), .leaf_capacity = 64,
                                    .global_buffer_entries = 128},
                                   raw_.get())
                 .TakeValue();
  for (size_t i = 0; i < collection_.size(); ++i) {
    ASSERT_TRUE(ads->Insert(i, collection_[i], static_cast<int64_t>(i)).ok());
  }
  for (size_t k : {1u, 10u}) {
    auto query = testutil::NoisyCopy(collection_, 400, 0.5, 13);
    auto truth = BruteForceTopK(collection_, query, k);
    core::QueryCounters counters;
    auto got = ads->KnnSearch(query, k, {}, &counters).TakeValue();
    ExpectMatchesTruth(got, truth, "ADS+ k=" + std::to_string(k));
    EXPECT_GT(counters.entries_examined, 0u);
    EXPECT_GE(counters.entries_examined, counters.raw_fetches);
  }
}

TEST_F(KnnTest, KnnRespectsTimeWindow) {
  auto tree = MakeCTree();
  core::SearchOptions opts;
  opts.window = core::TimeWindow{100, 300};
  std::vector<float> query(collection_[400].begin(), collection_[400].end());
  auto got = tree->KnnSearch(query, 5, opts, nullptr).TakeValue();
  ASSERT_EQ(got.size(), 5u);
  for (const auto& r : got) {
    EXPECT_GE(r.timestamp, 100);
    EXPECT_LE(r.timestamp, 300);
    EXPECT_NE(r.series_id, 400u);
  }
  // Matches the brute-force top-5 restricted to the window.
  std::vector<std::pair<double, size_t>> truth;
  for (size_t i = 100; i <= 300; ++i) {
    truth.emplace_back(series::EuclideanSquared(query, collection_[i]), i);
  }
  std::sort(truth.begin(), truth.end());
  truth.resize(5);
  ExpectMatchesTruth(got, truth, "windowed");
}

TEST_F(KnnTest, KLargerThanCollectionReturnsEverything) {
  auto small = testutil::RandomWalkCollection(10, 64, 8);
  auto small_raw =
      core::RawSeriesStore::Create(mgr_.get(), "raw2", 64).TakeValue();
  ASSERT_TRUE(testutil::FillRawStore(small_raw.get(), small).ok());
  auto builder = ctree::CTree::Builder::Create(mgr_.get(), "small",
                                               {.sax = TestSax()})
                     .TakeValue();
  for (size_t i = 0; i < small.size(); ++i) {
    ASSERT_TRUE(builder->Add(i, small[i], 0).ok());
  }
  auto tree = builder->Finish(nullptr, small_raw.get()).TakeValue();
  std::vector<float> query(small[0].begin(), small[0].end());
  auto got = tree->KnnSearch(query, 50, {}, nullptr).TakeValue();
  EXPECT_EQ(got.size(), 10u);
}

TEST_F(KnnTest, KZeroRejected) {
  auto tree = MakeCTree();
  std::vector<float> query(64, 0.0f);
  EXPECT_FALSE(tree->KnnSearch(query, 0, {}, nullptr).ok());
}

}  // namespace
}  // namespace coconut
