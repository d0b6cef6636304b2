#include <gtest/gtest.h>

#include "ads/ads_index.h"
#include "tests/test_util.h"

namespace coconut {
namespace ads {
namespace {

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 64, .num_segments = 8,
                           .bits_per_segment = 8};
}

class AdsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("ads_test");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  std::unique_ptr<AdsIndex> MakeAds(AdsIndex::Options options,
                                    const series::SeriesCollection& collection,
                                    const std::string& prefix = "ads") {
    raw_ = core::RawSeriesStore::Create(mgr_.get(), prefix + ".raw", 64)
               .TakeValue();
    EXPECT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
    auto ads =
        AdsIndex::Create(mgr_.get(), prefix, options, raw_.get()).TakeValue();
    for (size_t i = 0; i < collection.size(); ++i) {
      EXPECT_TRUE(ads->Insert(i, collection[i], static_cast<int64_t>(i)).ok());
    }
    return ads;
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
};

TEST_F(AdsTest, InsertAndCount) {
  auto collection = testutil::RandomWalkCollection(500, 64, 1);
  auto ads = MakeAds({.sax = TestSax(), .leaf_capacity = 64,
                      .global_buffer_entries = 128},
                     collection);
  EXPECT_EQ(ads->num_entries(), 500u);
  EXPECT_GT(ads->num_leaves(), 1u);
  EXPECT_GE(ads->num_nodes(), ads->num_leaves());
}

TEST_F(AdsTest, SplitsKeepLeavesBounded) {
  auto collection = testutil::RandomWalkCollection(2000, 64, 2);
  auto ads = MakeAds({.sax = TestSax(), .leaf_capacity = 50,
                      .global_buffer_entries = 100},
                     collection);
  // With capacity 50, 2000 entries need >= 40 leaves.
  EXPECT_GE(ads->num_leaves(), 40u);
}

TEST_F(AdsTest, ExactSearchMatchesBruteForce) {
  auto collection = testutil::RandomWalkCollection(1000, 64, 3);
  auto ads = MakeAds({.sax = TestSax(), .leaf_capacity = 128,
                      .global_buffer_entries = 256},
                     collection);
  for (int q = 0; q < 20; ++q) {
    auto query = testutil::NoisyCopy(collection, q * 47 % 1000, 0.4, 60 + q);
    auto truth = testutil::BruteForceNearest(collection, query);
    auto got = ads->ExactSearch(query, {}, nullptr).TakeValue();
    ASSERT_TRUE(got.found);
    EXPECT_NEAR(got.distance_sq, truth.distance_sq, 1e-6) << "query " << q;
  }
}

TEST_F(AdsTest, MaterializedExactMatchesBruteForce) {
  auto collection = testutil::RandomWalkCollection(600, 64, 4);
  auto ads = MakeAds({.sax = TestSax(), .materialized = true,
                      .leaf_capacity = 64, .global_buffer_entries = 128},
                     collection);
  for (int q = 0; q < 10; ++q) {
    auto query = testutil::NoisyCopy(collection, q * 83 % 600, 0.4, 70 + q);
    auto truth = testutil::BruteForceNearest(collection, query);
    auto got = ads->ExactSearch(query, {}, nullptr).TakeValue();
    EXPECT_NEAR(got.distance_sq, truth.distance_sq, 1e-6);
  }
}

TEST_F(AdsTest, FindsPlantedSeries) {
  auto collection = testutil::RandomWalkCollection(400, 64, 5);
  auto ads = MakeAds({.sax = TestSax(), .leaf_capacity = 64,
                      .global_buffer_entries = 512},
                     collection);
  std::vector<float> query(collection[123].begin(), collection[123].end());
  auto got = ads->ExactSearch(query, {}, nullptr).TakeValue();
  EXPECT_EQ(got.series_id, 123u);
  EXPECT_NEAR(got.distance_sq, 0.0, 1e-9);
}

TEST_F(AdsTest, ConstructionCausesRandomWrites) {
  // The headline structural difference vs Coconut: ADS+ construction
  // scatters writes across many per-leaf files.
  auto collection = testutil::RandomWalkCollection(2000, 64, 6);
  raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  mgr_->io_stats()->Reset();
  auto ads = AdsIndex::Create(mgr_.get(), "ads",
                              {.sax = TestSax(), .leaf_capacity = 100,
                               .global_buffer_entries = 200},
                              raw_.get())
                 .TakeValue();
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(ads->Insert(i, collection[i], 0).ok());
  }
  ASSERT_TRUE(ads->Finalize().ok());
  const auto& io = *mgr_->io_stats();
  // Flushes hop between leaf files: a large share of writes is random.
  EXPECT_GT(io.random_writes, io.total_writes() / 4);
}

TEST_F(AdsTest, GlobalBufferCapRespected) {
  auto collection = testutil::RandomWalkCollection(1500, 64, 7);
  auto ads = MakeAds({.sax = TestSax(), .leaf_capacity = 200,
                      .global_buffer_entries = 100},
                     collection);
  // Buffered entries can exceed the cap only transiently within an insert.
  EXPECT_LE(ads->buffered_entries(), 100u + 1u);
}

TEST_F(AdsTest, FinalizeEmptiesBuffers) {
  auto collection = testutil::RandomWalkCollection(300, 64, 8);
  auto ads = MakeAds({.sax = TestSax(), .leaf_capacity = 64,
                      .global_buffer_entries = 1024},
                     collection);
  EXPECT_GT(ads->buffered_entries(), 0u);
  ASSERT_TRUE(ads->Finalize().ok());
  EXPECT_EQ(ads->buffered_entries(), 0u);
  EXPECT_GT(ads->index_bytes(), 0u);

  // Data still searchable after the flush.
  std::vector<float> query(collection[9].begin(), collection[9].end());
  auto got = ads->ExactSearch(query, {}, nullptr).TakeValue();
  EXPECT_EQ(got.series_id, 9u);
}

TEST_F(AdsTest, WindowFilteringWorks) {
  auto collection = testutil::RandomWalkCollection(500, 64, 9);
  auto ads = MakeAds({.sax = TestSax(), .leaf_capacity = 64,
                      .global_buffer_entries = 128},
                     collection);
  std::vector<float> query(collection[450].begin(), collection[450].end());
  core::SearchOptions opts;
  opts.window = core::TimeWindow{0, 200};
  auto got = ads->ExactSearch(query, opts, nullptr).TakeValue();
  ASSERT_TRUE(got.found);
  EXPECT_LE(got.timestamp, 200);
  double truth = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i <= 200; ++i) {
    truth = std::min(truth, series::EuclideanSquared(query, collection[i]));
  }
  EXPECT_NEAR(got.distance_sq, truth, 1e-6);
}

TEST_F(AdsTest, EmptyIndexFindsNothing) {
  raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  auto ads =
      AdsIndex::Create(mgr_.get(), "ads", {.sax = TestSax()}, raw_.get())
          .TakeValue();
  std::vector<float> query(64, 0.0f);
  EXPECT_FALSE(ads->ApproxSearch(query, {}, nullptr).TakeValue().found);
  EXPECT_FALSE(ads->ExactSearch(query, {}, nullptr).TakeValue().found);
}

TEST_F(AdsTest, RejectsBadOptions) {
  EXPECT_FALSE(AdsIndex::Create(mgr_.get(), "x",
                                {.sax = TestSax(), .leaf_capacity = 0},
                                nullptr)
                   .ok());
  EXPECT_FALSE(
      AdsIndex::Create(mgr_.get(), "x", {.sax = TestSax()}, nullptr).ok());
}

}  // namespace
}  // namespace ads
}  // namespace coconut
