#include <gtest/gtest.h>

#include "clsm/clsm.h"
#include "tests/test_util.h"

namespace coconut {
namespace clsm {
namespace {

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 64, .num_segments = 8,
                           .bits_per_segment = 8};
}

class ClsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("clsm_test");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  std::unique_ptr<Clsm> MakeLsm(Clsm::Options options,
                                const series::SeriesCollection& collection,
                                const std::string& prefix = "lsm") {
    raw_ = core::RawSeriesStore::Create(mgr_.get(), prefix + ".raw", 64)
               .TakeValue();
    EXPECT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
    auto lsm =
        Clsm::Create(mgr_.get(), prefix, options, nullptr, raw_.get())
            .TakeValue();
    for (size_t i = 0; i < collection.size(); ++i) {
      EXPECT_TRUE(lsm->Insert(i, collection[i], static_cast<int64_t>(i)).ok());
    }
    return lsm;
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
};

TEST_F(ClsmTest, RejectsBadOptions) {
  EXPECT_FALSE(Clsm::Create(mgr_.get(), "x",
                            {.sax = TestSax(), .growth_factor = 1},
                            nullptr, nullptr)
                   .ok());
  EXPECT_FALSE(Clsm::Create(mgr_.get(), "x",
                            {.sax = TestSax(), .buffer_entries = 0},
                            nullptr, nullptr)
                   .ok());
  // Non-materialized without raw store.
  EXPECT_FALSE(
      Clsm::Create(mgr_.get(), "x", {.sax = TestSax()}, nullptr, nullptr)
          .ok());
}

TEST_F(ClsmTest, CountsAcrossBufferAndLevels) {
  auto collection = testutil::RandomWalkCollection(1000, 64, 1);
  auto lsm = MakeLsm({.sax = TestSax(), .growth_factor = 3,
                      .buffer_entries = 128},
                     collection);
  EXPECT_EQ(lsm->num_entries(), 1000u);
  EXPECT_GT(lsm->num_active_levels(), 0u);
  ASSERT_TRUE(lsm->Finalize().ok());
  EXPECT_EQ(lsm->buffered_entries(), 0u);
  EXPECT_EQ(lsm->num_entries(), 1000u);
}

TEST_F(ClsmTest, LevelSizesRespectCapacity) {
  auto collection = testutil::RandomWalkCollection(3000, 64, 2);
  const int T = 3;
  const size_t B = 100;
  auto lsm = MakeLsm({.sax = TestSax(), .growth_factor = T,
                      .buffer_entries = B},
                     collection);
  for (size_t level = 0; level + 1 < 8; ++level) {
    uint64_t cap = B;
    for (size_t i = 0; i <= level; ++i) cap *= T;
    EXPECT_LE(lsm->level_entries(level), cap) << "level " << level;
  }
}

TEST_F(ClsmTest, ExactSearchMatchesBruteForce) {
  auto collection = testutil::RandomWalkCollection(1200, 64, 3);
  auto lsm = MakeLsm({.sax = TestSax(), .growth_factor = 4,
                      .buffer_entries = 150},
                     collection);
  for (int q = 0; q < 20; ++q) {
    auto query = testutil::NoisyCopy(collection, q * 61 % 1200, 0.4, 10 + q);
    auto truth = testutil::BruteForceNearest(collection, query);
    auto got = lsm->ExactSearch(query, {}, nullptr).TakeValue();
    ASSERT_TRUE(got.found);
    EXPECT_NEAR(got.distance_sq, truth.distance_sq, 1e-6) << "query " << q;
  }
}

TEST_F(ClsmTest, ExactSearchSeesUnflushedBuffer) {
  auto collection = testutil::RandomWalkCollection(200, 64, 4);
  auto lsm = MakeLsm({.sax = TestSax(), .buffer_entries = 1000},
                     collection);
  // Everything is still in the memtable.
  EXPECT_EQ(lsm->buffered_entries(), 200u);
  std::vector<float> query(collection[77].begin(), collection[77].end());
  auto got = lsm->ExactSearch(query, {}, nullptr).TakeValue();
  ASSERT_TRUE(got.found);
  EXPECT_EQ(got.series_id, 77u);
  EXPECT_NEAR(got.distance_sq, 0.0, 1e-9);
}

TEST_F(ClsmTest, MaterializedExactMatchesBruteForce) {
  auto collection = testutil::RandomWalkCollection(800, 64, 5);
  auto lsm = MakeLsm({.sax = TestSax(), .materialized = true,
                      .growth_factor = 3, .buffer_entries = 100},
                     collection);
  for (int q = 0; q < 10; ++q) {
    auto query = testutil::NoisyCopy(collection, q * 71 % 800, 0.4, 30 + q);
    auto truth = testutil::BruteForceNearest(collection, query);
    auto got = lsm->ExactSearch(query, {}, nullptr).TakeValue();
    EXPECT_NEAR(got.distance_sq, truth.distance_sq, 1e-6);
  }
}

TEST_F(ClsmTest, GrowthFactorTradesWriteAmpForLevels) {
  auto collection = testutil::RandomWalkCollection(2000, 64, 6);
  auto lsm_small_t = MakeLsm({.sax = TestSax(), .growth_factor = 2,
                              .buffer_entries = 100},
                             collection, "t2");
  auto lsm_big_t = MakeLsm({.sax = TestSax(), .growth_factor = 8,
                            .buffer_entries = 100},
                           collection, "t8");
  // Bigger T: fewer active levels (reads touch fewer runs)...
  EXPECT_LE(lsm_big_t->num_active_levels(),
            lsm_small_t->num_active_levels());
  // ...but more rewriting per entry (write amplification).
  EXPECT_GT(lsm_big_t->entries_rewritten(),
            lsm_small_t->entries_rewritten());
}

TEST_F(ClsmTest, IngestionIsSequentialIo) {
  auto collection = testutil::RandomWalkCollection(2000, 64, 7);
  raw_ =
      core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  mgr_->io_stats()->Reset();
  auto lsm = Clsm::Create(mgr_.get(), "lsm",
                          {.sax = TestSax(), .growth_factor = 3,
                           .buffer_entries = 128},
                          nullptr, raw_.get())
                 .TakeValue();
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(lsm->Insert(i, collection[i], 0).ok());
  }
  ASSERT_TRUE(lsm->Finalize().ok());
  const auto& io = *mgr_->io_stats();
  // Log-structured ingestion: sequential writes dominate. Random writes are
  // one header per run built.
  EXPECT_GT(io.sequential_writes, io.random_writes * 3);
}

TEST_F(ClsmTest, WindowQueriesFilterByTimestamp) {
  auto collection = testutil::RandomWalkCollection(500, 64, 8);
  auto lsm = MakeLsm({.sax = TestSax(), .growth_factor = 3,
                      .buffer_entries = 64},
                     collection);
  // Exact copy of series 400, but the window excludes timestamp 400.
  std::vector<float> query(collection[400].begin(), collection[400].end());
  core::SearchOptions opts;
  opts.window = core::TimeWindow{0, 399};
  auto got = lsm->ExactSearch(query, opts, nullptr).TakeValue();
  ASSERT_TRUE(got.found);
  EXPECT_NE(got.series_id, 400u);
  EXPECT_LE(got.timestamp, 399);

  double truth = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < 400; ++i) {
    truth = std::min(truth, series::EuclideanSquared(query, collection[i]));
  }
  EXPECT_NEAR(got.distance_sq, truth, 1e-6);
}

TEST_F(ClsmTest, EmptyLsmFindsNothing) {
  raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  auto lsm = Clsm::Create(mgr_.get(), "lsm", {.sax = TestSax()}, nullptr,
                          raw_.get())
                 .TakeValue();
  std::vector<float> query(64, 0.0f);
  EXPECT_FALSE(lsm->ApproxSearch(query, {}, nullptr).TakeValue().found);
  EXPECT_FALSE(lsm->ExactSearch(query, {}, nullptr).TakeValue().found);
}

}  // namespace
}  // namespace clsm
}  // namespace coconut
