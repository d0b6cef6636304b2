#include <gtest/gtest.h>

#include <filesystem>

#include "palm/comparison.h"
#include "palm/factory.h"
#include "palm/heatmap.h"
#include "palm/recommender.h"
#include "palm/api.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace coconut {
namespace palm {
namespace {

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 64, .num_segments = 8,
                           .bits_per_segment = 8};
}

// ---------------------------------------------------------------- factory

TEST(FactoryTest, VariantNamesMatchFigureOne) {
  VariantSpec spec;
  spec.sax = TestSax();
  spec.family = IndexFamily::kAds;
  EXPECT_EQ(VariantName(spec), "ADS+");
  spec.materialized = true;
  EXPECT_EQ(VariantName(spec), "ADSFull");
  spec.family = IndexFamily::kCTree;
  spec.materialized = false;
  spec.mode = StreamMode::kPP;
  EXPECT_EQ(VariantName(spec), "CTree-PP");
  spec.mode = StreamMode::kTP;
  spec.materialized = true;
  EXPECT_EQ(VariantName(spec), "CTreeFull-TP");
  spec.family = IndexFamily::kClsm;
  spec.mode = StreamMode::kBTP;
  spec.materialized = false;
  EXPECT_EQ(VariantName(spec), "CLSM-BTP");
}

TEST(FactoryTest, MatrixValidation) {
  VariantSpec spec;
  spec.sax = TestSax();
  std::string why;
  // BTP requires CLSM.
  spec.family = IndexFamily::kAds;
  spec.mode = StreamMode::kBTP;
  EXPECT_FALSE(SpecIsValid(spec, &why));
  EXPECT_FALSE(why.empty());
  // TP over CLSM is not a matrix cell.
  spec.family = IndexFamily::kClsm;
  spec.mode = StreamMode::kTP;
  EXPECT_FALSE(SpecIsValid(spec, &why));
  // Valid cells.
  spec.mode = StreamMode::kBTP;
  EXPECT_TRUE(SpecIsValid(spec, &why));
  spec.family = IndexFamily::kCTree;
  spec.mode = StreamMode::kTP;
  EXPECT_TRUE(SpecIsValid(spec, &why));
}

class FactoryBuildTest : public ::testing::TestWithParam<
                             std::tuple<IndexFamily, bool, size_t>> {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("factory_test");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
    raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
};

TEST_P(FactoryBuildTest, EveryStaticVariantBuildsAndAnswersExactly) {
  auto [family, materialized, shards] = GetParam();
  VariantSpec spec;
  spec.sax = TestSax();
  spec.family = family;
  spec.materialized = materialized;
  spec.num_shards = shards;
  spec.buffer_entries = 128;

  auto collection = testutil::RandomWalkCollection(400, 64, 11);
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());

  auto index =
      CreateStaticIndex(spec, mgr_.get(), "idx", nullptr, raw_.get())
          .TakeValue();
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(index->Insert(i, collection[i], 0).ok());
  }
  ASSERT_TRUE(index->Finalize().ok());
  EXPECT_EQ(index->num_entries(), 400u);
  EXPECT_GT(index->index_bytes(), 0u);
  // Static reads share buffer-pool pages and the access tracker, so the
  // service keeps every static cell, sharded or not, behind its op mutex.
  const core::IndexReader& reader = *index;
  EXPECT_FALSE(reader.ConcurrentReadsSafe()) << index->describe();

  for (int q = 0; q < 5; ++q) {
    auto query = testutil::NoisyCopy(collection, q * 79 % 400, 0.4, q);
    auto truth = testutil::BruteForceNearest(collection, query);
    auto got = index->ExactSearch(query, {}, nullptr).TakeValue();
    ASSERT_TRUE(got.found);
    EXPECT_NEAR(got.distance_sq, truth.distance_sq, 1e-6)
        << index->describe();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FactoryBuildTest,
    ::testing::Combine(::testing::Values(IndexFamily::kAds,
                                         IndexFamily::kCTree,
                                         IndexFamily::kClsm),
                       ::testing::Bool(),
                       ::testing::Values(size_t{1}, size_t{2})));

/// (family, mode, async_ingest, num_shards); cells SpecIsValid refuses
/// (sync sharded streams, async ADS+ cells, ...) are skipped.
class FactoryStreamTest
    : public ::testing::TestWithParam<
          std::tuple<IndexFamily, StreamMode, bool, size_t>> {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("factory_stream_test");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
    raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
};

TEST_P(FactoryStreamTest, EveryStreamingVariantIngestsAndAnswers) {
  auto [family, mode, async_ingest, shards] = GetParam();
  VariantSpec spec;
  spec.sax = TestSax();
  spec.family = family;
  spec.mode = mode;
  spec.async_ingest = async_ingest;
  spec.num_shards = shards;
  spec.buffer_entries = 64;
  std::string why;
  if (!SpecIsValid(spec, &why)) GTEST_SKIP() << why;

  auto collection = testutil::RandomWalkCollection(300, 64, 13);
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  auto stream =
      CreateStreamingIndex(spec, mgr_.get(), "s", nullptr, raw_.get())
          .TakeValue();
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(
        stream->Ingest(i, collection[i], static_cast<int64_t>(i)).ok());
  }
  EXPECT_EQ(stream->num_entries(), 300u);
  // Every valid async cell (TP, BTP, CLSM-PP, and their sharded forms)
  // reads epoch-published snapshots; every sync cell is single-caller.
  const core::IndexReader& reader = *stream;
  EXPECT_EQ(reader.ConcurrentReadsSafe(), async_ingest) << stream->describe();

  core::SearchOptions opts;
  opts.window = core::TimeWindow{100, 250};
  auto query = testutil::NoisyCopy(collection, 180, 0.4, 3);
  auto got = stream->ExactSearch(query, opts, nullptr).TakeValue();
  ASSERT_TRUE(got.found) << stream->describe();
  EXPECT_GE(got.timestamp, 100);
  EXPECT_LE(got.timestamp, 250);

  double truth = std::numeric_limits<double>::infinity();
  for (size_t i = 100; i <= 250; ++i) {
    truth = std::min(truth, series::EuclideanSquared(query, collection[i]));
  }
  EXPECT_NEAR(got.distance_sq, truth, 1e-6) << stream->describe();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FactoryStreamTest,
    ::testing::Combine(::testing::Values(IndexFamily::kAds,
                                         IndexFamily::kCTree,
                                         IndexFamily::kClsm),
                       ::testing::Values(StreamMode::kPP, StreamMode::kTP,
                                         StreamMode::kBTP),
                       ::testing::Bool(),
                       ::testing::Values(size_t{1}, size_t{2})));

// ------------------------------------------------------------ recommender

TEST(RecommenderTest, StaticFewQueriesGetsNonMaterializedCTree) {
  Scenario s;
  s.sax = TestSax();
  s.streaming = false;
  s.dataset_size = 1'000'000;
  s.expected_queries = 5;
  Recommendation rec = Recommend(s);
  EXPECT_EQ(rec.spec.family, IndexFamily::kCTree);
  EXPECT_FALSE(rec.spec.materialized);
  EXPECT_EQ(rec.spec.mode, StreamMode::kStatic);
  EXPECT_FALSE(rec.rationale.empty());
}

TEST(RecommenderTest, ManyQueriesFlipToMaterialized) {
  // The Scenario-1 narrative: increasing the projected query count flips
  // the recommendation to a materialized CTree.
  Scenario s;
  s.sax = TestSax();
  s.dataset_size = 100'000;
  s.expected_queries = 5;
  EXPECT_FALSE(Recommend(s).spec.materialized);
  s.expected_queries = 1'000'000;
  EXPECT_TRUE(Recommend(s).spec.materialized);
}

TEST(RecommenderTest, StreamingWindowsGetClsmBtp) {
  // The Scenario-2 recommendation: non-materialized CLSM with BTP.
  Scenario s;
  s.sax = TestSax();
  s.streaming = true;
  s.window_queries = true;
  s.expected_queries = 20;
  s.dataset_size = 10'000'000;
  Recommendation rec = Recommend(s);
  EXPECT_EQ(rec.spec.family, IndexFamily::kClsm);
  EXPECT_EQ(rec.spec.mode, StreamMode::kBTP);
  EXPECT_FALSE(rec.spec.materialized);
  EXPECT_EQ(rec.variant_name(), "CLSM-BTP");
}

TEST(RecommenderTest, UpdateHeavyStaticGetsClsm) {
  Scenario s;
  s.sax = TestSax();
  s.update_ratio = 0.6;
  EXPECT_EQ(Recommend(s).spec.family, IndexFamily::kClsm);
}

TEST(RecommenderTest, LightUpdatesReserveFillFactorSlack) {
  Scenario s;
  s.sax = TestSax();
  s.update_ratio = 0.1;
  Recommendation rec = Recommend(s);
  EXPECT_EQ(rec.spec.family, IndexFamily::kCTree);
  EXPECT_LT(rec.spec.fill_factor, 1.0);
}

TEST(RecommenderTest, RecommendationsAreValidSpecs) {
  // Property: whatever scenario, the recommended spec must be a valid
  // matrix cell.
  for (bool streaming : {false, true}) {
    for (bool windows : {false, true}) {
      for (double updates : {0.0, 0.1, 0.5}) {
        for (uint64_t queries : {1ull, 100ull, 1000000ull}) {
          Scenario s;
          s.sax = TestSax();
          s.streaming = streaming;
          s.window_queries = windows;
          s.update_ratio = updates;
          s.expected_queries = queries;
          Recommendation rec = Recommend(s);
          std::string why;
          EXPECT_TRUE(SpecIsValid(rec.spec, &why))
              << rec.variant_name() << ": " << why;
          EXPECT_FALSE(rec.rationale.empty());
        }
      }
    }
  }
}

// ---------------------------------------------------------------- heatmap

TEST(HeatMapTest, SequentialScanIsLocal) {
  std::vector<storage::AccessEvent> events;
  for (uint64_t i = 0; i < 100; ++i) {
    events.push_back({0, i, false, i});
  }
  EXPECT_DOUBLE_EQ(AccessLocality(events), 1.0);
  HeatMap map = BuildHeatMap(events, 10, 10);
  EXPECT_EQ(map.total_events, 100u);
  EXPECT_EQ(map.distinct_pages, 100u);
  EXPECT_EQ(map.distinct_files, 1u);
  // A sequential scan over time forms a diagonal: cell (t, t) is hot.
  for (size_t t = 0; t < 10; ++t) {
    EXPECT_GT(map.at(t, t), 0u);
  }
}

TEST(HeatMapTest, RandomScatterHasLowLocality) {
  Rng rng(5);
  std::vector<storage::AccessEvent> events;
  for (uint64_t i = 0; i < 200; ++i) {
    events.push_back({static_cast<uint32_t>(rng.NextBounded(20)),
                      rng.NextBounded(50), false, i});
  }
  EXPECT_LT(AccessLocality(events), 0.2);
  HeatMap map = BuildHeatMap(events, 8, 16);
  EXPECT_EQ(map.total_events, 200u);
  EXPECT_EQ(map.distinct_files, 20u);
}

TEST(HeatMapTest, EmptyEventsProduceEmptyMap) {
  HeatMap map = BuildHeatMap({}, 4, 4);
  EXPECT_EQ(map.total_events, 0u);
  EXPECT_EQ(map.max_count, 0u);
  EXPECT_DOUBLE_EQ(AccessLocality({}), 1.0);
}

TEST(HeatMapTest, TextAndJsonRender) {
  std::vector<storage::AccessEvent> events;
  for (uint64_t i = 0; i < 50; ++i) events.push_back({0, i % 5, false, i});
  HeatMap map = BuildHeatMap(events, 4, 8);
  std::string text = RenderHeatMapText(map);
  EXPECT_NE(text.find('@'), std::string::npos);  // Hot cells rendered.
  JsonWriter w;
  HeatMapToJson(map, &w);
  std::string json = w.TakeString();
  EXPECT_NE(json.find("\"cells\":[["), std::string::npos);
  EXPECT_NE(json.find("\"total_events\":50"), std::string::npos);
}

TEST(ComparisonTest, BarChartScalesBars) {
  std::string chart = RenderBarChart(
      "Construction", "s",
      {{"ADS+", 10.0}, {"CTree", 2.5}, {"CLSM", 5.0}}, 40);
  EXPECT_NE(chart.find("ADS+"), std::string::npos);
  // ADS+ bar (max) has 40 hashes; CTree has 10.
  EXPECT_NE(chart.find(std::string(40, '#')), std::string::npos);
  EXPECT_NE(chart.find(std::string(10, '#') + " 2.5"), std::string::npos);
}

// ---------------------------------------------------------------- server

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path().string() +
            "/coconut_server_test_" + std::to_string(::getpid());
    server_ = api::Service::Create(root_).TakeValue();
    workload::RandomWalkGenerator gen(64, 21);
    collection_ = gen.Generate(300);
    ASSERT_TRUE(server_->RegisterDataset("walk", collection_, nullptr).ok());
  }
  void TearDown() override {
    server_.reset();
    std::filesystem::remove_all(root_);
  }

  VariantSpec CTreeSpec() {
    VariantSpec spec;
    spec.sax = TestSax();
    spec.family = IndexFamily::kCTree;
    return spec;
  }

  std::string root_;
  std::unique_ptr<api::Service> server_;
  series::SeriesCollection collection_{64};
};

TEST_F(ServerTest, BuildReportsMetricsAsJson) {
  const api::BuildIndexReport report =
      server_->BuildIndex("ct", CTreeSpec(), "walk").TakeValue();
  EXPECT_EQ(report.variant, "CTree");
  EXPECT_EQ(report.entries, 300u);
  const std::string json = report.ToJsonString();
  EXPECT_NE(json.find("\"variant\":\"CTree\""), std::string::npos);
  EXPECT_NE(json.find("\"entries\":300"), std::string::npos);
  EXPECT_NE(json.find("\"build_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"sequential_writes\":"), std::string::npos);
}

TEST_F(ServerTest, QueryFindsPlantedSeries) {
  ASSERT_TRUE(server_->BuildIndex("ct", CTreeSpec(), "walk").ok());
  api::QueryRequest req;
  req.index = "ct";
  req.query.assign(collection_[42].begin(), collection_[42].end());
  req.exact = true;
  const api::QueryReport response = server_->Query(req).TakeValue();
  EXPECT_TRUE(response.found);
  EXPECT_EQ(response.series_id, 42u);
}

TEST_F(ServerTest, QueryWithHeatmapEmbedsAccessPattern) {
  ASSERT_TRUE(server_->BuildIndex("ct", CTreeSpec(), "walk").ok());
  api::QueryRequest req;
  req.index = "ct";
  req.query.assign(collection_[1].begin(), collection_[1].end());
  req.capture_heatmap = true;
  const std::string response = server_->Query(req).TakeValue().ToJsonString();
  EXPECT_NE(response.find("\"heatmap\":{"), std::string::npos);
  EXPECT_NE(response.find("\"access_locality\":"), std::string::npos);
}

TEST_F(ServerTest, DuplicateNamesRejected) {
  ASSERT_TRUE(server_->BuildIndex("ct", CTreeSpec(), "walk").ok());
  EXPECT_EQ(server_->BuildIndex("ct", CTreeSpec(), "walk").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(
      server_->RegisterDataset("walk", collection_, nullptr).status().code(),
      StatusCode::kAlreadyExists);
}

TEST_F(ServerTest, UnknownTargetsRejected) {
  EXPECT_EQ(server_->BuildIndex("x", CTreeSpec(), "nope").status().code(),
            StatusCode::kNotFound);
  api::QueryRequest req;
  req.index = "missing";
  req.query.assign(64, 0.0f);
  EXPECT_EQ(server_->Query(req).status().code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, StreamingLifecycle) {
  VariantSpec spec;
  spec.sax = TestSax();
  spec.family = IndexFamily::kClsm;
  spec.mode = StreamMode::kBTP;
  spec.buffer_entries = 64;
  ASSERT_TRUE(server_->CreateStream("live", spec).ok());

  workload::RandomWalkGenerator gen(64, 31);
  auto batch = gen.Generate(100);
  std::vector<int64_t> timestamps(100);
  for (size_t i = 0; i < 100; ++i) timestamps[i] = static_cast<int64_t>(i);
  EXPECT_EQ(
      server_->IngestBatch("live", batch, timestamps).TakeValue().ingested,
      100u);

  api::QueryRequest req;
  req.index = "live";
  req.query.assign(batch[50].begin(), batch[50].end());
  req.window = core::TimeWindow{0, 99};
  EXPECT_TRUE(server_->Query(req).TakeValue().found);
}

TEST_F(ServerTest, ListIndexesEnumeratesAll) {
  ASSERT_TRUE(server_->BuildIndex("ct", CTreeSpec(), "walk").ok());
  VariantSpec lsm_spec;
  lsm_spec.sax = TestSax();
  lsm_spec.family = IndexFamily::kClsm;
  lsm_spec.mode = StreamMode::kPP;
  ASSERT_TRUE(server_->CreateStream("live", lsm_spec).ok());
  const std::string list = server_->ListIndexes().TakeValue().ToJsonString();
  EXPECT_NE(list.find("\"name\":\"ct\""), std::string::npos);
  EXPECT_NE(list.find("\"name\":\"live\""), std::string::npos);
  EXPECT_NE(list.find("\"streaming\":true"), std::string::npos);
}

TEST_F(ServerTest, QueryBatchMatchesSequentialQueries) {
  // Three indexes of different families over the same dataset; a batch
  // mixing targets must return, positionally, exactly what sequential
  // Query calls return.
  ASSERT_TRUE(server_->BuildIndex("ct", CTreeSpec(), "walk").ok());
  VariantSpec ads = CTreeSpec();
  ads.family = IndexFamily::kAds;
  ASSERT_TRUE(server_->BuildIndex("ads", ads, "walk").ok());
  VariantSpec lsm = CTreeSpec();
  lsm.family = IndexFamily::kClsm;
  ASSERT_TRUE(server_->BuildIndex("lsm", lsm, "walk").ok());

  std::vector<api::QueryRequest> requests;
  for (int q = 0; q < 12; ++q) {
    api::QueryRequest req;
    req.index = q % 3 == 0 ? "ct" : (q % 3 == 1 ? "ads" : "lsm");
    req.query.assign(collection_[(q * 29) % 300].begin(),
                     collection_[(q * 29) % 300].end());
    requests.push_back(std::move(req));
  }

  auto batched = server_->QueryBatch(requests, 4);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batched[i].ok()) << i << ": " << batched[i].status().ToString();
    // Every query plants an exact member of the dataset: found at ~0.
    EXPECT_TRUE(batched[i].value().found) << i;
    // Same index + same query sequentially must find the same series.
    const api::QueryReport solo = server_->Query(requests[i]).TakeValue();
    EXPECT_EQ(batched[i].value().series_id, solo.series_id) << i;
  }
}

TEST_F(ServerTest, QueryBatchReportsPerRequestErrors) {
  ASSERT_TRUE(server_->BuildIndex("ct", CTreeSpec(), "walk").ok());
  std::vector<api::QueryRequest> requests(3);
  requests[0].index = "ct";
  requests[0].query.assign(collection_[5].begin(), collection_[5].end());
  requests[1].index = "missing";
  requests[1].query.assign(64, 0.0f);
  requests[2].index = "ct";
  requests[2].query.assign(collection_[7].begin(), collection_[7].end());

  auto results = server_->QueryBatch(requests, 2);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(results[2].ok());
}

TEST_F(ServerTest, QueryBatchEmptyAndDefaultThreads) {
  EXPECT_TRUE(server_->QueryBatch(std::vector<api::QueryRequest>{}).empty());
  ASSERT_TRUE(server_->BuildIndex("ct", CTreeSpec(), "walk").ok());
  std::vector<api::QueryRequest> one(1);
  one[0].index = "ct";
  one[0].query.assign(collection_[0].begin(), collection_[0].end());
  auto results = server_->QueryBatch(one);  // threads = 0 -> hardware pick.
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());
}

TEST_F(ServerTest, AsyncStreamIngestsAndDrains) {
  VariantSpec spec;
  spec.sax = TestSax();
  spec.family = IndexFamily::kClsm;
  spec.mode = StreamMode::kBTP;
  spec.buffer_entries = 64;
  spec.async_ingest = true;  // Defaults to the shared background pool.
  EXPECT_EQ(server_->CreateStream("alive", spec).TakeValue().variant,
            "CLSM-BTP-async");

  workload::RandomWalkGenerator gen(64, 33);
  auto batch = gen.Generate(300);
  std::vector<int64_t> timestamps(300);
  for (size_t i = 0; i < 300; ++i) timestamps[i] = static_cast<int64_t>(i);
  const std::string report =
      server_->IngestBatch("alive", batch, timestamps).TakeValue()
          .ToJsonString();
  EXPECT_NE(report.find("\"ingested\":300"), std::string::npos);
  EXPECT_NE(report.find("\"pending_tasks\":"), std::string::npos);
  EXPECT_NE(report.find("\"seals_completed\":"), std::string::npos);

  // The drain barrier quiesces the stream: everything sealed, nothing
  // pending, and the answer over the full batch is exact.
  const api::DrainStreamReport drained =
      server_->DrainStream("alive").TakeValue();
  EXPECT_TRUE(drained.drained);
  EXPECT_EQ(drained.total_entries, 300u);
  EXPECT_EQ(drained.buffered, 0u);
  EXPECT_EQ(drained.pending_tasks, 0u);

  api::QueryRequest req;
  req.index = "alive";
  req.query.assign(batch[123].begin(), batch[123].end());
  const api::QueryReport response = server_->Query(req).TakeValue();
  EXPECT_TRUE(response.found);
  EXPECT_EQ(response.series_id, 123u);

  EXPECT_EQ(server_->DrainStream("nope").status().code(),
            StatusCode::kNotFound);
  // Draining a static index is equally a NotFound: it is not a stream.
  ASSERT_TRUE(server_->BuildIndex("ct", CTreeSpec(), "walk").ok());
  EXPECT_EQ(server_->DrainStream("ct").status().code(),
            StatusCode::kNotFound);
}

TEST(FactoryAsyncSpecTest, AsyncValidationFollowsBufferingRule) {
  VariantSpec spec;
  spec.sax = series::SaxConfig{.series_length = 64, .num_segments = 8,
                               .bits_per_segment = 8};
  spec.async_ingest = true;
  std::string why;
  // Static builds don't take the async knob.
  spec.mode = StreamMode::kStatic;
  EXPECT_FALSE(SpecIsValid(spec, &why));
  // A live ADS+ tree cannot be sealed behind ingestion's back.
  spec.mode = StreamMode::kTP;
  spec.family = IndexFamily::kAds;
  EXPECT_FALSE(SpecIsValid(spec, &why));
  // PP only buffers for CLSM.
  spec.mode = StreamMode::kPP;
  spec.family = IndexFamily::kCTree;
  EXPECT_FALSE(SpecIsValid(spec, &why));
  // The buffering cells are valid, and the name advertises the mode.
  spec.family = IndexFamily::kClsm;
  EXPECT_TRUE(SpecIsValid(spec, &why)) << why;
  EXPECT_EQ(VariantName(spec), "CLSM-PP-async");
  spec.mode = StreamMode::kBTP;
  EXPECT_TRUE(SpecIsValid(spec, &why)) << why;
  spec.mode = StreamMode::kTP;
  spec.family = IndexFamily::kCTree;
  EXPECT_TRUE(SpecIsValid(spec, &why)) << why;
  EXPECT_EQ(VariantName(spec), "CTree-TP-async");
}

TEST_F(ServerTest, RecommendJsonCarriesRationale) {
  Scenario s;
  s.sax = TestSax();
  s.streaming = true;
  s.window_queries = true;
  const std::string json = server_->Recommend(s).ToJsonString();
  EXPECT_NE(json.find("\"variant\":\"CLSM"), std::string::npos);
  EXPECT_NE(json.find("\"rationale\":["), std::string::npos);
}

}  // namespace
}  // namespace palm
}  // namespace coconut
