// Batched exact search equivalence: DataSeriesIndex::ExactSearchBatch (the
// shared-leaf-scan path through the batched distance kernels for CTree, the
// sequential fallback for other families, and the sharded scatter-gather)
// must answer every query of a batch exactly like per-query ExactSearch and
// the brute-force oracle — unconstrained and under time windows. On top,
// Service::QueryBatch routes eligible same-index exact queries through one
// shared scan and its reports must match the per-request Query path. Also
// reruns scalar-pinned as batch_query_test_forced_scalar.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "palm/api.h"
#include "palm/factory.h"
#include "tests/test_util.h"

namespace coconut {
namespace palm {
namespace api {
namespace {

series::SaxConfig BatchSax() {
  return series::SaxConfig{.series_length = 64, .num_segments = 8,
                           .bits_per_segment = 8};
}

struct BatchCase {
  IndexFamily family;
  bool materialized;
  size_t num_shards;
};

std::string CaseName(const ::testing::TestParamInfo<BatchCase>& info) {
  VariantSpec spec;
  spec.family = info.param.family;
  spec.materialized = info.param.materialized;
  std::string name = VariantName(spec);
  for (char& c : name) {
    if (c == '+' || c == '-') c = 'x';
  }
  return name + "_K" + std::to_string(info.param.num_shards);
}

class BatchQueryTest : public ::testing::TestWithParam<BatchCase> {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("batch_query");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
    raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  std::unique_ptr<core::DataSeriesIndex> Build(
      const series::SeriesCollection& collection) {
    const BatchCase& c = GetParam();
    VariantSpec spec;
    spec.sax = BatchSax();
    spec.family = c.family;
    spec.materialized = c.materialized;
    spec.buffer_entries = 128;
    spec.memory_budget_bytes = 64 << 10;
    spec.num_shards = c.num_shards;
    auto r = CreateStaticIndex(spec, mgr_.get(), "idx", nullptr, raw_.get());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    auto index = r.TakeValue();
    for (size_t i = 0; i < collection.size(); ++i) {
      EXPECT_TRUE(
          index->Insert(i, collection[i], static_cast<int64_t>(i)).ok());
    }
    EXPECT_TRUE(index->Finalize().ok());
    return index;
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
};

TEST_P(BatchQueryTest, BatchEqualsSequentialAndBruteForce) {
  auto collection = testutil::RandomWalkCollection(300, 64, 17);
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  auto index = Build(collection);

  const size_t nq = 9;
  std::vector<std::vector<float>> queries(nq);
  std::vector<std::span<const float>> spans(nq);
  for (size_t q = 0; q < nq; ++q) {
    // Mix near-duplicates with far-off queries so some abandon early.
    queries[q] = testutil::NoisyCopy(collection, (q * 37) % 300,
                                     q % 3 == 0 ? 0.2 : 2.0, 400 + q);
    spans[q] = queries[q];
  }

  core::SearchOptions options;
  std::vector<core::SearchResult> batch(nq);
  std::vector<core::QueryCounters> counters(nq);
  ASSERT_TRUE(index->ExactSearchBatch(spans, options, batch, counters).ok());

  for (size_t q = 0; q < nq; ++q) {
    const auto sequential =
        index->ExactSearch(queries[q], options, nullptr).TakeValue();
    const auto truth = testutil::BruteForceNearest(collection, queries[q]);
    ASSERT_TRUE(batch[q].found) << "query " << q;
    ASSERT_TRUE(sequential.found) << "query " << q;
    EXPECT_NEAR(batch[q].distance_sq, truth.distance_sq, 1e-6)
        << "query " << q;
    EXPECT_NEAR(batch[q].distance_sq, sequential.distance_sq, 1e-9)
        << "query " << q;
    // Both paths verified at least one candidate for this query.
    EXPECT_GT(counters[q].entries_examined, 0u) << "query " << q;
  }
}

TEST_P(BatchQueryTest, BatchRespectsTimeWindows) {
  auto collection = testutil::RandomWalkCollection(240, 64, 23);
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  auto index = Build(collection);

  core::SearchOptions options;
  options.window = core::TimeWindow{40, 200};

  const size_t nq = 5;
  std::vector<std::vector<float>> queries(nq);
  std::vector<std::span<const float>> spans(nq);
  for (size_t q = 0; q < nq; ++q) {
    queries[q] = testutil::NoisyCopy(collection, q * 11, 0.5, 900 + q);
    spans[q] = queries[q];
  }
  std::vector<core::SearchResult> batch(nq);
  ASSERT_TRUE(index
                  ->ExactSearchBatch(spans, options, batch,
                                     std::span<core::QueryCounters>())
                  .ok());
  for (size_t q = 0; q < nq; ++q) {
    const auto truth = testutil::BruteForceKnn(collection, queries[q], 1,
                                               options.window);
    ASSERT_TRUE(batch[q].found) << "query " << q;
    ASSERT_FALSE(truth.empty());
    EXPECT_NEAR(batch[q].distance_sq, truth[0].distance_sq, 1e-6)
        << "query " << q;
    // The winner's timestamp (== ordinal here) must lie inside the window.
    EXPECT_GE(batch[q].timestamp, 40);
    EXPECT_LE(batch[q].timestamp, 200);
  }
}

TEST_P(BatchQueryTest, EmptyAndSingletonBatches) {
  auto collection = testutil::RandomWalkCollection(120, 64, 29);
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  auto index = Build(collection);

  core::SearchOptions options;
  ASSERT_TRUE(index
                  ->ExactSearchBatch({}, options, {},
                                     std::span<core::QueryCounters>())
                  .ok());

  auto query = testutil::NoisyCopy(collection, 7, 0.3, 1000);
  std::span<const float> span(query);
  std::vector<core::SearchResult> one(1);
  ASSERT_TRUE(index
                  ->ExactSearchBatch(std::span<const std::span<const float>>(
                                         &span, 1),
                                     options, one,
                                     std::span<core::QueryCounters>())
                  .ok());
  const auto sequential = index->ExactSearch(query, options, nullptr)
                              .TakeValue();
  ASSERT_TRUE(one[0].found);
  EXPECT_NEAR(one[0].distance_sq, sequential.distance_sq, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, BatchQueryTest,
    ::testing::Values(
        BatchCase{IndexFamily::kCTree, false, 1},
        BatchCase{IndexFamily::kCTree, true, 1},
        BatchCase{IndexFamily::kCTree, false, 3},
        BatchCase{IndexFamily::kAds, false, 1}),
    CaseName);

// ------------------------------------------------- Service::QueryBatch

class ServiceBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps this binary's scalar-pinned ctest twin, which may run
    // at the same time, out of this root.
    root_ = std::filesystem::temp_directory_path().string() +
            "/batch_query_service_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    auto created = Service::Create(root_);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    service_ = created.TakeValue();
  }
  void TearDown() override {
    service_.reset();
    std::filesystem::remove_all(root_);
  }

  std::string root_;
  std::unique_ptr<Service> service_;
};

TEST_F(ServiceBatchTest, BatchedReportsMatchPerRequestQueries) {
  auto data = testutil::RandomWalkCollection(200, 64, 31);
  ASSERT_TRUE(service_->RegisterDataset("walk", data, nullptr).ok());
  VariantSpec spec;
  spec.sax = BatchSax();
  spec.family = IndexFamily::kCTree;
  spec.buffer_entries = 64;
  ASSERT_TRUE(service_->BuildIndex("idx", spec, "walk").ok());

  const size_t nq = 6;
  std::vector<QueryRequest> requests(nq);
  for (size_t q = 0; q < nq; ++q) {
    requests[q].index = "idx";
    requests[q].query = testutil::NoisyCopy(data, q * 13, 0.5, 700 + q);
    requests[q].exact = true;
  }

  // Reference: the per-request path, before the batch runs.
  std::vector<Result<QueryReport>> singles;
  for (const QueryRequest& r : requests) singles.push_back(service_->Query(r));

  auto batch = service_->QueryBatch(requests, 1);
  ASSERT_EQ(batch.size(), nq);
  for (size_t q = 0; q < nq; ++q) {
    ASSERT_TRUE(singles[q].ok()) << singles[q].status().ToString();
    ASSERT_TRUE(batch[q].ok()) << batch[q].status().ToString();
    const QueryReport& want = singles[q].value();
    const QueryReport& got = batch[q].value();
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.series_id, want.series_id) << "query " << q;
    EXPECT_NEAR(got.distance, want.distance, 1e-9) << "query " << q;
    EXPECT_EQ(got.exact, true);
    // All six shared one scan.
    EXPECT_EQ(got.batch_size, nq) << "query " << q;
    EXPECT_EQ(want.batch_size, 1u);
    // The marker is serialized only for batched reports, keeping
    // single-query JSON byte-identical to the legacy shape.
    EXPECT_NE(got.ToJsonString().find("\"batch_size\":6"), std::string::npos);
    EXPECT_EQ(want.ToJsonString().find("batch_size"), std::string::npos);
  }
}

TEST_F(ServiceBatchTest, MixedBatchFallsBackPerRequest) {
  auto data = testutil::RandomWalkCollection(150, 64, 37);
  ASSERT_TRUE(service_->RegisterDataset("walk", data, nullptr).ok());
  VariantSpec spec;
  spec.sax = BatchSax();
  spec.family = IndexFamily::kCTree;
  spec.buffer_entries = 64;
  ASSERT_TRUE(service_->BuildIndex("idx", spec, "walk").ok());

  std::vector<QueryRequest> requests(5);
  // Two batchable exact queries...
  requests[0].index = "idx";
  requests[0].query = testutil::NoisyCopy(data, 3, 0.4, 801);
  requests[1].index = "idx";
  requests[1].query = testutil::NoisyCopy(data, 50, 0.4, 802);
  // ...an approx query (ineligible, same index)...
  requests[2].index = "idx";
  requests[2].query = testutil::NoisyCopy(data, 70, 0.4, 803);
  requests[2].exact = false;
  // ...a wrong-length query (must keep its per-request validation error)...
  requests[3].index = "idx";
  requests[3].query = std::vector<float>(17, 1.0f);
  // ...and a missing index.
  requests[4].index = "nope";
  requests[4].query = testutil::NoisyCopy(data, 9, 0.4, 805);

  auto batch = service_->QueryBatch(requests, 2);
  ASSERT_EQ(batch.size(), 5u);

  for (int q : {0, 1}) {
    ASSERT_TRUE(batch[q].ok()) << batch[q].status().ToString();
    EXPECT_EQ(batch[q].value().batch_size, 2u);
    auto single = service_->Query(requests[q]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch[q].value().series_id, single.value().series_id);
    EXPECT_NEAR(batch[q].value().distance, single.value().distance, 1e-9);
  }
  ASSERT_TRUE(batch[2].ok()) << batch[2].status().ToString();
  EXPECT_EQ(batch[2].value().batch_size, 1u);
  EXPECT_FALSE(batch[2].value().exact);
  EXPECT_FALSE(batch[3].ok());
  EXPECT_EQ(batch[3].status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(batch[4].ok());
  EXPECT_EQ(batch[4].status().code(), StatusCode::kNotFound);
}

TEST_F(ServiceBatchTest, WindowBucketsStaySeparate) {
  auto data = testutil::RandomWalkCollection(150, 64, 41);
  ASSERT_TRUE(service_->RegisterDataset("walk", data, nullptr).ok());
  VariantSpec spec;
  spec.sax = BatchSax();
  spec.family = IndexFamily::kCTree;
  spec.buffer_entries = 64;
  ASSERT_TRUE(service_->BuildIndex("idx", spec, "walk").ok());

  // Two windowed + two unconstrained queries: distinct SearchOptions must
  // not share one scan, and each answer must respect its own window.
  std::vector<QueryRequest> requests(4);
  for (size_t q = 0; q < 4; ++q) {
    requests[q].index = "idx";
    requests[q].query = testutil::NoisyCopy(data, q * 31, 0.5, 901 + q);
  }
  requests[0].window = core::TimeWindow{0, 60};
  requests[1].window = core::TimeWindow{0, 60};

  auto batch = service_->QueryBatch(requests, 1);
  ASSERT_EQ(batch.size(), 4u);
  for (size_t q = 0; q < 4; ++q) {
    ASSERT_TRUE(batch[q].ok()) << batch[q].status().ToString();
    EXPECT_EQ(batch[q].value().batch_size, 2u) << "query " << q;
    auto single = service_->Query(requests[q]);
    ASSERT_TRUE(single.ok());
    EXPECT_NEAR(batch[q].value().distance, single.value().distance, 1e-9);
    if (q < 2) {
      EXPECT_LE(batch[q].value().timestamp, 60);
    }
  }
}

}  // namespace
}  // namespace api
}  // namespace palm
}  // namespace coconut
