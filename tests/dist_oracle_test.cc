// Distributed-equivalence oracle: a dist::Coordinator fanned out over N
// real shard-server HTTP processes must answer every query bit-for-bit
// like a single-process service running the sharded wrappers with the
// same N — same match, same distance, same counters, same timestamps,
// same errors. The shard servers here are in-process HttpServer
// instances over independent api::Service roots (real sockets, real JSON
// and binary frames on the wire — everything but the process boundary),
// so the whole suite also runs under TSan.
//
// Covered: static builds and streaming ingest, exact and approximate
// search, window queries, kStrict/kClamp watermark semantics, query
// batches, a concurrent-ingest run compared at quiesce points, cached
// reads racing ingest and a drop-and-recreate of the same name, and the
// front door itself: the same raw request refused with the same status
// and message by a coordinator and by a service.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/binary_codec.h"
#include "dist/coordinator.h"
#include "palm/api.h"
#include "palm/http_server.h"
#include "palm/query_cache.h"
#include "tests/test_util.h"

namespace coconut {
namespace palm {
namespace dist {
namespace {

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 32, .num_segments = 8,
                           .bits_per_segment = 8};
}

VariantSpec TestSpec(size_t num_shards, bool streaming) {
  VariantSpec spec;
  spec.sax = TestSax();
  spec.family = IndexFamily::kCTree;
  spec.num_shards = num_shards;
  if (streaming) {
    spec.mode = StreamMode::kTP;
    spec.buffer_entries = 16;  // small: drains seal real partitions
    // Sharded streaming requires async ingest (each shard's cascades run
    // on their own strand); use it at every K so all cells compare like
    // for like.
    spec.async_ingest = true;
  }
  return spec;
}

/// One in-process shard server: a complete Palm service behind a real
/// HTTP listener, indistinguishable on the wire from palm_shardd.
struct Shard {
  std::unique_ptr<api::Service> service;
  std::unique_ptr<HttpServer> server;
};

class Cluster {
 public:
  /// Builds K shard servers, a coordinator over them, and the
  /// single-process reference service the coordinator is pinned against.
  Cluster(size_t k, const std::string& root) {
    for (size_t s = 0; s < k; ++s) {
      auto shard = std::make_unique<Shard>();
      const std::string shard_root = root + "/shard" + std::to_string(s);
      std::filesystem::create_directories(shard_root);
      shard->service = api::Service::Create(shard_root).TakeValue();
      shard->server =
          HttpServer::Start(shard->service.get(), {}).TakeValue();
      shards_.push_back(std::move(shard));
    }
    CoordinatorOptions options;
    for (const auto& shard : shards_) {
      options.shards.push_back(
          ShardEndpoint{"127.0.0.1", shard->server->port()});
    }
    coordinator_ = Coordinator::Create(std::move(options)).TakeValue();

    const std::string ref_root = root + "/reference";
    std::filesystem::create_directories(ref_root);
    reference_ = api::Service::Create(ref_root).TakeValue();
  }

  Coordinator& coordinator() { return *coordinator_; }
  api::Service& reference() { return *reference_; }

 private:
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<api::Service> reference_;
};

std::string TestRoot(const std::string& name) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "coconut_dist_oracle" / name)
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  return root;
}

/// The exactness pin: both sides answer, and every semantically
/// meaningful field must match bit-for-bit (`seconds` and `io` are
/// wall-clock/process-local and excluded). `compare_counters` is off for
/// sweeps against an un-drained async stream: the match itself is
/// deterministic (searches see every admitted entry), but how many
/// partitions exist yet depends on background seal timing.
void ExpectSameAnswer(Cluster& cluster, const api::QueryRequest& request,
                      const std::string& what, bool compare_counters = true) {
  auto dist_result = cluster.coordinator().Query(request);
  auto ref_result = cluster.reference().Query(request);
  ASSERT_EQ(dist_result.ok(), ref_result.ok())
      << what << ": dist="
      << (dist_result.ok() ? "ok" : dist_result.status().ToString())
      << " ref=" << (ref_result.ok() ? "ok" : ref_result.status().ToString());
  if (!dist_result.ok()) {
    EXPECT_EQ(dist_result.status().code(), ref_result.status().code()) << what;
    EXPECT_EQ(dist_result.status().message(), ref_result.status().message())
        << what;
    return;
  }
  const api::QueryReport& dist = dist_result.value();
  const api::QueryReport& ref = ref_result.value();
  EXPECT_EQ(dist.found, ref.found) << what;
  if (dist.found && ref.found) {
    EXPECT_EQ(dist.series_id, ref.series_id) << what;
    EXPECT_EQ(dist.distance, ref.distance) << what;  // bit-for-bit double
    EXPECT_EQ(dist.timestamp, ref.timestamp) << what;
  }
  if (!compare_counters) {
    EXPECT_FALSE(dist.degraded) << what;
    return;
  }
  EXPECT_EQ(dist.counters.leaves_visited, ref.counters.leaves_visited) << what;
  EXPECT_EQ(dist.counters.leaves_pruned, ref.counters.leaves_pruned) << what;
  EXPECT_EQ(dist.counters.entries_examined, ref.counters.entries_examined)
      << what;
  EXPECT_EQ(dist.counters.raw_fetches, ref.counters.raw_fetches) << what;
  EXPECT_EQ(dist.counters.partitions_visited, ref.counters.partitions_visited)
      << what;
  EXPECT_EQ(dist.counters.partitions_skipped, ref.counters.partitions_skipped)
      << what;
  EXPECT_FALSE(dist.degraded) << what;
}

void QuerySweep(Cluster& cluster, const std::string& index,
                const series::SeriesCollection& data, size_t num_queries,
                uint64_t seed, const std::string& what,
                bool compare_counters = true) {
  for (size_t q = 0; q < num_queries; ++q) {
    api::QueryRequest request;
    request.index = index;
    request.query = testutil::NoisyCopy(data, q % data.size(), 0.3, seed + q);
    request.exact = (q % 2 == 0);
    request.approx_candidates = 1 + static_cast<int>(q % 7);
    if (q % 3 == 2) {
      request.window = core::TimeWindow{
          static_cast<int64_t>(q), static_cast<int64_t>(q + data.size() / 2)};
    }
    ExpectSameAnswer(cluster, request,
                     what + " query " + std::to_string(q) +
                         (request.exact ? " exact" : " approx"),
                     compare_counters);
  }
}

class DistOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DistOracleTest, StaticBuildMatchesSingleProcess) {
  const size_t k = GetParam();
  const std::string root = TestRoot("static" + std::to_string(k));
  Cluster cluster(k, root);
  const auto data = testutil::RandomWalkCollection(400, 32, /*seed=*/k);

  // Register + build through both front doors; the reports must agree on
  // everything that is not wall-clock or io-path dependent.
  api::RegisterDatasetRequest reg;
  reg.name = "walks";
  reg.data = data;
  auto dist_reg = cluster.coordinator().RegisterDataset(reg);
  ASSERT_TRUE(dist_reg.ok()) << dist_reg.status().ToString();
  auto ref_reg = cluster.reference().RegisterDataset("walks", data, nullptr);
  ASSERT_TRUE(ref_reg.ok()) << ref_reg.status().ToString();

  api::BuildIndexRequest build;
  build.index = "idx";
  build.dataset = "walks";
  build.spec = TestSpec(k, /*streaming=*/false);
  auto dist_build = cluster.coordinator().BuildIndex(build);
  ASSERT_TRUE(dist_build.ok()) << dist_build.status().ToString();
  auto ref_build = cluster.reference().BuildIndex(build);
  ASSERT_TRUE(ref_build.ok()) << ref_build.status().ToString();
  EXPECT_EQ(dist_build.value().entries, ref_build.value().entries);
  EXPECT_EQ(dist_build.value().shards, ref_build.value().shards);

  QuerySweep(cluster, "idx", data, 40, /*seed=*/1000 + k, "static");

  // Duplicate names and unknown indexes refuse identically.
  auto dup = cluster.coordinator().BuildIndex(build);
  auto ref_dup = cluster.reference().BuildIndex(build);
  ASSERT_FALSE(dup.ok());
  ASSERT_FALSE(ref_dup.ok());
  EXPECT_EQ(dup.status().message(), ref_dup.status().message());
}

TEST_P(DistOracleTest, StreamingLockstepMatchesSingleProcess) {
  const size_t k = GetParam();
  const std::string root = TestRoot("stream" + std::to_string(k));
  Cluster cluster(k, root);
  const auto data = testutil::RandomWalkCollection(300, 32, /*seed=*/7 * k);

  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = TestSpec(k, /*streaming=*/true);
  ASSERT_TRUE(cluster.coordinator().CreateStream(create).ok());
  ASSERT_TRUE(cluster.reference().CreateStream(create).ok());

  // Ingest in lockstep batches, comparing the folded reports and a query
  // sweep at each quiesce point (mid-stream with live buffers, then
  // after a full drain).
  const size_t batch_size = 50;
  for (size_t begin = 0; begin < data.size(); begin += batch_size) {
    api::IngestBatchRequest ingest;
    ingest.stream = "live";
    ingest.batch = series::SeriesCollection(32);
    for (size_t i = begin; i < begin + batch_size && i < data.size(); ++i) {
      ingest.batch.Append(data[i]);
      ingest.timestamps.push_back(static_cast<int64_t>(i));
    }
    auto dist_report = cluster.coordinator().IngestBatch(ingest);
    ASSERT_TRUE(dist_report.ok()) << dist_report.status().ToString();
    auto ref_report = cluster.reference().IngestBatch(ingest);
    ASSERT_TRUE(ref_report.ok()) << ref_report.status().ToString();
    // Only admission-side fields compare mid-stream: partition/buffer
    // occupancy depends on background seal timing under async ingest.
    EXPECT_EQ(dist_report.value().ingested, ref_report.value().ingested);
    EXPECT_EQ(dist_report.value().total_entries,
              ref_report.value().total_entries);
  }
  QuerySweep(cluster, "live", data, 20, /*seed=*/50 + k, "pre-drain",
             /*compare_counters=*/false);

  api::DrainStreamRequest drain;
  drain.stream = "live";
  auto dist_drain = cluster.coordinator().DrainStream(drain);
  ASSERT_TRUE(dist_drain.ok()) << dist_drain.status().ToString();
  auto ref_drain = cluster.reference().DrainStream(drain);
  ASSERT_TRUE(ref_drain.ok()) << ref_drain.status().ToString();
  EXPECT_EQ(dist_drain.value().drained, ref_drain.value().drained);
  EXPECT_EQ(dist_drain.value().total_entries,
            ref_drain.value().total_entries);
  EXPECT_EQ(dist_drain.value().buffered, ref_drain.value().buffered);
  EXPECT_EQ(dist_drain.value().partitions, ref_drain.value().partitions);

  // Post-drain everything is deterministic: same partition sets per key
  // range, so counters are part of the pin again.
  QuerySweep(cluster, "live", data, 40, /*seed=*/5000 + k, "post-drain");
}

TEST_P(DistOracleTest, StrictPolicyRejectsIdentically) {
  const size_t k = GetParam();
  const std::string root = TestRoot("strict" + std::to_string(k));
  Cluster cluster(k, root);
  const auto data = testutil::RandomWalkCollection(40, 32, /*seed=*/13);

  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = TestSpec(k, /*streaming=*/true);
  create.spec.timestamp_policy = stream::TimestampPolicy::kStrict;
  ASSERT_TRUE(cluster.coordinator().CreateStream(create).ok());
  ASSERT_TRUE(cluster.reference().CreateStream(create).ok());

  // Timestamps regress at position 25: both sides must admit exactly the
  // prefix, refuse with the same message, and keep answering queries
  // identically afterwards (the burned global ids must line up too, which
  // the post-rejection ingest + sweep checks).
  api::IngestBatchRequest ingest;
  ingest.stream = "live";
  ingest.batch = data;
  for (size_t i = 0; i < data.size(); ++i) {
    ingest.timestamps.push_back(i == 25 ? 3 : static_cast<int64_t>(100 + i));
  }
  auto dist_result = cluster.coordinator().IngestBatch(ingest);
  auto ref_result = cluster.reference().IngestBatch(ingest);
  ASSERT_FALSE(dist_result.ok());
  ASSERT_FALSE(ref_result.ok());
  EXPECT_EQ(dist_result.status().code(), ref_result.status().code());
  EXPECT_EQ(dist_result.status().message(), ref_result.status().message());

  api::IngestBatchRequest rest;
  rest.stream = "live";
  rest.batch = series::SeriesCollection(32);
  for (size_t i = 26; i < data.size(); ++i) {
    rest.batch.Append(data[i]);
    rest.timestamps.push_back(static_cast<int64_t>(100 + i));
  }
  auto dist_rest = cluster.coordinator().IngestBatch(rest);
  auto ref_rest = cluster.reference().IngestBatch(rest);
  ASSERT_TRUE(dist_rest.ok()) << dist_rest.status().ToString();
  ASSERT_TRUE(ref_rest.ok()) << ref_rest.status().ToString();
  EXPECT_EQ(dist_rest.value().total_entries, ref_rest.value().total_entries);

  api::DrainStreamRequest drain;
  drain.stream = "live";
  ASSERT_TRUE(cluster.coordinator().DrainStream(drain).ok());
  ASSERT_TRUE(cluster.reference().DrainStream(drain).ok());
  QuerySweep(cluster, "live", data, 20, /*seed=*/77, "post-strict-reject");
}

TEST_P(DistOracleTest, ClampPolicyClampsIdentically) {
  const size_t k = GetParam();
  const std::string root = TestRoot("clamp" + std::to_string(k));
  Cluster cluster(k, root);
  const auto data = testutil::RandomWalkCollection(60, 32, /*seed=*/17);

  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = TestSpec(k, /*streaming=*/true);
  create.spec.timestamp_policy = stream::TimestampPolicy::kClamp;
  ASSERT_TRUE(cluster.coordinator().CreateStream(create).ok());
  ASSERT_TRUE(cluster.reference().CreateStream(create).ok());

  // Sawtooth timestamps: every other entry regresses and must be clamped
  // to the running maximum on both sides — visible through the
  // timestamps query answers report.
  api::IngestBatchRequest ingest;
  ingest.stream = "live";
  ingest.batch = data;
  for (size_t i = 0; i < data.size(); ++i) {
    ingest.timestamps.push_back(
        static_cast<int64_t>(i % 2 == 0 ? 10 * i : 10 * i - 15));
  }
  ASSERT_TRUE(cluster.coordinator().IngestBatch(ingest).ok());
  ASSERT_TRUE(cluster.reference().IngestBatch(ingest).ok());

  api::DrainStreamRequest drain;
  drain.stream = "live";
  ASSERT_TRUE(cluster.coordinator().DrainStream(drain).ok());
  ASSERT_TRUE(cluster.reference().DrainStream(drain).ok());
  QuerySweep(cluster, "live", data, 20, /*seed=*/200, "clamp");
}

TEST_P(DistOracleTest, QueryBatchMatchesSingleProcess) {
  const size_t k = GetParam();
  const std::string root = TestRoot("batch" + std::to_string(k));
  Cluster cluster(k, root);
  const auto data = testutil::RandomWalkCollection(150, 32, /*seed=*/31);

  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = TestSpec(k, /*streaming=*/true);
  ASSERT_TRUE(cluster.coordinator().CreateStream(create).ok());
  ASSERT_TRUE(cluster.reference().CreateStream(create).ok());
  api::IngestBatchRequest ingest;
  ingest.stream = "live";
  ingest.batch = data;
  for (size_t i = 0; i < data.size(); ++i) {
    ingest.timestamps.push_back(static_cast<int64_t>(i));
  }
  ASSERT_TRUE(cluster.coordinator().IngestBatch(ingest).ok());
  ASSERT_TRUE(cluster.reference().IngestBatch(ingest).ok());
  api::DrainStreamRequest drain;
  drain.stream = "live";
  ASSERT_TRUE(cluster.coordinator().DrainStream(drain).ok());
  ASSERT_TRUE(cluster.reference().DrainStream(drain).ok());

  // A mixed batch: good queries, a wrong-length query, an unknown index,
  // and (for K > 1, where the single-process reference is sharded too) a
  // heat-map request refused as NotSupported — the positional results and
  // per-entry errors must match exactly.
  api::QueryBatchRequest batch;
  for (size_t q = 0; q < 8; ++q) {
    api::QueryRequest request;
    request.index = "live";
    request.query = testutil::NoisyCopy(data, q * 3, 0.25, 400 + q);
    request.exact = (q % 2 == 0);
    batch.queries.push_back(std::move(request));
  }
  batch.queries[2].query.resize(5);  // wrong length
  batch.queries[5].index = "nope";
  if (k > 1) batch.queries[6].capture_heatmap = true;

  api::QueryBatchResponse dist = cluster.coordinator().QueryBatch(batch);
  api::QueryBatchResponse ref = cluster.reference().QueryBatch(batch);
  ASSERT_EQ(dist.results.size(), ref.results.size());
  for (size_t i = 0; i < dist.results.size(); ++i) {
    ASSERT_EQ(dist.results[i].ok, ref.results[i].ok) << "entry " << i;
    if (!dist.results[i].ok) {
      EXPECT_EQ(dist.results[i].error.code, ref.results[i].error.code)
          << "entry " << i;
      EXPECT_EQ(dist.results[i].error.message, ref.results[i].error.message)
          << "entry " << i;
      continue;
    }
    EXPECT_EQ(dist.results[i].report.found, ref.results[i].report.found)
        << "entry " << i;
    EXPECT_EQ(dist.results[i].report.series_id,
              ref.results[i].report.series_id)
        << "entry " << i;
    EXPECT_EQ(dist.results[i].report.distance, ref.results[i].report.distance)
        << "entry " << i;
  }
}

TEST_P(DistOracleTest, ConcurrentIngestComparesAtQuiescePoints) {
  // Queries race live ingest through the coordinator (answers are only
  // sanity-checked — they depend on timing), then everything joins,
  // drains, and the final sweep must be bit-for-bit again. Under TSan
  // this doubles as the data-race check on the id maps and watermark.
  const size_t k = GetParam();
  const std::string root = TestRoot("concurrent" + std::to_string(k));
  Cluster cluster(k, root);
  const auto data = testutil::RandomWalkCollection(240, 32, /*seed=*/53);

  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = TestSpec(k, /*streaming=*/true);
  ASSERT_TRUE(cluster.coordinator().CreateStream(create).ok());
  ASSERT_TRUE(cluster.reference().CreateStream(create).ok());

  std::atomic<bool> done{false};
  std::thread querier([&] {
    uint64_t q = 0;
    while (!done.load()) {
      api::QueryRequest request;
      request.index = "live";
      request.query = testutil::NoisyCopy(data, q % data.size(), 0.3, 900 + q);
      request.exact = (q % 2 == 0);
      auto result = cluster.coordinator().Query(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (result.value().found) {
        ASSERT_LT(result.value().series_id, data.size());
      }
      ++q;
    }
  });

  const size_t batch_size = 30;
  for (size_t begin = 0; begin < data.size(); begin += batch_size) {
    api::IngestBatchRequest ingest;
    ingest.stream = "live";
    ingest.batch = series::SeriesCollection(32);
    for (size_t i = begin; i < begin + batch_size && i < data.size(); ++i) {
      ingest.batch.Append(data[i]);
      ingest.timestamps.push_back(static_cast<int64_t>(i));
    }
    ASSERT_TRUE(cluster.coordinator().IngestBatch(ingest).ok());
    ASSERT_TRUE(cluster.reference().IngestBatch(ingest).ok());
  }
  done.store(true);
  querier.join();

  api::DrainStreamRequest drain;
  drain.stream = "live";
  ASSERT_TRUE(cluster.coordinator().DrainStream(drain).ok());
  ASSERT_TRUE(cluster.reference().DrainStream(drain).ok());
  QuerySweep(cluster, "live", data, 30, /*seed=*/777, "quiesced");
}

TEST_P(DistOracleTest, ReadsRaceIngestDropAndRecreate) {
  // Queries and a query batch race ingest, a drop and a recreate of the
  // same name through a caching coordinator. Every answer must be ok or
  // NotFound with an id inside the ingested range, and once the racing
  // stops the recreated stream must answer every query of the pool like
  // the reference: a cached answer of the first incarnation, stamped by a
  // fill that raced the drop, must never be served to the second. Under
  // TSan this is the data-race check on the lock-free read path.
  const size_t k = GetParam();
  const std::string root = TestRoot("race_drop" + std::to_string(k));
  Cluster cluster(k, root);
  cluster.coordinator().EnableQueryCache(api::QueryCacheOptions{});
  const auto first = testutil::RandomWalkCollection(120, 32, /*seed=*/61);
  const auto second = testutil::RandomWalkCollection(120, 32, /*seed=*/62);

  std::vector<api::QueryRequest> pool;
  for (size_t q = 0; q < 12; ++q) {
    api::QueryRequest request;
    request.index = "live";
    request.query = testutil::NoisyCopy(first, q * 9, 0.3, 1300 + q);
    request.exact = (q % 2 == 0);
    pool.push_back(std::move(request));
  }
  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = TestSpec(k, /*streaming=*/true);
  const auto ingest_all = [&](const series::SeriesCollection& data) {
    for (size_t begin = 0; begin < data.size(); begin += 20) {
      api::IngestBatchRequest ingest;
      ingest.stream = "live";
      ingest.batch = series::SeriesCollection(32);
      for (size_t i = begin; i < begin + 20; ++i) {
        ingest.batch.Append(data[i]);
        ingest.timestamps.push_back(static_cast<int64_t>(i));
      }
      ASSERT_TRUE(cluster.coordinator().IngestBatch(ingest).ok());
      ASSERT_TRUE(cluster.reference().IngestBatch(ingest).ok());
    }
  };
  const auto expect_ok_or_not_found = [&](const Result<api::QueryReport>& r) {
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
          << r.status().ToString();
    } else if (r.value().found) {
      EXPECT_LT(r.value().series_id, first.size());
    }
  };
  ASSERT_TRUE(cluster.coordinator().CreateStream(create).ok());
  ASSERT_TRUE(cluster.reference().CreateStream(create).ok());

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (size_t q = t; !done.load(); ++q) {
        expect_ok_or_not_found(
            cluster.coordinator().Query(pool[q % pool.size()]));
      }
    });
  }
  readers.emplace_back([&] {
    api::QueryBatchRequest batch;
    batch.queries = pool;
    while (!done.load()) {
      const api::QueryBatchResponse response =
          cluster.coordinator().QueryBatch(batch);
      for (const auto& entry : response.results) {
        if (!entry.ok) {
          EXPECT_EQ(entry.error.code,
                    api::StatusCodeToApiCode(StatusCode::kNotFound))
              << entry.error.message;
        } else if (entry.report.found) {
          EXPECT_LT(entry.report.series_id, first.size());
        }
      }
    }
  });

  ingest_all(first);
  api::DropIndexRequest drop;
  drop.index = "live";
  ASSERT_TRUE(cluster.coordinator().DropIndex(drop).ok());
  ASSERT_TRUE(cluster.reference().DropIndex(drop).ok());
  ASSERT_TRUE(cluster.coordinator().CreateStream(create).ok());
  ASSERT_TRUE(cluster.reference().CreateStream(create).ok());
  ingest_all(second);
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  for (size_t q = 0; q < pool.size(); ++q) {
    ExpectSameAnswer(cluster, pool[q], "recreated query " + std::to_string(q),
                     /*compare_counters=*/false);
  }
}

TEST_P(DistOracleTest, ValidationErrorsMirrorTheService) {
  const size_t k = GetParam();
  const std::string root = TestRoot("validate" + std::to_string(k));
  Cluster cluster(k, root);
  const auto data = testutil::RandomWalkCollection(50, 32, /*seed=*/3);
  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = TestSpec(k, /*streaming=*/true);
  ASSERT_TRUE(cluster.coordinator().CreateStream(create).ok());
  ASSERT_TRUE(cluster.reference().CreateStream(create).ok());

  const auto expect_same_error = [&](const api::QueryRequest& request,
                                     const std::string& what) {
    auto dist_result = cluster.coordinator().Query(request);
    auto ref_result = cluster.reference().Query(request);
    ASSERT_FALSE(dist_result.ok()) << what;
    ASSERT_FALSE(ref_result.ok()) << what;
    EXPECT_EQ(dist_result.status().code(), ref_result.status().code()) << what;
    EXPECT_EQ(dist_result.status().message(), ref_result.status().message())
        << what;
  };

  api::QueryRequest request;
  request.index = "live";
  expect_same_error(request, "empty query");
  request.query.assign(5, 0.5f);
  expect_same_error(request, "wrong length");
  request.query.assign(32, 0.5f);
  request.approx_candidates = 0;
  expect_same_error(request, "bad candidates");
  request.approx_candidates = 4;
  request.window = core::TimeWindow{10, 3};
  expect_same_error(request, "inverted window");
  request.window.reset();
  request.capture_heatmap = true;
  request.heatmap_time_bins = 0;
  expect_same_error(request, "zero bins");
  request.heatmap_time_bins = 5000;
  expect_same_error(request, "oversized bins");
  request.heatmap_time_bins = 16;
  if (k > 1) {
    // The single-process reference is sharded too, so both refuse.
    expect_same_error(request, "heatmap on sharded");
  } else {
    // Documented divergence: a 1-shard single-process service captures
    // heat maps, but a distributed deployment never does (the answer is
    // folded across processes). The refusal must still be structured.
    auto dist_result = cluster.coordinator().Query(request);
    ASSERT_FALSE(dist_result.ok());
    EXPECT_EQ(dist_result.status().code(), StatusCode::kNotSupported);
  }

  // Ingest validation parity.
  api::IngestBatchRequest ingest;
  ingest.stream = "live";
  ingest.batch = testutil::RandomWalkCollection(3, 32, 1);
  ingest.timestamps = {1, 2};  // one short
  auto dist_result = cluster.coordinator().IngestBatch(ingest);
  auto ref_result = cluster.reference().IngestBatch(ingest);
  ASSERT_FALSE(dist_result.ok());
  ASSERT_FALSE(ref_result.ok());
  EXPECT_EQ(dist_result.status().message(), ref_result.status().message());
}

TEST_P(DistOracleTest, FrontDoorsRefuseRawRequestsIdentically) {
  const size_t k = GetParam();
  const std::string root = TestRoot("front_door" + std::to_string(k));
  Cluster cluster(k, root);
  // Quotas on both front doors (the shards behind the coordinator have
  // none): "ok" is unlimited, "slow" gets one request, anyone else is
  // refused. A frozen clock keeps the retry horizon in the 429 message
  // deterministic.
  api::QuotaOptions quotas;
  quotas.clients["ok"] = api::ClientQuota{};
  quotas.clients["slow"] =
      api::ClientQuota{.requests_per_second = 0.5, .burst = 1.0};
  quotas.clock_seconds = [] { return 0.0; };
  cluster.coordinator().ConfigureQuotas(quotas);
  cluster.reference().ConfigureQuotas(quotas);

  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = TestSpec(k, /*streaming=*/true);
  ASSERT_TRUE(cluster.coordinator().CreateStream(create).ok());
  ASSERT_TRUE(cluster.reference().CreateStream(create).ok());

  const auto expect_same_error = [&](const HttpRequestInfo& request,
                                     const std::string& what) {
    Result<std::string> dist_result = cluster.coordinator().Dispatch(request);
    Result<std::string> ref_result = cluster.reference().Dispatch(request);
    ASSERT_FALSE(dist_result.ok()) << what;
    ASSERT_FALSE(ref_result.ok()) << what;
    EXPECT_EQ(dist_result.status().code(), ref_result.status().code()) << what;
    EXPECT_EQ(dist_result.status().message(), ref_result.status().message())
        << what;
  };
  const auto request = [](std::string method, std::string body) {
    HttpRequestInfo info;
    info.method = std::move(method);
    info.body = std::move(body);
    info.client_token = "ok";
    return info;
  };

  expect_same_error(request("frobnicate", "{}"), "unknown method");
  expect_same_error(request("list_indexes", "{\"x\":1}"),
                    "list_indexes params");
  expect_same_error(request("server_stats", "{\"x\":1}"),
                    "server_stats params");
  expect_same_error(request("query", "{\"index\":"), "malformed JSON");
  expect_same_error(request("drain_stream", "{\"stream\":\"live\",\"x\":1}"),
                    "unknown field");

  api::IngestBatchRequest ingest;
  ingest.stream = "live";
  ingest.batch = testutil::RandomWalkCollection(4, 32, /*seed=*/5);
  ingest.timestamps = {0, 1, 2, 3};
  const std::string frame = EncodeIngestFrame(ingest);
  HttpRequestInfo binary = request("ingest_batch_bin", frame);
  binary.content_type = "application/json";
  expect_same_error(binary, "binary ingest without its Content-Type");
  binary.content_type = kBinaryIngestContentType;
  binary.body = frame.substr(0, frame.size() - 3);
  expect_same_error(binary, "torn binary frame");

  HttpRequestInfo stranger = request("list_indexes", "");
  stranger.client_token = "";
  expect_same_error(stranger, "missing token");
  stranger.client_token = "mallory";
  expect_same_error(stranger, "unknown token");
  HttpRequestInfo slow = request("list_indexes", "");
  slow.client_token = "slow";
  ASSERT_TRUE(cluster.coordinator().Dispatch(slow).ok());
  ASSERT_TRUE(cluster.reference().Dispatch(slow).ok());
  expect_same_error(slow, "throttled token");

  // And an intact frame is ingested the same way through both.
  binary.body = frame;
  Result<std::string> dist_ingest = cluster.coordinator().Dispatch(binary);
  Result<std::string> ref_ingest = cluster.reference().Dispatch(binary);
  ASSERT_TRUE(dist_ingest.ok()) << dist_ingest.status().ToString();
  ASSERT_TRUE(ref_ingest.ok()) << ref_ingest.status().ToString();
  api::DrainStreamRequest drain;
  drain.stream = "live";
  ASSERT_TRUE(cluster.coordinator().DrainStream(drain).ok());
  ASSERT_TRUE(cluster.reference().DrainStream(drain).ok());
  QuerySweep(cluster, "live", ingest.batch, 4, /*seed=*/99, "binary ingest");
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, DistOracleTest,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace dist
}  // namespace palm
}  // namespace coconut
