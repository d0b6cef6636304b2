// Tests for the typed service API (palm/api.h): every request/response
// struct round-trips parse -> serialize, malformed and unknown-field
// payloads are rejected with structured errors, request validation fires
// at the API boundary, the drop lifecycle releases storage, and the
// dispatcher's JSON is byte-identical to the historical wire payloads
// (the original serialization sequences are replicated inline here and
// pinned against the typed serializers).
#include <gtest/gtest.h>

#include <filesystem>

#include "dist/coordinator.h"
#include "palm/api.h"
#include "palm/http_server.h"
#include "palm/query_cache.h"
#include "tests/test_util.h"

namespace coconut {
namespace palm {
namespace api {
namespace {

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 32, .num_segments = 8,
                           .bits_per_segment = 8};
}

VariantSpec TestSpec(IndexFamily family = IndexFamily::kCTree) {
  VariantSpec spec;
  spec.sax = TestSax();
  spec.family = family;
  spec.buffer_entries = 64;
  return spec;
}

/// Serialize -> parse -> deserialize -> serialize must reproduce the
/// exact bytes (field order and value formatting are part of the wire
/// contract).
template <typename T>
void ExpectRoundTrip(const T& value) {
  const std::string json = value.ToJsonString();
  Result<JsonValue> parsed = JsonParse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  Result<T> back = T::FromJson(parsed.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << json;
  EXPECT_EQ(back.value().ToJsonString(), json);
}

template <typename T>
Status ParseError(const std::string& json) {
  Result<JsonValue> parsed = JsonParse(json);
  if (!parsed.ok()) return parsed.status();
  Result<T> back = T::FromJson(parsed.value());
  return back.status();
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path().string() + "/api_test_" +
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

  /// Registers a deterministic random-walk dataset named `name`.
  series::SeriesCollection Register(const std::string& name, size_t count,
                                    uint64_t seed = 7) {
    series::SeriesCollection data =
        testutil::RandomWalkCollection(count, 32, seed);
    auto status = service_->RegisterDataset(name, data, nullptr);
    EXPECT_TRUE(status.ok()) << status.status().ToString();
    return data;
  }

  std::string root_;
  std::unique_ptr<Service> service_;
};

// ------------------------------------------------------------ round trips

TEST(ApiRoundTrip, RegisterDatasetRequest) {
  RegisterDatasetRequest request;
  request.name = "walk";
  request.data = testutil::RandomWalkCollection(3, 8, 11);
  request.timestamps = std::vector<int64_t>{10, 20, -5};
  ExpectRoundTrip(request);

  request.timestamps.reset();
  ExpectRoundTrip(request);
}

TEST(ApiRoundTrip, RegisterDatasetResponse) {
  RegisterDatasetResponse response;
  response.dataset = "walk";
  response.series = 4096;
  response.series_length = 128;
  ExpectRoundTrip(response);
}

TEST(ApiRoundTrip, BuildIndexRequestEveryKnob) {
  BuildIndexRequest request;
  request.index = "idx";
  request.dataset = "walk";
  request.spec = TestSpec(IndexFamily::kClsm);
  request.spec.materialized = true;
  request.spec.fill_factor = 0.75;
  request.spec.growth_factor = 3;
  request.spec.memory_budget_bytes = 1 << 20;
  request.spec.construction_threads = 2;
  request.spec.ads_leaf_capacity = 512;
  request.spec.btp_merge_k = 4;
  request.spec.num_shards = 4;
  request.spec.timestamp_policy = stream::TimestampPolicy::kClamp;
  request.spec.async_ingest = true;
  request.spec.max_inflight_seals = 6;
  request.spec.backpressure_policy = stream::BackpressurePolicy::kReject;
  ExpectRoundTrip(request);
}

TEST(ApiRoundTrip, BuildIndexReport) {
  BuildIndexReport report;
  report.index = "idx";
  report.variant = "CTree";
  report.dataset = "walk";
  report.shards = 2;
  report.entries = 1000;
  report.build_seconds = 1.25;
  report.index_bytes = 4096;
  report.total_bytes = 8192;
  report.io.sequential_reads = 10;
  report.io.random_reads = 3;
  report.io.bytes_written = 123456;
  ExpectRoundTrip(report);
}

TEST(ApiRoundTrip, CreateStreamAndDrainAndDrop) {
  CreateStreamRequest create;
  create.stream = "s";
  create.spec = TestSpec();
  create.spec.mode = StreamMode::kTP;
  ExpectRoundTrip(create);

  CreateStreamResponse created;
  created.stream = "s";
  created.variant = "CTree-TP";
  ExpectRoundTrip(created);

  DrainStreamRequest drain;
  drain.stream = "s";
  ExpectRoundTrip(drain);

  DrainStreamReport report;
  report.stream = "s";
  report.drain_seconds = 0.5;
  report.total_entries = 100;
  report.partitions = 3;
  report.seals_completed = 3;
  report.merges_completed = 1;
  report.index_bytes = 2048;
  report.total_bytes = 12288;
  ExpectRoundTrip(report);

  DropIndexRequest drop;
  drop.index = "s";
  ExpectRoundTrip(drop);

  DropIndexResponse dropped;
  dropped.index = "s";
  dropped.dropped = true;
  dropped.streaming = true;
  dropped.entries = 100;
  dropped.reclaimed_bytes = 12288;
  ExpectRoundTrip(dropped);

  DropDatasetRequest drop_ds;
  drop_ds.dataset = "walk";
  ExpectRoundTrip(drop_ds);

  DropDatasetResponse dropped_ds;
  dropped_ds.dataset = "walk";
  dropped_ds.dropped = true;
  dropped_ds.series = 42;
  ExpectRoundTrip(dropped_ds);
}

TEST(ApiRoundTrip, IngestBatch) {
  IngestBatchRequest request;
  request.stream = "s";
  request.batch = testutil::RandomWalkCollection(2, 8, 3);
  request.timestamps = {100, 200};
  ExpectRoundTrip(request);

  IngestBatchReport report;
  report.stream = "s";
  report.ingested = 2;
  report.total_entries = 10;
  report.partitions = 1;
  report.buffered = 2;
  report.pending_tasks = 1;
  report.seals_completed = 1;
  report.merges_completed = 0;
  report.seconds = 0.001;
  report.io.sequential_writes = 5;
  ExpectRoundTrip(report);
}

TEST(ApiRoundTrip, QueryRequestAndReport) {
  QueryRequest request;
  request.index = "idx";
  request.query = {1.5f, -2.25f, 0.0f, 3.125f};
  request.exact = false;
  request.window = core::TimeWindow{10, 99};
  request.approx_candidates = 7;
  request.capture_heatmap = true;
  request.heatmap_time_bins = 4;
  request.heatmap_location_bins = 8;
  ExpectRoundTrip(request);
  request.window.reset();
  ExpectRoundTrip(request);

  QueryReport report;
  report.index = "idx";
  report.exact = true;
  report.found = true;
  report.series_id = 77;
  report.distance = 1.4142;
  report.timestamp = -3;
  report.seconds = 0.01;
  report.io.random_reads = 12;
  report.counters.leaves_visited = 3;
  report.counters.raw_fetches = 12;
  report.has_heatmap = true;
  report.access_locality = 0.875;
  report.heatmap.time_bins = 2;
  report.heatmap.location_bins = 3;
  report.heatmap.counts = {1, 0, 2, 0, 4, 0};
  report.heatmap.max_count = 4;
  report.heatmap.total_events = 7;
  report.heatmap.distinct_pages = 4;
  report.heatmap.distinct_files = 2;
  ExpectRoundTrip(report);

  report.found = false;
  report.has_heatmap = false;
  ExpectRoundTrip(report);
}

TEST(ApiRoundTrip, QueryBatch) {
  QueryBatchRequest request;
  QueryRequest q;
  q.index = "a";
  q.query = {1.0f, 2.0f};
  request.queries = {q, q};
  request.threads = 2;
  ExpectRoundTrip(request);

  QueryBatchResponse response;
  QueryBatchResponse::Entry ok_entry;
  ok_entry.ok = true;
  ok_entry.report.index = "a";
  ok_entry.report.found = false;
  QueryBatchResponse::Entry err_entry;
  err_entry.ok = false;
  err_entry.error = ApiError::FromStatus(Status::NotFound("index 'b'"));
  response.results = {ok_entry, err_entry};
  ExpectRoundTrip(response);
}

TEST(ApiRoundTrip, RecommendAndListAndError) {
  RecommendRequest request;
  request.scenario.streaming = true;
  request.scenario.dataset_size = 123456;
  request.scenario.sax = TestSax();
  request.scenario.expected_queries = 99;
  request.scenario.update_ratio = 0.25;
  request.scenario.window_queries = true;
  request.scenario.typical_window_fraction = 0.5;
  request.scenario.storage_constrained = true;
  ExpectRoundTrip(request);

  RecommendResponse response;
  response.variant = "CLSM-BTP";
  response.materialized = false;
  response.fill_factor = 1.0;
  response.growth_factor = 4;
  response.buffer_entries = 4096;
  response.rationale = {"streaming data", "memory constrained"};
  ExpectRoundTrip(response);

  ListIndexesResponse list;
  ListIndexesResponse::IndexInfo info;
  info.name = "idx";
  info.variant = "ADS+";
  info.streaming = false;
  info.shards = 1;
  info.entries = 10;
  info.total_bytes = 4096;
  list.indexes = {info};
  ExpectRoundTrip(list);

  ApiError error = ApiError::FromStatus(
      Status::InvalidArgument("query vector must not be empty"));
  EXPECT_EQ(error.code, "invalid_argument");
  EXPECT_EQ(error.http_status, 400);
  ExpectRoundTrip(error);
}

// ----------------------------------------------- malformed & unknown

TEST(ApiParse, MalformedJsonIsRejected) {
  EXPECT_FALSE(ParseError<QueryRequest>("{\"index\":\"a\",").ok());
  EXPECT_FALSE(ParseError<QueryRequest>("not json at all").ok());
  EXPECT_FALSE(ParseError<QueryRequest>("").ok());
  EXPECT_FALSE(ParseError<BuildIndexRequest>("[1,2,3]").ok());
}

TEST(ApiParse, MissingRequiredFields) {
  Status s = ParseError<QueryRequest>("{\"query\":[1.0]}");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("'index'"), std::string::npos);

  s = ParseError<BuildIndexRequest>("{\"index\":\"i\",\"dataset\":\"d\"}");
  EXPECT_NE(s.message().find("'spec'"), std::string::npos);

  s = ParseError<IngestBatchRequest>(
      "{\"stream\":\"s\",\"series\":[[1,2]]}");
  EXPECT_NE(s.message().find("'timestamps'"), std::string::npos);
}

TEST(ApiParse, UnknownFieldsAreRejected) {
  Status s = ParseError<QueryRequest>(
      "{\"index\":\"a\",\"query\":[1.0],\"exacty\":true}");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unknown field 'exacty'"), std::string::npos);

  s = ParseError<DropIndexRequest>("{\"index\":\"a\",\"force\":true}");
  EXPECT_NE(s.message().find("unknown field 'force'"), std::string::npos);

  s = ParseError<BuildIndexRequest>(
      "{\"index\":\"i\",\"dataset\":\"d\",\"spec\":{\"familly\":\"ads\"}}");
  EXPECT_NE(s.message().find("unknown field 'familly'"), std::string::npos);
}

// The shard thread counts are fixed (one build thread per shard, query
// fan-out min(K, 8)); a spec that still names either retired key is
// refused like any other unknown field, not silently ignored.
TEST(ApiParse, RetiredShardThreadKeysAreRejected) {
  for (const std::string key :
       {"shard_build_threads", "shard_query_threads"}) {
    const Status s = ParseError<BuildIndexRequest>(
        "{\"index\":\"i\",\"dataset\":\"d\",\"spec\":{\"" + key +
        "\":2}}");
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(s.message().find("unknown field '" + key + "'"),
              std::string::npos)
        << s.message();
  }
}

TEST(ApiParse, WrongTypesAreRejected) {
  EXPECT_FALSE(
      ParseError<QueryRequest>("{\"index\":3,\"query\":[1.0]}").ok());
  EXPECT_FALSE(
      ParseError<QueryRequest>("{\"index\":\"a\",\"query\":\"no\"}").ok());
  EXPECT_FALSE(ParseError<QueryRequest>(
                   "{\"index\":\"a\",\"query\":[1.0],\"exact\":\"yes\"}")
                   .ok());
  EXPECT_FALSE(ParseError<RegisterDatasetRequest>(
                   "{\"name\":\"d\",\"series\":[[1,\"x\"]]}")
                   .ok());
}

TEST(ApiParse, NestedObjectsReportUnderTheirOwnContext) {
  // Inside server_stats' cache and quota objects, a field error names the
  // nested object, as the unknown-field check on the same object does.
  const std::string cache =
      "{\"enabled\":true,\"entries\":0,\"bytes\":0,\"hits\":0,\"misses\":0,"
      "\"inserts\":0,\"evictions\":0,\"stale_drops\":0,\"invalidations\":0}";
  const std::string quota =
      "{\"enabled\":false,\"admitted\":0,\"throttled\":0,"
      "\"unauthenticated\":0}";
  ASSERT_TRUE(ParseError<ServerStatsResponse>("{\"cache\":" + cache +
                                              ",\"quota\":" + quota + "}")
                  .ok());
  EXPECT_EQ(ParseError<ServerStatsResponse>(
                "{\"cache\":{\"hits\":0,\"x\":1},\"quota\":" + quota + "}")
                .message(),
            "server_stats cache: unknown field 'x'");
  EXPECT_EQ(ParseError<ServerStatsResponse>("{\"cache\":{\"enabled\":true},"
                                            "\"quota\":" + quota + "}")
                .message(),
            "server_stats cache: field 'entries' is required");
  EXPECT_EQ(ParseError<ServerStatsResponse>(
                "{\"cache\":" + cache +
                ",\"quota\":{\"enabled\":false,\"admitted\":\"7\"}}")
                .message(),
            "server_stats quota: field 'admitted' must be a number");
}

TEST(ApiParse, RaggedSeriesRejected) {
  Status s = ParseError<RegisterDatasetRequest>(
      "{\"name\":\"d\",\"series\":[[1,2,3],[1,2]]}");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("expected length 3"), std::string::npos);

  // Explicit series_length disagrees with the rows.
  s = ParseError<RegisterDatasetRequest>(
      "{\"name\":\"d\",\"series_length\":4,\"series\":[[1,2,3]]}");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // Empty matrix without an explicit length is unusable.
  s = ParseError<RegisterDatasetRequest>("{\"name\":\"d\",\"series\":[]}");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ApiParse, SpecEnumSpellings) {
  Result<JsonValue> parsed = JsonParse(
      "{\"family\":\"clsm\",\"mode\":\"btp\",\"timestamp_policy\":"
      "\"strict\"}");
  ASSERT_TRUE(parsed.ok());
  Result<VariantSpec> spec = VariantSpecFromJson(parsed.value());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().family, IndexFamily::kClsm);
  EXPECT_EQ(spec.value().mode, StreamMode::kBTP);
  EXPECT_EQ(spec.value().timestamp_policy, stream::TimestampPolicy::kStrict);

  parsed = JsonParse("{\"family\":\"btree\"}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(VariantSpecFromJson(parsed.value()).ok());
  parsed = JsonParse("{\"mode\":\"bulk\"}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(VariantSpecFromJson(parsed.value()).ok());
}

TEST(ApiParse, BackpressureKnobs) {
  // The two PR 5 wire knobs: policy spellings and the range check on the
  // cap (each in-flight seal authorizes buffer_entries pinned series, so
  // the cap itself is capped).
  Result<JsonValue> parsed = JsonParse(
      "{\"max_inflight_seals\":4,\"backpressure_policy\":\"reject\"}");
  ASSERT_TRUE(parsed.ok());
  Result<VariantSpec> spec = VariantSpecFromJson(parsed.value());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().max_inflight_seals, 4u);
  EXPECT_EQ(spec.value().backpressure_policy,
            stream::BackpressurePolicy::kReject);

  parsed = JsonParse("{\"backpressure_policy\":\"block\"}");
  ASSERT_TRUE(parsed.ok());
  spec = VariantSpecFromJson(parsed.value());
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().backpressure_policy,
            stream::BackpressurePolicy::kBlock);
  EXPECT_EQ(spec.value().max_inflight_seals, 0u);  // default: unbounded

  parsed = JsonParse("{\"backpressure_policy\":\"dropit\"}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(VariantSpecFromJson(parsed.value()).ok());

  // Over the wire cap (2^16): rejected at parse, not silently narrowed.
  parsed = JsonParse("{\"max_inflight_seals\":65537}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(VariantSpecFromJson(parsed.value()).ok());
  parsed = JsonParse("{\"max_inflight_seals\":-1}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(VariantSpecFromJson(parsed.value()).ok());
}

// ------------------------------------- legacy byte-identity (tentpole)

// The exact historical serialization sequences, JsonWriter call for
// call. The typed reports must emit identical bytes: existing clients
// parse these payloads.

std::string LegacyIoJson(const storage::IoStats& io) {
  JsonWriter w;
  w.BeginObject();
  w.Field("sequential_reads", io.sequential_reads);
  w.Field("random_reads", io.random_reads);
  w.Field("sequential_writes", io.sequential_writes);
  w.Field("random_writes", io.random_writes);
  w.Field("bytes_read", io.bytes_read);
  w.Field("bytes_written", io.bytes_written);
  w.EndObject();
  return w.TakeString();
}

std::string LegacyBuildJson(const BuildIndexReport& r) {
  JsonWriter w;
  w.BeginObject();
  w.Field("index", r.index);
  w.Field("variant", r.variant);
  w.Field("dataset", r.dataset);
  w.Field("shards", r.shards);
  w.Field("entries", r.entries);
  w.Field("build_seconds", r.build_seconds);
  w.Field("index_bytes", r.index_bytes);
  w.Field("total_bytes", r.total_bytes);
  w.Key("io");
  w.BeginObject();
  w.Field("sequential_reads", r.io.sequential_reads);
  w.Field("random_reads", r.io.random_reads);
  w.Field("sequential_writes", r.io.sequential_writes);
  w.Field("random_writes", r.io.random_writes);
  w.Field("bytes_read", r.io.bytes_read);
  w.Field("bytes_written", r.io.bytes_written);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

// PR 5 appended the backpressure telemetry fields (seals_inflight through
// stall_ms_p99) to the ingest/drain reports; the replicas carry them at
// the same positions so the remainder of the legacy sequence stays
// pinned byte-for-byte.
std::string LegacyIngestJson(const IngestBatchReport& r) {
  JsonWriter w;
  w.BeginObject();
  w.Field("stream", r.stream);
  w.Field("ingested", r.ingested);
  w.Field("total_entries", r.total_entries);
  w.Field("partitions", r.partitions);
  w.Field("buffered", r.buffered);
  w.Field("pending_tasks", r.pending_tasks);
  w.Field("seals_completed", r.seals_completed);
  w.Field("merges_completed", r.merges_completed);
  w.Field("seals_inflight", r.seals_inflight);
  w.Field("ingest_stalls", r.ingest_stalls);
  w.Field("ingest_rejects", r.ingest_rejects);
  w.Field("stall_ms_p50", r.stall_ms_p50);
  w.Field("stall_ms_p99", r.stall_ms_p99);
  w.Field("seconds", r.seconds);
  w.Key("io");
  w.BeginObject();
  w.Field("sequential_reads", r.io.sequential_reads);
  w.Field("random_reads", r.io.random_reads);
  w.Field("sequential_writes", r.io.sequential_writes);
  w.Field("random_writes", r.io.random_writes);
  w.Field("bytes_read", r.io.bytes_read);
  w.Field("bytes_written", r.io.bytes_written);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string LegacyDrainJson(const DrainStreamReport& r) {
  JsonWriter w;
  w.BeginObject();
  w.Field("stream", r.stream);
  w.Field("drained", r.drained);
  w.Field("drain_seconds", r.drain_seconds);
  w.Field("total_entries", r.total_entries);
  w.Field("partitions", r.partitions);
  w.Field("buffered", r.buffered);
  w.Field("pending_tasks", r.pending_tasks);
  w.Field("seals_completed", r.seals_completed);
  w.Field("merges_completed", r.merges_completed);
  w.Field("seals_inflight", r.seals_inflight);
  w.Field("ingest_stalls", r.ingest_stalls);
  w.Field("ingest_rejects", r.ingest_rejects);
  w.Field("stall_ms_p50", r.stall_ms_p50);
  w.Field("stall_ms_p99", r.stall_ms_p99);
  w.Field("index_bytes", r.index_bytes);
  w.Field("total_bytes", r.total_bytes);
  w.EndObject();
  return w.TakeString();
}

std::string LegacyQueryJson(const QueryReport& r) {
  JsonWriter w;
  w.BeginObject();
  w.Field("index", r.index);
  w.Field("exact", r.exact);
  w.Field("found", r.found);
  if (r.found) {
    w.Field("series_id", r.series_id);
    w.Field("distance", r.distance);
    w.Field("timestamp", r.timestamp);
  }
  w.Field("seconds", r.seconds);
  w.Key("io");
  w.BeginObject();
  w.Field("sequential_reads", r.io.sequential_reads);
  w.Field("random_reads", r.io.random_reads);
  w.Field("sequential_writes", r.io.sequential_writes);
  w.Field("random_writes", r.io.random_writes);
  w.Field("bytes_read", r.io.bytes_read);
  w.Field("bytes_written", r.io.bytes_written);
  w.EndObject();
  w.Key("counters");
  w.BeginObject();
  w.Field("leaves_visited", r.counters.leaves_visited);
  w.Field("leaves_pruned", r.counters.leaves_pruned);
  w.Field("entries_examined", r.counters.entries_examined);
  w.Field("raw_fetches", r.counters.raw_fetches);
  w.Field("partitions_visited", r.counters.partitions_visited);
  w.Field("partitions_skipped", r.counters.partitions_skipped);
  w.EndObject();
  if (r.has_heatmap) {
    w.Field("access_locality", r.access_locality);
    w.Key("heatmap");
    HeatMapToJson(r.heatmap, &w);
  }
  w.EndObject();
  return w.TakeString();
}

TEST_F(ServiceTest, TypedReportsMatchLegacyBytes) {
  const series::SeriesCollection data = Register("walk", 150);

  // Build (CTree) — byte-identical build report.
  Result<BuildIndexReport> build =
      service_->BuildIndex("ctree", TestSpec(), "walk");
  ASSERT_TRUE(build.ok()) << build.status().ToString();
  EXPECT_EQ(build.value().ToJsonString(), LegacyBuildJson(build.value()));

  // Query with a heat map — byte-identical query report.
  QueryRequest query;
  query.index = "ctree";
  query.query = testutil::NoisyCopy(data, 13, 0.3, 5);
  query.capture_heatmap = true;
  query.heatmap_time_bins = 4;
  query.heatmap_location_bins = 8;
  Result<QueryReport> report = service_->Query(query);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report.value().found);
  EXPECT_TRUE(report.value().has_heatmap);
  EXPECT_EQ(report.value().ToJsonString(), LegacyQueryJson(report.value()));

  // Stream: ingest + drain — byte-identical reports.
  VariantSpec tp = TestSpec();
  tp.mode = StreamMode::kTP;
  tp.buffer_entries = 32;
  Result<CreateStreamResponse> created = service_->CreateStream("tp", tp);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  // CreateStream is fully deterministic: pin the exact payload.
  EXPECT_EQ(created.value().ToJsonString(),
            "{\"stream\":\"tp\",\"variant\":\"CTree-TP\"}");

  std::vector<int64_t> timestamps(data.size());
  for (size_t i = 0; i < timestamps.size(); ++i) {
    timestamps[i] = static_cast<int64_t>(i);
  }
  Result<IngestBatchReport> ingest =
      service_->IngestBatch("tp", data, timestamps);
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  EXPECT_EQ(ingest.value().ToJsonString(), LegacyIngestJson(ingest.value()));

  Result<DrainStreamReport> drain = service_->DrainStream("tp");
  ASSERT_TRUE(drain.ok()) << drain.status().ToString();
  EXPECT_EQ(drain.value().ToJsonString(), LegacyDrainJson(drain.value()));

  EXPECT_EQ(LegacyIoJson(ingest.value().io),
            [&] {
              JsonWriter w;
              IoStatsToJson(ingest.value().io, &w);
              return w.TakeString();
            }());
}

TEST_F(ServiceTest, DispatchedJsonReparsesByteIdentically) {
  // What the wire carries must be exactly what the typed structs
  // serialize to: parse each dispatched response back through the typed
  // layer and require byte-for-byte re-serialization.
  const series::SeriesCollection data =
      testutil::RandomWalkCollection(120, 32, 9);
  ASSERT_TRUE(service_->RegisterDataset("walk", data, nullptr).ok());

  BuildIndexRequest build_request;
  build_request.index = "idx";
  build_request.dataset = "walk";
  build_request.spec = TestSpec();
  const std::string build_json =
      service_->Dispatch("build_index", build_request.ToJsonString())
          .TakeValue();
  auto build = BuildIndexReport::FromJson(JsonParse(build_json).TakeValue());
  ASSERT_TRUE(build.ok()) << build.status().ToString();
  EXPECT_EQ(build.value().ToJsonString(), build_json);

  QueryRequest query;
  query.index = "idx";
  query.query = testutil::NoisyCopy(data, 3, 0.2, 4);
  const std::string query_json =
      service_->Dispatch("query", query.ToJsonString()).TakeValue();
  auto parsed = QueryReport::FromJson(JsonParse(query_json).TakeValue());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToJsonString(), query_json);

  const std::string list_json =
      service_->Dispatch("list_indexes", "").TakeValue();
  auto list = ListIndexesResponse::FromJson(JsonParse(list_json).TakeValue());
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list.value().ToJsonString(), list_json);

  RecommendRequest recommend;
  recommend.scenario.sax = TestSax();
  const std::string rec_json =
      service_->Dispatch("recommend", recommend.ToJsonString()).TakeValue();
  auto rec = RecommendResponse::FromJson(JsonParse(rec_json).TakeValue());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value().ToJsonString(), rec_json);
}

// ------------------------------------------------------------ dispatcher

TEST_F(ServiceTest, DispatchCoversEveryMethod) {
  const series::SeriesCollection data =
      testutil::RandomWalkCollection(64, 32, 21);

  RegisterDatasetRequest reg;
  reg.name = "walk";
  reg.data = data;
  Result<std::string> out = service_->Dispatch("register_dataset",
                                               reg.ToJsonString());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto reg_resp = RegisterDatasetResponse::FromJson(
      JsonParse(out.value()).TakeValue());
  ASSERT_TRUE(reg_resp.ok());
  EXPECT_EQ(reg_resp.value().series, 64u);
  EXPECT_EQ(reg_resp.value().series_length, 32u);

  BuildIndexRequest build;
  build.index = "idx";
  build.dataset = "walk";
  build.spec = TestSpec();
  out = service_->Dispatch("build_index", build.ToJsonString());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto build_report =
      BuildIndexReport::FromJson(JsonParse(out.value()).TakeValue());
  ASSERT_TRUE(build_report.ok());
  EXPECT_EQ(build_report.value().entries, 64u);

  CreateStreamRequest create;
  create.stream = "tp";
  create.spec = TestSpec();
  create.spec.mode = StreamMode::kTP;
  out = service_->Dispatch("create_stream", create.ToJsonString());
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  IngestBatchRequest ingest;
  ingest.stream = "tp";
  ingest.batch = data;
  ingest.timestamps.resize(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    ingest.timestamps[i] = static_cast<int64_t>(i);
  }
  out = service_->Dispatch("ingest_batch", ingest.ToJsonString());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto ingest_report =
      IngestBatchReport::FromJson(JsonParse(out.value()).TakeValue());
  ASSERT_TRUE(ingest_report.ok());
  EXPECT_EQ(ingest_report.value().ingested, 64u);

  DrainStreamRequest drain;
  drain.stream = "tp";
  out = service_->Dispatch("drain_stream", drain.ToJsonString());
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  QueryRequest query;
  query.index = "idx";
  query.query = testutil::NoisyCopy(data, 5, 0.3, 2);
  out = service_->Dispatch("query", query.ToJsonString());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto query_report =
      QueryReport::FromJson(JsonParse(out.value()).TakeValue());
  ASSERT_TRUE(query_report.ok());
  EXPECT_TRUE(query_report.value().found);
  // The dispatcher's query answer must agree with brute force over the
  // registered (z-normalized) dataset.
  series::SeriesCollection normalized(data.length());
  for (size_t i = 0; i < data.size(); ++i) {
    std::vector<float> buf(data[i].begin(), data[i].end());
    series::ZNormalize(buf);
    normalized.Append(buf);
  }
  std::vector<float> znorm_query = query.query;
  series::ZNormalize(znorm_query);
  auto truth = testutil::BruteForceNearest(normalized, znorm_query);
  EXPECT_NEAR(query_report.value().distance * query_report.value().distance,
              truth.distance_sq, 1e-4);

  QueryBatchRequest batch;
  batch.queries = {query, query};
  QueryRequest bad = query;
  bad.index = "missing";
  batch.queries.push_back(bad);
  out = service_->Dispatch("query_batch", batch.ToJsonString());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto batch_resp =
      QueryBatchResponse::FromJson(JsonParse(out.value()).TakeValue());
  ASSERT_TRUE(batch_resp.ok()) << batch_resp.status().ToString();
  ASSERT_EQ(batch_resp.value().results.size(), 3u);
  EXPECT_TRUE(batch_resp.value().results[0].ok);
  EXPECT_TRUE(batch_resp.value().results[1].ok);
  EXPECT_FALSE(batch_resp.value().results[2].ok);
  EXPECT_EQ(batch_resp.value().results[2].error.code, "not_found");

  RecommendRequest recommend;
  recommend.scenario.sax = TestSax();
  out = service_->Dispatch("recommend", recommend.ToJsonString());
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  out = service_->Dispatch("list_indexes", "");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto list = ListIndexesResponse::FromJson(JsonParse(out.value()).TakeValue());
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().indexes.size(), 2u);

  out = service_->Dispatch("drop_index", "{\"index\":\"tp\"}");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  out = service_->Dispatch("drop_index", "{\"index\":\"idx\"}");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  out = service_->Dispatch("drop_dataset", "{\"dataset\":\"walk\"}");
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  out = service_->Dispatch("list_indexes", "");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), "[]");
}

TEST_F(ServiceTest, DispatchUnknownMethodAndBadParams) {
  Result<std::string> out = service_->Dispatch("explode", "{}");
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
  EXPECT_NE(out.status().message().find("unknown method"),
            std::string::npos);

  out = service_->Dispatch("query", "{\"index\":");
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);

  out = service_->Dispatch("list_indexes", "{\"verbose\":true}");
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ validation

TEST_F(ServiceTest, QueryValidationAtBoundary) {
  const series::SeriesCollection data = Register("walk", 80);
  ASSERT_TRUE(service_->BuildIndex("idx", TestSpec(), "walk").ok());

  QueryRequest query;
  query.index = "idx";

  // Empty query vector.
  Result<QueryReport> r = service_->Query(query);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("must not be empty"),
            std::string::npos);

  // Length mismatch.
  query.query.assign(16, 0.5f);
  r = service_->Query(query);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("series length"), std::string::npos);

  // Unknown index.
  query.query.assign(32, 0.5f);
  query.index = "nope";
  r = service_->Query(query);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);

  // Non-positive approx_candidates.
  query.index = "idx";
  query.approx_candidates = 0;
  r = service_->Query(query);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("approx_candidates"),
            std::string::npos);
  query.approx_candidates = -3;
  EXPECT_EQ(service_->Query(query).status().code(),
            StatusCode::kInvalidArgument);

  // Inverted time window (begin > end). Used to be accepted and silently
  // scan nothing; now a structured invalid_argument at both boundaries.
  query.approx_candidates = 10;
  query.window = core::TimeWindow{50, 10};
  r = service_->Query(query);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("begin must be <= end"),
            std::string::npos);
  {
    QueryRequest wire;
    wire.index = "idx";
    wire.query.assign(32, 0.5f);
    wire.window = core::TimeWindow{50, 10};
    auto parsed =
        QueryRequest::FromJson(JsonParse(wire.ToJsonString()).TakeValue());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("begin must be <= end"),
              std::string::npos);
  }
  // A degenerate single-instant window (begin == end) stays legal.
  query.window = core::TimeWindow{10, 10};
  EXPECT_TRUE(service_->Query(query).ok());
  query.window.reset();

  // Zero heat-map bins.
  query.capture_heatmap = true;
  query.heatmap_time_bins = 0;
  EXPECT_EQ(service_->Query(query).status().code(),
            StatusCode::kInvalidArgument);

  // A valid request still works after all the rejections.
  query.capture_heatmap = false;
  query.heatmap_time_bins = 16;
  query.query = testutil::NoisyCopy(data, 1, 0.2, 1);
  EXPECT_TRUE(service_->Query(query).ok());
}

TEST_F(ServiceTest, IngestValidationAtBoundary) {
  VariantSpec tp = TestSpec();
  tp.mode = StreamMode::kTP;
  ASSERT_TRUE(service_->CreateStream("tp", tp).ok());

  // Wrong-length batch.
  series::SeriesCollection bad = testutil::RandomWalkCollection(2, 16, 1);
  Result<IngestBatchReport> r =
      service_->IngestBatch("tp", bad, {0, 1});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("series length"), std::string::npos);

  // Timestamp count mismatch.
  series::SeriesCollection good = testutil::RandomWalkCollection(2, 32, 1);
  r = service_->IngestBatch("tp", good, {0});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Unknown stream; static indexes are not streams.
  r = service_->IngestBatch("nope", good, {0, 1});
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ServiceTest, HostileNamesRejectedAtBoundary) {
  Register("walk", 10);

  // Wire-supplied names become path components under the service root
  // ("<root>/idx_<name>"); anything that could escape it must be rejected
  // before touching the filesystem.
  // "a/../../escape_sentinel" is the real traversal shape: the "idx_"
  // prefix fuses onto the first component, so "<root>/idx_a/../../x"
  // resolves to a sibling of the root.
  const std::vector<std::string> hostile = {
      "",    ".",    "..",   "../escape",
      "a/b", "a\\b", "/x",   "a b",
      "a\nb", "a/../../escape_sentinel", std::string(129, 'a')};
  for (const std::string& name : hostile) {
    EXPECT_EQ(ValidateName(name, "index").code(),
              StatusCode::kInvalidArgument)
        << "'" << name << "'";
    EXPECT_EQ(service_->BuildIndex(name, TestSpec(), "walk").status().code(),
              StatusCode::kInvalidArgument)
        << "'" << name << "'";
    EXPECT_EQ(service_->CreateStream(name, TestSpec()).status().code(),
              StatusCode::kInvalidArgument)
        << "'" << name << "'";
    EXPECT_EQ(service_
                  ->RegisterDataset(name,
                                    testutil::RandomWalkCollection(2, 32, 3),
                                    nullptr)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "'" << name << "'";
  }
  // Nothing escaped the root (without validation the traversal name
  // would have created this sibling of root_)...
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(root_).parent_path() / "escape_sentinel"));
  // ...and nothing was created inside it either.
  for (const auto& entry : std::filesystem::directory_iterator(root_)) {
    EXPECT_NE(entry.path().filename().string().rfind("idx_", 0), 0u)
        << entry.path();
  }
  EXPECT_EQ(service_->ListIndexes().value().indexes.size(), 0u);

  // The full allowed charset works end to end.
  EXPECT_TRUE(ValidateName("ok-Name_1.v2", "index").ok());
  EXPECT_TRUE(service_->BuildIndex("ok-Name_1.v2", TestSpec(), "walk").ok());
}

TEST_F(ServiceTest, OversizedDeclaredAllocationsRejected) {
  // An empty series matrix with a huge declared length allocates nothing:
  // the cap turns it into InvalidArgument instead of std::bad_alloc.
  Status s = ParseError<RegisterDatasetRequest>(
      "{\"name\":\"d\",\"series\":[],\"series_length\":1000000000000}");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("exceeds the maximum"), std::string::npos);
  Result<std::string> out = service_->Dispatch(
      "register_dataset",
      "{\"name\":\"d\",\"series\":[],\"series_length\":1000000000000}");
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);

  // Heat-map bin counts are capped per axis before the counts grid is
  // allocated, both in query validation...
  const series::SeriesCollection data = Register("walk", 20);
  ASSERT_TRUE(service_->BuildIndex("idx", TestSpec(), "walk").ok());
  QueryRequest query;
  query.index = "idx";
  query.query = testutil::NoisyCopy(data, 1, 0.2, 1);
  query.capture_heatmap = true;
  query.heatmap_time_bins = 1;
  query.heatmap_location_bins = 1u << 20;
  Result<QueryReport> r = service_->Query(query);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("per axis"), std::string::npos);

  // VariantSpec knobs that size buffers or spawn threads are
  // range-checked at parse rather than narrowed or honored blindly.
  s = ParseError<BuildIndexRequest>(
      "{\"index\":\"i\",\"dataset\":\"d\","
      "\"spec\":{\"construction_threads\":1000000}}");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  s = ParseError<BuildIndexRequest>(
      "{\"index\":\"i\",\"dataset\":\"d\","
      "\"spec\":{\"buffer_entries\":4294967296}}");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // 2^32+1 used to silently truncate to approx_candidates == 1.
  s = ParseError<QueryRequest>(
      "{\"index\":\"a\",\"query\":[1.0],\"approx_candidates\":4294967297}");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // ...and when parsing a heat map off the wire (one declared row, a
  // declared 1e12-cell width).
  Result<JsonValue> heat = JsonParse(
      "{\"time_bins\":1,\"location_bins\":1000000000000,"
      "\"total_events\":0,\"distinct_pages\":0,\"distinct_files\":0,"
      "\"max_count\":0,\"cells\":[[]]}");
  ASSERT_TRUE(heat.ok());
  EXPECT_EQ(HeatMapFromJson(heat.value()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, ConcurrentBuildsDoNotBlockQueries) {
  const series::SeriesCollection data = Register("walk", 120);
  ASSERT_TRUE(service_->BuildIndex("base", TestSpec(), "walk").ok());

  // Two builds run while queries and listings hammer the published index;
  // builds hold the registry lock only at their reserve/publish edges, so
  // everything must proceed and succeed (TSan checks the handoff).
  std::thread b1([&] {
    EXPECT_TRUE(service_->BuildIndex("one", TestSpec(), "walk").ok());
  });
  std::thread b2([&] {
    VariantSpec tp = TestSpec();
    tp.mode = StreamMode::kTP;
    EXPECT_TRUE(service_->CreateStream("two", tp).ok());
  });
  for (int i = 0; i < 50; ++i) {
    QueryRequest query;
    query.index = "base";
    query.query = testutil::NoisyCopy(data, i % 10, 0.3, i);
    EXPECT_TRUE(service_->Query(query).ok());
    // ListIndexes skips handles still building instead of touching them.
    for (const auto& info : service_->ListIndexes().TakeValue().indexes) {
      EXPECT_TRUE(info.name == "base" || info.name == "one" ||
                  info.name == "two");
    }
  }
  b1.join();
  b2.join();
  EXPECT_EQ(service_->ListIndexes().value().indexes.size(), 3u);
  EXPECT_TRUE(service_->DropIndex("one").ok());
}

TEST_F(ServiceTest, FailedBuildOrCreateLeavesNoGhostHandle) {
  Register("walk", 40);

  // Invalid spec that passes the dataset-length check but fails factory
  // validation — the handle registered before the factory ran must be
  // fully discarded, or list/query/drop on it would crash the service.
  VariantSpec bad = TestSpec();
  bad.num_shards = 0;
  EXPECT_FALSE(service_->BuildIndex("idx", bad, "walk").ok());
  EXPECT_EQ(service_->ListIndexes().value().indexes.size(), 0u);
  EXPECT_EQ(service_->index_storage("idx"), nullptr);
  QueryRequest query;
  query.index = "idx";
  query.query.assign(32, 0.5f);
  EXPECT_EQ(service_->Query(query).status().code(), StatusCode::kNotFound);
  // The name (and its directory) stays reusable.
  EXPECT_TRUE(service_->BuildIndex("idx", TestSpec(), "walk").ok());

  // Same for a stream whose spec is not a variant-matrix cell.
  VariantSpec bad_stream = TestSpec();
  bad_stream.mode = StreamMode::kBTP;  // BTP requires CLSM
  EXPECT_FALSE(service_->CreateStream("s", bad_stream).ok());
  EXPECT_EQ(service_->ListIndexes().value().indexes.size(), 1u);
  EXPECT_EQ(service_->Dispatch("list_indexes", "").ok(), true);
  VariantSpec good_stream = TestSpec();
  good_stream.mode = StreamMode::kTP;
  EXPECT_TRUE(service_->CreateStream("s", good_stream).ok());
}

TEST_F(ServiceTest, DispatchTableCoversEveryAdvertisedMethod) {
  // Methods() and the dispatch table must agree on every front door:
  // every advertised name routes (no "unknown method" error), even if the
  // params are invalid. The coordinator fans out to this same service.
  auto shard = HttpServer::Start(service_.get(), {}).TakeValue();
  dist::CoordinatorOptions options;
  options.shards.push_back(dist::ShardEndpoint{"127.0.0.1", shard->port()});
  auto coordinator = dist::Coordinator::Create(std::move(options)).TakeValue();
  for (FrontDoor* front_door :
       {static_cast<FrontDoor*>(service_.get()),
        static_cast<FrontDoor*>(coordinator.get())}) {
    for (const std::string& method : FrontDoor::Methods()) {
      Result<std::string> out = front_door->Dispatch(method, "{}");
      if (!out.ok()) {
        EXPECT_EQ(out.status().message().find("unknown method"),
                  std::string::npos)
            << method;
      }
    }
  }
}

TEST_F(ServiceTest, ServerStatsOnTheWire) {
  // Fresh service: both front-door features off, counters zero.
  Result<std::string> out = service_->Dispatch("server_stats", "{}");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto stats =
      ServerStatsResponse::FromJson(JsonParse(out.value()).TakeValue());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats.value().cache_enabled);
  EXPECT_FALSE(stats.value().quota_enabled);
  EXPECT_EQ(stats.value().cache_hits, 0u);

  // Takes no parameters, like list_indexes.
  EXPECT_EQ(service_->Dispatch("server_stats", "{\"x\":1}").status().code(),
            StatusCode::kInvalidArgument);

  // With the cache on, a repeated query shows up as one miss + one hit.
  service_->EnableQueryCache(QueryCacheOptions{});
  const series::SeriesCollection data = Register("walk", 64);
  ASSERT_TRUE(service_->BuildIndex("idx", TestSpec(), "walk").ok());
  QueryRequest query;
  query.index = "idx";
  query.query = testutil::NoisyCopy(data, 3, 0.2, 9);
  ASSERT_TRUE(service_->Query(query).ok());
  ASSERT_TRUE(service_->Query(query).ok());
  out = service_->Dispatch("server_stats", "");
  ASSERT_TRUE(out.ok());
  stats = ServerStatsResponse::FromJson(JsonParse(out.value()).TakeValue());
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().cache_enabled);
  EXPECT_EQ(stats.value().cache_hits, 1u);
  EXPECT_EQ(stats.value().cache_misses, 1u);
  EXPECT_EQ(stats.value().cache_entries, 1u);

  // Round trip through the typed struct stays byte-identical.
  EXPECT_EQ(stats.value().ToJsonString(), out.value());
}

// ------------------------------------------------------- drop lifecycle

TEST_F(ServiceTest, DropIndexReleasesStorage) {
  Register("walk", 100);
  ASSERT_TRUE(service_->BuildIndex("idx", TestSpec(), "walk").ok());
  const std::string dir = service_->index_storage("idx")->directory();
  EXPECT_TRUE(std::filesystem::exists(dir));

  Result<DropIndexResponse> dropped = service_->DropIndex("idx");
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_TRUE(dropped.value().dropped);
  EXPECT_FALSE(dropped.value().streaming);
  EXPECT_EQ(dropped.value().entries, 100u);
  EXPECT_GT(dropped.value().reclaimed_bytes, 0u);
  EXPECT_FALSE(std::filesystem::exists(dir));
  EXPECT_EQ(service_->static_index("idx"), nullptr);
  EXPECT_EQ(service_->ListIndexes().value().indexes.size(), 0u);

  // Dropped name is reusable.
  ASSERT_TRUE(service_->BuildIndex("idx", TestSpec(), "walk").ok());
  EXPECT_EQ(service_->ListIndexes().value().indexes.size(), 1u);

  // Double drop reports not_found.
  ASSERT_TRUE(service_->DropIndex("idx").ok());
  EXPECT_EQ(service_->DropIndex("idx").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServiceTest, DropStreamingIndexDrainsFirst) {
  VariantSpec spec = TestSpec();
  spec.mode = StreamMode::kTP;
  spec.buffer_entries = 16;
  spec.async_ingest = true;
  ASSERT_TRUE(service_->CreateStream("s", spec).ok());

  series::SeriesCollection data = testutil::RandomWalkCollection(120, 32, 3);
  std::vector<int64_t> timestamps(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    timestamps[i] = static_cast<int64_t>(i);
  }
  ASSERT_TRUE(service_->IngestBatch("s", data, timestamps).ok());

  const std::string dir = service_->index_storage("s")->directory();
  Result<DropIndexResponse> dropped = service_->DropIndex("s");
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_TRUE(dropped.value().streaming);
  EXPECT_EQ(dropped.value().entries, 120u);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST_F(ServiceTest, DropDatasetForgetsOnlyTheDataset) {
  Register("walk", 60);
  ASSERT_TRUE(service_->BuildIndex("idx", TestSpec(), "walk").ok());

  Result<DropDatasetResponse> dropped = service_->DropDataset("walk");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value().series, 60u);

  // The index keeps answering; rebuilding from the gone dataset fails.
  QueryRequest query;
  query.index = "idx";
  query.query.assign(32, 0.25f);
  EXPECT_TRUE(service_->Query(query).ok());
  EXPECT_EQ(
      service_->BuildIndex("idx2", TestSpec(), "walk").status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(service_->DropDataset("walk").status().code(),
            StatusCode::kNotFound);
}

// ----------------------------------------------------------- error model

TEST(ApiErrorTest, StatusMapping) {
  EXPECT_STREQ(StatusCodeToApiCode(StatusCode::kNotFound), "not_found");
  EXPECT_STREQ(StatusCodeToApiCode(StatusCode::kAlreadyExists),
               "already_exists");
  EXPECT_EQ(StatusCodeToHttpStatus(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(StatusCodeToHttpStatus(StatusCode::kNotFound), 404);
  EXPECT_EQ(StatusCodeToHttpStatus(StatusCode::kAlreadyExists), 409);
  EXPECT_EQ(StatusCodeToHttpStatus(StatusCode::kNotSupported), 501);
  EXPECT_EQ(StatusCodeToHttpStatus(StatusCode::kResourceExhausted), 429);
  EXPECT_EQ(StatusCodeToHttpStatus(StatusCode::kInternal), 500);
  EXPECT_STREQ(StatusCodeToApiCode(StatusCode::kUnauthenticated),
               "unauthenticated");
  EXPECT_EQ(StatusCodeToHttpStatus(StatusCode::kUnauthenticated), 401);

  const ApiError error =
      ApiError::FromStatus(Status::NotFound("index 'x' not found"));
  EXPECT_EQ(error.ToJsonString(),
            "{\"error\":{\"api_version\":1,\"code\":\"not_found\","
            "\"message\":\"index 'x' not found\"}}");
}

}  // namespace
}  // namespace api
}  // namespace palm
}  // namespace coconut
