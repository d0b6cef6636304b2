// Mutation sweep over every wire struct of the typed API (palm/api.h).
// Each fixture below turns every gated field on, so its serialized form
// carries every key of the struct's field list, nested objects included.
// Walking that JSON, the sweep checks that the reader:
//   - accepts everything the writer emits, byte for byte (the drift check
//     between the two directions of one field list);
//   - goes without exactly the keys pinned optional here, and reports any
//     other dropped key by name;
//   - reports a value of the wrong JSON type by its key or its nested
//     object's context;
//   - rejects an unknown key as unknown;
// and that every truncation of the body fails to parse. A failure must be
// an InvalidArgument status, never a crash.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "palm/api.h"
#include "tests/test_util.h"

namespace coconut {
namespace palm {
namespace api {
namespace {

struct WireCase {
  std::string name;
  std::string body;
  /// T::FromJson, then T::ToJsonString on success.
  std::function<Result<std::string>(const JsonValue&)> reparse;
  /// The keys, at any depth, the reader may go without; every other key
  /// is required.
  std::set<std::string> optional;
};

template <typename T>
WireCase Case(std::string name, const T& fixture,
              std::set<std::string> optional = {}) {
  return WireCase{std::move(name), fixture.ToJsonString(),
                  [](const JsonValue& value) -> Result<std::string> {
                    Result<T> parsed = T::FromJson(value);
                    if (!parsed.ok()) return parsed.status();
                    return parsed.value().ToJsonString();
                  },
                  std::move(optional)};
}

std::set<std::string> operator+(std::set<std::string> a,
                                const std::set<std::string>& b) {
  a.insert(b.begin(), b.end());
  return a;
}

const std::set<std::string> kSaxKnobs = {"series_length", "num_segments",
                                         "bits_per_segment"};
const std::set<std::string> kSpecKnobs =
    kSaxKnobs + std::set<std::string>{"family",
                                      "materialized",
                                      "mode",
                                      "sax",
                                      "fill_factor",
                                      "growth_factor",
                                      "buffer_entries",
                                      "memory_budget_bytes",
                                      "construction_threads",
                                      "ads_leaf_capacity",
                                      "btp_merge_k",
                                      "num_shards",
                                      "timestamp_policy",
                                      "async_ingest",
                                      "max_inflight_seals",
                                      "backpressure_policy",
                                      "durability"};
const std::set<std::string> kQueryKnobs = {
    "exact",           "window",            "begin",
    "end",             "approx_candidates", "capture_heatmap",
    "heatmap_time_bins", "heatmap_location_bins"};
const std::set<std::string> kReportExtras = {"timestamp", "heatmap",
                                             "batch_size", "degraded"};

VariantSpec EveryKnobSpec() {
  VariantSpec spec;
  spec.family = IndexFamily::kClsm;
  spec.materialized = true;
  spec.mode = StreamMode::kBTP;
  spec.sax = series::SaxConfig{.series_length = 8, .num_segments = 4,
                               .bits_per_segment = 4};
  spec.fill_factor = 0.75;
  spec.growth_factor = 3;
  spec.num_shards = 2;
  spec.timestamp_policy = stream::TimestampPolicy::kStrict;
  spec.async_ingest = true;
  spec.max_inflight_seals = 4;
  spec.backpressure_policy = stream::BackpressurePolicy::kReject;
  spec.durable = true;
  return spec;
}

QueryRequest FullQuery() {
  QueryRequest query;
  query.index = "idx";
  query.query = {1.5f, -2.25f, 0.0f};
  query.exact = false;
  query.window = core::TimeWindow{10, 99};
  query.approx_candidates = 7;
  query.capture_heatmap = true;
  query.heatmap_time_bins = 2;
  query.heatmap_location_bins = 3;
  return query;
}

QueryReport FullReport() {
  QueryReport report;
  report.index = "idx";
  report.found = true;
  report.series_id = 77;
  report.distance = 1.25;
  report.timestamp = -3;
  report.seconds = 0.01;
  report.io.bytes_read = 4096;
  report.counters.leaves_visited = 3;
  report.has_heatmap = true;
  report.access_locality = 0.5;
  report.heatmap.time_bins = 2;
  report.heatmap.location_bins = 2;
  report.heatmap.counts = {1, 0, 2, 4};
  report.heatmap.max_count = 4;
  report.heatmap.total_events = 7;
  report.batch_size = 3;
  report.degraded = true;
  return report;
}

std::vector<WireCase> AllWireStructs() {
  std::vector<WireCase> cases;

  RegisterDatasetRequest reg;
  reg.name = "walk";
  reg.data = testutil::RandomWalkCollection(2, 4, 11);
  reg.timestamps = std::vector<int64_t>{10, -5};
  cases.push_back(
      Case("register_dataset", reg, {"series_length", "timestamps"}));
  cases.push_back(Case("register_dataset response",
                       RegisterDatasetResponse{"walk", 2, 4}));

  BuildIndexRequest build{"idx", "walk", EveryKnobSpec()};
  cases.push_back(Case("build_index", build, kSpecKnobs));
  BuildIndexReport built;
  built.index = "idx";
  built.variant = "CLSM";
  built.dataset = "walk";
  built.io.random_reads = 3;
  cases.push_back(Case("build report", built));

  cases.push_back(Case("create_stream",
                       CreateStreamRequest{"s", EveryKnobSpec()}, kSpecKnobs));
  cases.push_back(
      Case("create_stream response", CreateStreamResponse{"s", "CLSM-BTP"}));

  IngestBatchRequest ingest;
  ingest.stream = "s";
  ingest.batch = testutil::RandomWalkCollection(2, 4, 3);
  ingest.timestamps = {100, 200};
  cases.push_back(Case("ingest_batch", ingest, {"series_length"}));
  IngestBatchReport ingested;
  ingested.stream = "s";
  ingested.ingested = 2;
  ingested.stall_ms_p99 = 1.5;
  cases.push_back(Case("ingest report", ingested));

  cases.push_back(Case("drain_stream", DrainStreamRequest{"s"}));
  DrainStreamReport drained;
  drained.stream = "s";
  drained.drain_seconds = 0.5;
  cases.push_back(Case("drain report", drained));

  cases.push_back(Case("query", FullQuery(), kQueryKnobs));
  cases.push_back(Case("query report", FullReport(), kReportExtras));

  QueryBatchRequest batch;
  batch.queries = {FullQuery(), FullQuery()};
  batch.threads = 2;
  cases.push_back(Case("query_batch", batch,
                       kQueryKnobs + std::set<std::string>{"threads"}));
  QueryBatchResponse batched;
  batched.results.resize(2);
  batched.results[0].ok = true;
  batched.results[0].report = FullReport();
  batched.results[1].error = ApiError::FromStatus(Status::NotFound("b"));
  cases.push_back(Case("query_batch response", batched, kReportExtras));

  RecommendRequest recommend;
  recommend.scenario.streaming = true;
  cases.push_back(Case(
      "recommend", recommend,
      kSaxKnobs + std::set<std::string>{"streaming", "dataset_size", "sax",
                                        "expected_queries", "update_ratio",
                                        "memory_budget_bytes",
                                        "window_queries",
                                        "typical_window_fraction",
                                        "storage_constrained"}));
  RecommendResponse recommended;
  recommended.variant = "CLSM-BTP";
  recommended.rationale = {"streaming data", "memory constrained"};
  cases.push_back(Case("recommend response", recommended,
                       {"growth_factor", "buffer_entries"}));

  ListIndexesResponse list;
  list.indexes = {{"a", "ADS+", false, 1, 10, 4096},
                  {"b", "CLSM-BTP", true, 2, 20, 8192}};
  cases.push_back(Case("list_indexes response", list));

  cases.push_back(Case("drop_index", DropIndexRequest{"idx"}));
  cases.push_back(
      Case("drop_index response", DropIndexResponse{"idx", true, true, 5, 9}));
  cases.push_back(Case("drop_dataset", DropDatasetRequest{"walk"}));
  cases.push_back(
      Case("drop_dataset response", DropDatasetResponse{"walk", true, 2}));

  ServerStatsResponse stats;
  stats.cache_enabled = true;
  stats.cache_negative_enabled = true;
  stats.cache_negative_hits = 2;
  stats.quota_enabled = true;
  stats.shards = {{"127.0.0.1:9001", true, 5, 1, 0}};
  cases.push_back(Case("server_stats response", stats,
                       {"negative_enabled", "negative_hits",
                        "negative_inserts", "shards"}));

  cases.push_back(
      Case("error", ApiError::FromStatus(Status::InvalidArgument("bad"))));
  return cases;
}

/// Calls `visit(object)` for every JSON object in `node`, nested ones and
/// array elements included.
void ForEachObject(JsonValue& node,
                   const std::function<void(JsonValue&)>& visit) {
  if (node.is_object()) {
    visit(node);
    for (JsonValue::Member& m : node.mutable_object()) {
      ForEachObject(m.second, visit);
    }
  } else if (node.is_array() && !node.is_packed_array()) {
    for (JsonValue& element : node.mutable_array()) {
      ForEachObject(element, visit);
    }
  }
}

/// One JSON value of each kind, to stand in for a value of another kind.
std::vector<JsonValue> OneOfEachKind() {
  std::vector<JsonValue> out;
  for (const char* text : {"null", "true", "7", "\"x\"", "[]", "{}"}) {
    out.push_back(JsonParse(text).TakeValue());
  }
  return out;
}

/// The JSON type a value has on the wire (numbers and arrays in any
/// representation count as one type each).
std::string WireKind(const JsonValue& value) {
  if (value.is_number()) return "number";
  if (value.is_array()) return "array";
  if (value.is_object()) return "object";
  if (value.is_string()) return "string";
  if (value.is_bool()) return "bool";
  return "null";
}

/// A message names `key` as a field ("field 'key'", "'key' must ...") or
/// as the context of the nested object the key holds ("spec.sax: ...").
bool NamesKey(const std::string& message, const std::string& key) {
  return message.find("'" + key + "'") != std::string::npos ||
         message.find(key + ":") != std::string::npos;
}

TEST(ApiCodecMutation, EveryStructRoundTripsItsFullFixture) {
  for (const WireCase& c : AllWireStructs()) {
    Result<JsonValue> parsed = JsonParse(c.body);
    ASSERT_TRUE(parsed.ok()) << c.name;
    Result<std::string> back = c.reparse(parsed.value());
    ASSERT_TRUE(back.ok()) << c.name << ": " << back.status().ToString();
    EXPECT_EQ(back.value(), c.body) << c.name;
  }
}

TEST(ApiCodecMutation, DroppedKeysAreOptionalOrNamed) {
  for (const WireCase& c : AllWireStructs()) {
    JsonValue root = JsonParse(c.body).TakeValue();
    ForEachObject(root, [&](JsonValue& object) {
      JsonValue::Object& members = object.mutable_object();
      for (size_t i = 0; i < members.size(); ++i) {
        const JsonValue::Member saved = members[i];
        members.erase(members.begin() + i);
        const Result<std::string> out = c.reparse(root);
        members.insert(members.begin() + i, saved);
        if (c.optional.count(saved.first) != 0) {
          EXPECT_TRUE(out.ok()) << c.name << " without optional '"
                                << saved.first
                                << "': " << out.status().ToString();
          continue;
        }
        ASSERT_FALSE(out.ok()) << c.name << " accepted no '" << saved.first
                               << "'";
        EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
        // "error" tells a query_batch error entry from a report: without
        // it the entry reads as a report that lacks its own keys.
        const bool discriminator =
            c.name == "query_batch response" && saved.first == "error";
        EXPECT_TRUE(discriminator || NamesKey(out.status().message(),
                                              saved.first))
            << c.name << " without '" << saved.first
            << "': " << out.status().ToString();
      }
    });
  }
}

TEST(ApiCodecMutation, WrongJsonTypesAreNamed) {
  const std::vector<JsonValue> kinds = OneOfEachKind();
  for (const WireCase& c : AllWireStructs()) {
    JsonValue root = JsonParse(c.body).TakeValue();
    ForEachObject(root, [&](JsonValue& object) {
      for (JsonValue::Member& member : object.mutable_object()) {
        const JsonValue saved = member.second;
        for (const JsonValue& other : kinds) {
          if (WireKind(other) == WireKind(saved)) continue;
          member.second = other;
          const Result<std::string> out = c.reparse(root);
          member.second = saved;
          ASSERT_FALSE(out.ok()) << c.name << ": '" << member.first
                                 << "' accepted " << other.Dump();
          EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
          EXPECT_TRUE(NamesKey(out.status().message(), member.first))
              << c.name << ": '" << member.first << "' as " << other.Dump()
              << ": " << out.status().ToString();
        }
      }
    });
  }
}

TEST(ApiCodecMutation, UnknownKeysAreRejectedEverywhere) {
  for (const WireCase& c : AllWireStructs()) {
    JsonValue root = JsonParse(c.body).TakeValue();
    ForEachObject(root, [&](JsonValue& object) {
      JsonValue::Object& members = object.mutable_object();
      members.push_back({"zz_unknown", JsonValue::MakeInt(1)});
      const Result<std::string> out = c.reparse(root);
      members.pop_back();
      ASSERT_FALSE(out.ok()) << c.name;
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(out.status().message().find("unknown field 'zz_unknown'"),
                std::string::npos)
          << c.name << ": " << out.status().ToString();
    });
  }
}

TEST(ApiCodecMutation, EveryTruncationFailsToParse) {
  for (const WireCase& c : AllWireStructs()) {
    for (size_t cut = 0; cut < c.body.size(); ++cut) {
      const Result<JsonValue> parsed = JsonParse(c.body.substr(0, cut));
      ASSERT_FALSE(parsed.ok()) << c.name << " cut at " << cut;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace api
}  // namespace palm
}  // namespace coconut
