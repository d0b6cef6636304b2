#ifndef COCONUT_PALM_API_H_
#define COCONUT_PALM_API_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "core/index.h"
#include "core/raw_store.h"
#include "palm/factory.h"
#include "palm/heatmap.h"
#include "palm/recommender.h"
#include "series/series.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/storage_manager.h"
#include "stream/streaming_index.h"
#include "stream/wal.h"

namespace coconut {
namespace palm {

/// One API request as seen by the transport: the /api/v1/<method> suffix,
/// the raw body bytes, the Content-Type the client declared (empty when
/// absent — treated as JSON), and the bearer credential.
struct HttpRequestInfo {
  std::string method;
  std::string body;
  std::string content_type;
  std::string client_token;
};

/// Seam between the HTTP transport and whatever answers API calls: an
/// api::FrontDoor (a Service or a dist::Coordinator) or a forwarder to
/// one. Implementations must be thread-safe: every server worker calls
/// Dispatch concurrently. The returned string is always a JSON response
/// body; failures map to HTTP codes through api::StatusCodeToHttpStatus.
class HttpDispatcher {
 public:
  virtual ~HttpDispatcher() = default;
  virtual Result<std::string> Dispatch(const HttpRequestInfo& request) = 0;
};

namespace api {

/// Wire protocol version, embedded in every error payload so clients can
/// detect incompatible servers. Bumped on breaking changes to the request
/// or response shapes.
inline constexpr int kApiVersion = 1;

// --------------------------------------------------------------- errors

/// Stable snake_case error code for a StatusCode ("not_found", ...). These
/// strings are part of the wire contract; StatusCodeToString stays the
/// human-readable spelling.
const char* StatusCodeToApiCode(StatusCode code);

/// HTTP status the transport maps a failed operation to (400/404/409/...).
int StatusCodeToHttpStatus(StatusCode code);

/// The one error shape every operation can produce:
///   {"error":{"api_version":1,"code":"not_found","message":"..."}}
struct ApiError {
  std::string code;
  std::string message;
  int http_status = 500;

  static ApiError FromStatus(const Status& status);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
  static Result<ApiError> FromJson(const JsonValue& value);
};

/// Wire-supplied index/stream/dataset names become filesystem path
/// components under the service root, so the charset is restricted to
/// [A-Za-z0-9_.-] (max 128 chars; "." and ".." rejected). Returns
/// InvalidArgument naming `what` ("index", "stream", "dataset") on
/// violation.
Status ValidateName(const std::string& name, const char* what);

// ---------------------------------------------------------- wire codec
//
// Every struct below crosses the wire as JSON through FromJson/ToJson. A
// wire field is declared once, in its struct's field list in api.cc
// (`template <class V> void Fields(V& v, T& t)`). The unknown-field check,
// the reader and the writer all walk that one list, so they cannot drift
// apart. Unknown fields are rejected at every depth.
//
// Adding a field is one entry in the list: `v(Req("key"), t.member)` for
// a field every message carries, `v(Opt("key"), t.member)` for one a
// sender may omit. A wire-additive field, one older outputs must not
// carry, is gated: `v(Opt("key").EmitIf(predicate), t.member)` is written
// only while the predicate holds, and is read (and known to the
// unknown-field check) whether or not a peer sends it, so older outputs
// stay byte-identical.

// ------------------------------------------------- shared wire fragments

/// VariantSpec <-> {"family":"ctree","mode":"tp","sax":{...},...}. Every
/// knob of the spec is on the wire except background_pool (a process-local
/// pointer; JSON-created async indexes use the shared background pool).
/// Unknown fields are rejected.
Result<VariantSpec> VariantSpecFromJson(const JsonValue& value);
void VariantSpecToJson(const VariantSpec& spec, JsonWriter* writer);

/// IoStats <-> {"sequential_reads":...,...} (the fragment every report
/// embeds under "io").
void IoStatsToJson(const storage::IoStats& io, JsonWriter* writer);
Result<storage::IoStats> IoStatsFromJson(const JsonValue& value);

/// QueryCounters <-> {"leaves_visited":...,...}.
void QueryCountersToJson(const core::QueryCounters& counters,
                         JsonWriter* writer);
Result<core::QueryCounters> QueryCountersFromJson(const JsonValue& value);

/// HeatMap <-> the HeatMapToJson shape (see heatmap.h).
Result<HeatMap> HeatMapFromJson(const JsonValue& value);

// ------------------------------------------------------------- requests

/// POST /api/v1/register_dataset. Series arrive raw; the service
/// z-normalizes on registration exactly like the in-process path.
struct RegisterDatasetRequest {
  std::string name;
  series::SeriesCollection data{0};
  std::optional<std::vector<int64_t>> timestamps;

  static Result<RegisterDatasetRequest> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

struct RegisterDatasetResponse {
  std::string dataset;
  uint64_t series = 0;
  uint64_t series_length = 0;

  static Result<RegisterDatasetResponse> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// POST /api/v1/build_index.
struct BuildIndexRequest {
  std::string index;
  std::string dataset;
  VariantSpec spec;

  static Result<BuildIndexRequest> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// Build report — its bytes are pinned against the historical wire shape
/// in api_test.cc.
struct BuildIndexReport {
  std::string index;
  std::string variant;
  std::string dataset;
  uint64_t shards = 1;
  uint64_t entries = 0;
  double build_seconds = 0.0;
  uint64_t index_bytes = 0;
  uint64_t total_bytes = 0;
  storage::IoStats io;

  static Result<BuildIndexReport> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// POST /api/v1/create_stream.
struct CreateStreamRequest {
  std::string stream;
  VariantSpec spec;

  static Result<CreateStreamRequest> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

struct CreateStreamResponse {
  std::string stream;
  std::string variant;

  static Result<CreateStreamResponse> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// POST /api/v1/ingest_batch.
struct IngestBatchRequest {
  std::string stream;
  series::SeriesCollection batch{0};
  std::vector<int64_t> timestamps;

  static Result<IngestBatchRequest> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// Ingest report. PR 5 appended the backpressure fields (seals_inflight
/// through stall_ms_p99) to the original shape — a wire-additive change
/// mirrored in the serializer replicas api_test pins.
struct IngestBatchReport {
  std::string stream;
  uint64_t ingested = 0;
  uint64_t total_entries = 0;
  uint64_t partitions = 0;
  uint64_t buffered = 0;
  uint64_t pending_tasks = 0;
  uint64_t seals_completed = 0;
  uint64_t merges_completed = 0;
  /// Backpressure telemetry (summed across shards for sharded streams;
  /// stall percentiles are computed over the pooled per-shard sample
  /// windows).
  uint64_t seals_inflight = 0;
  uint64_t ingest_stalls = 0;
  uint64_t ingest_rejects = 0;
  double stall_ms_p50 = 0.0;
  double stall_ms_p99 = 0.0;
  double seconds = 0.0;
  storage::IoStats io;

  static Result<IngestBatchReport> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// POST /api/v1/drain_stream.
struct DrainStreamRequest {
  std::string stream;

  static Result<DrainStreamRequest> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// Drain report. PR 5 appended the backpressure fields (a wire-additive
/// change, like the ingest report).
struct DrainStreamReport {
  std::string stream;
  bool drained = true;
  double drain_seconds = 0.0;
  uint64_t total_entries = 0;
  uint64_t partitions = 0;
  uint64_t buffered = 0;
  uint64_t pending_tasks = 0;
  uint64_t seals_completed = 0;
  uint64_t merges_completed = 0;
  /// Cumulative backpressure telemetry at drain time (seals_inflight is 0
  /// after a successful drain by construction).
  uint64_t seals_inflight = 0;
  uint64_t ingest_stalls = 0;
  uint64_t ingest_rejects = 0;
  double stall_ms_p50 = 0.0;
  double stall_ms_p99 = 0.0;
  uint64_t index_bytes = 0;
  uint64_t total_bytes = 0;

  static Result<DrainStreamReport> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// POST /api/v1/query — a similarity query as the GUI client would issue
/// it (raw query series; the server z-normalizes).
struct QueryRequest {
  std::string index;
  std::vector<float> query;
  bool exact = true;
  std::optional<core::TimeWindow> window;
  int approx_candidates = 10;
  /// Capture the page-access pattern and embed a heat map in the response.
  bool capture_heatmap = false;
  size_t heatmap_time_bins = 16;
  size_t heatmap_location_bins = 64;

  static Result<QueryRequest> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// Query report — byte-identical to the historical query JSON.
struct QueryReport {
  std::string index;
  bool exact = true;
  bool found = false;
  uint64_t series_id = 0;
  /// Euclidean distance (not squared — the GUI plots this directly).
  double distance = 0.0;
  int64_t timestamp = 0;
  double seconds = 0.0;
  storage::IoStats io;
  core::QueryCounters counters;
  bool has_heatmap = false;
  double access_locality = 0.0;
  HeatMap heatmap;
  /// >1 marks a report produced by a shared batched scan: `seconds` is the
  /// bucket's wall time amortized per query and `io` is the whole bucket's
  /// delta (the scan is shared, so per-query attribution is undefined).
  /// Serialized only when >1 so legacy outputs stay byte-identical.
  uint64_t batch_size = 1;
  /// True when a distributed coordinator answered from the surviving
  /// shards only (degraded reads enabled, >=1 shard unavailable): the
  /// result covers a subset of the key space. Serialized only when true
  /// so legacy outputs stay byte-identical.
  bool degraded = false;

  static Result<QueryReport> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// POST /api/v1/query_batch.
struct QueryBatchRequest {
  std::vector<QueryRequest> queries;
  /// Worker threads (0 = hardware concurrency capped at 8).
  uint64_t threads = 0;

  static Result<QueryBatchRequest> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// Positional results: {"results":[<query report> | {"error":{...}}, ...]}.
struct QueryBatchResponse {
  struct Entry {
    bool ok = false;
    QueryReport report;  // valid when ok
    ApiError error;      // valid when !ok
  };
  std::vector<Entry> results;

  static Result<QueryBatchResponse> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// POST /api/v1/recommend — the Scenario knobs the Palm GUI exposes.
struct RecommendRequest {
  Scenario scenario;

  static Result<RecommendRequest> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// Recommendation — byte-identical to the historical recommend shape:
/// {"variant":...,"spec":{...4 knobs...},"rationale":[...]}.
struct RecommendResponse {
  std::string variant;
  bool materialized = false;
  double fill_factor = 1.0;
  int64_t growth_factor = 4;
  uint64_t buffer_entries = 4096;
  std::vector<std::string> rationale;

  static Result<RecommendResponse> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// POST /api/v1/list_indexes (empty params). Serializes as a top-level
/// JSON array, the legacy ListIndexes shape.
struct ListIndexesResponse {
  struct IndexInfo {
    std::string name;
    std::string variant;
    bool streaming = false;
    uint64_t shards = 1;
    uint64_t entries = 0;
    uint64_t total_bytes = 0;
  };
  std::vector<IndexInfo> indexes;

  static Result<ListIndexesResponse> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// POST /api/v1/drop_index — releases the index's storage directory,
/// buffer pool and raw store. Streaming indexes are drained first.
struct DropIndexRequest {
  std::string index;

  static Result<DropIndexRequest> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

struct DropIndexResponse {
  std::string index;
  bool dropped = false;
  bool streaming = false;
  uint64_t entries = 0;
  /// Bytes the index held on disk at drop time.
  uint64_t reclaimed_bytes = 0;

  static Result<DropIndexResponse> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// POST /api/v1/drop_dataset — forgets a registered dataset. Indexes
/// built from it are unaffected (they own their data).
struct DropDatasetRequest {
  std::string dataset;

  static Result<DropDatasetRequest> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

struct DropDatasetResponse {
  std::string dataset;
  bool dropped = false;
  uint64_t series = 0;

  static Result<DropDatasetResponse> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// POST /api/v1/server_stats (empty params) — the front-door counters on
/// the wire: answer-cache hit/miss/evict occupancy and quota
/// admit/throttle/401 tallies. Serialized as
/// {"cache":{...},"quota":{...}} with `enabled` flags so clients can tell
/// "disabled" from "idle".
struct ServerStatsResponse {
  bool cache_enabled = false;
  uint64_t cache_entries = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_stale_drops = 0;
  uint64_t cache_invalidations = 0;
  /// Negative-result caching (not-found exact answers). The flag rides in
  /// the cache object; the counters are serialized only when the feature
  /// is on so legacy outputs stay byte-identical.
  bool cache_negative_enabled = false;
  uint64_t cache_negative_hits = 0;
  uint64_t cache_negative_inserts = 0;
  bool quota_enabled = false;
  uint64_t quota_admitted = 0;
  uint64_t quota_throttled = 0;
  uint64_t quota_unauthenticated = 0;

  /// Per-shard health as seen by a distributed coordinator. Empty for
  /// plain services; serialized (as "shards":[...]) only when non-empty
  /// so plain server_stats responses stay byte-identical.
  struct ShardHealth {
    std::string endpoint;
    bool healthy = true;
    uint64_t requests = 0;
    uint64_t failures = 0;
    uint64_t consecutive_failures = 0;
  };
  std::vector<ShardHealth> shards;

  static Result<ServerStatsResponse> FromJson(const JsonValue& value);
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;
};

// -------------------------------------------------------- request checks

/// Largest heat-map grid a query may ask for, per axis: BuildHeatMap
/// allocates time_bins * location_bins cells up front.
inline constexpr uint64_t kMaxHeatMapBinsPerAxis = 4096;

/// The request checks every front door runs before touching an index.
/// Each depends only on the request and the target's series length, so a
/// coordinator and a single-process service refuse the same request with
/// the same message.
///
/// Query shape: non-empty, `series_length` long, positive
/// approx_candidates, window begin <= end, heat-map bins in
/// [1, kMaxHeatMapBinsPerAxis] when a capture is asked for.
Status ValidateQuery(const QueryRequest& request, int series_length);
/// One timestamp per series, every series `series_length` long.
Status ValidateIngest(const series::SeriesCollection& batch,
                      const std::vector<int64_t>& timestamps,
                      int series_length);
/// A positive series length and, when given, one timestamp per series.
Status ValidateDataset(const series::SeriesCollection& data,
                       const std::vector<int64_t>* timestamps);

// ------------------------------------------------------------ front door

class QueryCache;          // palm/query_cache.h
struct QueryCacheOptions;  // palm/query_cache.h
class QuotaEnforcer;       // palm/quota.h
struct QuotaOptions;       // palm/quota.h

/// The one front door of a Palm backend — the algorithms server of the
/// paper's Figure 1 as the wire sees it. It owns the front-door policy
/// (the optional answer cache and per-client quotas) and the dispatch
/// path every transport takes:
///
///   quota admission -> ingest_batch_bin frame (by Content-Type) or JSON
///   params parse -> one sorted method table -> typed operation
///
/// The typed operations are the backend: api::Service answers them in
/// process, dist::Coordinator by fanning out to shard servers. Both sit
/// behind this one table, so every front door lists the same methods and
/// refuses a malformed request with the same status and message.
///
/// Thread safety: Dispatch and the typed operations are called
/// concurrently; EnableQueryCache and ConfigureQuotas must run before the
/// front door takes concurrent traffic.
class FrontDoor : public HttpDispatcher {
 public:
  FrontDoor();
  ~FrontDoor() override;  // Out of line: QueryCache/QuotaEnforcer are
                          // incomplete here.

  /// The transport entry (HttpServer plugs in here). Failures carry a
  /// Status the transport maps through ApiError::FromStatus: 401/429
  /// from quota admission, 400 for a malformed body, 404 for an unknown
  /// method (the message lists Methods()).
  Result<std::string> Dispatch(const HttpRequestInfo& request) final;
  /// Runs `method` with a JSON body (empty = "{}") under `client_token`
  /// (empty = anonymous). With no quotas configured the token is ignored.
  Result<std::string> Dispatch(std::string_view method,
                               std::string_view params_json,
                               const std::string& client_token = {});

  /// Every method name Dispatch understands, sorted — including
  /// ingest_batch_bin, whose body is a binary frame (dist/binary_codec.h)
  /// sent with that codec's Content-Type.
  static const std::vector<std::string>& Methods();

  /// Turns the exact LRU answer cache on (off by default — opt in).
  void EnableQueryCache(const QueryCacheOptions& options);
  /// Installs per-client token quotas, enforced before anything else a
  /// request costs.
  void ConfigureQuotas(const QuotaOptions& options);
  /// Cache and quota counters (zeros with `enabled` false when off).
  virtual ServerStatsResponse ServerStats() const;

  /// The recommender — a pure function of the scenario, answered locally
  /// by every front door.
  static RecommendResponse Recommend(const Scenario& scenario);

  // ---- typed operations (wire-shaped requests).

  virtual Result<RegisterDatasetResponse> RegisterDataset(
      const RegisterDatasetRequest& request) = 0;
  virtual Result<BuildIndexReport> BuildIndex(
      const BuildIndexRequest& request) = 0;
  virtual Result<CreateStreamResponse> CreateStream(
      const CreateStreamRequest& request) = 0;
  virtual Result<IngestBatchReport> IngestBatch(
      const IngestBatchRequest& request) = 0;
  virtual Result<DrainStreamReport> DrainStream(
      const DrainStreamRequest& request) = 0;
  virtual Result<QueryReport> Query(const QueryRequest& request) = 0;
  /// Positional results; a failed query fails only its own entry.
  virtual QueryBatchResponse QueryBatch(const QueryBatchRequest& request) = 0;
  virtual Result<ListIndexesResponse> ListIndexes() = 0;
  virtual Result<DropIndexResponse> DropIndex(
      const DropIndexRequest& request) = 0;
  virtual Result<DropDatasetResponse> DropDataset(
      const DropDatasetRequest& request) = 0;

 protected:
  /// Null when the cache is off. Backends probe and fill it through
  /// CachedQuery (query_cache.h) and invalidate a name on every
  /// build/create/drop of it.
  QueryCache* query_cache() const { return query_cache_.get(); }
  /// Drops every cached answer for `index` (no-op with the cache off).
  void InvalidateCachedAnswers(const std::string& index);

 private:
  Result<std::string> Route(std::string_view method, std::string_view body,
                            std::string_view content_type,
                            const std::string& client_token);

  /// Installed once at startup, internally thread-safe afterwards.
  std::unique_ptr<QueryCache> query_cache_;
  std::unique_ptr<QuotaEnforcer> quota_;
};

// -------------------------------------------------------------- service

/// The single-process Palm backend: every operation of the demo's
/// algorithms server, run in this process over local indexes and
/// streams. The HTTP transport (http_server.h) serves it directly, and
/// so does every shard server (palm_shardd) of a distributed deployment.
///
/// Thread safety: operations that mutate the registry (register, build,
/// create, drop) take an exclusive lock for their brief edges; per-index
/// operations (query, ingest, drain, list) hold the registry lock only
/// long enough to pin the handle's shared_ptr, then serialize on the
/// handle's operation mutex with NO registry lock held — so an ingest
/// stalled on backpressure (unbounded, by design) or a long drain never
/// parks registry writers or unrelated indexes. After acquiring the op
/// mutex they re-check the handle's tombstone flag: a concurrent
/// DropIndex marks the handle building, waits out the in-flight op on
/// that same mutex, and tears down only after it drains.
class Service final : public FrontDoor {
 public:
  static Result<std::unique_ptr<Service>> Create(
      const std::string& root_dir, size_t pool_bytes_per_index = 4ull << 20);

  ~Service() override;

  // ---- typed operations (wire-shaped requests).

  Result<RegisterDatasetResponse> RegisterDataset(
      const RegisterDatasetRequest& request) override;
  Result<BuildIndexReport> BuildIndex(
      const BuildIndexRequest& request) override;
  Result<CreateStreamResponse> CreateStream(
      const CreateStreamRequest& request) override;
  Result<IngestBatchReport> IngestBatch(
      const IngestBatchRequest& request) override;
  Result<DrainStreamReport> DrainStream(
      const DrainStreamRequest& request) override;
  Result<QueryReport> Query(const QueryRequest& request) override;
  /// Distinct indexes run in parallel on a small pool (request.threads
  /// workers; 0 = hardware concurrency capped at 8), same-index requests
  /// serialize.
  QueryBatchResponse QueryBatch(const QueryBatchRequest& request) override;
  Result<ListIndexesResponse> ListIndexes() override;
  Result<DropIndexResponse> DropIndex(
      const DropIndexRequest& request) override;
  Result<DropDatasetResponse> DropDataset(
      const DropDatasetRequest& request) override;

  // ---- in-process conveniences (no JSON, no copy of the series data).

  Result<RegisterDatasetResponse> RegisterDataset(
      const std::string& name, const series::SeriesCollection& data,
      const std::vector<int64_t>* timestamps);
  Result<BuildIndexReport> BuildIndex(const std::string& index_name,
                                      const VariantSpec& spec,
                                      const std::string& dataset_name);
  Result<CreateStreamResponse> CreateStream(const std::string& stream_name,
                                            const VariantSpec& spec);
  Result<IngestBatchReport> IngestBatch(
      const std::string& stream_name, const series::SeriesCollection& batch,
      const std::vector<int64_t>& timestamps);
  Result<DrainStreamReport> DrainStream(const std::string& stream_name);
  Result<DropIndexResponse> DropIndex(const std::string& index_name);
  Result<DropDatasetResponse> DropDataset(const std::string& dataset_name);
  /// QueryBatch without the wire shape: one Result per request,
  /// positionally.
  std::vector<Result<QueryReport>> QueryBatch(
      const std::vector<QueryRequest>& requests, size_t threads = 0);

  /// Direct access for examples/benches (nullptr when absent). The
  /// returned pointers are NOT drop-safe: they outlive the internal
  /// handle pin, so the caller must guarantee no concurrent DropIndex on
  /// that name for as long as the pointer is used — these are in-process
  /// conveniences, not part of the concurrent service contract.
  core::DataSeriesIndex* static_index(const std::string& name);
  stream::StreamingIndex* stream_index(const std::string& name);
  storage::StorageManager* index_storage(const std::string& name);

 private:
  struct Dataset {
    series::SeriesCollection data{0};
    std::vector<int64_t> timestamps;
  };

  struct IndexHandle {
    VariantSpec spec;
    std::unique_ptr<storage::StorageManager> storage;
    std::unique_ptr<storage::BufferPool> pool;
    std::unique_ptr<core::RawSeriesStore> raw;
    /// Write-ahead log of an unsharded durable stream (sharded streams
    /// keep one inside each shard instead). Declared before the indexes,
    /// which hold a raw pointer to it: their destructors (draining
    /// background seals that append checkpoints) must run first.
    std::unique_ptr<stream::Wal> wal;
    /// The index, static or streaming: queries, version probes, listings
    /// and drops all read through this one pointer.
    std::unique_ptr<core::IndexReader> reader;
    /// reader->ConcurrentReadsSafe(), fixed when the handle is published
    /// so the lock choice on the query and listing paths never touches an
    /// index a concurrent DropIndex may be tearing down.
    bool lock_free_reads = false;
    uint64_t next_series_id = 0;
    /// True when InitHandleStorage found durable on-disk state to recover
    /// instead of clearing the directory. Failure paths preserve the
    /// directory in that case — a failed recovery must never destroy the
    /// only copy of the log it failed to read.
    bool recovered = false;
    double build_seconds = 0.0;
    storage::IoStats build_io;
    /// True while one thread populates (BuildIndex/CreateStream) or tears
    /// down (DropIndex/TeardownHandle) the handle outside the registry
    /// lock. A building handle only reserves its name: lookups
    /// (FindHandle, ListIndexes) skip it and DropIndex refuses it, so its
    /// fields are touched by the owning thread alone. Atomic because ops
    /// re-read it under op_mutex (no registry lock) after DropIndex may
    /// have tombstoned it under mu_ exclusive; the mutex hand-offs order
    /// the member teardown, the atomic just keeps the flag race-free.
    std::atomic<bool> building{false};
    /// Serializes ingest/drain/query on this index (buffer pool, tracker
    /// and counters are single-threaded per index, as in QueryBatch).
    std::mutex op_mutex;

    bool is_stream() const { return spec.mode != StreamMode::kStatic; }
    /// The reader's ingest side; null for a static index (written only
    /// while it builds) and once the handle is torn down.
    stream::StreamingIndex* stream() const {
      return is_stream() ? static_cast<stream::StreamingIndex*>(reader.get())
                         : nullptr;
    }
  };

  Service(std::string root_dir, size_t pool_bytes);

  /// Registry mutation; caller holds mu_ exclusively. Inserts a
  /// tombstoned (building) handle that only reserves the name — no
  /// filesystem work happens under the lock; the caller follows up with
  /// InitHandleStorage outside it.
  Result<IndexHandle*> ReserveHandle(const std::string& index_name,
                                     const VariantSpec& spec);
  /// Creates the reserved handle's storage manager, buffer pool and raw
  /// store (mkdir + clearing any leftover directory — potentially slow
  /// I/O). No lock held: the tombstoned handle belongs to this thread.
  /// On failure the caller must TeardownHandle.
  Status InitHandleStorage(const std::string& index_name,
                           IndexHandle* handle);
  /// Tears a tombstoned handle down (flushing destructors, directory
  /// remove_all) outside the registry lock, then takes mu_ exclusively to
  /// unregister the name. Caller must have set handle->building under the
  /// exclusive lock (so this thread owns the handle and the name stays
  /// reserved throughout) and must NOT hold mu_. Returns the remove_all
  /// error, if any.
  std::error_code TeardownHandle(const std::string& name,
                                 IndexHandle* handle);
  /// The fallible tail of BuildIndex; on error the caller discards the
  /// handle. Needs no lock: the caller pins the dataset snapshot via its
  /// shared_ptr and the building handle is invisible to other threads.
  Result<BuildIndexReport> BuildIndexOnHandle(const std::string& index_name,
                                              const VariantSpec& spec,
                                              const std::string& dataset_name,
                                              const Dataset& dataset,
                                              IndexHandle* handle);
  /// Registry lookup; caller holds mu_ (shared is enough). The returned
  /// shared_ptr pins the handle so ops can release mu_ and still outlive
  /// a concurrent DropIndex (which waits on op_mutex and leaves the
  /// object alive until every pin drops).
  std::shared_ptr<IndexHandle> FindHandle(const std::string& name) const;

  /// Pin a live (non-building) handle: one brief shared hold of mu_.
  std::shared_ptr<IndexHandle> PinHandle(const std::string& name) const;

  Result<QueryReport> QueryLocked(const QueryRequest& request,
                                  IndexHandle* handle);

  /// The handle's current snapshot-version stamp.
  static uint64_t IndexVersion(const IndexHandle& handle);

  /// IndexVersion for a cache probe made without the op mutex: read inside
  /// an epoch guard, nullopt once the handle is tombstoned.
  static std::optional<uint64_t> ProbeVersion(const IndexHandle& handle);

  /// Runs one QueryBatch group (all requests target the same index name).
  /// Exact static-index requests with matching search options are bucketed
  /// and answered through IndexReader::ExactSearchBatch — one shared
  /// scan through the batched distance kernels; everything else falls back
  /// to the per-request Query path. Writes results[ordinal] for every
  /// ordinal in the group.
  void QueryGroup(const std::vector<QueryRequest>& requests,
                  const std::vector<size_t>& ordinals,
                  std::vector<Result<QueryReport>>* results);
  /// One shared-scan bucket (>= 2 requests, identical window and
  /// approx_candidates, validated, exact, non-heatmap, static index).
  void QueryBatched(const std::vector<QueryRequest>& requests,
                    const std::vector<size_t>& ordinals, IndexHandle* handle,
                    std::vector<Result<QueryReport>>* results);

  std::string root_dir_;
  size_t pool_bytes_;
  /// Guards the two registries. Exclusive: register/drop edges and the
  /// brief reserve/publish edges of build/create. Shared: only the
  /// handle-pinning lookup of ingest/drain/query/list — the per-index
  /// work itself runs under the handle's op_mutex with no registry lock
  /// (handles are shared_ptr-pinned), so neither a long build, a long
  /// drain, nor a backpressure-stalled ingest ever parks the registry.
  mutable std::shared_mutex mu_;
  /// Values are shared_ptr-to-const so an in-flight build can pin its
  /// dataset snapshot and run without the registry lock; DropDataset
  /// erases the entry but the data outlives it for the build.
  std::map<std::string, std::shared_ptr<const Dataset>> datasets_;
  /// shared_ptr so an op can pin a handle across its (registry-lock-free)
  /// work while DropIndex concurrently erases the map entry.
  std::map<std::string, std::shared_ptr<IndexHandle>> indexes_;
};

}  // namespace api
}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_API_H_
