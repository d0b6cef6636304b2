// The one front door shared by api::Service and dist::Coordinator: request
// checks, front-door policy (answer cache, quotas) and the dispatch path
// from a transport request to a typed operation.

#include <algorithm>

#include "dist/binary_codec.h"
#include "palm/api.h"
#include "palm/query_cache.h"
#include "palm/quota.h"
#include "palm/recommender.h"

namespace coconut {
namespace palm {
namespace api {

// -------------------------------------------------------- request checks

Status ValidateQuery(const QueryRequest& request, int series_length) {
  if (request.query.empty()) {
    return Status::InvalidArgument("query vector must not be empty");
  }
  if (static_cast<int>(request.query.size()) != series_length) {
    return Status::InvalidArgument(
        "query length " + std::to_string(request.query.size()) +
        " != index series length " + std::to_string(series_length));
  }
  if (request.approx_candidates <= 0) {
    return Status::InvalidArgument("approx_candidates must be positive");
  }
  if (request.window.has_value() &&
      request.window->begin > request.window->end) {
    // The wire parser rejects this too; re-checked here so the typed
    // in-process path cannot slip an inverted window into a silent empty
    // scan.
    return Status::InvalidArgument(
        "query window begin must be <= end (got begin=" +
        std::to_string(request.window->begin) +
        ", end=" + std::to_string(request.window->end) + ")");
  }
  if (request.capture_heatmap) {
    if (request.heatmap_time_bins == 0 ||
        request.heatmap_location_bins == 0) {
      return Status::InvalidArgument("heatmap bins must be positive");
    }
    if (request.heatmap_time_bins > kMaxHeatMapBinsPerAxis ||
        request.heatmap_location_bins > kMaxHeatMapBinsPerAxis) {
      return Status::InvalidArgument(
          "heatmap bins exceed the maximum of " +
          std::to_string(kMaxHeatMapBinsPerAxis) + " per axis");
    }
  }
  return Status::OK();
}

Status ValidateIngest(const series::SeriesCollection& batch,
                      const std::vector<int64_t>& timestamps,
                      int series_length) {
  if (timestamps.size() != batch.size()) {
    return Status::InvalidArgument("one timestamp per series required");
  }
  if (batch.size() > 0 && static_cast<int>(batch.length()) != series_length) {
    return Status::InvalidArgument(
        "batch series length " + std::to_string(batch.length()) +
        " != stream series length " + std::to_string(series_length));
  }
  return Status::OK();
}

Status ValidateDataset(const series::SeriesCollection& data,
                       const std::vector<int64_t>* timestamps) {
  if (data.length() == 0) {
    return Status::InvalidArgument("dataset series length must be positive");
  }
  if (timestamps != nullptr && timestamps->size() != data.size()) {
    return Status::InvalidArgument("one timestamp per series required");
  }
  return Status::OK();
}

// ----------------------------------------------------------------- policy

FrontDoor::FrontDoor() = default;
FrontDoor::~FrontDoor() = default;

void FrontDoor::EnableQueryCache(const QueryCacheOptions& options) {
  query_cache_ = std::make_unique<QueryCache>(options);
}

void FrontDoor::ConfigureQuotas(const QuotaOptions& options) {
  quota_ = std::make_unique<QuotaEnforcer>(options);
}

void FrontDoor::InvalidateCachedAnswers(const std::string& index) {
  if (query_cache_ != nullptr) query_cache_->InvalidateIndex(index);
}

ServerStatsResponse FrontDoor::ServerStats() const {
  ServerStatsResponse response;
  if (query_cache_ != nullptr) {
    const QueryCacheStats cache = query_cache_->Snapshot();
    response.cache_enabled = true;
    response.cache_entries = cache.entries;
    response.cache_bytes = cache.bytes;
    response.cache_hits = cache.hits;
    response.cache_misses = cache.misses;
    response.cache_inserts = cache.inserts;
    response.cache_evictions = cache.evictions;
    response.cache_stale_drops = cache.stale_drops;
    response.cache_invalidations = cache.invalidations;
    response.cache_negative_enabled = query_cache_->negative_caching_enabled();
    response.cache_negative_hits = cache.negative_hits;
    response.cache_negative_inserts = cache.negative_inserts;
  }
  if (quota_ != nullptr) {
    const QuotaStats quota = quota_->Snapshot();
    response.quota_enabled = true;
    response.quota_admitted = quota.admitted;
    response.quota_throttled = quota.throttled;
    response.quota_unauthenticated = quota.unauthenticated;
  }
  return response;
}

RecommendResponse FrontDoor::Recommend(const Scenario& scenario) {
  Recommendation rec = palm::Recommend(scenario);
  RecommendResponse response;
  response.variant = rec.variant_name();
  response.materialized = rec.spec.materialized;
  response.fill_factor = rec.spec.fill_factor;
  response.growth_factor = rec.spec.growth_factor;
  response.buffer_entries = rec.spec.buffer_entries;
  response.rationale = std::move(rec.rationale);
  return response;
}

// --------------------------------------------------------------- dispatch

namespace {

constexpr std::string_view kBinaryIngestMethod = "ingest_batch_bin";

/// The common parse -> typed call -> serialize shape of a method.
template <typename Request, typename Response>
Result<std::string> RunTyped(FrontDoor* backend, const JsonValue& params,
                             Result<Response> (FrontDoor::*op)(
                                 const Request&)) {
  COCONUT_ASSIGN_OR_RETURN(const Request request, Request::FromJson(params));
  COCONUT_ASSIGN_OR_RETURN(const Response response, (backend->*op)(request));
  return response.ToJsonString();
}

Status NoParams(const JsonValue& params, std::string_view method) {
  if (!params.is_object() || !params.object().empty()) {
    return Status::InvalidArgument(std::string(method) +
                                   " takes no parameters");
  }
  return Status::OK();
}

struct MethodEntry {
  std::string_view name;
  /// Null only for ingest_batch_bin, whose body is a binary frame decoded
  /// before the JSON parse.
  Result<std::string> (*json)(FrontDoor* backend, const JsonValue& params);
};

/// The single method registry: Dispatch routes through it, Methods() and
/// the unknown-method message project its names. Sorted by name.
constexpr MethodEntry kMethodTable[] = {
    {"build_index",
     [](FrontDoor* b, const JsonValue& p) {
       return RunTyped(b, p, &FrontDoor::BuildIndex);
     }},
    {"create_stream",
     [](FrontDoor* b, const JsonValue& p) {
       return RunTyped(b, p, &FrontDoor::CreateStream);
     }},
    {"drain_stream",
     [](FrontDoor* b, const JsonValue& p) {
       return RunTyped(b, p, &FrontDoor::DrainStream);
     }},
    {"drop_dataset",
     [](FrontDoor* b, const JsonValue& p) {
       return RunTyped(b, p, &FrontDoor::DropDataset);
     }},
    {"drop_index",
     [](FrontDoor* b, const JsonValue& p) {
       return RunTyped(b, p, &FrontDoor::DropIndex);
     }},
    {"ingest_batch",
     [](FrontDoor* b, const JsonValue& p) {
       return RunTyped(b, p, &FrontDoor::IngestBatch);
     }},
    {kBinaryIngestMethod, nullptr},
    {"list_indexes",
     [](FrontDoor* b, const JsonValue& p) -> Result<std::string> {
       COCONUT_RETURN_NOT_OK(NoParams(p, "list_indexes"));
       COCONUT_ASSIGN_OR_RETURN(const ListIndexesResponse out,
                                b->ListIndexes());
       return out.ToJsonString();
     }},
    {"query",
     [](FrontDoor* b, const JsonValue& p) {
       return RunTyped(b, p, &FrontDoor::Query);
     }},
    {"query_batch",
     [](FrontDoor* b, const JsonValue& p) -> Result<std::string> {
       COCONUT_ASSIGN_OR_RETURN(const QueryBatchRequest request,
                                QueryBatchRequest::FromJson(p));
       return b->QueryBatch(request).ToJsonString();
     }},
    {"recommend",
     [](FrontDoor*, const JsonValue& p) -> Result<std::string> {
       COCONUT_ASSIGN_OR_RETURN(const RecommendRequest request,
                                RecommendRequest::FromJson(p));
       return FrontDoor::Recommend(request.scenario).ToJsonString();
     }},
    {"register_dataset",
     [](FrontDoor* b, const JsonValue& p) {
       return RunTyped(b, p, &FrontDoor::RegisterDataset);
     }},
    {"server_stats",
     [](FrontDoor* b, const JsonValue& p) -> Result<std::string> {
       COCONUT_RETURN_NOT_OK(NoParams(p, "server_stats"));
       return b->ServerStats().ToJsonString();
     }},
};

static_assert(std::is_sorted(std::begin(kMethodTable), std::end(kMethodTable),
                             [](const MethodEntry& a, const MethodEntry& b) {
                               return a.name < b.name;
                             }),
              "kMethodTable must stay sorted by name");

}  // namespace

const std::vector<std::string>& FrontDoor::Methods() {
  static const std::vector<std::string> kMethods = [] {
    std::vector<std::string> names;
    for (const MethodEntry& entry : kMethodTable) {
      names.emplace_back(entry.name);
    }
    return names;
  }();
  return kMethods;
}

Result<std::string> FrontDoor::Dispatch(const HttpRequestInfo& request) {
  return Route(request.method, request.body, request.content_type,
               request.client_token);
}

Result<std::string> FrontDoor::Dispatch(std::string_view method,
                                        std::string_view params_json,
                                        const std::string& client_token) {
  return Route(method, params_json, {}, client_token);
}

Result<std::string> FrontDoor::Route(std::string_view method,
                                     std::string_view body,
                                     std::string_view content_type,
                                     const std::string& client_token) {
  // Admission first: a throttled client pays for nothing past the token
  // bucket — not even the body decode.
  if (quota_ != nullptr) {
    COCONUT_RETURN_NOT_OK(quota_->Admit(client_token));
  }
  if (method == kBinaryIngestMethod) {
    // Negotiation is explicit: the frame is never guessed from the bytes.
    if (content_type != dist::kBinaryIngestContentType) {
      return Status::InvalidArgument(
          "ingest_batch_bin requires Content-Type " +
          std::string(dist::kBinaryIngestContentType) + " (got '" +
          std::string(content_type) + "')");
    }
    COCONUT_ASSIGN_OR_RETURN(const IngestBatchRequest request,
                             dist::DecodeIngestFrame(body));
    COCONUT_ASSIGN_OR_RETURN(const IngestBatchReport report,
                             IngestBatch(request));
    return report.ToJsonString();
  }
  // Every other method's body is JSON whatever Content-Type it declares
  // (curl -d sends application/x-www-form-urlencoded).
  COCONUT_ASSIGN_OR_RETURN(
      const JsonValue params,
      JsonParse(body.empty() ? std::string_view("{}") : body));
  for (const MethodEntry& entry : kMethodTable) {
    if (entry.name == method && entry.json != nullptr) {
      return entry.json(this, params);
    }
  }
  std::string known;
  for (const MethodEntry& entry : kMethodTable) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  return Status::NotFound("unknown method '" + std::string(method) +
                          "' (known methods: " + known + ")");
}

}  // namespace api
}  // namespace palm
}  // namespace coconut
