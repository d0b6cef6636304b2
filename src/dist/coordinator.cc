#include "dist/coordinator.h"

#include <algorithm>

#include "common/json.h"
#include "common/timer.h"
#include "dist/binary_codec.h"

namespace coconut {
namespace palm {
namespace dist {

namespace {

/// Folds one shard's stream counters into the coordinator's report; the
/// members IngestBatchReport and DrainStreamReport share (see
/// StreamStatsFields in api.cc). Counters sum. The stall percentiles take
/// the worst shard's instead: a shard reports percentiles, not its stall
/// samples, so the true cross-shard percentile cannot be computed here.
template <class Report>
void FoldStreamStats(const Report& shard, Report* total) {
  total->total_entries += shard.total_entries;
  total->partitions += shard.partitions;
  total->buffered += shard.buffered;
  total->pending_tasks += shard.pending_tasks;
  total->seals_completed += shard.seals_completed;
  total->merges_completed += shard.merges_completed;
  total->seals_inflight += shard.seals_inflight;
  total->ingest_stalls += shard.ingest_stalls;
  total->ingest_rejects += shard.ingest_rejects;
  total->stall_ms_p50 = std::max(total->stall_ms_p50, shard.stall_ms_p50);
  total->stall_ms_p99 = std::max(total->stall_ms_p99, shard.stall_ms_p99);
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)) {
  shards_.reserve(options_.shards.size());
  for (const ShardEndpoint& endpoint : options_.shards) {
    shards_.push_back(
        std::make_unique<ShardClient>(endpoint, options_.client));
  }
  if (shards_.size() > 1) {
    pool_ = std::make_unique<ThreadPool>(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      strands_.push_back(std::make_unique<SerialExecutor>(pool_.get()));
    }
  }
}

Coordinator::~Coordinator() = default;

Result<std::unique_ptr<Coordinator>> Coordinator::Create(
    CoordinatorOptions options) {
  if (options.shards.empty()) {
    return Status::InvalidArgument(
        "coordinator requires at least one shard endpoint");
  }
  // Connections are lazy (first call), so a coordinator can come up
  // before its shards do.
  return std::unique_ptr<Coordinator>(new Coordinator(std::move(options)));
}

api::ServerStatsResponse Coordinator::ServerStats() const {
  api::ServerStatsResponse response = FrontDoor::ServerStats();
  response.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const ShardClient::Health health = shard->health();
    api::ServerStatsResponse::ShardHealth entry;
    entry.endpoint = shard->endpoint().ToString();
    entry.healthy = health.healthy;
    entry.requests = health.requests;
    entry.failures = health.failures;
    entry.consecutive_failures = health.consecutive_failures;
    response.shards.push_back(std::move(entry));
  }
  return response;
}

std::shared_ptr<Coordinator::DistHandle> Coordinator::PinHandle(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = handles_.find(name);
  if (it == handles_.end() || it->second->building) return nullptr;
  return it->second;
}

Status Coordinator::CheckTopologySpec(const VariantSpec& spec) const {
  if (spec.num_shards != 1 && spec.num_shards != shards_.size()) {
    return Status::InvalidArgument(
        "spec num_shards " + std::to_string(spec.num_shards) +
        " conflicts with the coordinator topology of " +
        std::to_string(shards_.size()) +
        " shard servers (the topology defines the key-range split; use 1 "
        "or match it)");
  }
  return Status::OK();
}

template <class Response>
std::vector<Result<Response>> Coordinator::Scatter(
    const std::string& method,
    const std::vector<std::optional<std::string>>& params, bool idempotent) {
  std::vector<Result<Response>> results(
      shards_.size(),
      Result<Response>(Status::Internal("shard not contacted")));
  // A skipped shard's no-op runs inline rather than waking a worker.
  auto strand_of = [&](size_t s) {
    return strands_.empty() || !params[s].has_value() ? nullptr
                                                       : strands_[s].get();
  };
  RunOnEach(shards_.size(), strand_of, [&](size_t s) {
    if (!params[s].has_value()) return;
    ShardClient& shard = *shards_[s];
    const Result<std::string> body =
        method == "ingest_batch_bin"
            ? shard.CallBinaryIngest(*params[s])
            : shard.Call(method, *params[s], idempotent);
    if (!body.ok()) {
      results[s] = body.status();
      return;
    }
    const Result<JsonValue> json = JsonParse(body.value());
    results[s] = json.ok() ? Response::FromJson(json.value())
                           : Result<Response>(json.status());
    if (results[s].ok()) return;
    results[s] = Status::Internal(
        "shard " + shard.endpoint().ToString() +
        (json.ok() ? " response did not parse: "
                   : " returned malformed JSON: ") +
        results[s].status().message());
  });
  return results;
}

template <class Response>
std::vector<Result<Response>> Coordinator::Scatter(const std::string& method,
                                                   const std::string& params,
                                                   bool idempotent) {
  return Scatter<Response>(
      method, std::vector<std::optional<std::string>>(shards_.size(), params),
      idempotent);
}

// ------------------------------------------------------------- datasets

Result<api::RegisterDatasetResponse> Coordinator::RegisterDataset(
    const api::RegisterDatasetRequest& request) {
  COCONUT_RETURN_NOT_OK(api::ValidateName(request.name, "dataset"));
  COCONUT_RETURN_NOT_OK(api::ValidateDataset(
      request.data,
      request.timestamps.has_value() ? &*request.timestamps : nullptr));
  // Staged RAW (un-normalized): shards z-normalize their slices on their
  // own register_dataset with the same function, so the stored bits match
  // the single-process path. The coordinator z-normalizes a private copy
  // per series only to route, at build time.
  Dataset dataset;
  dataset.data = request.data;
  if (request.timestamps.has_value()) {
    dataset.timestamps = *request.timestamps;
  } else {
    dataset.timestamps.resize(request.data.size());
    for (size_t i = 0; i < request.data.size(); ++i) {
      dataset.timestamps[i] = static_cast<int64_t>(i);
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (datasets_.count(request.name) != 0) {
    return Status::AlreadyExists("dataset '" + request.name +
                                 "' already registered");
  }
  datasets_[request.name] =
      std::make_shared<const Dataset>(std::move(dataset));
  api::RegisterDatasetResponse response;
  response.dataset = request.name;
  response.series = request.data.size();
  response.series_length = request.data.length();
  return response;
}

Result<api::DropDatasetResponse> Coordinator::DropDataset(
    const api::DropDatasetRequest& request) {
  // Datasets are staged at the coordinator only (shard-side copies are
  // dropped right after each build), so this is a local unregister.
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = datasets_.find(request.dataset);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + request.dataset +
                            "' not registered");
  }
  api::DropDatasetResponse response;
  response.dataset = request.dataset;
  response.dropped = true;
  response.series = it->second->data.size();
  datasets_.erase(it);
  return response;
}

// ---------------------------------------------------------- build_index

Result<api::BuildIndexReport> Coordinator::BuildIndex(
    const api::BuildIndexRequest& request) {
  COCONUT_RETURN_NOT_OK(api::ValidateName(request.index, "index"));
  COCONUT_RETURN_NOT_OK(CheckTopologySpec(request.spec));
  const size_t num_shards = shards_.size();
  std::shared_ptr<const Dataset> dataset;
  std::shared_ptr<DistHandle> handle;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = datasets_.find(request.dataset);
    if (it == datasets_.end()) {
      return Status::NotFound("dataset '" + request.dataset +
                              "' not registered");
    }
    if (static_cast<int>(it->second->data.length()) !=
        request.spec.sax.series_length) {
      return Status::InvalidArgument("spec series_length != dataset length");
    }
    dataset = it->second;
    if (handles_.count(request.index) != 0) {
      return Status::AlreadyExists("index '" + request.index +
                                   "' already exists");
    }
    handle = std::make_shared<DistHandle>(num_shards, NextVersion());
    handle->spec = request.spec;
    handle->streaming = false;
    handles_[request.index] = handle;  // reserved: building=true
  }
  auto unregister = [&] {
    std::unique_lock<std::shared_mutex> lock(mu_);
    handles_.erase(request.index);
  };

  WallTimer timer;
  // Route every series by the invSAX key range of its z-normalized form —
  // the same split ShardedIndex uses, so shard s receives exactly the
  // rows the single-process wrapper's inner shard s would, in the same
  // order. Timestamps are sliced explicitly: the shard-side default would
  // number them by LOCAL ordinal, but the global dataset ordinal (or the
  // user's explicit stamps) is the contract.
  std::vector<api::RegisterDatasetRequest> slices;
  slices.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    api::RegisterDatasetRequest slice;
    slice.name = request.dataset;
    slice.data = series::SeriesCollection(dataset->data.length());
    slice.timestamps.emplace();
    slices.push_back(std::move(slice));
  }
  std::vector<float> buf;
  for (size_t i = 0; i < dataset->data.size(); ++i) {
    buf.assign(dataset->data[i].begin(), dataset->data[i].end());
    series::ZNormalize(buf);
    const size_t s = ShardOfSeries(buf, request.spec.sax, num_shards);
    slices[s].data.Append(dataset->data[i]);
    slices[s].timestamps->push_back(dataset->timestamps[i]);
    handle->ids[s].Set(handle->next_local[s]++, i);
  }

  std::vector<std::optional<std::string>> register_params(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    // An empty slice cannot be registered remotely (and an empty inner
    // shard answers every query with not-found anyway): skip the shard.
    handle->has_index[s] = slices[s].data.size() != 0;
    if (handle->has_index[s]) register_params[s] = slices[s].ToJsonString();
  }
  std::vector<Result<api::RegisterDatasetResponse>> registered =
      Scatter<api::RegisterDatasetResponse>("register_dataset", register_params,
                                            /*idempotent=*/false);
  api::DropDatasetRequest drop_dataset;
  drop_dataset.dataset = request.dataset;
  std::vector<std::optional<std::string>> cleanup_dataset(num_shards);
  Status failure = Status::OK();
  for (size_t s = 0; s < num_shards; ++s) {
    if (!register_params[s].has_value()) continue;
    if (registered[s].ok()) {
      cleanup_dataset[s] = drop_dataset.ToJsonString();
    } else if (failure.ok()) {
      failure = registered[s].status();
    }
  }
  // Unwind paths below scatter best-effort cleanups: the primary error is
  // already decided, and a shard that also fails to clean up surfaces on
  // its next use instead.
  if (!failure.ok()) {
    (void)Scatter<api::DropDatasetResponse>("drop_dataset", cleanup_dataset,
                                            /*idempotent=*/false);
    unregister();
    return failure;
  }

  VariantSpec shard_spec = request.spec;
  shard_spec.num_shards = 1;
  api::BuildIndexRequest shard_build;
  shard_build.index = request.index;
  shard_build.dataset = request.dataset;
  shard_build.spec = shard_spec;
  std::vector<std::optional<std::string>> build_params(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    if (handle->has_index[s]) build_params[s] = shard_build.ToJsonString();
  }
  std::vector<Result<api::BuildIndexReport>> built =
      Scatter<api::BuildIndexReport>("build_index", build_params,
                                     /*idempotent=*/false);

  api::BuildIndexReport report;
  report.index = request.index;
  report.variant = VariantName(request.spec);
  report.dataset = request.dataset;
  report.shards = num_shards;
  api::DropIndexRequest drop_index;
  drop_index.index = request.index;
  std::vector<std::optional<std::string>> cleanup_index(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    if (!build_params[s].has_value()) continue;
    if (!built[s].ok()) {
      if (failure.ok()) failure = built[s].status();
      continue;
    }
    cleanup_index[s] = drop_index.ToJsonString();
    const api::BuildIndexReport& shard_report = built[s].value();
    report.entries += shard_report.entries;
    report.index_bytes += shard_report.index_bytes;
    report.total_bytes += shard_report.total_bytes;
    report.io.Add(shard_report.io);
  }
  // The staged copies served their purpose either way: each shard's index
  // owns its data now (or the build is being unwound).
  (void)Scatter<api::DropDatasetResponse>("drop_dataset", cleanup_dataset,
                                          /*idempotent=*/false);
  if (!failure.ok()) {
    (void)Scatter<api::DropIndexResponse>("drop_index", cleanup_index,
                                          /*idempotent=*/false);
    unregister();
    return failure;
  }
  report.build_seconds = timer.ElapsedSeconds();

  InvalidateCachedAnswers(request.index);
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    handle->building = false;
  }
  return report;
}

// -------------------------------------------------------------- streams

Result<api::CreateStreamResponse> Coordinator::CreateStream(
    const api::CreateStreamRequest& request) {
  COCONUT_RETURN_NOT_OK(api::ValidateName(request.stream, "stream"));
  COCONUT_RETURN_NOT_OK(CheckTopologySpec(request.spec));
  const size_t num_shards = shards_.size();
  std::shared_ptr<DistHandle> handle;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (handles_.count(request.stream) != 0) {
      return Status::AlreadyExists("index '" + request.stream +
                                   "' already exists");
    }
    handle = std::make_shared<DistHandle>(num_shards, NextVersion());
    handle->spec = request.spec;
    handle->streaming = true;
    handles_[request.stream] = handle;
  }

  // Each shard runs a complete unsharded streaming stack of the wrapped
  // variant (its own WAL when durable) — the process-boundary twin of
  // ShardedStreamingIndex's per-shard inner indexes. The timestamp policy
  // is forwarded as-is: the coordinator enforces it against the GLOBAL
  // watermark first, and a per-shard subsequence of a globally
  // nondecreasing sequence is nondecreasing, so the shard-local check
  // never fires spuriously (same layering as the single-process wrapper).
  VariantSpec shard_spec = request.spec;
  shard_spec.num_shards = 1;
  api::CreateStreamRequest shard_create;
  shard_create.stream = request.stream;
  shard_create.spec = shard_spec;
  std::vector<Result<api::CreateStreamResponse>> created =
      Scatter<api::CreateStreamResponse>(
          "create_stream", shard_create.ToJsonString(), /*idempotent=*/false);

  api::CreateStreamResponse response;
  response.stream = request.stream;
  Status failure = Status::OK();
  api::DropIndexRequest drop;
  drop.index = request.stream;
  std::vector<std::optional<std::string>> cleanup(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    if (!created[s].ok()) {
      if (failure.ok()) failure = created[s].status();
      continue;
    }
    cleanup[s] = drop.ToJsonString();
    response.variant = created[s].value().variant;
  }
  if (!failure.ok()) {
    (void)Scatter<api::DropIndexResponse>("drop_index", cleanup,
                                          /*idempotent=*/false);
    std::unique_lock<std::shared_mutex> lock(mu_);
    handles_.erase(request.stream);
    return failure;
  }

  InvalidateCachedAnswers(request.stream);
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    handle->building = false;
  }
  return response;
}

Result<api::IngestBatchReport> Coordinator::IngestBatch(
    const api::IngestBatchRequest& request) {
  std::shared_ptr<DistHandle> handle = PinHandle(request.stream);
  if (handle == nullptr || !handle->streaming) {
    return Status::NotFound("stream '" + request.stream + "' not found");
  }
  COCONUT_RETURN_NOT_OK(api::ValidateIngest(
      request.batch, request.timestamps, handle->spec.sax.series_length));
  std::lock_guard<std::mutex> op_lock(handle->op_mutex);
  WallTimer timer;
  const size_t num_shards = shards_.size();

  // Pass 1 — route, in batch order, against the provisional global
  // watermark and id counter. This replicates the single-process sharded
  // semantics exactly: a kStrict regression burns its global id and
  // rejects with the wrapper's message (the already-routed prefix is
  // still shipped, as the single-process path keeps its admitted prefix);
  // kClamp forwards the clamped timestamp. Each routed series' id-map slot
  // is set here, before its sub-batch goes out, so a shard can never
  // return an ordinal whose mapping a concurrent query cannot see. Slots
  // past what a shard ends up admitting are overwritten by the next batch,
  // which starts at that shard's ordinal base again.
  std::vector<api::IngestBatchRequest> sub;
  sub.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    api::IngestBatchRequest one;
    one.stream = request.stream;
    one.batch = series::SeriesCollection(handle->spec.sax.series_length);
    sub.push_back(std::move(one));
  }
  uint64_t next_id = handle->next_series_id;
  int64_t watermark = handle->last_timestamp;
  const stream::TimestampPolicy policy = handle->spec.timestamp_policy;
  Status strict_reject = Status::OK();
  std::vector<float> buf;
  for (size_t i = 0; i < request.batch.size(); ++i) {
    int64_t timestamp = request.timestamps[i];
    strict_reject = stream::ApplyTimestampPolicy(policy, watermark, &timestamp);
    if (!strict_reject.ok()) {
      ++next_id;  // the rejected series burns its id, like the wrapper
      break;
    }
    buf.assign(request.batch[i].begin(), request.batch[i].end());
    series::ZNormalize(buf);
    const size_t s = ShardOfSeries(buf, handle->spec.sax, num_shards);
    handle->ids[s].Set(handle->next_local[s] + sub[s].batch.size(), next_id++);
    sub[s].batch.Append(request.batch[i]);  // RAW — the shard normalizes
    sub[s].timestamps.push_back(timestamp);
    if (policy != stream::TimestampPolicy::kPermissive) {
      watermark = std::max(watermark, timestamp);
    }
  }

  // Pass 2 — scatter. Every shard is contacted, even with an empty
  // sub-batch: the folded report's occupancy fields (total_entries,
  // partitions, ...) are sums of CURRENT per-shard stats, not deltas.
  std::vector<std::optional<std::string>> params(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    params[s] = EncodeIngestFrame(sub[s]);
  }
  std::vector<Result<api::IngestBatchReport>> replies =
      Scatter<api::IngestBatchReport>("ingest_batch_bin", params,
                                      /*idempotent=*/false);

  // Pass 3 — gather. Each shard's ordinal base advances past what that
  // shard consumed, so queries keep translating every series that IS
  // ingested; global ids and the watermark commit regardless (burned ids
  // and a conservative watermark are the sharded contract).
  api::IngestBatchReport report;
  report.stream = request.stream;
  Status failure = Status::OK();
  Status partial = Status::OK();
  uint64_t admitted_total = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const uint64_t sent = sub[s].batch.size();
    if (!replies[s].ok()) {
      // A zero-progress 429 still burned the raw ordinal of the series
      // the shard refused (see below); shard servers carry no quota, so
      // a shard's 429 is always that backpressure refusal.
      if (replies[s].status().code() == StatusCode::kResourceExhausted &&
          sent > 0) {
        ++handle->next_local[s];
      }
      if (failure.ok()) failure = replies[s].status();
      continue;
    }
    const api::IngestBatchReport& shard_report = replies[s].value();
    const uint64_t admitted = std::min<uint64_t>(shard_report.ingested, sent);
    // A shard that stops short took the raw ordinal of the series it
    // refused (Service::IngestBatch appends before its index admits), so
    // that ordinal is consumed too; its slot keeps the refused series' id,
    // which no answer ever cites — as ShardedStreamingIndex::AdmitToShard
    // maps the ordinal of a refused admission.
    handle->next_local[s] += admitted + (admitted < sent ? 1 : 0);
    admitted_total += admitted;
    if (admitted < sent && partial.ok()) {
      // The shard hit reject-mode backpressure mid-sub-batch and reported
      // its admitted prefix truthfully. The coordinator cannot splice a
      // cross-shard "prefix", so it surfaces a structured 429 naming the
      // shard; the rest of the batch IS applied (never un-ingested).
      partial = Status::ResourceExhausted(
          "shard " + shards_[s]->endpoint().ToString() + " admitted " +
          std::to_string(admitted) + " of " + std::to_string(sent) +
          " routed series (backpressure); other shards are fully "
          "applied — drain the stream and re-send the unadmitted series");
    }
    FoldStreamStats(shard_report, &report);
    report.io.Add(shard_report.io);
  }
  handle->next_series_id = next_id;
  handle->last_timestamp = watermark;
  handle->version = NextVersion();

  if (!failure.ok()) {
    if (failure.code() == StatusCode::kUnavailable) {
      return Status::Unavailable(
          failure.message() +
          "; the batch may be partially applied on surviving shards");
    }
    return failure;
  }
  if (!partial.ok()) return partial;
  if (!strict_reject.ok()) return strict_reject;
  report.ingested = admitted_total;
  report.seconds = timer.ElapsedSeconds();
  return report;
}

Result<api::DrainStreamReport> Coordinator::DrainStream(
    const api::DrainStreamRequest& request) {
  std::shared_ptr<DistHandle> handle = PinHandle(request.stream);
  if (handle == nullptr || !handle->streaming) {
    return Status::NotFound("stream '" + request.stream + "' not found");
  }
  std::lock_guard<std::mutex> op_lock(handle->op_mutex);
  WallTimer timer;
  api::DrainStreamRequest shard_drain;
  shard_drain.stream = request.stream;
  std::vector<Result<api::DrainStreamReport>> replies =
      Scatter<api::DrainStreamReport>(
          "drain_stream", shard_drain.ToJsonString(), /*idempotent=*/true);

  // Draining seals buffers and publishes partitions: the shard-side
  // snapshot versions moved, so cached answers stamped before the drain
  // must not be served after it — whether or not every shard drained.
  handle->version = NextVersion();
  api::DrainStreamReport report;
  report.stream = request.stream;
  report.drained = true;
  for (const Result<api::DrainStreamReport>& reply : replies) {
    if (!reply.ok()) {
      if (reply.status().code() == StatusCode::kUnavailable) {
        return Status::Unavailable(
            reply.status().message() +
            "; surviving shards may already be drained");
      }
      return reply.status();
    }
    const api::DrainStreamReport& shard_report = reply.value();
    report.drained = report.drained && shard_report.drained;
    FoldStreamStats(shard_report, &report);
    report.index_bytes += shard_report.index_bytes;
    report.total_bytes += shard_report.total_bytes;
  }
  report.drain_seconds = timer.ElapsedSeconds();
  return report;
}

// -------------------------------------------------------------- queries

Result<api::QueryReport> Coordinator::Gather(
    const api::QueryRequest& request, const DistHandle& handle,
    const std::vector<Result<api::QueryReport>>& answers) const {
  // Every shard has answered. If a drop raced this read, the shards may
  // have answered for a recreated index of the same name, which the pinned
  // handle's id maps do not describe: the read lost the race.
  if (handle.building) {
    return Status::NotFound("index '" + request.index + "' not found");
  }
  api::QueryReport report;
  report.index = request.index;
  report.exact = request.exact;
  api::QueryReport best;
  bool answered = false;
  Status unavailable = Status::OK();
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!handle.has_index[s]) continue;
    if (!answers[s].ok()) {
      // Degraded reads serve the surviving key ranges, marked as such.
      // Any other refusal — validation, not-found — is identical on every
      // shard, so the first one stands in for all.
      if (answers[s].status().code() == StatusCode::kUnavailable &&
          options_.degraded_reads) {
        report.degraded = true;
        if (unavailable.ok()) unavailable = answers[s].status();
        continue;
      }
      return answers[s].status();
    }
    const api::QueryReport& shard_report = answers[s].value();
    answered = true;
    report.counters.Add(shard_report.counters);
    report.io.Add(shard_report.io);
    COCONUT_RETURN_NOT_OK(GatherAnswer<&api::QueryReport::distance>(
        handle.ids[s], shard_report, &best,
        [&] { return "shard " + shards_[s]->endpoint().ToString(); }));
  }
  // With no surviving range left there is nothing to serve.
  if (report.degraded && !answered) return unavailable;
  report.found = best.found;
  if (best.found) {
    report.series_id = best.series_id;
    report.distance = best.distance;
    report.timestamp = best.timestamp;
  }
  return report;
}

Result<api::QueryReport> Coordinator::Query(const api::QueryRequest& request) {
  std::shared_ptr<DistHandle> handle = PinHandle(request.index);
  if (handle == nullptr) {
    return Status::NotFound("index '" + request.index + "' not found");
  }
  COCONUT_RETURN_NOT_OK(
      api::ValidateQuery(request, handle->spec.sax.series_length));
  if (request.capture_heatmap) {
    return Status::NotSupported(
        "heat maps are not captured for sharded indexes yet");
  }
  // No handle lock: the fill bracket proves the scatter saw one version,
  // and a degraded answer is never stamped (it covers a subset of the key
  // space, and the version stays put when the dead shard comes back).
  api::CachedQuery cached(query_cache(), request);
  auto version = [&] { return handle->version.load(); };
  if (std::optional<api::QueryReport> hit =
          cached.Probe([&]() -> std::optional<uint64_t> {
            if (handle->building) return std::nullopt;  // dropped
            return version();
          })) {
    return *std::move(hit);
  }
  return cached.Fill(version, [&]() -> Result<api::QueryReport> {
    WallTimer timer;
    const std::string params = request.ToJsonString();
    std::vector<std::optional<std::string>> per_shard(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (handle->has_index[s]) per_shard[s] = params;
    }
    COCONUT_ASSIGN_OR_RETURN(
        api::QueryReport report,
        Gather(request, *handle,
               Scatter<api::QueryReport>("query", per_shard,
                                         /*idempotent=*/true)));
    report.seconds = timer.ElapsedSeconds();
    return report;
  });
}

api::QueryBatchResponse Coordinator::QueryBatch(
    const api::QueryBatchRequest& request) {
  const size_t num_queries = request.queries.size();
  api::QueryBatchResponse response;
  response.results.resize(num_queries);
  if (num_queries == 0) return response;
  const size_t num_shards = shards_.size();

  // Pin every entry's handle before the scatter, so each entry folds
  // through the id maps of the handle its shards answered for (a drop
  // racing the batch tombstones the pinned handle; see Gather).
  std::vector<std::shared_ptr<DistHandle>> handles(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    handles[i] = PinHandle(request.queries[i].index);
  }
  // One scatter of the WHOLE batch per shard (not one RPC per query):
  // each shard runs its positions through its own batched scan path and
  // answers positionally. Heatmap captures are stripped before
  // forwarding — an unsharded shard would happily capture one, but the
  // distributed answer is NotSupported, decided below.
  api::QueryBatchRequest forwarded = request;
  for (api::QueryRequest& query : forwarded.queries) {
    query.capture_heatmap = false;
  }
  std::vector<Result<api::QueryBatchResponse>> replies =
      Scatter<api::QueryBatchResponse>(
          "query_batch", forwarded.ToJsonString(), /*idempotent=*/true);
  for (size_t s = 0; s < num_shards; ++s) {
    if (replies[s].ok() && replies[s].value().results.size() != num_queries) {
      replies[s] = Status::Internal(
          "shard " + shards_[s]->endpoint().ToString() + " answered " +
          std::to_string(replies[s].value().results.size()) + " of " +
          std::to_string(num_queries) + " batched queries");
    }
  }

  for (size_t i = 0; i < num_queries; ++i) {
    const api::QueryRequest& query = request.queries[i];
    api::QueryBatchResponse::Entry& entry = response.results[i];
    Result<api::QueryReport> folded = [&]() -> Result<api::QueryReport> {
      if (handles[i] == nullptr) {
        return Status::NotFound("index '" + query.index + "' not found");
      }
      if (query.capture_heatmap) {
        return Status::NotSupported(
            "heat maps are not captured for sharded indexes yet");
      }
      std::vector<Result<api::QueryReport>> answers;
      answers.reserve(num_shards);
      for (const Result<api::QueryBatchResponse>& reply : replies) {
        if (!reply.ok()) {
          answers.emplace_back(reply.status());
          continue;
        }
        const api::QueryBatchResponse::Entry& shard_entry =
            reply.value().results[i];
        answers.push_back(shard_entry.ok
                              ? Result<api::QueryReport>(shard_entry.report)
                              : StatusFromApiError(shard_entry.error));
      }
      return Gather(query, *handles[i], answers);
    }();
    entry.ok = folded.ok();
    if (folded.ok()) {
      entry.report = std::move(folded.value());
    } else {
      entry.error = api::ApiError::FromStatus(folded.status());
    }
  }
  return response;
}

// ------------------------------------------------------- misc front door

Result<api::ListIndexesResponse> Coordinator::ListIndexes() {
  std::vector<std::pair<std::string, std::shared_ptr<DistHandle>>> pinned;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    pinned.reserve(handles_.size());
    for (const auto& [name, handle] : handles_) {
      if (handle->building) continue;
      pinned.emplace_back(name, handle);
    }
  }
  std::vector<Result<api::ListIndexesResponse>> replies =
      Scatter<api::ListIndexesResponse>("list_indexes", "{}",
                                        /*idempotent=*/true);
  // name -> (entries, total_bytes) summed across shards.
  std::map<std::string, std::pair<uint64_t, uint64_t>> occupancy;
  for (const Result<api::ListIndexesResponse>& reply : replies) {
    if (!reply.ok()) return reply.status();
    for (const auto& info : reply.value().indexes) {
      occupancy[info.name].first += info.entries;
      occupancy[info.name].second += info.total_bytes;
    }
  }
  api::ListIndexesResponse response;
  response.indexes.reserve(pinned.size());
  for (const auto& [name, handle] : pinned) {
    api::ListIndexesResponse::IndexInfo info;
    info.name = name;
    info.variant = VariantName(handle->spec);
    info.streaming = handle->streaming;
    info.shards = shards_.size();
    const auto it = occupancy.find(name);
    if (it != occupancy.end()) {
      info.entries = it->second.first;
      info.total_bytes = it->second.second;
    }
    response.indexes.push_back(std::move(info));
  }
  return response;
}

Result<api::DropIndexResponse> Coordinator::DropIndex(
    const api::DropIndexRequest& request) {
  std::shared_ptr<DistHandle> handle;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = handles_.find(request.index);
    if (it == handles_.end()) {
      return Status::NotFound("index '" + request.index + "' not found");
    }
    if (it->second->building) {
      return Status::InvalidArgument("index '" + request.index +
                                     "' is still being created");
    }
    handle = it->second;
    handles_.erase(it);
    handle->building = true;  // the tombstone in-flight reads check
  }
  // Wait out in-flight ingest and drain on the handle before tearing the
  // shard-side state down under them; reads hold no handle lock.
  std::lock_guard<std::mutex> op_lock(handle->op_mutex);
  api::DropIndexRequest shard_drop;
  shard_drop.index = request.index;
  std::vector<std::optional<std::string>> params(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (handle->has_index[s]) params[s] = shard_drop.ToJsonString();
  }
  std::vector<Result<api::DropIndexResponse>> replies =
      Scatter<api::DropIndexResponse>("drop_index", params,
                                      /*idempotent=*/false);

  api::DropIndexResponse response;
  response.index = request.index;
  response.dropped = true;
  response.streaming = handle->streaming;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!params[s].has_value()) continue;
    if (!replies[s].ok()) {
      // The name is already unregistered here; a shard that missed the
      // drop frees its replica when it next restarts from a clean root
      // or when the operator re-issues the drop directly.
      if (replies[s].status().code() == StatusCode::kUnavailable) {
        return Status::Unavailable(replies[s].status().message() +
                                   "; the index was dropped on the "
                                   "surviving shards");
      }
      return replies[s].status();
    }
    response.entries += replies[s].value().entries;
    response.reclaimed_bytes += replies[s].value().reclaimed_bytes;
  }
  InvalidateCachedAnswers(request.index);
  return response;
}

}  // namespace dist
}  // namespace palm
}  // namespace coconut
