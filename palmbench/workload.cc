#include "workload.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <thread>

#include "common/json.h"
#include "common/rng.h"
#include "series/distance.h"
#include "workload/astronomy.h"
#include "workload/seismic.h"

namespace palmbench {

namespace api = coconut::palm::api;
namespace dist = coconut::palm::dist;
namespace palm = coconut::palm;
using coconut::Result;
using coconut::Rng;
using coconut::Status;
using coconut::series::SeriesCollection;

namespace {

/// A window wide enough that no real timestamp reaches it; used to split
/// a serialized query around its window.
constexpr int64_t kBeginSentinel = 7777777777771;
constexpr int64_t kEndSentinel = 7777777777772;

SeriesCollection Normalized(const SeriesCollection& raw) {
  SeriesCollection out(raw.length());
  out.Reserve(raw.size());
  std::vector<float> buf;
  for (size_t i = 0; i < raw.size(); ++i) {
    buf.assign(raw[i].begin(), raw[i].end());
    coconut::series::ZNormalize(buf);
    out.Append(buf);
  }
  return out;
}

std::vector<float> WithNoise(std::vector<float> values, double sigma,
                             Rng* rng) {
  for (float& v : values) v += static_cast<float>(sigma * rng->NextGaussian());
  coconut::series::ZNormalize(values);
  return values;
}

coconut::series::SaxConfig Sax(size_t length) {
  return coconut::series::SaxConfig{.series_length = static_cast<int>(length),
                                    .num_segments = 16,
                                    .bits_per_segment = 8};
}

palm::VariantSpec StreamSpec(size_t length) {
  palm::VariantSpec spec;
  spec.sax = Sax(length);
  spec.family = palm::IndexFamily::kClsm;
  spec.mode = palm::StreamMode::kBTP;
  spec.async_ingest = true;
  spec.durable = true;
  return spec;
}

std::string Window(int64_t begin, int64_t end) {
  return "{\"begin\":" + std::to_string(begin) +
         ",\"end\":" + std::to_string(end) + "}";
}

}  // namespace

// Open-loop rates of one workload stand in golden-ratio relations to each
// other (no pair is close to a ratio of small integers), which keeps the
// three arrival clocks incommensurate — see Workload::Generate.
bool ConfigFor(const std::string& name, bool tiny, Config* config) {
  Config c;
  c.name = name;
  if (name == "astro_explore") {
    c.kind = Kind::kAstro;
    c.archive_series = tiny ? 4000 : 25000;
    c.batch_series = 64;
    c.exact_rps = 10.0;
    c.approx_rps = 61.8;  // 10 x 6.18
    c.ingest_bps = 16.2;  // 10 x 1.618
    c.approx_reask = 0.5;
    c.tail[static_cast<int>(Op::kApprox)] = 0.98;
    c.closed_cap_rps = 800.0;
    c.exact_checks = tiny ? 0 : 48;
  } else if (name == "seismic_stream") {
    c.kind = Kind::kSeismic;
    c.batch_series = 64;
    c.history_batches = tiny ? 16 : 256;
    c.window_series = tiny ? 512 : 4096;
    c.exact_rps = 12.0;
    c.approx_rps = 9.7;    // 12 x 0.809
    c.ingest_bps = 14.8;   // 12 x 1.236
    c.approx_reask = 0.0;
    c.closed_cap_rps = 1500.0;
  } else {
    return false;
  }
  *config = c;
  return true;
}

void CheckReport::Fail(const std::string& what) {
  if (mismatches++ == 0) first_mismatch = what;
}

// ------------------------------------------------------------- system

Result<api::IngestBatchReport> System::Ingest(
    const api::IngestBatchRequest& request) {
  return coordinator ? coordinator->IngestBatch(request)
                     : service->IngestBatch(request);
}

Result<api::DrainStreamReport> System::Drain(const std::string& stream) {
  api::DrainStreamRequest request;
  request.stream = stream;
  return coordinator ? coordinator->DrainStream(request)
                     : service->DrainStream(request);
}

Result<api::QueryReport> System::Query(const api::QueryRequest& request) {
  return coordinator ? coordinator->Query(request) : service->Query(request);
}

api::ServerStatsResponse System::Stats() const {
  return coordinator ? coordinator->ServerStats() : service->ServerStats();
}

void System::Shutdown() {
  if (server) server->Stop();
  server.reset();
  coordinator.reset();
  for (auto& shard : shards) {
    shard->server->Stop();
    shard->server.reset();
    shard->endpoint.reset();
    shard->service.reset();
  }
  shards.clear();
  service.reset();
  if (!root.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    root.clear();
  }
}

// ----------------------------------------------------------- workload

Workload::Workload(Config config, uint64_t seed, std::string workdir)
    : config_(std::move(config)),
      seed_(seed),
      workdir_(std::move(workdir)),
      connections_(std::clamp<size_t>(std::thread::hardware_concurrency(), 1,
                                       4)) {}

std::string Workload::QueryTarget() const {
  return config_.kind == Kind::kAstro ? kArchive : kStream;
}

void Workload::AddQuery(std::vector<float> values, bool exact) {
  Query q;
  q.exact = exact;
  q.values = std::move(values);
  api::QueryRequest request;
  request.index = QueryTarget();
  request.query = q.values;
  request.exact = exact;
  if (config_.window_series > 0) {
    request.window = coconut::core::TimeWindow{kBeginSentinel, kEndSentinel};
    const std::string full = request.ToJsonString();
    const std::string window = Window(kBeginSentinel, kEndSentinel);
    const size_t at = full.find(window);
    q.body = full.substr(0, at);
    q.body_suffix = full.substr(at + window.size());
  } else {
    q.body = request.ToJsonString();
  }
  queries_.push_back(std::move(q));
}

void Workload::Generate(double open_s, double closed_s, size_t trace_batches) {
  Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + 17);
  const size_t length = config_.series_length;
  const size_t open_batches =
      static_cast<size_t>(std::ceil(config_.ingest_bps * open_s));
  const size_t unique_blocks =
      config_.history_batches + open_batches + trace_batches;

  // ---- series: the archive (astro) and the stream blocks.
  std::function<std::vector<float>()> fresh_query;
  if (config_.kind == Kind::kAstro) {
    coconut::workload::AstronomyGenerator::Options options;
    options.series_length = length;
    options.seed = seed_ * 31 + 1;
    coconut::workload::AstronomyGenerator archive_gen(options);
    archive_ = archive_gen.Generate(config_.archive_series);
    archive_norm_ = Normalized(archive_);
    options.seed = seed_ * 31 + 2;
    coconut::workload::AstronomyGenerator feed_gen(options);
    blocks_ = feed_gen.Generate(unique_blocks * config_.batch_series);
    // Exact and fresh approximate queries: a noisy pattern template (the
    // Scenario 1 "find me supernovae") or a noisy copy of an archived
    // curve ("find curves like this one").
    fresh_query = [this, archive_gen, &rng]() {
      if (rng.NextDouble() < 0.5) {
        const size_t base = rng.NextBounded(archive_.size());
        return WithNoise({archive_[base].begin(), archive_[base].end()}, 0.5,
                         &rng);
      }
      const auto c = static_cast<coconut::workload::AstronomyClass>(
          1 + rng.NextBounded(3));
      return WithNoise(archive_gen.PatternTemplate(c, rng.NextUint64()), 0.3,
                       &rng);
    };
  } else {
    coconut::workload::SeismicGenerator::Options options;
    options.series_length = length;
    options.batch_size = config_.batch_series;
    options.seed = seed_ * 31 + 3;
    coconut::workload::SeismicGenerator gen(options);
    blocks_ = SeriesCollection(length);
    blocks_.Reserve(unique_blocks * config_.batch_series);
    for (size_t b = 0; b < unique_blocks; ++b) {
      const coconut::workload::SeismicBatch batch = gen.NextBatch();
      for (size_t i = 0; i < batch.series.size(); ++i) {
        blocks_.Append(batch.series[i]);
      }
    }
    // An earthquake signature with fresh parameters, plus sensor noise.
    fresh_query = [gen, &rng]() {
      return WithNoise(gen.EarthquakeTemplate(rng.NextUint64()), 0.3, &rng);
    };
  }
  blocks_norm_ = Normalized(blocks_);
  block_prefix_.clear();

  // ---- traffic: two warm-up queries, the open-loop schedule, the
  // closed-loop list.
  queries_.clear();
  AddQuery(fresh_query(), true);
  AddQuery(fresh_query(), false);
  std::vector<size_t> asked;  // approximate queries asked so far
  auto next_query = [&](Op op) {
    if (op == Op::kApprox && !asked.empty() &&
        rng.NextDouble() < config_.approx_reask) {
      // Skewed re-ask: earlier (popular) questions come back more often.
      const double u = rng.NextDouble();
      return asked[static_cast<size_t>(u * u *
                                       static_cast<double>(asked.size()))];
    }
    AddQuery(fresh_query(), op == Op::kExact);
    if (op == Op::kApprox) asked.push_back(queries_.size() - 1);
    return queries_.size() - 1;
  };

  batches_.clear();
  auto add_batch = [&](size_t source) {
    Batch batch;
    batch.source = source;
    batch.first_ts =
        static_cast<int64_t>(batches_.size() * config_.batch_series);
    batches_.push_back(batch);
    return batches_.size() - 1;
  };
  for (size_t b = 0; b < config_.history_batches; ++b) add_batch(b);

  // Open loop: each operation type arrives on its own fixed clock with a
  // seeded phase, and the three streams are merged in due order. The
  // rates (ConfigFor) are pairwise incommensurate, so within one run
  // every relative phase between two types occurs about equally often:
  // how often an approximate query lands behind an exact one, or a query
  // behind an ingest, averages out instead of being fixed by the seed's
  // phases. (Poisson arrivals would average it out too, but their bursts
  // queue requests behind the client's few connections and make the
  // tails swing from seed to seed.)
  struct Arrival {
    double due;
    Op op;
  };
  std::vector<Arrival> arrivals;
  const std::pair<Op, double> rates[] = {{Op::kExact, config_.exact_rps},
                                         {Op::kApprox, config_.approx_rps},
                                         {Op::kIngest, config_.ingest_bps}};
  for (const auto& [op, rate] : rates) {
    const double phase = rng.NextDouble();
    const size_t count = op == Op::kIngest
                             ? open_batches
                             : static_cast<size_t>(std::ceil(rate * open_s));
    for (size_t i = 0; i < count; ++i) {
      const double due = (static_cast<double>(i) + phase) / rate;
      if (due < open_s) arrivals.push_back({due, op});
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due < b.due;
                   });
  open_mix_.clear();
  open_due_.clear();
  size_t next_block = config_.history_batches;
  for (const Arrival& a : arrivals) {
    Request r{a.op, 0};
    r.item = a.op == Op::kIngest ? add_batch(next_block++) : next_query(a.op);
    open_mix_.push_back(r);
    open_due_.push_back(a.due);
  }
  const size_t first_open_block = config_.history_batches;
  const size_t open_blocks = next_block - first_open_block;

  // Closed loop: the same mix, interleaved by smooth weighted round robin
  // so every prefix of the list holds each type in its exact share (a
  // random draw would let the exact share of the completed prefix, and
  // with it capacity_rps, wander from seed to seed). Ingests recycle the
  // open-loop blocks under fresh timestamps (the index sees new series at
  // new times; the bodies need not all be held in memory).
  closed_mix_.clear();
  const size_t closed_count =
      static_cast<size_t>(config_.closed_cap_rps * closed_s);
  double credit[kNumOps] = {0.0, 0.0, 0.0};
  size_t recycled = 0;
  for (size_t i = 0; i < closed_count; ++i) {
    Op op = Op::kExact;
    for (const auto& [rate_op, rate] : rates) {
      credit[static_cast<int>(rate_op)] += rate;
      if (credit[static_cast<int>(rate_op)] > credit[static_cast<int>(op)]) {
        op = rate_op;
      }
    }
    credit[static_cast<int>(op)] -=
        config_.exact_rps + config_.approx_rps + config_.ingest_bps;
    Request r{op, 0};
    if (op == Op::kIngest) {
      if (open_blocks == 0) continue;
      r.item = add_batch(first_open_block + recycled++ % open_blocks);
    } else {
      r.item = next_query(op);
    }
    closed_mix_.push_back(r);
  }
  // Trace replay batches (fresh blocks, stamped after everything else).
  trace_batch_begin_ = batches_.size();
  for (size_t b = 0; b < trace_batches; ++b) add_batch(next_block++);

  ts_row_.assign(batches_.size() * config_.batch_series, 0);
  for (const Batch& batch : batches_) {
    for (size_t i = 0; i < config_.batch_series; ++i) {
      ts_row_[static_cast<size_t>(batch.first_ts) + i] =
          static_cast<uint32_t>(batch.source * config_.batch_series + i);
    }
  }
  ResetAcks();
}

void Workload::PrepareIngestBodies() {
  block_prefix_.clear();
  const size_t blocks = blocks_.size() / config_.batch_series;
  for (size_t b = 0; b < blocks; ++b) {
    api::IngestBatchRequest request;
    request.stream = kStream;
    request.batch = SeriesCollection(config_.series_length);
    for (size_t i = 0; i < config_.batch_series; ++i) {
      request.batch.Append(blocks_[b * config_.batch_series + i]);
    }
    std::string body = request.ToJsonString();  // "timestamps":[] last
    body.resize(body.size() - 2);               // strip "]}"
    block_prefix_.push_back(std::move(body));
  }
}

Schedule Workload::OpenLoopSchedule() const {
  Schedule schedule;
  schedule.requests = open_mix_;
  schedule.due_s = open_due_;
  return schedule;
}

void Workload::ResetAcks() {
  std::lock_guard<std::mutex> lock(ack_mu_);
  acked_.assign(batches_.size(), 0);
  acked_prefix_ = 0;
  acked_series_ = 0;
  acked_end_.store(-1);
}

void Workload::MarkAcked(size_t batch) {
  std::lock_guard<std::mutex> lock(ack_mu_);
  if (acked_[batch] != 0) return;
  acked_[batch] = 1;
  acked_series_ += config_.batch_series;
  while (acked_prefix_ < acked_.size() && acked_[acked_prefix_] != 0) {
    ++acked_prefix_;
  }
  if (acked_prefix_ > 0) {
    const Batch& last = batches_[acked_prefix_ - 1];
    acked_end_.store(last.first_ts +
                     static_cast<int64_t>(config_.batch_series) - 1);
  }
}

int64_t Workload::AckedEnd() const { return acked_end_.load(); }

uint64_t Workload::AckedSeries() const {
  std::lock_guard<std::mutex> lock(ack_mu_);
  return acked_series_;
}

double Workload::UserBytes() const {
  const double series =
      static_cast<double>(archive_.size()) + static_cast<double>(AckedSeries());
  return series * static_cast<double>(config_.series_length) * 4.0;
}

std::string Workload::BatchBody(const Batch& batch) const {
  std::string body = block_prefix_[batch.source];
  body.reserve(body.size() + config_.batch_series * 12 + 2);
  for (size_t i = 0; i < config_.batch_series; ++i) {
    if (i > 0) body += ',';
    body += std::to_string(batch.first_ts + static_cast<int64_t>(i));
  }
  body += "]}";
  return body;
}

api::QueryRequest Workload::TypedQuery(size_t item, int64_t window_end) const {
  api::QueryRequest request;
  request.index = QueryTarget();
  request.query = queries_[item].values;
  request.exact = queries_[item].exact;
  if (config_.window_series > 0) {
    request.window = coconut::core::TimeWindow{
        std::max<int64_t>(0, window_end - config_.window_series + 1),
        window_end};
  }
  return request;
}

api::IngestBatchRequest Workload::TypedBatch(size_t item) const {
  const Batch& batch = batches_[item];
  api::IngestBatchRequest request;
  request.stream = kStream;
  request.batch = SeriesCollection(config_.series_length);
  for (size_t i = 0; i < config_.batch_series; ++i) {
    request.batch.Append(blocks_[batch.source * config_.batch_series + i]);
    request.timestamps.push_back(batch.first_ts + static_cast<int64_t>(i));
  }
  return request;
}

const SeriesCollection& Workload::sample_series() const {
  return config_.kind == Kind::kAstro ? archive_norm_ : blocks_norm_;
}

Result<std::unique_ptr<System>> Workload::StartSystem(const std::string& tag,
                                                      bool cache,
                                                      size_t shards) {
  auto system = std::make_unique<System>();
  system->root = workdir_ + "/" + tag;
  std::filesystem::remove_all(system->root);
  std::filesystem::create_directories(system->root);
  palm::HttpServerOptions server_options;
  server_options.port = 0;
  // Each worker holds one keep-alive connection: keep more workers than
  // load connections so a closing connection never queues a new one.
  server_options.threads = 2 * connections_;
  if (shards > 0) {
    dist::CoordinatorOptions options;
    for (size_t s = 0; s < shards; ++s) {
      auto shard = std::make_unique<System::Shard>();
      const std::string shard_root =
          system->root + "/shard" + std::to_string(s);
      std::filesystem::create_directories(shard_root);
      COCONUT_ASSIGN_OR_RETURN(shard->service,
                               api::Service::Create(shard_root));
      shard->endpoint =
          std::make_unique<dist::ServiceEndpoint>(shard->service.get());
      COCONUT_ASSIGN_OR_RETURN(
          shard->server,
          palm::HttpServer::Start(shard->endpoint.get(), server_options));
      options.shards.push_back(
          dist::ShardEndpoint{"127.0.0.1", shard->server->port()});
      system->shards.push_back(std::move(shard));
    }
    COCONUT_ASSIGN_OR_RETURN(system->coordinator,
                             dist::Coordinator::Create(std::move(options)));
    if (cache) system->coordinator->EnableQueryCache({});
    COCONUT_ASSIGN_OR_RETURN(
        system->server,
        palm::HttpServer::Start(system->coordinator.get(), server_options));
  } else {
    COCONUT_ASSIGN_OR_RETURN(system->service,
                             api::Service::Create(system->root));
    if (cache) system->service->EnableQueryCache({});
    COCONUT_ASSIGN_OR_RETURN(
        system->server,
        palm::HttpServer::Start(system->service.get(), server_options));
  }

  ResetAcks();
  api::CreateStreamRequest create;
  create.stream = kStream;
  create.spec = StreamSpec(config_.series_length);
  if (config_.kind == Kind::kAstro) {
    COCONUT_RETURN_NOT_OK(
        system->service->RegisterDataset(kArchive, archive_, nullptr)
            .status());
    palm::VariantSpec spec;
    spec.sax = Sax(config_.series_length);
    const Clock::time_point t0 = Clock::now();
    COCONUT_RETURN_NOT_OK(
        system->service->BuildIndex(kArchive, spec, kArchive).status());
    system->build_s = SecondsSince(t0);
    // The index owns its copy; the staged dataset is no longer needed.
    COCONUT_RETURN_NOT_OK(system->service->DropDataset(kArchive).status());
    COCONUT_RETURN_NOT_OK(system->service->CreateStream(create).status());
  } else {
    // The stream's construction cost: create it and load its history.
    const Clock::time_point t0 = Clock::now();
    COCONUT_RETURN_NOT_OK(
        (system->coordinator ? system->coordinator->CreateStream(create)
                             : system->service->CreateStream(create))
            .status());
    for (size_t b = 0; b < config_.history_batches; ++b) {
      COCONUT_RETURN_NOT_OK(system->Ingest(TypedBatch(b)).status());
      MarkAcked(b);
    }
    COCONUT_RETURN_NOT_OK(system->Drain(kStream).status());
    system->build_s = SecondsSince(t0);
  }

  // Warm-up over the wire: one exact and one approximate query.
  {
    palm::BlockingHttpClient client("127.0.0.1", system->port());
    for (size_t q = 0; q < 2; ++q) {
      Outcome outcome;
      Send(&client, Request{q == 0 ? Op::kExact : Op::kApprox, q}, &outcome);
      if (!outcome.ok) {
        return Status::Internal("warm-up query failed: " + outcome.response);
      }
    }
  }
  return system;
}

void Workload::Send(palm::BlockingHttpClient* client, const Request& request,
                    Outcome* outcome) {
  std::string body;
  const char* target = "/api/v1/query";
  if (request.op == Op::kIngest) {
    body = BatchBody(batches_[request.item]);
    target = "/api/v1/ingest_batch";
  } else {
    const Query& query = queries_[request.item];
    if (query.body_suffix.empty()) {
      body = query.body;
    } else {
      const int64_t end = AckedEnd();
      outcome->window_end = end;
      body = query.body +
             Window(std::max<int64_t>(0, end - config_.window_series + 1),
                    end) +
             query.body_suffix;
    }
  }
  Result<palm::HttpClientResponse> response = client->Post(target, body);
  if (!response.ok()) {
    outcome->ok = false;
    outcome->response = response.status().ToString();
    return;
  }
  outcome->ok = response.value().status == 200;
  outcome->response = std::move(response.value().body);
  if (outcome->ok && request.op == Op::kIngest) {
    // A 200 may still report a partial batch; only a whole one is an ack.
    outcome->ok = outcome->response.find(
                      "\"ingested\":" + std::to_string(config_.batch_series) +
                      ",") != std::string::npos;
    if (outcome->ok) MarkAcked(request.item);
  }
}

double Workload::DrainOverHttp(uint16_t port) {
  palm::BlockingHttpClient client("127.0.0.1", port);
  const Clock::time_point t0 = Clock::now();
  Result<palm::HttpClientResponse> response = client.Post(
      "/api/v1/drain_stream", std::string("{\"stream\":\"") + kStream + "\"}");
  const double seconds = SecondsSince(t0);
  if (!response.ok() || response.value().status != 200) return -1.0;
  return seconds;
}

// ------------------------------------------------------------- checks

std::span<const float> Workload::SeriesAt(int64_t ts) const {
  if (config_.kind == Kind::kAstro && config_.window_series == 0) {
    return archive_norm_[static_cast<size_t>(ts)];
  }
  return blocks_norm_[ts_row_[static_cast<size_t>(ts)]];
}

Workload::Nearest Workload::BruteForce(std::span<const float> query_norm,
                                       int64_t begin, int64_t end) const {
  Nearest best;
  for (int64_t ts = begin; ts <= end; ++ts) {
    const double d =
        coconut::series::EuclideanSquared(query_norm, SeriesAt(ts));
    if (!best.found || d < best.distance_sq) {
      best = Nearest{true, ts, d};
    }
  }
  return best;
}

bool Workload::CheckOne(const Query& query, int64_t window_end,
                        const std::string& response, CheckReport* report,
                        bool perturb) const {
  ++report->checked;
  Result<coconut::JsonValue> json = coconut::JsonParse(response);
  Result<api::QueryReport> parsed =
      json.ok() ? api::QueryReport::FromJson(json.value())
                : Result<api::QueryReport>(json.status());
  if (!parsed.ok()) {
    report->Fail("unparsable query report: " + parsed.status().ToString());
    return false;
  }
  const api::QueryReport& got = parsed.value();
  std::vector<float> query_norm = query.values;
  coconut::series::ZNormalize(query_norm);
  // Archive queries identify the match by series id (= archive ordinal,
  // timestamps are ordinals too); stream queries by its unique timestamp.
  int64_t begin = 0;
  int64_t end = static_cast<int64_t>(archive_.size()) - 1;
  if (config_.window_series > 0) {
    begin = std::max<int64_t>(0, window_end - config_.window_series + 1);
    end = window_end;
  }
  const int64_t got_ts = config_.window_series > 0
                             ? got.timestamp
                             : static_cast<int64_t>(got.series_id);
  const std::string where = std::string(query.exact ? "exact" : "approx") +
                            " query window [" + std::to_string(begin) + "," +
                            std::to_string(end) + "]";
  if (!got.found || got_ts < begin || got_ts > end) {
    report->Fail(where + ": no match inside the window");
    return false;
  }
  // The returned series must really lie at the reported distance.
  const double own = std::sqrt(
      coconut::series::EuclideanSquared(query_norm, SeriesAt(got_ts)));
  if (own != got.distance) {
    report->Fail(where + ": reported distance " +
                 std::to_string(got.distance) + " but the series lies at " +
                 std::to_string(own));
    return false;
  }
  if (!query.exact) return true;
  // Exact: bit-equal to the brute-force minimum (ties: any series at it).
  const Nearest best = BruteForce(query_norm, begin, end);
  double expected = std::sqrt(best.distance_sq);
  if (perturb) expected = std::nextafter(expected, 1e300);
  if (!best.found || expected != got.distance) {
    report->Fail(where + ": distance " + std::to_string(got.distance) +
                 " != brute force " + std::to_string(expected));
    return false;
  }
  return true;
}

void Workload::CheckAnswers(const std::vector<Request>& requests,
                            const std::vector<Outcome>& outcomes,
                            CheckReport* report) const {
  // Exact archive answers cost a full scan each; check an evenly spread
  // sample of them. Everything else is checked in full.
  size_t exact_total = 0;
  for (const Request& r : requests) exact_total += r.op == Op::kExact;
  const size_t stride =
      config_.exact_checks == 0 || exact_total <= config_.exact_checks
          ? 1
          : exact_total / config_.exact_checks;
  size_t exact_seen = 0;
  bool perturb = perturb_;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.op == Op::kIngest || !outcomes[i].ok) continue;
    if (r.op == Op::kExact && exact_seen++ % stride != 0) continue;
    const bool perturb_this = perturb && r.op == Op::kExact;
    if (perturb_this) perturb = false;
    CheckOne(queries_[r.item], outcomes[i].window_end, outcomes[i].response,
             report, perturb_this);
  }
}

void Workload::CheckDrained(System* system,
                            const api::DrainStreamReport& drained,
                            CheckReport* report) {
  ++report->checked;
  if (drained.total_entries != AckedSeries()) {
    report->Fail("stream holds " + std::to_string(drained.total_entries) +
                 " entries after the drain, " +
                 std::to_string(AckedSeries()) + " series were acknowledged");
  }
  if (config_.window_series == 0) return;
  // Fresh windowed exact queries at the newest data.
  std::vector<size_t> probes;
  for (size_t q = 0; q < queries_.size() && probes.size() < 8; ++q) {
    if (queries_[q].exact) probes.push_back(q);
  }
  const int64_t end = AckedEnd();
  for (size_t q : probes) {
    Result<api::QueryReport> got = system->Query(TypedQuery(q, end));
    if (!got.ok()) {
      report->Fail("post-drain query failed: " + got.status().ToString());
      return;
    }
    CheckOne(queries_[q], end, got.value().ToJsonString(), report, false);
  }
}

}  // namespace palmbench
