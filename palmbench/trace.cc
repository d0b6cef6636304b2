// The traced run. Spans are taken outside the program: the replay calls
// each layer's public entry point in turn for the same request — the HTTP
// front door, the JSON dispatcher, the typed operation, the index — and a
// layer's self time is its span minus the span of the layer below. Means
// are reported, so the self times of a chain add up to its HTTP round
// trip exactly. On seismic_stream the same requests are replayed once
// more through a coordinator over two shard services, down to every
// shard's client, service and index: the dist layer's numbers.
#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "common/json.h"
#include "core/entry.h"
#include "core/raw_store.h"
#include "dist/binary_codec.h"
#include "dist/shard_client.h"
#include "extsort/external_sorter.h"
#include "palm/factory.h"
#include "series/isax.h"
#include "series/kernels.h"
#include "series/sortable.h"
#include "storage/storage_manager.h"
#include "stream/wal.h"

namespace palmbench {

namespace api = coconut::palm::api;
namespace dist = coconut::palm::dist;
namespace palm = coconut::palm;
namespace core = coconut::core;
using coconut::Status;

namespace {

/// One span: a timed call into one layer on behalf of one request.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  uint64_t request = 0;
};

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  /// Opens the root span of a new request; returns its index.
  int Begin(const std::string& name) {
    spans_.push_back({name, Now(), 0.0, -1, ++request_});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int span) { spans_[span].end_us = Now(); }

  /// Runs `call` as a child span of `parent`; returns its duration, ms.
  double Time(const std::string& name, int parent,
              const std::function<void()>& call) {
    const double start = Now();
    call();
    const double end = Now();
    spans_.push_back({name, start, end, parent, request_});
    return (end - start) / 1000.0;
  }

  void Write(const std::string& path) const {
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return;
    for (const Span& s : spans_) {
      coconut::JsonWriter w;
      w.BeginObject();
      w.Field("name", s.name);
      w.Field("start_us", s.start_us);
      w.Field("end_us", s.end_us);
      w.Field("parent", static_cast<int64_t>(s.parent));
      w.Field("request", s.request);
      w.EndObject();
      std::fprintf(out, "%s\n", w.TakeString().c_str());
    }
    std::fclose(out);
  }

 private:
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_;
  std::vector<Span> spans_;
  uint64_t request_ = 0;
};

double MillisOf(const std::function<void()>& call) {
  const Clock::time_point t0 = Clock::now();
  call();
  return MillisSince(t0);
}

/// Accumulates one chain's self times; all means over the samples.
struct Chain {
  std::vector<double> http, wire, dispatch, service, index, fanout,
      shard_wire, shard_rtt, untraced, isolated, queue_wait;
  /// A single-process chain.
  void Put(Metrics* m, const std::string& op) const {
    (*m)[op + ".http_ms"] = {Mean(http), "ms"};
    (*m)["http.wire_ms." + op] = {Mean(wire), "ms"};
    (*m)["json.dispatch_ms." + op] = {Mean(dispatch), "ms"};
    (*m)["api.service_ms." + op] = {Mean(service), "ms"};
    (*m)["trace.self_sum_ms." + op] = {
        Mean(wire) + Mean(dispatch) + Mean(service) + Mean(index), "ms"};
    (*m)["trace.overhead_ms." + op] = {Mean(http) - Mean(untraced), "ms"};
    (*m)["api.queue_wait_ms." + op] = {Median(queue_wait), "ms"};
  }
  /// A chain through the coordinator: its round trip, and for queries the
  /// shard layers (an ingest's shard calls are not replayed one by one).
  void PutDist(Metrics* m, const std::string& op) const {
    (*m)["dist.http_ms." + op] = {Mean(http), "ms"};
    if (op == "ingest") return;
    (*m)["dist.fanout_ms." + op] = {Mean(fanout), "ms"};
    (*m)["dist.shard_wire_ms." + op] = {Mean(shard_wire), "ms"};
    (*m)["dist.shard_rtt_ms." + op] = {Mean(shard_rtt), "ms"};
  }
};

/// Shard services behind the coordinator of the dist replay.
constexpr size_t kDistShards = 2;

std::vector<float> Normalized(std::vector<float> values) {
  coconut::series::ZNormalize(values);
  return values;
}

/// Evenly spread picks of up to `count` from `candidates`.
std::vector<size_t> Spread(const std::vector<size_t>& candidates,
                           size_t count) {
  std::vector<size_t> out;
  if (candidates.empty()) return out;
  const size_t n = std::min(count, candidates.size());
  for (size_t i = 0; i < n; ++i) {
    out.push_back(candidates[i * candidates.size() / n]);
  }
  return out;
}

class Replay {
 public:
  Replay(Workload* workload, System* system, Tracer* tracer)
      : w_(workload),
        sys_(system),
        tracer_(tracer),
        client_("127.0.0.1", system->port()) {
    for (const auto& shard : system->shards) {
      shard_clients_.push_back(std::make_unique<dist::ShardClient>(
          dist::ShardEndpoint{"127.0.0.1", shard->server->port()}));
    }
  }

  /// Replays one query layer by layer; `answer` receives the typed
  /// call's report.
  Status Query(size_t item, int64_t window_end, double live_ms, Chain* chain,
               core::QueryCounters* counters, coconut::storage::IoStats* io,
               api::QueryReport* answer);
  Status Ingest(size_t first_batch, Chain* chain);

  std::vector<double> parse_ms, write_ms, parse_ingest_ms;

 private:
  coconut::Result<std::string> Dispatch(const std::string& method,
                                        const std::string& body) {
    if (sys_->coordinator) {
      palm::HttpRequestInfo info;
      info.method = method;
      info.body = body;
      return sys_->coordinator->Dispatch(info);
    }
    return sys_->service->Dispatch(method, body);
  }

  Status Post(const std::string& target, const std::string& body) {
    auto response = client_.Post(target, body);
    if (!response.ok()) return response.status();
    if (response.value().status != 200) {
      return Status::Internal("HTTP " +
                              std::to_string(response.value().status) +
                              ": " + response.value().body);
    }
    return Status::OK();
  }

  /// The index layer of one service, called directly.
  coconut::Result<core::SearchResult> IndexCall(
      api::Service* service, const api::QueryRequest& request,
      const std::vector<float>& query_norm, core::QueryCounters* counters) {
    core::SearchOptions options;
    if (request.window) options.window = *request.window;
    options.approx_candidates = request.approx_candidates;
    if (core::DataSeriesIndex* index =
            service->static_index(Workload::kArchive)) {
      return request.exact
                 ? index->ExactSearch(query_norm, options, counters)
                 : index->ApproxSearch(query_norm, options, counters);
    }
    auto* stream = service->stream_index(Workload::kStream);
    return request.exact ? stream->ExactSearch(query_norm, options, counters)
                         : stream->ApproxSearch(query_norm, options, counters);
  }

  Workload* w_;
  System* sys_;
  Tracer* tracer_;
  palm::BlockingHttpClient client_;
  std::vector<std::unique_ptr<dist::ShardClient>> shard_clients_;
};

Status Replay::Query(size_t item, int64_t window_end, double live_ms,
                     Chain* chain, core::QueryCounters* counters,
                     coconut::storage::IoStats* io, api::QueryReport* answer) {
  const api::QueryRequest request = w_->TypedQuery(item, window_end);
  const std::string body = request.ToJsonString();
  const std::vector<float> query_norm = Normalized(request.query);
  Status st;
  // Isolated service time (first touch, like the live request), then an
  // untraced round trip for the tracing-overhead baseline.
  const double isolated =
      MillisOf([&] { st = Post("/api/v1/query", body); });
  COCONUT_RETURN_NOT_OK(st);
  const double untraced =
      MillisOf([&] { st = Post("/api/v1/query", body); });
  COCONUT_RETURN_NOT_OK(st);

  const int root = tracer_->Begin(request.exact ? "exact" : "approx");
  const double http = tracer_->Time(
      "http", root, [&] { st = Post("/api/v1/query", body); });
  COCONUT_RETURN_NOT_OK(st);
  const double dispatch = tracer_->Time("dispatch", root, [&] {
    st = Dispatch("query", body).status();
  });
  COCONUT_RETURN_NOT_OK(st);
  coconut::Result<api::QueryReport> report = Status::OK();
  const double typed = tracer_->Time(
      "typed", root, [&] { report = sys_->Query(request); });
  COCONUT_RETURN_NOT_OK(report.status());
  io->Add(report.value().io);
  *answer = report.value();
  parse_ms.push_back(tracer_->Time("json.parse", root, [&] {
    auto json = coconut::JsonParse(body);
    if (json.ok()) st = api::QueryRequest::FromJson(json.value()).status();
  }));
  COCONUT_RETURN_NOT_OK(st);
  write_ms.push_back(tracer_->Time(
      "json.write", root, [&] { (void)report.value().ToJsonString(); }));

  double below_typed = 0.0;  // span directly under the typed call
  double service_self = 0.0;
  double index_ms = 0.0;
  if (sys_->coordinator) {
    // Shard round trips one by one; the coordinator sends them in
    // parallel, so the slowest one is the span under the typed call.
    size_t slowest = 0;
    std::vector<double> rtt(shard_clients_.size(), 0.0);
    for (size_t s = 0; s < shard_clients_.size(); ++s) {
      rtt[s] = tracer_->Time("shard" + std::to_string(s) + ".rtt", root, [&] {
        st = shard_clients_[s]->Call("query", body, true).status();
      });
      COCONUT_RETURN_NOT_OK(st);
      if (rtt[s] > rtt[slowest]) slowest = s;
    }
    api::Service* shard = sys_->shards[slowest]->service.get();
    const std::string tag = "shard" + std::to_string(slowest);
    const double shard_typed = tracer_->Time(tag + ".typed", root, [&] {
      st = shard->Query(request).status();
    });
    COCONUT_RETURN_NOT_OK(st);
    for (size_t s = 0; s < sys_->shards.size(); ++s) {
      core::QueryCounters shard_counters;
      const double ms = tracer_->Time(
          "shard" + std::to_string(s) + ".index", root, [&] {
            st = IndexCall(sys_->shards[s]->service.get(), request,
                           query_norm, &shard_counters)
                     .status();
          });
      COCONUT_RETURN_NOT_OK(st);
      counters->Add(shard_counters);
      if (s == slowest) index_ms = ms;
    }
    below_typed = rtt[slowest];
    chain->shard_rtt.push_back(rtt[slowest]);
    chain->shard_wire.push_back(rtt[slowest] - shard_typed);
    service_self = shard_typed - index_ms;
  } else {
    index_ms = tracer_->Time("index", root, [&] {
      st = IndexCall(sys_->service.get(), request, query_norm, counters)
               .status();
    });
    COCONUT_RETURN_NOT_OK(st);
    below_typed = index_ms;
    service_self = typed - index_ms;
  }
  tracer_->End(root);

  chain->http.push_back(http);
  chain->untraced.push_back(untraced);
  chain->isolated.push_back(isolated);
  chain->queue_wait.push_back(live_ms - isolated);
  chain->wire.push_back(http - dispatch);
  chain->dispatch.push_back(dispatch - typed);
  chain->fanout.push_back(sys_->coordinator ? typed - below_typed : 0.0);
  chain->service.push_back(service_self);
  chain->index.push_back(index_ms);
  return Status::OK();
}

Status Replay::Ingest(size_t first_batch, Chain* chain) {
  // Every layer call admits its own batch: an ingest cannot be repeated.
  auto body_of = [&](size_t b) {
    return w_->TypedBatch(first_batch + b).ToJsonString();
  };
  Status st;
  const std::string b0 = body_of(0);
  const double isolated =
      MillisOf([&] { st = Post("/api/v1/ingest_batch", b0); });
  COCONUT_RETURN_NOT_OK(st);
  const std::string b1 = body_of(1);
  const double untraced =
      MillisOf([&] { st = Post("/api/v1/ingest_batch", b1); });
  COCONUT_RETURN_NOT_OK(st);
  const int root = tracer_->Begin("ingest");
  const std::string b2 = body_of(2);
  const double http = tracer_->Time(
      "http", root, [&] { st = Post("/api/v1/ingest_batch", b2); });
  COCONUT_RETURN_NOT_OK(st);
  const std::string b3 = body_of(3);
  const double dispatch = tracer_->Time("dispatch", root, [&] {
    st = Dispatch("ingest_batch", b3).status();
  });
  COCONUT_RETURN_NOT_OK(st);
  parse_ingest_ms.push_back(tracer_->Time("json.parse", root, [&] {
    auto json = coconut::JsonParse(b3);
    if (json.ok()) st = api::IngestBatchRequest::FromJson(json.value()).status();
  }));
  COCONUT_RETURN_NOT_OK(st);
  const api::IngestBatchRequest typed_request = w_->TypedBatch(first_batch + 4);
  const double typed = tracer_->Time("typed", root, [&] {
    st = sys_->Ingest(typed_request).status();
  });
  COCONUT_RETURN_NOT_OK(st);
  for (size_t b = 0; b < 5; ++b) w_->MarkAcked(first_batch + b);
  tracer_->End(root);
  chain->http.push_back(http);
  chain->untraced.push_back(untraced);
  chain->isolated.push_back(isolated);
  chain->wire.push_back(http - dispatch);
  chain->dispatch.push_back(dispatch - typed);
  chain->service.push_back(typed);  // split against wal.commit_ms below
  return Status::OK();
}

/// Append + Commit of one batch on a scratch write-ahead log.
Status TimeWal(Workload* w, const std::string& dir, size_t first_batch,
               size_t batches, std::vector<double>* commit_ms,
               double* bytes_per_series) {
  COCONUT_ASSIGN_OR_RETURN(auto storage,
                           coconut::storage::StorageManager::Create(dir));
  const size_t length = w->config().series_length;
  COCONUT_ASSIGN_OR_RETURN(
      auto wal, coconut::stream::Wal::Open(storage.get(), "scratch.wal",
                                           static_cast<uint32_t>(length)));
  const uint64_t before = wal->size_bytes();
  uint64_t series = 0;
  uint64_t id = 0;
  for (size_t b = 0; b < batches; ++b) {
    const api::IngestBatchRequest request = w->TypedBatch(first_batch + b);
    std::vector<std::vector<float>> rows;
    for (size_t i = 0; i < request.batch.size(); ++i) {
      rows.push_back(Normalized(
          {request.batch[i].begin(), request.batch[i].end()}));
    }
    Status st;
    commit_ms->push_back(MillisOf([&] {
      for (size_t i = 0; i < rows.size(); ++i) {
        wal->AppendAdmit(id++, request.timestamps[i], rows[i]);
      }
      st = wal->Commit();
    }));
    COCONUT_RETURN_NOT_OK(st);
    series += rows.size();
  }
  *bytes_per_series = static_cast<double>(wal->size_bytes() - before) /
                      static_cast<double>(series);
  return Status::OK();
}

/// Per-series cost of the dispatched kernels on the workload's data.
void TimeKernels(const coconut::series::SeriesCollection& data,
                 Metrics* m) {
  const auto& k = coconut::series::kernels::Active();
  const size_t n = std::min<size_t>(data.size(), 4096);
  const size_t length = data.length();
  constexpr int kSegments = 16;
  constexpr int kPasses = 8;
  std::vector<float> paa(kSegments * n);
  std::vector<uint8_t> sax(kSegments);
  double sink = 0.0;
  const double paa_ms = MillisOf([&] {
    for (int p = 0; p < kPasses; ++p) {
      for (size_t i = 0; i < n; ++i) {
        k.compute_paa(data[i].data(), length, kSegments, &paa[i * kSegments]);
        k.sax_from_paa(&paa[i * kSegments], kSegments, 8, sax.data());
        sink += sax[0];
      }
    }
  });
  const double euclid_ms = MillisOf([&] {
    for (int p = 0; p < kPasses; ++p) {
      for (size_t i = 0; i + 1 < n; ++i) {
        sink += k.euclidean_sq(data[i].data(), data[i + 1].data(), length);
      }
    }
  });
  std::vector<float> lower(paa), upper(paa);
  for (size_t i = 0; i < lower.size(); ++i) {
    lower[i] -= 0.25f;
    upper[i] += 0.25f;
  }
  const double mindist_ms = MillisOf([&] {
    for (int p = 0; p < kPasses; ++p) {
      for (size_t i = 0; i + 1 < n; ++i) {
        sink += k.mindist_acc(&paa[i * kSegments], &lower[(i + 1) * kSegments],
                              &upper[(i + 1) * kSegments], kSegments);
      }
    }
  });
  const double calls = static_cast<double>(kPasses) * static_cast<double>(n);
  (*m)["kernels.paa_sax_ns"] = {paa_ms * 1e6 / calls, "ns"};
  (*m)["kernels.euclid_ns"] = {euclid_ms * 1e6 / calls, "ns"};
  (*m)["kernels.mindist_ns"] = {mindist_ms * 1e6 / calls, "ns"};
  (*m)["kernels.isa_tier"] = {
      static_cast<double>(coconut::series::kernels::ActiveIsa()), "tier"};
  std::fprintf(stderr, "palmbench: kernel tier %s (checksum %g)\n",
               coconut::series::kernels::IsaName(
                   coconut::series::kernels::ActiveIsa()),
               sink);
}

/// The static build without the Service: the construction sort alone,
/// and CreateStaticIndex + Insert + Finalize.
Status TimeBuild(const coconut::series::SeriesCollection& archive,
                 const std::string& dir, Metrics* m) {
  palm::VariantSpec spec;
  spec.sax = coconut::series::SaxConfig{
      .series_length = static_cast<int>(archive.length()),
      .num_segments = 16,
      .bits_per_segment = 8};
  std::vector<float> buf;
  std::vector<core::IndexEntry> entries(archive.size());
  for (size_t i = 0; i < archive.size(); ++i) {
    buf.assign(archive[i].begin(), archive[i].end());
    coconut::series::ZNormalize(buf);
    entries[i].key = coconut::series::InterleaveSax(
        coconut::series::ComputeSax(std::span<const float>(buf), spec.sax),
        spec.sax);
    entries[i].series_id = i;
    entries[i].timestamp = core::kNoTimestamp;
  }
  COCONUT_ASSIGN_OR_RETURN(auto storage,
                           coconut::storage::StorageManager::Create(dir));
  coconut::extsort::ExternalSorter::Options options;
  options.record_size = sizeof(core::IndexEntry);
  options.memory_budget_bytes = spec.memory_budget_bytes;
  options.storage = storage.get();
  options.temp_prefix = "trace.sort";
  options.less = core::EntryBytesLess;
  Status st;
  const double sort_ms = MillisOf([&] {
    auto sorter = coconut::extsort::ExternalSorter::Create(options);
    if (!sorter.ok()) {
      st = sorter.status();
      return;
    }
    for (const core::IndexEntry& e : entries) {
      st = sorter.value()->Add(&e);
      if (!st.ok()) return;
    }
    auto sorted = sorter.value()->Finish();
    if (!sorted.ok()) {
      st = sorted.status();
      return;
    }
    core::IndexEntry out;
    while (true) {
      auto more = sorted.value()->Next(reinterpret_cast<uint8_t*>(&out));
      if (!more.ok()) {
        st = more.status();
        return;
      }
      if (!more.value()) break;
    }
  });
  COCONUT_RETURN_NOT_OK(st);

  COCONUT_ASSIGN_OR_RETURN(
      auto raw, core::RawSeriesStore::Create(storage.get(), "raw",
                                             spec.sax.series_length));
  std::vector<std::vector<float>> rows(archive.size());
  for (size_t i = 0; i < archive.size(); ++i) {
    rows[i] = Normalized({archive[i].begin(), archive[i].end()});
    COCONUT_RETURN_NOT_OK(raw->Append(rows[i]).status());
  }
  COCONUT_RETURN_NOT_OK(raw->Flush());
  coconut::storage::BufferPool pool(4ull << 20);
  const double build_ms = MillisOf([&] {
    auto index = palm::CreateStaticIndex(spec, storage.get(), "trace.idx",
                                         &pool, raw.get());
    if (!index.ok()) {
      st = index.status();
      return;
    }
    for (size_t i = 0; i < rows.size() && st.ok(); ++i) {
      st = index.value()->Insert(i, rows[i], core::kNoTimestamp);
    }
    if (st.ok()) st = index.value()->Finalize();
  });
  COCONUT_RETURN_NOT_OK(st);
  (*m)["extsort.sort_s"] = {sort_ms / 1000.0, "s"};
  (*m)["index.build_s"] = {build_ms / 1000.0, "s"};
  return Status::OK();
}

/// Brings up a coordinator over kDistShards shard services, loads it with
/// the acknowledged open-loop batches and replays the sampled requests
/// through it (exact, approximate, then 24 ingests). An exact answer that
/// differs from the single-process one (`exact_answers`, in sample order)
/// fails the run.
Status ReplayDist(Workload* w, const Schedule& schedule,
                  const std::vector<Outcome>& outcomes,
                  const std::vector<size_t> samples[kNumOps],
                  const std::vector<api::QueryReport>& exact_answers,
                  Tracer* tracer, Chain chains[kNumOps], CheckReport* check) {
  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<System> sys,
                           w->StartSystem("replay_dist", false, kDistShards));
  for (size_t i = 0; i < schedule.requests.size(); ++i) {
    if (schedule.requests[i].op != Op::kIngest || !outcomes[i].ok) continue;
    COCONUT_RETURN_NOT_OK(
        sys->Ingest(w->TypedBatch(schedule.requests[i].item)).status());
  }
  COCONUT_RETURN_NOT_OK(sys->Drain(Workload::kStream).status());
  Replay replay(w, sys.get(), tracer);
  size_t exact = 0;
  for (Op op : {Op::kExact, Op::kApprox}) {
    for (size_t i : samples[static_cast<int>(op)]) {
      core::QueryCounters counters;
      coconut::storage::IoStats io;
      api::QueryReport answer;
      COCONUT_RETURN_NOT_OK(replay.Query(
          schedule.requests[i].item, outcomes[i].window_end,
          outcomes[i].latency_ms, &chains[static_cast<int>(op)], &counters,
          &io, &answer));
      if (op != Op::kExact) continue;
      const api::QueryReport& single = exact_answers[exact++];
      ++check->checked;
      if (answer.distance != single.distance ||
          answer.timestamp != single.timestamp) {
        check->Fail("coordinator answer (ts " +
                    std::to_string(answer.timestamp) +
                    ") differs from the single-process answer (ts " +
                    std::to_string(single.timestamp) + ")");
      }
    }
  }
  for (size_t j = 0; j < kTraceSamples; ++j) {
    COCONUT_RETURN_NOT_OK(replay.Ingest(w->trace_batch_begin() + 5 * j,
                                        &chains[static_cast<int>(Op::kIngest)]));
  }
  return Status::OK();
}

}  // namespace

Metrics RunTrace(Workload* w, System* live, const Schedule& schedule,
                 const std::vector<Outcome>& outcomes,
                 const api::ServerStatsResponse& cache_delta,
                 const api::DrainStreamReport& drained,
                 const std::string& spans_path, CheckReport* check) {
  Metrics m;
  const Config& config = w->config();
  const double length = static_cast<double>(config.series_length);

  // ---- from the live phase: generator lateness, cache, stream counters.
  LatencyStats late;
  for (const Outcome& o : outcomes) late.AddOk(o.late_ms);
  late.Sort();
  m["loadgen.late_ms"] = {late.Percentile(0.99, 0.0), "ms"};
  const double lookups =
      static_cast<double>(cache_delta.cache_hits + cache_delta.cache_misses);
  m["cache.lookups"] = {lookups, "count"};
  m["cache.hits"] = {static_cast<double>(cache_delta.cache_hits), "count"};
  m["cache.hit_ratio"] = {
      lookups > 0 ? static_cast<double>(cache_delta.cache_hits) / lookups
                  : 0.0,
      "ratio"};
  m["cache.invalidations"] = {
      static_cast<double>(cache_delta.cache_invalidations), "count"};
  m["cache.stale_drops"] = {
      static_cast<double>(cache_delta.cache_stale_drops), "count"};
  size_t approx = 0;
  size_t reasks = 0;
  std::vector<bool> asked(w->num_queries(), false);
  for (const Request& r : schedule.requests) {
    if (r.op != Op::kApprox) continue;
    ++approx;
    if (asked[r.item]) ++reasks;
    asked[r.item] = true;
  }
  m["cache.reask_share"] = {
      approx > 0 ? static_cast<double>(reasks) / static_cast<double>(approx)
                 : 0.0,
      "ratio"};

  double pending_max = 0.0;
  std::vector<double> ingest_seconds;
  std::vector<double> live_ingest_ms;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (schedule.requests[i].op != Op::kIngest || !outcomes[i].ok) continue;
    live_ingest_ms.push_back(outcomes[i].latency_ms);
    auto json = coconut::JsonParse(outcomes[i].response);
    if (!json.ok()) continue;
    auto report = api::IngestBatchReport::FromJson(json.value());
    if (!report.ok()) continue;
    pending_max = std::max(pending_max,
                           static_cast<double>(report.value().pending_tasks));
    ingest_seconds.push_back(report.value().seconds * 1000.0);
  }
  // The service's own time per batch, as its ingest report states it.
  m["stream.ingest_ms"] = {Mean(ingest_seconds), "ms"};
  m["stream.pending_max"] = {pending_max, "count"};
  m["stream.seals"] = {static_cast<double>(drained.seals_completed), "count"};
  m["stream.merges"] = {static_cast<double>(drained.merges_completed),
                        "count"};
  m["stream.stalls"] = {static_cast<double>(drained.ingest_stalls), "count"};
  m["stream.stall_ms_p99"] = {drained.stall_ms_p99, "ms"};
  uint64_t written = 0;
  if (live->service) {
    written = live->service->index_storage(Workload::kStream)
                  ->SnapshotIoStats()
                  .bytes_written;
  }
  for (const auto& shard : live->shards) {
    written += shard->service->index_storage(Workload::kStream)
                   ->SnapshotIoStats()
                   .bytes_written;
  }
  m["storage.write_amp"] = {
      static_cast<double>(written) /
          (static_cast<double>(drained.total_entries) * length * 4.0),
      "ratio"};

  // ---- the replay system: same inputs, no answer cache.
  Tracer tracer;
  auto replay_system = w->StartSystem("replay", false);
  if (!replay_system.ok()) {
    check->Fail("replay system: " + replay_system.status().ToString());
    return m;
  }
  System* sys = replay_system.value().get();
  Status st;
  for (size_t i = 0; i < schedule.requests.size() && st.ok(); ++i) {
    if (schedule.requests[i].op != Op::kIngest || !outcomes[i].ok) continue;
    st = sys->Ingest(w->TypedBatch(schedule.requests[i].item)).status();
    w->MarkAcked(schedule.requests[i].item);
  }
  if (st.ok()) st = sys->Drain(Workload::kStream).status();

  // The sampled queries (schedule positions), per type: first asks only,
  // since a re-ask was a cache hit in the live phase.
  std::vector<size_t> samples[kNumOps];
  for (Op op : {Op::kExact, Op::kApprox}) {
    std::vector<size_t> candidates;
    std::vector<bool> seen(w->num_queries(), false);
    for (size_t i = 0; i < schedule.requests.size(); ++i) {
      const Request& r = schedule.requests[i];
      if (r.op != op) continue;
      if (!seen[r.item] && outcomes[i].ok) candidates.push_back(i);
      seen[r.item] = true;
    }
    samples[static_cast<int>(op)] = Spread(candidates, kTraceSamples);
  }

  Replay replay(w, sys, &tracer);
  Chain chains[kNumOps];
  core::QueryCounters counters;
  coconut::storage::IoStats io;
  std::vector<api::QueryReport> exact_answers;
  for (Op op : {Op::kExact, Op::kApprox}) {
    const bool exact = op == Op::kExact;
    for (size_t i : samples[static_cast<int>(op)]) {
      if (!st.ok()) break;
      core::QueryCounters ignored;
      coconut::storage::IoStats ignored_io;
      api::QueryReport answer;
      st = replay.Query(schedule.requests[i].item, outcomes[i].window_end,
                        outcomes[i].latency_ms, &chains[static_cast<int>(op)],
                        exact ? &counters : &ignored,
                        exact ? &io : &ignored_io, &answer);
      if (exact) exact_answers.push_back(answer);
    }
  }
  const size_t exact_replayed = exact_answers.size();
  for (size_t j = 0; j < kTraceSamples && st.ok(); ++j) {
    st = replay.Ingest(w->trace_batch_begin() + 5 * j,
                       &chains[static_cast<int>(Op::kIngest)]);
  }
  std::vector<double> commit_ms;
  double wal_bytes = 0.0;
  if (st.ok()) {
    st = TimeWal(w, sys->root + "/scratch_wal", w->trace_batch_begin(),
                 kTraceSamples, &commit_ms, &wal_bytes);
  }
  if (!st.ok()) {
    check->Fail("trace replay: " + st.ToString());
    return m;
  }

  for (Op op : {Op::kExact, Op::kApprox}) {
    chains[static_cast<int>(op)].Put(&m, OpName(op));
  }
  m["index.exact_ms"] = {Mean(chains[0].index), "ms"};
  m["index.approx_ms"] = {Mean(chains[1].index), "ms"};
  // Ingest: below the typed call sits the log commit (timed on a scratch
  // log with the same batches); the rest of the typed call is the
  // service and stream admission.
  Chain& ingest = chains[static_cast<int>(Op::kIngest)];
  const double typed_ingest = Mean(ingest.service);
  ingest.service.assign(1, typed_ingest - Mean(commit_ms));
  ingest.index.assign(1, Mean(commit_ms));
  // Each replayed ingest admits a different batch, so the queueing wait is
  // compared by medians: live latency against the isolated round trip.
  ingest.queue_wait.assign(
      1, Median(live_ingest_ms) - Median(ingest.isolated));
  ingest.Put(&m, "ingest");
  m["wal.commit_ms"] = {Mean(commit_ms), "ms"};
  m["wal.bytes_per_series"] = {wal_bytes, "B"};
  m["json.parse_query_ms"] = {Mean(replay.parse_ms), "ms"};
  m["json.write_report_ms"] = {Mean(replay.write_ms), "ms"};
  m["json.parse_ingest_ms"] = {Mean(replay.parse_ingest_ms), "ms"};

  const double per_query =
      exact_replayed > 0 ? 1.0 / static_cast<double>(exact_replayed) : 0.0;
  m["index.entries_examined"] = {
      static_cast<double>(counters.entries_examined) * per_query, "count"};
  m["index.leaves_visited"] = {
      static_cast<double>(counters.leaves_visited) * per_query, "count"};
  m["index.raw_fetches"] = {
      static_cast<double>(counters.raw_fetches) * per_query, "count"};
  const double leaves =
      static_cast<double>(counters.leaves_visited + counters.leaves_pruned);
  m["index.leaves_pruned_ratio"] = {
      leaves > 0 ? static_cast<double>(counters.leaves_pruned) / leaves : 0.0,
      "ratio"};
  const double partitions = static_cast<double>(counters.partitions_visited +
                                                counters.partitions_skipped);
  m["index.partitions_skipped_ratio"] = {
      partitions > 0
          ? static_cast<double>(counters.partitions_skipped) / partitions
          : 0.0,
      "ratio"};
  m["storage.random_reads"] = {
      static_cast<double>(io.random_reads) * per_query, "count"};
  m["storage.seq_reads"] = {
      static_cast<double>(io.sequential_reads) * per_query, "count"};
  m["storage.bytes_read"] = {static_cast<double>(io.bytes_read) * per_query,
                             "B"};

  // Wire bytes per series: the JSON the client sends, and the binary
  // frame a coordinator forwards to its shards.
  const api::IngestBatchRequest sample = w->TypedBatch(w->trace_batch_begin());
  const double series = static_cast<double>(sample.batch.size());
  m["json.bytes_per_series"] = {
      static_cast<double>(sample.ToJsonString().size()) / series, "B"};

  // ---- the dist layer (seismic_stream): the same inputs and sampled
  // requests through a coordinator over kDistShards shard services. Its
  // exact answers must equal the single-process ones.
  Chain dist_chains[kNumOps];
  if (config.kind == Kind::kSeismic) {
    st = ReplayDist(w, schedule, outcomes, samples, exact_answers, &tracer,
                    dist_chains, check);
    if (!st.ok()) check->Fail("dist replay: " + st.ToString());
    m["dist.wire_bytes_per_series"] = {
        static_cast<double>(dist::EncodeIngestFrame(sample).size()) / series,
        "B"};
  } else {
    m["dist.wire_bytes_per_series"] = {0.0, "B"};
  }
  for (int op = 0; op < kNumOps; ++op) {
    dist_chains[op].PutDist(&m, OpName(static_cast<Op>(op)));
  }

  TimeKernels(w->sample_series(), &m);
  m["extsort.sort_s"] = {0.0, "s"};
  m["index.build_s"] = {0.0, "s"};
  if (config.kind == Kind::kAstro) {
    st = TimeBuild(w->archive(), sys->root + "/scratch_build", &m);
    if (!st.ok()) check->Fail("build layers: " + st.ToString());
  }

  replay_system.value()->Shutdown();
  tracer.Write(spans_path);
  std::fprintf(stderr, "palmbench: spans written to %s\n",
               spans_path.c_str());
  return m;
}

}  // namespace palmbench
