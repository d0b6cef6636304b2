// Distributed front-door bench: (A) bulk-ingest framing on the
// client -> coordinator hop — the same batch stream pushed through the
// coordinator's JSON ingest_batch and through the CRC-checked binary
// ingest_batch_bin framing, comparing throughput, bytes on the wire and
// process CPU (the coordinator ships sub-batches to its shards as binary
// frames either way); (B) query fan-out cost — closed-loop
// query p50/p99 against a single-process service versus a coordinator
// scatter-gathering over K in-process shard servers at K in {1,2,4}, from
// one client (serial) and from 4 concurrent clients (throughput and
// latency when queries overlap, which is where the coordinator's read
// concurrency shows).
// Everything (client, coordinator, shards) runs in this one process over
// real loopback sockets, so RUSAGE_SELF captures the full path's CPU.
//
//   bench_dist --ingest-batches=48 --batch=64 --queries=300 \
//              --out=BENCH_dist.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "common/json.h"
#include "dist/binary_codec.h"
#include "dist/coordinator.h"
#include "dist/topology.h"
#include "palm/api.h"
#include "palm/http_client.h"
#include "palm/http_server.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

constexpr size_t kSeriesLength = 128;
constexpr size_t kDatasetSeries = 2048;
constexpr size_t kQueryPool = 64;
constexpr size_t kConcurrentClients = 4;

struct Options {
  size_t ingest_batches = 48;
  size_t batch = 64;
  size_t queries = 300;
  std::string out = "BENCH_dist.json";
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + std::strlen(prefix)
                                       : nullptr;
    };
    if (const char* v = value("--ingest-batches=")) {
      options.ingest_batches = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--batch=")) {
      options.batch = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--queries=")) {
      options.queries = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--out=")) {
      options.out = v;
    } else {
      std::fprintf(stderr, "unknown arg %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

series::SaxConfig BenchSax() {
  return series::SaxConfig{.series_length = kSeriesLength, .num_segments = 16,
                           .bits_per_segment = 8};
}

palm::VariantSpec StreamSpec(size_t num_shards) {
  palm::VariantSpec spec;
  spec.sax = BenchSax();
  spec.num_shards = num_shards;
  spec.family = palm::IndexFamily::kCTree;
  spec.mode = palm::StreamMode::kTP;
  spec.buffer_entries = 256;
  spec.async_ingest = true;
  return spec;
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// One coordinator over `k` in-process shard servers, all fronted by real
/// loopback HTTP.
struct Cluster {
  struct Shard {
    std::unique_ptr<palm::api::Service> service;
    std::unique_ptr<palm::HttpServer> server;
  };
  std::vector<Shard> shards;
  std::unique_ptr<palm::dist::Coordinator> coordinator;
  std::unique_ptr<palm::HttpServer> front;

  uint16_t port() const { return front->port(); }
};

std::string FreshRoot(const std::string& name) {
  const std::string root = std::filesystem::temp_directory_path().string() +
                           "/bench_dist_" +
                           std::to_string(static_cast<unsigned>(::getpid())) +
                           "/" + name;
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  return root;
}

Cluster MakeCluster(size_t k, const std::string& name) {
  Cluster cluster;
  palm::dist::CoordinatorOptions options;
  for (size_t s = 0; s < k; ++s) {
    Cluster::Shard shard;
    shard.service =
        palm::api::Service::Create(FreshRoot(name + "/shard" + std::to_string(s)))
            .TakeValue();
    shard.server =
        palm::HttpServer::Start(shard.service.get(), {}).TakeValue();
    options.shards.push_back(
        palm::dist::ShardEndpoint{"127.0.0.1", shard.server->port()});
    cluster.shards.push_back(std::move(shard));
  }
  cluster.coordinator =
      palm::dist::Coordinator::Create(std::move(options)).TakeValue();
  cluster.front =
      palm::HttpServer::Start(cluster.coordinator.get(), {}).TakeValue();
  return cluster;
}

struct IngestResult {
  std::string framing;
  uint64_t batches = 0;
  uint64_t series = 0;
  uint64_t wire_bytes = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double series_per_second = 0.0;
};

/// Pushes the same deterministic batch stream through one framing.
IngestResult RunIngest(const Options& options, bool binary) {
  const std::string framing = binary ? "binary" : "json";
  Cluster cluster = MakeCluster(2, "ingest_" + framing);

  palm::api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = StreamSpec(2);
  if (auto r = cluster.coordinator->CreateStream(create); !r.ok()) {
    std::fprintf(stderr, "create_stream: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }

  // Pre-encode every body so the timed loop measures the wire and the
  // server-side decode, not client serialization.
  std::vector<std::string> bodies;
  bodies.reserve(options.ingest_batches);
  uint64_t wire_bytes = 0;
  for (size_t b = 0; b < options.ingest_batches; ++b) {
    palm::api::IngestBatchRequest ingest;
    ingest.stream = "live";
    ingest.batch =
        testutil::RandomWalkCollection(options.batch, kSeriesLength, 900 + b);
    for (size_t j = 0; j < options.batch; ++j) {
      ingest.timestamps.push_back(
          static_cast<int64_t>(b * options.batch + j));
    }
    bodies.push_back(binary ? palm::dist::EncodeIngestFrame(ingest)
                            : ingest.ToJsonString());
    wire_bytes += bodies.back().size();
  }

  const std::vector<std::pair<std::string, std::string>> headers =
      binary ? std::vector<std::pair<std::string, std::string>>{
                   {"Content-Type",
                    std::string(palm::dist::kBinaryIngestContentType)}}
             : std::vector<std::pair<std::string, std::string>>{};
  const char* target =
      binary ? "/api/v1/ingest_batch_bin" : "/api/v1/ingest_batch";

  palm::BlockingHttpClient client("127.0.0.1", cluster.port());
  const double cpu0 = CpuSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::string& body : bodies) {
    auto response = client.Post(target, body, headers);
    if (!response.ok() || response.value().status != 200) {
      std::fprintf(stderr, "%s ingest failed: %s\n", framing.c_str(),
                   response.ok() ? response.value().body.c_str()
                                 : response.status().ToString().c_str());
      std::exit(1);
    }
  }
  // Drain inside the timed region: the batches are not durable answers
  // until the async cascades settle, and both framings pay it equally.
  palm::api::DrainStreamRequest drain;
  drain.stream = "live";
  auto drained = cluster.coordinator->DrainStream(drain);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double cpu = CpuSeconds() - cpu0;
  if (!drained.ok()) {
    std::fprintf(stderr, "drain: %s\n", drained.status().ToString().c_str());
    std::exit(1);
  }
  const uint64_t expect = options.ingest_batches * options.batch;
  if (drained.value().total_entries != expect) {
    std::fprintf(stderr, "%s: drained %llu entries, expected %llu\n",
                 framing.c_str(),
                 static_cast<unsigned long long>(drained.value().total_entries),
                 static_cast<unsigned long long>(expect));
    std::exit(1);
  }

  IngestResult result;
  result.framing = framing;
  result.batches = options.ingest_batches;
  result.series = expect;
  result.wire_bytes = wire_bytes;
  result.wall_seconds = wall;
  result.cpu_seconds = cpu;
  result.series_per_second =
      wall > 0.0 ? static_cast<double>(expect) / wall : 0.0;
  return result;
}

struct QueryResult {
  std::string topology;  // "single" or "coordinator"
  uint64_t shards = 0;
  uint64_t clients = 0;
  uint64_t queries = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double queries_per_second = 0.0;
};

/// Closed-loop query sweep against whatever server listens on `port`:
/// `clients` connections, each sending its share of `count` queries back
/// to back.
QueryResult RunQueries(uint16_t port, const std::string& topology,
                       size_t shards, size_t clients, size_t count,
                       const std::vector<std::string>& bodies) {
  std::vector<std::vector<double>> per_client(clients);
  auto run_client = [&](size_t c) {
    palm::BlockingHttpClient client("127.0.0.1", port);
    for (size_t i = c; i < count; i += clients) {
      const auto t0 = std::chrono::steady_clock::now();
      auto response = client.Post("/api/v1/query", bodies[i % bodies.size()]);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (!response.ok() || response.value().status != 200) {
        std::fprintf(stderr, "query (%s, k=%zu): %s\n", topology.c_str(),
                     shards,
                     response.ok() ? response.value().body.c_str()
                                   : response.status().ToString().c_str());
        std::exit(1);
      }
      per_client[c].push_back(ms);
    }
  };
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 1; c < clients; ++c) threads.emplace_back(run_client, c);
  run_client(0);
  for (std::thread& thread : threads) thread.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  std::vector<double> latencies;
  for (const std::vector<double>& one : per_client) {
    latencies.insert(latencies.end(), one.begin(), one.end());
  }
  std::sort(latencies.begin(), latencies.end());
  QueryResult result;
  result.topology = topology;
  result.shards = shards;
  result.clients = clients;
  result.queries = count;
  result.p50_ms = PercentileOfSorted(latencies, 0.50);
  result.p99_ms = PercentileOfSorted(latencies, 0.99);
  result.queries_per_second =
      wall > 0.0 ? static_cast<double>(count) / wall : 0.0;
  return result;
}

/// The serial sweep, then the concurrent one, against one server.
void RunQueryPhases(uint16_t port, const std::string& topology,
                    size_t shards, size_t count,
                    const std::vector<std::string>& bodies,
                    std::vector<QueryResult>* serial,
                    std::vector<QueryResult>* concurrent) {
  serial->push_back(RunQueries(port, topology, shards, 1, count, bodies));
  concurrent->push_back(RunQueries(port, topology, shards,
                                   kConcurrentClients, count, bodies));
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);

  // ---- part A: ingest framing shoot-out at K=2.
  std::fprintf(stderr, "bench_dist: ingest framing (json)...\n");
  const IngestResult json_ingest = RunIngest(options, /*binary=*/false);
  std::fprintf(stderr, "bench_dist: ingest framing (binary)...\n");
  const IngestResult binary_ingest = RunIngest(options, /*binary=*/true);

  // ---- part B: query latency, single process vs coordinator fan-out.
  const series::SeriesCollection data =
      testutil::RandomWalkCollection(kDatasetSeries, kSeriesLength, 7);
  std::vector<std::string> query_bodies;
  query_bodies.reserve(kQueryPool);
  for (size_t i = 0; i < kQueryPool; ++i) {
    palm::api::QueryRequest query;
    query.index = "walk";
    query.query =
        testutil::NoisyCopy(data, i * 17 % kDatasetSeries, 0.25, 1000 + i);
    query_bodies.push_back(query.ToJsonString());
  }

  std::vector<QueryResult> query_results;
  std::vector<QueryResult> concurrent_results;
  {
    std::fprintf(stderr, "bench_dist: queries (single process)...\n");
    auto service =
        palm::api::Service::Create(FreshRoot("single")).TakeValue();
    palm::api::RegisterDatasetRequest reg;
    reg.name = "walk";
    reg.data = data;
    palm::api::BuildIndexRequest build;
    build.index = "walk";
    build.dataset = "walk";
    build.spec.sax = BenchSax();
    if (!service->RegisterDataset(reg).ok() ||
        !service->BuildIndex(build).ok()) {
      std::fprintf(stderr, "single-process fixture failed\n");
      return 1;
    }
    auto server = palm::HttpServer::Start(service.get(), {}).TakeValue();
    RunQueryPhases(server->port(), "single", 1, options.queries,
                   query_bodies, &query_results, &concurrent_results);
  }
  for (const size_t k : {size_t{1}, size_t{2}, size_t{4}}) {
    std::fprintf(stderr, "bench_dist: queries (coordinator, k=%zu)...\n", k);
    Cluster cluster =
        MakeCluster(k, "query_k" + std::to_string(k));
    palm::api::RegisterDatasetRequest reg;
    reg.name = "walk";
    reg.data = data;
    palm::api::BuildIndexRequest build;
    build.index = "walk";
    build.dataset = "walk";
    build.spec.sax = BenchSax();
    build.spec.num_shards = k;
    if (!cluster.coordinator->RegisterDataset(reg).ok() ||
        !cluster.coordinator->BuildIndex(build).ok()) {
      std::fprintf(stderr, "coordinator fixture failed (k=%zu)\n", k);
      return 1;
    }
    RunQueryPhases(cluster.port(), "coordinator", k, options.queries,
                   query_bodies, &query_results, &concurrent_results);
  }

  JsonWriter w;
  w.BeginObject();
  w.Field("bench", std::string("dist"));
  w.Field("series_length", static_cast<uint64_t>(kSeriesLength));
  w.Field("dataset_series", static_cast<uint64_t>(kDatasetSeries));
  w.Key("ingest");
  w.BeginArray();
  for (const IngestResult& r : {json_ingest, binary_ingest}) {
    w.BeginObject();
    w.Field("framing", r.framing);
    w.Field("batches", r.batches);
    w.Field("series", r.series);
    w.Field("wire_bytes", r.wire_bytes);
    w.Field("wall_seconds", r.wall_seconds);
    w.Field("cpu_seconds", r.cpu_seconds);
    w.Field("series_per_second", r.series_per_second);
    w.EndObject();
  }
  w.EndArray();
  w.Field("binary_speedup",
          binary_ingest.series_per_second > 0.0 && json_ingest.series_per_second > 0.0
              ? binary_ingest.series_per_second / json_ingest.series_per_second
              : 0.0);
  w.Field("binary_wire_ratio",
          json_ingest.wire_bytes > 0
              ? static_cast<double>(binary_ingest.wire_bytes) /
                    static_cast<double>(json_ingest.wire_bytes)
              : 0.0);
  const auto write_queries = [&w](const char* key,
                                  const std::vector<QueryResult>& results) {
    w.Key(key);
    w.BeginArray();
    for (const QueryResult& r : results) {
      w.BeginObject();
      w.Field("topology", r.topology);
      w.Field("shards", r.shards);
      w.Field("clients", r.clients);
      w.Field("queries", r.queries);
      w.Field("p50_ms", r.p50_ms);
      w.Field("p99_ms", r.p99_ms);
      w.Field("queries_per_second", r.queries_per_second);
      w.EndObject();
    }
    w.EndArray();
  };
  write_queries("query", query_results);
  write_queries("query_concurrent", concurrent_results);
  w.EndObject();
  const std::string json = w.TakeString();

  std::FILE* out = std::fopen(options.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", options.out.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::fprintf(stderr, "bench_dist: wrote %s\n", options.out.c_str());
  std::printf("%s\n", json.c_str());

  std::filesystem::remove_all(std::filesystem::temp_directory_path().string() +
                              "/bench_dist_" +
                              std::to_string(static_cast<unsigned>(::getpid())));
  return 0;
}

}  // namespace
}  // namespace coconut

int main(int argc, char** argv) { return coconut::Main(argc, argv); }
