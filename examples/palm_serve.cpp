// The runnable Coconut Palm demo backend: boots the typed service layer
// behind the embedded HTTP transport, optionally pre-loads a random-walk
// dataset with a built CTree index, and serves POST /api/v1/<method>
// until SIGINT/SIGTERM.
//
//   ./palm_serve [port] [--demo] [--durable] [--cache] [--cache-negative]
//                [--quota TOKEN=RPS[:BURST]]... [--quota-file PATH]
//                [--port-file PATH]
//                [--topology HOST:PORT,HOST:PORT,...]
//                [--topology-file PATH] [--degraded-reads]
//
//   port        TCP port on 127.0.0.1 (default 8765; 0 = ephemeral — the
//               chosen port is printed, and written to --port-file if set)
//   --demo      pre-register dataset 'walk' (2000 x 128) and build index
//               'ctree' over it, so queries work immediately
//   --durable   pre-create streaming index 'live' (128-point series) with
//               the write-ahead log on: every acknowledged ingest_batch
//               survives a crash of this process
//   --cache     enable the exact snapshot-versioned query answer cache
//   --cache-negative  also cache found=false answers (implies --cache)
//   --quota     require 'Authorization: Bearer TOKEN' and rate-limit that
//               client to RPS requests/second (burst BURST, default 2*RPS;
//               RPS of 0 = unlimited); repeatable, one per client
//   --quota-file  load quotas from a config file, one TOKEN=RPS[:BURST]
//               per line ('#' comments and blank lines allowed; '*' is
//               the shared anonymous bucket); combines with --quota
//   --port-file write the bound port (one line) to PATH after the bind
//
// Coordinator mode — serve a palm::dist cluster instead of a local
// service (see palm_shardd for the shard half):
//
//   --topology  comma-separated shard endpoints in KEY-RANGE ORDER; the
//               i-th entry owns invSAX key range i of every index
//   --topology-file  same, one HOST:PORT per line ('#' comments allowed)
//   --degraded-reads when a shard is down, serve queries from the
//               surviving shards (answers carry "degraded": true) instead
//               of failing with 503
//
// Try it:
//   curl -s localhost:8765/healthz
//   curl -s -X POST localhost:8765/api/v1/list_indexes
//   curl -s -X POST localhost:8765/api/v1/recommend -d '{"streaming":true}'
//   curl -s -X POST localhost:8765/api/v1/server_stats
#include <stdlib.h>  // mkdtemp (POSIX)

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "dist/coordinator.h"
#include "dist/topology.h"
#include "palm/api.h"
#include "palm/http_server.h"
#include "palm/query_cache.h"
#include "palm/quota.h"
#include "workload/generator.h"

using namespace coconut;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

bool WritePortFile(const std::string& path, uint16_t port) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "port file %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 8765;
  bool demo = false;
  bool durable = false;
  bool cache = false;
  bool cache_negative = false;
  palm::api::QuotaOptions quota_options;
  bool quota = false;
  std::string port_file;
  std::string topology_text;
  std::string topology_file;
  bool degraded_reads = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--durable") == 0) {
      durable = true;
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      cache = true;
    } else if (std::strcmp(argv[i], "--cache-negative") == 0) {
      cache = true;
      cache_negative = true;
    } else if (std::strcmp(argv[i], "--quota-file") == 0 && i + 1 < argc) {
      auto loaded = palm::api::LoadQuotaFile(argv[++i]);
      if (!loaded.ok()) {
        std::fprintf(stderr, "quota file: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      for (const auto& [token, client] : loaded.value().clients) {
        quota_options.clients[token] = client;
      }
      if (loaded.value().allow_anonymous) {
        quota_options.allow_anonymous = true;
        quota_options.anonymous_quota = loaded.value().anonymous_quota;
      }
      quota = true;
    } else if (std::strncmp(argv[i], "--quota", 7) == 0) {
      // --quota TOKEN=RPS[:BURST] (also accepts --quota=TOKEN=...).
      const char* arg = argv[i][7] == '=' ? argv[i] + 8
                        : (i + 1 < argc ? argv[++i] : "");
      const char* eq = std::strchr(arg, '=');
      if (eq == nullptr || eq == arg) {
        std::fprintf(stderr, "bad --quota spec '%s' (want TOKEN=RPS[:BURST])\n",
                     arg);
        return 1;
      }
      palm::api::ClientQuota client;
      char* end = nullptr;
      client.requests_per_second = std::strtod(eq + 1, &end);
      client.burst = (end != nullptr && *end == ':')
                         ? std::strtod(end + 1, nullptr)
                         : 2.0 * client.requests_per_second;
      quota_options.clients[std::string(arg, eq)] = client;
      quota = true;
    } else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc) {
      port_file = argv[++i];
    } else if (std::strcmp(argv[i], "--topology") == 0 && i + 1 < argc) {
      topology_text = argv[++i];
    } else if (std::strcmp(argv[i], "--topology-file") == 0 && i + 1 < argc) {
      topology_file = argv[++i];
    } else if (std::strcmp(argv[i], "--degraded-reads") == 0) {
      degraded_reads = true;
    } else {
      port = static_cast<uint16_t>(std::atoi(argv[i]));
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // The backend behind the front door: a coordinator fanning out to
  // palm_shardd processes, or a local single-process service.
  std::unique_ptr<palm::dist::Coordinator> coordinator;
  std::unique_ptr<palm::api::Service> service;
  std::string root;
  if (!topology_text.empty() || !topology_file.empty()) {
    auto endpoints =
        topology_file.empty()
            ? palm::dist::ParseTopology(topology_text)
            : palm::dist::LoadTopologyFile(topology_file);
    if (!endpoints.ok()) {
      std::fprintf(stderr, "topology: %s\n",
                   endpoints.status().ToString().c_str());
      return 1;
    }
    palm::dist::CoordinatorOptions coordinator_options;
    coordinator_options.shards = endpoints.TakeValue();
    coordinator_options.degraded_reads = degraded_reads;
    auto coordinator_result =
        palm::dist::Coordinator::Create(std::move(coordinator_options));
    if (!coordinator_result.ok()) {
      std::fprintf(stderr, "coordinator: %s\n",
                   coordinator_result.status().ToString().c_str());
      return 1;
    }
    coordinator = coordinator_result.TakeValue();
  } else {
    // A unique per-run directory: a fixed shared name would let two
    // instances clobber each other's data and turn the remove_all on exit
    // into deleting another process's (or a symlink target's) files.
    root = (std::filesystem::temp_directory_path() /
            "coconut_palm_serve.XXXXXX")
               .string();
    if (::mkdtemp(root.data()) == nullptr) {
      std::fprintf(stderr, "mkdtemp %s: %s\n", root.c_str(),
                   std::strerror(errno));
      return 1;
    }
    auto service_result = palm::api::Service::Create(root);
    if (!service_result.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   service_result.status().ToString().c_str());
      return 1;
    }
    service = service_result.TakeValue();
  }
  palm::api::FrontDoor* front_door =
      coordinator != nullptr
          ? static_cast<palm::api::FrontDoor*>(coordinator.get())
          : service.get();
  if (cache) {
    palm::api::QueryCacheOptions cache_options;
    cache_options.cache_negative_results = cache_negative;
    front_door->EnableQueryCache(cache_options);
    std::printf("query answer cache enabled%s\n",
                cache_negative ? " (negative results cached)" : "");
  }
  if (quota) {
    front_door->ConfigureQuotas(quota_options);
    std::printf("quotas enabled for %zu client token(s)\n",
                quota_options.clients.size());
  }

  if (service != nullptr && demo) {
    series::SaxConfig sax{.series_length = 128, .num_segments = 16,
                          .bits_per_segment = 8};
    workload::RandomWalkGenerator gen(128, 4242);
    auto collection = gen.Generate(2000);
    if (auto r = service->RegisterDataset("walk", collection, nullptr);
        !r.ok()) {
      std::fprintf(stderr, "register: %s\n", r.status().ToString().c_str());
      return 1;
    }
    palm::VariantSpec spec;
    spec.sax = sax;
    spec.family = palm::IndexFamily::kCTree;
    if (auto r = service->BuildIndex("ctree", spec, "walk"); !r.ok()) {
      std::fprintf(stderr, "build: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("demo data ready: dataset 'walk' (2000x128), index 'ctree'\n");
  }

  if (service != nullptr && durable) {
    palm::VariantSpec spec;
    spec.sax = series::SaxConfig{.series_length = 128, .num_segments = 16,
                                 .bits_per_segment = 8};
    spec.family = palm::IndexFamily::kCTree;
    spec.mode = palm::StreamMode::kTP;
    spec.buffer_entries = 256;
    spec.durable = true;
    if (auto r = service->CreateStream("live", spec); !r.ok()) {
      std::fprintf(stderr, "stream: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "durable stream 'live' ready: acknowledged ingest_batch calls are "
        "write-ahead logged and survive a crash\n");
  }

  palm::HttpServerOptions options;
  options.port = port;
  auto server_result = palm::HttpServer::Start(front_door, options);
  if (!server_result.ok()) {
    std::fprintf(stderr, "http: %s\n",
                 server_result.status().ToString().c_str());
    return 1;
  }
  auto server = server_result.TakeValue();
  if (!port_file.empty() && !WritePortFile(port_file, server->port())) {
    return 1;
  }

  if (coordinator != nullptr) {
    std::printf(
        "palm_serve (coordinator, %zu shard%s%s) listening on "
        "http://%s:%u\n",
        coordinator->num_shards(), coordinator->num_shards() == 1 ? "" : "s",
        degraded_reads ? ", degraded reads on" : "",
        server->address().c_str(), server->port());
  } else {
    std::printf("palm_serve listening on http://%s:%u\n",
                server->address().c_str(), server->port());
  }
  std::printf("methods (POST /api/v1/<method>):");
  for (const std::string& method : palm::api::FrontDoor::Methods()) {
    std::printf(" %s", method.c_str());
  }
  std::printf("\nexample:\n");
  std::printf("  curl -s -X POST http://127.0.0.1:%u/api/v1/list_indexes\n",
              server->port());
  std::printf("Ctrl-C to stop.\n");
  std::fflush(stdout);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down...\n");
  server->Stop();
  if (!root.empty()) std::filesystem::remove_all(root);
  return 0;
}
