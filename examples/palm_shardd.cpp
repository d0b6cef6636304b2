// A Coconut Palm shard server: one complete single-process Palm service
// (datasets, indexes, durable streams) exposed over HTTP for a
// distributed deployment. N of these plus one coordinator
// (palm_serve --topology ...) form the palm::dist cluster; each shard
// holds one invSAX key range, routed by the coordinator.
//
//   ./palm_shardd [--port N] [--port-file PATH] [--root PATH]
//
//   --port      TCP port on 127.0.0.1 (default 0 = kernel-chosen
//               ephemeral port; the chosen port is printed on stdout)
//   --port-file also write the chosen port (one line) to PATH, so
//               launch scripts can wait for the bind and read it back
//   --root      data directory for raw stores and WALs (default: a
//               fresh temp directory, removed on exit; a fixed --root
//               makes durable streams survive shard restarts)
//
// Serves every POST /api/v1/<method> of palm_serve — the same front door,
// including the binary bulk-ingest endpoint POST /api/v1/ingest_batch_bin
// (Content-Type application/x-palm-ingest-v1 — see
// src/dist/binary_codec.h) the coordinator ships sub-batches with.
#include <stdlib.h>  // mkdtemp (POSIX)

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "palm/api.h"
#include "palm/http_server.h"

using namespace coconut;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  std::string port_file;
  std::string root;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc) {
      port_file = argv[++i];
    } else if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: palm_shardd [--port N] [--port-file PATH] "
                   "[--root PATH]\n");
      return 1;
    }
  }

  bool ephemeral_root = false;
  if (root.empty()) {
    root = (std::filesystem::temp_directory_path() /
            "coconut_palm_shardd.XXXXXX")
               .string();
    if (::mkdtemp(root.data()) == nullptr) {
      std::fprintf(stderr, "mkdtemp %s: %s\n", root.c_str(),
                   std::strerror(errno));
      return 1;
    }
    ephemeral_root = true;
  } else {
    std::error_code ec;
    std::filesystem::create_directories(root, ec);
    if (ec) {
      std::fprintf(stderr, "mkdir %s: %s\n", root.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }

  auto service_result = palm::api::Service::Create(root);
  if (!service_result.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service_result.status().ToString().c_str());
    return 1;
  }
  auto service = service_result.TakeValue();

  palm::HttpServerOptions options;
  options.port = port;
  auto server_result = palm::HttpServer::Start(service.get(), options);
  if (!server_result.ok()) {
    std::fprintf(stderr, "http: %s\n",
                 server_result.status().ToString().c_str());
    return 1;
  }
  auto server = server_result.TakeValue();

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "port file %s: %s\n", port_file.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::fprintf(f, "%u\n", server->port());
    std::fclose(f);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("palm_shardd listening on http://%s:%u (root %s)\n",
              server->address().c_str(), server->port(), root.c_str());
  std::fflush(stdout);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down...\n");
  server->Stop();
  if (ephemeral_root) std::filesystem::remove_all(root);
  return 0;
}
