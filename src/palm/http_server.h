#ifndef COCONUT_PALM_HTTP_SERVER_H_
#define COCONUT_PALM_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "palm/api.h"

namespace coconut {
namespace palm {

struct HttpServerOptions {
  /// Interface to bind; the demo backend is loopback-only by default.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (see port()).
  uint16_t port = 0;
  /// Worker threads. Each worker owns one connection at a time (keep-alive
  /// included), so this is also the concurrent-connection budget.
  size_t threads = 4;
  /// Largest accepted request body (dataset registrations are the big
  /// ones); beyond it the connection gets 413 and is closed.
  size_t max_body_bytes = 64ull << 20;
  /// An idle keep-alive connection is closed after this long.
  int keep_alive_timeout_ms = 5000;
};

/// Minimal embedded HTTP/1.1 server putting a real wire in front of an
/// HttpDispatcher — the REST backend of the paper's Figure 1.
///
///   POST /api/v1/<method>   body = request  ->  response JSON
///   GET  /healthz                           ->  {"ok":true}
///
/// <method>, the body, its Content-Type and the bearer token go to the
/// dispatcher as one HttpRequestInfo — normally an api::FrontDoor (a
/// Service or a dist::Coordinator), whose Methods() lists the names.
/// Failures map to HTTP codes through api::StatusCodeToHttpStatus with an
/// ApiError JSON body. Supports keep-alive with Content-Length framing
/// (no chunked encoding — requests carrying Transfer-Encoding are
/// rejected with 501).
///
/// Threading: one acceptor thread hands connections to a fixed worker
/// pool; concurrency control for the backend lives behind the dispatcher
/// (registry lock + per-index operation mutexes). Stop() is graceful:
/// stops accepting, lets in-flight requests finish, joins every thread;
/// the destructor calls it.
class HttpServer {
 public:
  /// Binds, listens and starts the acceptor + workers. On success the
  /// server is live; port() reports the actual port (useful with port 0).
  /// The dispatcher must outlive the server.
  static Result<std::unique_ptr<HttpServer>> Start(
      HttpDispatcher* dispatcher, const HttpServerOptions& options = {});

  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Graceful shutdown; idempotent. Returns after every thread joined.
  void Stop();

  uint16_t port() const { return port_; }
  const std::string& address() const { return options_.bind_address; }

 private:
  HttpServer(HttpDispatcher* dispatcher, HttpServerOptions options)
      : dispatcher_(dispatcher), options_(std::move(options)) {}

  Status Listen();
  void AcceptLoop();
  void WorkerLoop();
  void HandleConnection(int fd);

  HttpDispatcher* dispatcher_;
  HttpServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_connections_;
  /// Serializes Stop() against the destructor.
  std::mutex stop_mutex_;
};

}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_HTTP_SERVER_H_
