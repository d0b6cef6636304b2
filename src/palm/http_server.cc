#include "palm/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/timer.h"

namespace coconut {
namespace palm {

namespace {

constexpr size_t kMaxHeaderBytes = 64 * 1024;
/// Workers poll the stop flag at this cadence while blocked in recv.
constexpr int kRecvPollMs = 200;
/// Write-side slow-client defense. SO_SNDTIMEO only bounds a
/// zero-progress stretch, so a client draining a few KB per timeout tick
/// could otherwise hold a worker (and Stop() behind it) for hours. After
/// a grace period the sender requires a minimum average throughput —
/// responses are unbounded (a max-bin heat map serializes to ~100MB), so
/// a fixed wall-clock deadline would cut off legitimate slow links.
constexpr double kSendGraceSeconds = 30.0;
constexpr double kMinSendBytesPerSecond = 64.0 * 1024;
/// Per-send() stall timeout (SO_SNDTIMEO). Deliberately independent of
/// keep_alive_timeout_ms: tuning the idle-read deadline down must not
/// shrink the window a legitimate client has to drain a full socket
/// buffer mid-response.
constexpr int kSendStallTimeoutMs = 5000;
/// Read-side counterpart of the send throughput floor: an absolute
/// per-request deadline made the 64 MiB body cap unreachable for
/// slow-but-honest uploaders (64 MiB inside keep_alive_timeout_ms needs
/// >100 Mbit/s at the default 5 s). Instead, a body read may take as
/// long as it keeps progressing: any zero-progress stretch is still
/// bounded by keep_alive_timeout_ms, and after a grace period the
/// average transfer rate must clear a floor — a slow-loris client
/// dripping one byte per tick dies at the floor, a slow link streaming
/// steadily does not.
constexpr double kRecvGraceSeconds = 30.0;
constexpr double kMinRecvBytesPerSecond = 64.0 * 1024;
/// Largest single recv() into a request body: the body buffer grows at
/// most this far past the bytes that have actually arrived.
constexpr size_t kBodyRecvBytes = 64 * 1024;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 401:
      return "Unauthorized";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 411:
      return "Length Required";
    case 413:
      return "Payload Too Large";
    case 417:
      return "Expectation Failed";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 505:
      return "HTTP Version Not Supported";
    default:
      return "Internal Server Error";
  }
}

/// One parsed request.
struct ParsedRequest {
  bool ok = false;
  std::string method;
  std::string target;
  bool keep_alive = true;
  std::string body;
  /// Content-Type header value, lowercased, parameters stripped after
  /// ';'. Empty when absent (JSON assumed).
  std::string content_type;
  /// Credential from the Authorization header ("Bearer <x>" -> "<x>";
  /// other schemes pass through whole). Empty = anonymous.
  std::string client_token;
};

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return s;
}

/// recv() with EINTR handling. Returns >0 bytes, 0 on orderly close,
/// -1 on timeout (EAGAIN), -2 on hard error.
ssize_t RecvSome(int fd, char* buf, size_t len) {
  while (true) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    return -2;
  }
}

bool SendAll(int fd, const char* data, size_t len) {
  WallTimer timer;
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN here means the SO_SNDTIMEO send timeout expired: the peer
      // stopped reading and the socket buffer is full. Retrying would
      // block this worker forever (and Stop() behind it) on a client
      // that never drains — give the connection up instead.
      return false;
    }
    sent += static_cast<size_t>(n);
    if (sent < len) {
      const double elapsed = timer.ElapsedSeconds();
      if (elapsed > kSendGraceSeconds &&
          static_cast<double>(sent) < elapsed * kMinSendBytesPerSecond) {
        return false;  // drip-feeding reader: below the throughput floor
      }
    }
  }
  return true;
}

bool WriteResponse(int fd, int status, const std::string& body,
                   bool keep_alive, const char* extra_header = nullptr,
                   bool include_body = true) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     ReasonPhrase(status) + "\r\n";
  head += "Content-Type: application/json\r\n";
  head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  if (extra_header != nullptr) {
    head += extra_header;
    head += "\r\n";
  }
  head += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  head += "\r\n";
  if (!SendAll(fd, head.data(), head.size())) return false;
  // HEAD responses advertise the entity's Content-Length but carry no
  // body; sending one would desync keep-alive clients.
  if (!include_body) return true;
  return SendAll(fd, body.data(), body.size());
}

std::string JsonError(const Status& status) {
  return api::ApiError::FromStatus(status).ToJsonString();
}

}  // namespace

Result<std::unique_ptr<HttpServer>> HttpServer::Start(
    HttpDispatcher* dispatcher, const HttpServerOptions& options) {
  if (dispatcher == nullptr) {
    return Status::InvalidArgument("HttpServer needs a dispatcher");
  }
  std::unique_ptr<HttpServer> server(new HttpServer(dispatcher, options));
  COCONUT_RETURN_NOT_OK(server->Listen());
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  const size_t threads = options.threads == 0 ? 1 : options.threads;
  server->workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("invalid bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IoError("bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    return Status::IoError("listen: " + std::string(std::strerror(errno)));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return Status::IoError("getsockname: " +
                           std::string(std::strerror(errno)));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void HttpServer::Stop() {
  // Serialized so an explicit Stop and the destructor can't join the same
  // threads twice; the second caller waits for the first to finish.
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  {
    // The flag must flip under queue_mutex_: a worker that has evaluated
    // the wait predicate but not yet parked would otherwise miss this
    // notify forever (lost wakeup), hanging the join below.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_.store(true);
  }
  // Wake the acceptor blocked in accept(); the fd itself is closed only
  // after the acceptor joined, so no thread ever reads a stale/reused fd.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Connections accepted but never claimed by a worker.
  std::lock_guard<std::mutex> lock(queue_mutex_);
  for (const int fd : pending_connections_) ::close(fd);
  pending_connections_.clear();
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // A client resetting before accept() (ECONNABORTED) or transient
      // resource exhaustion must not kill the acceptor for the life of
      // the process; back off briefly and keep serving.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      // Closed listener (Stop) or a hard error: either way, stop serving.
      break;
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    // Responses go out as two sends (head, then body); without NODELAY
    // Nagle holds the second until the first is ACKed, adding ~40 ms of
    // delayed-ACK latency to every keep-alive request on loopback.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      pending_connections_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load() || !pending_connections_.empty();
      });
      if (pending_connections_.empty()) return;  // stopping
      fd = pending_connections_.front();
      pending_connections_.pop_front();
    }
    HandleConnection(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  timeval poll_interval{};
  poll_interval.tv_sec = kRecvPollMs / 1000;
  poll_interval.tv_usec = (kRecvPollMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &poll_interval,
               sizeof(poll_interval));
  // Bound writes too: without a send timeout a client that stops reading
  // parks a worker in send() permanently once the socket buffer fills.
  timeval send_timeout{};
  send_timeout.tv_sec = kSendStallTimeoutMs / 1000;
  send_timeout.tv_usec = (kSendStallTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));

  std::string buffer;
  bool alive = true;
  while (alive && !stopping_.load()) {
    // ---- read one request (headers, then Content-Length body bytes).
    // The deadline is absolute per request, checked whether or not bytes
    // arrived: a client dripping one byte per poll interval must not be
    // able to hold a worker past the timeout (slow-loris).
    size_t header_end = std::string::npos;
    WallTimer deadline;
    const double timeout_ms =
        static_cast<double>(options_.keep_alive_timeout_ms);
    while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      if (buffer.size() > kMaxHeaderBytes) {
        WriteResponse(fd, 431,
                      JsonError(Status::InvalidArgument(
                          "request headers exceed 64KiB")),
                      false);
        ::close(fd);
        return;
      }
      if (stopping_.load() || deadline.ElapsedSeconds() * 1000.0 > timeout_ms) {
        ::close(fd);
        return;
      }
      char chunk[8192];
      const ssize_t n = RecvSome(fd, chunk, sizeof(chunk));
      if (n == 0 || n == -2) {
        ::close(fd);  // peer closed (between requests this is normal)
        return;
      }
      if (n == -1) continue;  // poll tick; deadline re-checked above
      buffer.append(chunk, static_cast<size_t>(n));
    }

    ParsedRequest request;
    {
      const std::string head = buffer.substr(0, header_end);
      size_t line_end = head.find("\r\n");
      const std::string request_line =
          line_end == std::string::npos ? head : head.substr(0, line_end);
      const size_t sp1 = request_line.find(' ');
      const size_t sp2 =
          sp1 == std::string::npos ? std::string::npos
                                   : request_line.find(' ', sp1 + 1);
      if (sp1 == std::string::npos || sp2 == std::string::npos) {
        WriteResponse(
            fd, 400,
            JsonError(Status::InvalidArgument("malformed request line")),
            false);
        ::close(fd);
        return;
      }
      request.method = request_line.substr(0, sp1);
      request.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::string version = request_line.substr(sp2 + 1);
      if (version.rfind("HTTP/1.", 0) != 0) {
        WriteResponse(fd, 505,
                      JsonError(Status::InvalidArgument(
                          "only HTTP/1.x is supported")),
                      false);
        ::close(fd);
        return;
      }
      request.keep_alive = version != "HTTP/1.0";

      bool have_length = false;
      bool expect_continue = false;
      size_t content_length = 0;
      size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
      while (pos < head.size()) {
        size_t next = head.find("\r\n", pos);
        if (next == std::string::npos) next = head.size();
        const std::string line = head.substr(pos, next - pos);
        pos = next + 2;
        const size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        const std::string name = ToLower(line.substr(0, colon));
        std::string value = line.substr(colon + 1);
        while (!value.empty() && (value.front() == ' ' ||
                                  value.front() == '\t')) {
          value.erase(value.begin());
        }
        while (!value.empty() && (value.back() == ' ' ||
                                  value.back() == '\t' ||
                                  value.back() == '\r')) {
          value.pop_back();
        }
        if (name == "content-length") {
          char* end = nullptr;
          const unsigned long long parsed =
              std::strtoull(value.c_str(), &end, 10);
          // Repeated Content-Length headers are the CL.CL
          // request-smuggling setup (RFC 7230 §3.3.3): a proxy honoring
          // the other copy would disagree on where the body ends.
          if (value.empty() || end != value.c_str() + value.size() ||
              have_length) {
            WriteResponse(fd, 400,
                          JsonError(Status::InvalidArgument(
                              have_length ? "duplicate Content-Length"
                                          : "invalid Content-Length")),
                          false);
            ::close(fd);
            return;
          }
          content_length = static_cast<size_t>(parsed);
          have_length = true;
        } else if (name == "transfer-encoding") {
          WriteResponse(fd, 501,
                        JsonError(Status::NotSupported(
                            "chunked transfer encoding is not supported; "
                            "send Content-Length")),
                        false);
          ::close(fd);
          return;
        } else if (name == "content-type") {
          std::string media = ToLower(value);
          if (const size_t semi = media.find(';'); semi != std::string::npos) {
            media.resize(semi);
          }
          while (!media.empty() && (media.back() == ' ' ||
                                    media.back() == '\t')) {
            media.pop_back();
          }
          request.content_type = media;
        } else if (name == "authorization") {
          const std::string lowered = ToLower(value);
          if (lowered.rfind("bearer ", 0) == 0) {
            request.client_token = value.substr(7);
            // RFC 6750 allows whitespace padding after the scheme.
            while (!request.client_token.empty() &&
                   request.client_token.front() == ' ') {
              request.client_token.erase(request.client_token.begin());
            }
          } else {
            request.client_token = value;
          }
        } else if (name == "connection") {
          const std::string lowered = ToLower(value);
          if (lowered == "close") request.keep_alive = false;
          if (lowered == "keep-alive") request.keep_alive = true;
        } else if (name == "expect") {
          // curl adds "Expect: 100-continue" to POSTs over 1KB and waits
          // for the interim response before sending the body; never
          // answering it stalls every sizable request by curl's 1s grace
          // period (and strict clients forever). Expect in an HTTP/1.0
          // request is ignored — 1.0 clients have no concept of interim
          // responses and would parse a 100 as the final one (RFC 7231
          // §5.1.1).
          if (version == "HTTP/1.0") continue;
          if (ToLower(value) != "100-continue") {
            WriteResponse(fd, 417,
                          JsonError(Status::InvalidArgument(
                              "unsupported Expect value")),
                          false);
            ::close(fd);
            return;
          }
          expect_continue = true;
        }
      }
      if (content_length > options_.max_body_bytes) {
        WriteResponse(fd, 413,
                      JsonError(Status::ResourceExhausted(
                          "request body exceeds max_body_bytes")),
                      false);
        ::close(fd);
        return;
      }
      buffer.erase(0, header_end + 4);
      if (expect_continue && buffer.size() < content_length) {
        // Unblock clients waiting for the go-ahead before sending the
        // body; any body bytes already buffered mean the client did not
        // wait, and the interim response is harmless either way.
        const char kContinue[] = "HTTP/1.1 100 Continue\r\n\r\n";
        if (!SendAll(fd, kContinue, sizeof(kContinue) - 1)) {
          ::close(fd);
          return;
        }
      }
      // The 413 check above bounds the body, so it is reserved once and
      // received straight into the buffer's tail.
      if (buffer.size() < content_length) buffer.reserve(content_length);
      // Size-aware transfer timeout (mirrors SendAll): the idle deadline
      // restarts on every received chunk, and total elapsed time is
      // bounded only through the throughput floor — so a large body on a
      // slow-but-honest link survives while both stall and drip attacks
      // still die.
      WallTimer body_timer;
      WallTimer progress_timer;
      const size_t body_preread = buffer.size();
      while (buffer.size() < content_length) {
        if (stopping_.load() || progress_timer.ElapsedMillis() > timeout_ms) {
          ::close(fd);
          return;
        }
        const double elapsed = body_timer.ElapsedSeconds();
        if (elapsed > kRecvGraceSeconds &&
            static_cast<double>(buffer.size() - body_preread) <
                elapsed * kMinRecvBytesPerSecond) {
          ::close(fd);  // drip-feeding uploader: below the throughput floor
          return;
        }
        const size_t received = buffer.size();
        buffer.resize(received +
                      std::min(content_length - received, kBodyRecvBytes));
        const ssize_t n =
            RecvSome(fd, buffer.data() + received, buffer.size() - received);
        buffer.resize(received + (n > 0 ? static_cast<size_t>(n) : 0));
        if (n == 0 || n == -2) {
          ::close(fd);
          return;
        }
        if (n == -1) continue;  // poll tick; deadlines re-checked above
        progress_timer.Reset();
      }
      if (buffer.size() == content_length) {
        request.body = std::move(buffer);  // no pipelined bytes follow
        buffer.clear();
      } else {
        request.body = buffer.substr(0, content_length);
        buffer.erase(0, content_length);
      }
      (void)have_length;  // absent Content-Length means an empty body
      request.ok = true;
    }

    // A stopping server finishes this request but opts out of keep-alive.
    if (stopping_.load()) request.keep_alive = false;

    // ---- route.
    std::string target = request.target;
    if (const size_t q = target.find('?'); q != std::string::npos) {
      target.resize(q);  // the API carries parameters in the body
    }
    // Every HEAD response advertises the entity's Content-Length but
    // carries no body, whatever route it hit — a body after the headers
    // would desync keep-alive clients.
    const bool include_body = request.method != "HEAD";
    if (target == "/healthz") {
      if (request.method == "GET" || request.method == "HEAD") {
        alive = WriteResponse(fd, 200, "{\"ok\":true}", request.keep_alive,
                              nullptr, include_body);
      } else {
        alive = WriteResponse(
            fd, 405, JsonError(Status::InvalidArgument("use GET /healthz")),
            request.keep_alive, "Allow: GET, HEAD", include_body);
      }
    } else if (target.rfind("/api/v1/", 0) == 0) {
      const std::string method_name = target.substr(8);
      if (request.method != "POST") {
        alive = WriteResponse(fd, 405,
                              JsonError(Status::InvalidArgument(
                                  "API methods are invoked with POST")),
                              request.keep_alive, "Allow: POST",
                              include_body);
      } else {
        // The service reports failures through Status, but a hostile
        // request can still provoke an exception below it (e.g. an
        // allocation a validation cap missed); letting it escape this
        // thread would std::terminate the whole server.
        Result<std::string> dispatched =
            Status::Internal("dispatch did not run");
        try {
          HttpRequestInfo info;
          info.method = method_name;
          info.body = std::move(request.body);
          info.content_type = request.content_type;
          info.client_token = request.client_token;
          dispatched = dispatcher_->Dispatch(info);
        } catch (const std::exception& e) {
          dispatched = Status::Internal(std::string("unhandled exception: ") +
                                        e.what());
        } catch (...) {
          dispatched = Status::Internal("unhandled exception");
        }
        if (dispatched.ok()) {
          alive = WriteResponse(fd, 200, dispatched.value(),
                                request.keep_alive);
        } else {
          const int http_status =
              api::StatusCodeToHttpStatus(dispatched.status().code());
          alive = WriteResponse(
              fd, http_status, JsonError(dispatched.status()),
              request.keep_alive,
              http_status == 401 ? "WWW-Authenticate: Bearer" : nullptr);
        }
      }
    } else {
      alive = WriteResponse(
          fd, 404,
          JsonError(Status::NotFound("no route for '" + target +
                                     "' (use POST /api/v1/<method>)")),
          request.keep_alive, nullptr, include_body);
    }
    alive = alive && request.keep_alive;
  }
  ::close(fd);
}

}  // namespace palm
}  // namespace coconut
