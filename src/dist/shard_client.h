#ifndef COCONUT_DIST_SHARD_CLIENT_H_
#define COCONUT_DIST_SHARD_CLIENT_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"
#include "dist/topology.h"
#include "palm/api.h"
#include "palm/http_client.h"

namespace coconut {
namespace palm {
namespace dist {

/// Reconstructs the Status a remote service serialized as an ApiError, so
/// shard errors cross the coordinator with their original code and
/// message. Unknown codes map to kInternal.
Status StatusFromApiError(const api::ApiError& error);

struct ShardClientOptions {
  /// Bound on establishing the TCP connection to the shard.
  int connect_timeout_ms = 2000;
  /// Bound on one whole request round trip (send + response).
  int request_timeout_ms = 10000;
};

/// One shard server as the coordinator sees it: a keep-alive JSON/binary
/// RPC channel with timeouts, one bounded retry, and health counters.
///
/// Error contract: every transport-level failure (connect refused,
/// connect/request timeout, torn response) surfaces as
/// StatusCode::kUnavailable with the shard's endpoint in the message —
/// the coordinator's degraded-read logic keys on exactly that code.
/// Application-level failures (the shard answered with a non-2xx status
/// and an ApiError body) are decoded back into the original Status code
/// and message, and do NOT count against the shard's health: a NotFound
/// is a healthy shard saying no.
///
/// Retry policy: idempotent calls (query, stats, drain) are re-sent once
/// after a transport failure; non-idempotent calls (ingest) are never
/// retried — a request timeout leaves the shard possibly mid-apply, and a
/// blind resend would duplicate the batch. The retry reconnects from
/// scratch, so it also covers a shard that restarted between calls.
///
/// Thread-safe: calls serialize on an internal mutex (one connection per
/// shard). The coordinator queues every call to a shard on that shard's
/// strand, so its pool workers never wait here for one another.
class ShardClient {
 public:
  explicit ShardClient(ShardEndpoint endpoint, ShardClientOptions options = {});

  const ShardEndpoint& endpoint() const { return endpoint_; }

  /// POST /api/v1/<method> with a JSON params body. Returns the response
  /// body on HTTP 2xx; decodes the ApiError body otherwise.
  Result<std::string> Call(const std::string& method,
                           const std::string& params_json, bool idempotent);

  /// POST /api/v1/ingest_batch_bin with the binary framing Content-Type.
  /// Never retried (ingest is not idempotent).
  Result<std::string> CallBinaryIngest(const std::string& frame);

  struct Health {
    /// False once the most recent call failed at the transport level.
    bool healthy = true;
    /// Logical calls issued (retries are not counted separately).
    uint64_t requests = 0;
    /// Calls that failed at the transport level after any retry.
    uint64_t failures = 0;
    /// Transport failures since the last successful round trip.
    uint64_t consecutive_failures = 0;
  };
  Health health() const;

 private:
  Result<std::string> RoundTrip(
      const std::string& target, const std::string& body,
      const std::vector<std::pair<std::string, std::string>>& headers,
      bool may_retry);

  const ShardEndpoint endpoint_;
  mutable std::mutex mu_;
  BlockingHttpClient client_;
  uint64_t requests_ = 0;
  uint64_t failures_ = 0;
  uint64_t consecutive_failures_ = 0;
};

}  // namespace dist
}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_DIST_SHARD_CLIENT_H_
