#ifndef COCONUT_PALM_QUOTA_H_
#define COCONUT_PALM_QUOTA_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"

namespace coconut {
namespace palm {
namespace api {

/// One client's token-bucket parameters. The bucket starts full (burst
/// requests immediately available) and refills continuously at
/// requests_per_second up to burst.
struct ClientQuota {
  /// Sustained request rate; <= 0 means unlimited (no bucket kept).
  double requests_per_second = 0.0;
  /// Bucket capacity — the largest back-to-back burst admitted.
  double burst = 1.0;
};

/// Front-door admission policy, enforced per Dispatch call.
struct QuotaOptions {
  /// token -> quota. The token is the opaque value the client presents as
  /// `Authorization: Bearer <token>`; an empty map with
  /// allow_anonymous=false locks the service down entirely.
  std::map<std::string, ClientQuota> clients;
  /// Whether requests without a recognized token are admitted at all.
  /// When true they share one anonymous bucket (anonymous_quota; absent =
  /// unlimited); when false they fail with kUnauthenticated (HTTP 401).
  bool allow_anonymous = false;
  std::optional<ClientQuota> anonymous_quota;
  /// Test seam: monotonic seconds. Defaults to steady_clock.
  std::function<double()> clock_seconds;
};

/// Parses a quota config. One client per line:
///
///   TOKEN=RPS[:BURST]     # burst defaults to 2*RPS
///   *=RPS[:BURST]         # '*' = the shared anonymous bucket (and turns
///                         # allow_anonymous on)
///
/// Blank lines and lines starting with '#' are ignored; inline trailing
/// "# ..." comments are stripped. RPS of 0 means unlimited. Malformed
/// lines fail with InvalidArgument naming the line number; the result on
/// failure is unspecified. `where` names the source in error messages
/// (a file path, or "<inline>").
Result<QuotaOptions> ParseQuotaConfig(const std::string& text,
                                      const std::string& where);

/// Reads `path` and parses it with ParseQuotaConfig.
Result<QuotaOptions> LoadQuotaFile(const std::string& path);

/// Counter snapshot (monotonic since enforcer creation).
struct QuotaStats {
  uint64_t admitted = 0;
  /// Requests refused with kResourceExhausted (HTTP 429).
  uint64_t throttled = 0;
  /// Requests refused with kUnauthenticated (HTTP 401).
  uint64_t unauthenticated = 0;
};

/// Token-bucket rate limiter keyed by client token, the first step of
/// api::FrontDoor's dispatch. Thread-safe; Admit is O(log clients).
class QuotaEnforcer {
 public:
  explicit QuotaEnforcer(QuotaOptions options);

  /// Admission decision for one request presented under `token` (empty =
  /// anonymous). OK admits and debits one request; kUnauthenticated means
  /// the token is missing/unknown and anonymous access is off;
  /// kResourceExhausted means the client's bucket is empty (the message
  /// names the retry horizon).
  Status Admit(const std::string& token);

  QuotaStats Snapshot() const;

 private:
  struct Bucket {
    ClientQuota quota;
    double tokens = 0.0;
    double last_refill_s = 0.0;
    bool primed = false;
  };

  Status AdmitBucket(Bucket* bucket, double now_s);

  QuotaOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Bucket> buckets_;
  Bucket anonymous_bucket_;
  QuotaStats stats_;
};

}  // namespace api
}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_QUOTA_H_
