// Open- and closed-loop HTTP load generation over keep-alive connections.
#ifndef PALMBENCH_LOADGEN_H_
#define PALMBENCH_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "palm/http_client.h"

namespace palmbench {

/// The workload side of a phase: turns a Request into bytes on the wire
/// and judges the HTTP reply. Called concurrently from every connection.
class Traffic {
 public:
  virtual ~Traffic() = default;
  /// Sends `request` over `client` and fills outcome->ok, ->response and
  /// ->window_end. Latency fields are the generator's job.
  virtual void Send(coconut::palm::BlockingHttpClient* client,
                    const Request& request, Outcome* outcome) = 0;
};

/// A fixed arrival schedule: request i is due `due_s[i]` seconds after
/// the phase starts, whatever the server is doing.
struct Schedule {
  std::vector<Request> requests;
  std::vector<double> due_s;
};

/// Open loop over `connections` keep-alive connections (one worker thread
/// each; a worker takes the next due arrival, sleeps until it is due,
/// sends and waits). Latency counts from the due time, so a stall that
/// delays later sends is charged to them. Outcomes are in schedule order.
std::vector<Outcome> RunOpenLoop(uint16_t port, Traffic* traffic,
                                 const Schedule& schedule,
                                 size_t connections);

struct ClosedLoopResult {
  double seconds = 0.0;
  uint64_t completed_ok = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// True when the prepared request list ran out before the deadline.
  bool exhausted = false;
};

/// Closed loop: each of `connections` workers sends its next request as
/// soon as the previous one completes, until `seconds` have passed.
/// Requests are taken from `requests` in order.
ClosedLoopResult RunClosedLoop(uint16_t port, Traffic* traffic,
                               const std::vector<Request>& requests,
                               size_t connections, double seconds);

}  // namespace palmbench

#endif  // PALMBENCH_LOADGEN_H_
