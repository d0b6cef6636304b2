// Shared declarations of the Palm end-to-end benchmark (see README.md).
#ifndef PALMBENCH_BENCH_H_
#define PALMBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace palmbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The three operation types of every mix; each keeps its own histogram.
enum class Op { kExact = 0, kApprox = 1, kIngest = 2 };
inline constexpr int kNumOps = 3;
const char* OpName(Op op);

/// One request of a workload's traffic. `item` indexes the workload's query
/// table (queries) or batch table (ingests).
struct Request {
  Op op = Op::kExact;
  size_t item = 0;
};

/// What the load generator observed for one request.
struct Outcome {
  /// Completion minus due time (open loop) or minus send time (closed
  /// loop). Failed requests keep their measured value here but count as
  /// tail misses in the percentiles (see LatencyStats).
  double latency_ms = 0.0;
  /// Actual send time minus due time (open loop only).
  double late_ms = 0.0;
  bool ok = false;
  /// Stream queries: last timestamp of the window the request carried.
  int64_t window_end = 0;
  std::string response;
};

/// Nearest-rank percentile summary of one operation type. Failures count
/// as +infinity, so a failed request is a miss at every percentile it
/// reaches; a percentile that lands on one reports `fail_ms` instead.
struct LatencyStats {
  size_t samples = 0;
  size_t failures = 0;
  std::vector<double> sorted_ok;

  void Add(const Outcome& outcome);
  /// A successful sample of `ms`.
  void AddOk(double ms);
  /// Call once after the last Add, before Percentile.
  void Sort();
  /// Nearest rank: the ceil(p * n)-th smallest of all n samples.
  double Percentile(double p, double fail_ms) const;
};

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Peak resident set of this process, MiB.
double PeakRssMib();

/// Bytes of every regular file below `dir` (an exact on-disk count).
uint64_t DirectoryBytes(const std::string& dir);

/// Flushes the filesystem holding `dir` (syncfs).
void SyncFilesystem(const std::string& dir);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

}  // namespace palmbench

#endif  // PALMBENCH_BENCH_H_
