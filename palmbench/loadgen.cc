#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

namespace palmbench {

const char* OpName(Op op) {
  switch (op) {
    case Op::kExact:
      return "exact";
    case Op::kApprox:
      return "approx";
    case Op::kIngest:
      return "ingest";
  }
  return "?";
}

void LatencyStats::Add(const Outcome& outcome) {
  if (outcome.ok) {
    AddOk(outcome.latency_ms);
  } else {
    ++samples;
    ++failures;
  }
}

void LatencyStats::AddOk(double ms) {
  ++samples;
  sorted_ok.push_back(ms);
}

void LatencyStats::Sort() { std::sort(sorted_ok.begin(), sorted_ok.end()); }

double LatencyStats::Percentile(double p, double fail_ms) const {
  if (samples == 0) return 0.0;
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(p * static_cast<double>(samples))));
  // Failures sort after every success (+infinity).
  return rank <= sorted_ok.size() ? sorted_ok[rank - 1] : fail_ms;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void SyncFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<Outcome> RunOpenLoop(uint16_t port, Traffic* traffic,
                                 const Schedule& schedule,
                                 size_t connections) {
  const size_t total = schedule.requests.size();
  std::vector<Outcome> outcomes(total);
  std::atomic<size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (size_t w = 0; w < connections; ++w) {
    workers.emplace_back([&] {
      coconut::palm::BlockingHttpClient client("127.0.0.1", port);
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= total) break;
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(schedule.due_s[i]));
        std::this_thread::sleep_until(due);
        Outcome& outcome = outcomes[i];
        outcome.late_ms = MillisSince(due);
        traffic->Send(&client, schedule.requests[i], &outcome);
        outcome.latency_ms = MillisSince(due);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return outcomes;
}

ClosedLoopResult RunClosedLoop(uint16_t port, Traffic* traffic,
                               const std::vector<Request>& requests,
                               size_t connections, double seconds) {
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<bool> exhausted{false};
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (size_t w = 0; w < connections; ++w) {
    workers.emplace_back([&] {
      coconut::palm::BlockingHttpClient client("127.0.0.1", port);
      while (Clock::now() < deadline) {
        const size_t i = next.fetch_add(1);
        if (i >= requests.size()) {
          exhausted = true;
          break;
        }
        Outcome outcome;
        traffic->Send(&client, requests[i], &outcome);
        ++(outcome.ok ? ok : failed);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ClosedLoopResult result;
  result.seconds = SecondsSince(t0);
  result.completed_ok = ok.load();
  result.failed = failed.load();
  result.attempted = result.completed_ok + result.failed;
  result.exhausted = exhausted.load();
  return result;
}

}  // namespace palmbench
