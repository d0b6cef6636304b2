// Palm end-to-end benchmark: command-line entry point.
//
//   palmbench --workload astro_explore|seismic_stream
//             --seed N --seconds S --trace 0|1
//             [--tiny] [--perturb]
//
// --trace 0 measures the end-to-end metrics: repeated set-up, an
// open-loop phase, a drain, a closed-loop capacity phase, and the answer
// checks. --trace 1 is the separate traced run: the same inputs, then a
// serial layer-by-layer replay of sampled requests (trace.cc). The last
// line of standard output is the result object; the exit code is 0 only
// when every checked answer was right and the run completed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/json.h"
#include "loadgen.h"
#include "trace.h"
#include "workload.h"

namespace palmbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "palmbench: %s\nusage: palmbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--perturb]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--perturb") {
      args.perturb = true;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.seconds <= 0.0) Usage("--seconds must be positive");
  return args;
}

/// Set-up repetitions; setup_s and build_s report their median.
constexpr size_t kSetupRepeats = 5;
/// Share of --seconds spent in the open-loop phase (the rest is the
/// closed-loop capacity phase).
constexpr double kOpenShare = 0.8;

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  coconut::JsonWriter w;
  w.BeginObject();
  w.Field("correct", correct);
  w.Field("attempted", attempted);
  w.Field("failed", failed);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, metric] : metrics) {
    w.Key(name);
    w.BeginObject();
    w.Field("value", metric.value);
    w.Field("unit", metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.TakeString().c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  Config config;
  if (!ConfigFor(args.workload, args.tiny, &config)) {
    Usage("unknown workload " + args.workload);
  }
  // Relative to the checkout root the benchmark runs from.
  const std::string workdir = ".bench_build/palmbench-work/" + config.name +
                              "-" +
                              std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);
  // Start from a clean disk: writeback left by an earlier process would
  // otherwise be charged to this run's set-up.
  SyncFilesystem(workdir);

  const double open_s = args.seconds * kOpenShare;
  const double closed_s = args.seconds - open_s;
  Workload workload(config, args.seed, workdir);
  workload.set_perturb(args.perturb);

  // ---- set-up, repeated: generate, register, build/create, warm up. Each
  // starts from a settled disk (syncfs, untimed): the previous set-up's
  // writeback and deletion would otherwise land on this one's build.
  std::vector<double> setup_times;
  std::vector<double> build_times;
  std::unique_ptr<System> system;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    if (system) system->Shutdown();
    system.reset();
    SyncFilesystem(workdir);
    const Clock::time_point t0 = Clock::now();
    workload.Generate(open_s, closed_s, args.trace ? kTraceBatches : 0);
    auto started = workload.StartSystem("sys" + std::to_string(k), true);
    if (!started.ok()) {
      std::fprintf(stderr, "palmbench: set-up failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    system = std::move(started.value());
    setup_times.push_back(SecondsSince(t0));
    build_times.push_back(system->build_s);
  }
  workload.PrepareIngestBodies();

  // Settle the disk outside the timed set-up: writeback of the earlier
  // set-ups' files (and of their deletion) would otherwise land on the
  // first fdatasyncs of the timed phases.
  SyncFilesystem(workdir);

  // ---- open loop.
  const Schedule schedule = workload.OpenLoopSchedule();
  const coconut::palm::api::ServerStatsResponse before = system->Stats();
  std::vector<Outcome> outcomes =
      RunOpenLoop(system->port(), &workload, schedule, workload.connections());
  coconut::palm::api::ServerStatsResponse cache_delta = system->Stats();
  cache_delta.cache_hits -= before.cache_hits;
  cache_delta.cache_misses -= before.cache_misses;
  cache_delta.cache_invalidations -= before.cache_invalidations;
  cache_delta.cache_stale_drops -= before.cache_stale_drops;
  uint64_t attempted = outcomes.size();
  uint64_t failed = 0;
  for (const Outcome& o : outcomes) failed += o.ok ? 0 : 1;

  // ---- the seal/merge work the open loop left owed.
  const double drain_s = workload.DrainOverHttp(system->port());
  ++attempted;
  if (drain_s < 0.0) ++failed;

  // ---- closed-loop capacity (not in the traced run).
  ClosedLoopResult closed;
  if (!args.trace) {
    closed = RunClosedLoop(system->port(), &workload,
                           workload.ClosedLoopRequests(),
                           workload.connections(), closed_s);
    attempted += closed.attempted;
    failed += closed.failed;
    if (closed.exhausted) {
      std::fprintf(stderr,
                   "palmbench: closed-loop request list ran out; "
                   "capacity_rps is a lower bound\n");
    }
  }

  // ---- final drain, on-disk footprint, answer checks.
  auto drained = system->Drain(Workload::kStream);
  ++attempted;
  CheckReport check;
  if (!drained.ok()) {
    ++failed;
    check.Fail("final drain failed: " + drained.status().ToString());
  }
  const double space_amp =
      static_cast<double>(DirectoryBytes(system->root)) / workload.UserBytes();
  workload.CheckAnswers(schedule.requests, outcomes, &check);
  if (drained.ok()) workload.CheckDrained(system.get(), drained.value(), &check);

  Metrics metrics;
  if (args.trace) {
    const std::string spans = ".bench_build/palmbench-traces/" +
                              config.name + "-seed" +
                              std::to_string(args.seed) + ".jsonl";
    metrics = RunTrace(&workload, system.get(), schedule, outcomes,
                       cache_delta,
                       drained.ok() ? drained.value()
                                    : coconut::palm::api::DrainStreamReport{},
                       spans, &check);
  } else {
    LatencyStats stats[kNumOps];
    for (size_t i = 0; i < outcomes.size(); ++i) {
      stats[static_cast<int>(schedule.requests[i].op)].Add(outcomes[i]);
    }
    // A failed request is a miss at any latency limit: it sorts past
    // every success and reads as the whole phase.
    const double fail_ms = open_s * 1000.0;
    std::string samples;
    for (int op = 0; op < kNumOps; ++op) {
      stats[op].Sort();
      const std::string name = OpName(static_cast<Op>(op));
      metrics[name + "_p50_ms"] = {stats[op].Percentile(0.5, fail_ms), "ms"};
      metrics[name + "_tail_ms"] = {
          stats[op].Percentile(config.tail[op], fail_ms), "ms"};
      samples += " " + name + "=" + std::to_string(stats[op].samples) +
                 "(tail p" + std::to_string(config.tail[op] * 100.0) + ")";
      // The shape of the distribution, so a tail percentile can be kept
      // off a knee (where a small shift in collisions moves it a lot).
      std::fprintf(stderr, "palmbench: %s profile ms:", name.c_str());
      for (double p : {0.5, 0.7, 0.8, 0.85, 0.9, 0.93, 0.95, 0.97, 0.98,
                       0.99}) {
        std::fprintf(stderr, " p%g=%.3f", p * 100.0,
                     stats[op].Percentile(p, fail_ms));
      }
      std::fprintf(stderr, "\n");
    }
    metrics["setup_s"] = {Median(setup_times), "s"};
    metrics["build_s"] = {Median(build_times), "s"};
    metrics["capacity_rps"] = {
        static_cast<double>(closed.completed_ok) / closed.seconds, "1/s"};
    metrics["drain_s"] = {drain_s, "s"};
    metrics["space_amp"] = {space_amp, "ratio"};
    metrics["peak_rss_mb"] = {PeakRssMib(), "MiB"};
    metrics["success_ratio"] = {
        static_cast<double>(attempted - failed) /
            static_cast<double>(attempted),
        "ratio"};
    LatencyStats late;
    for (const Outcome& o : outcomes) late.AddOk(o.late_ms);
    late.Sort();
    std::fprintf(stderr,
                 "palmbench: %s seed=%llu samples%s closed=%llu/%.2fs "
                 "late_p99=%.3fms\n",
                 config.name.c_str(),
                 static_cast<unsigned long long>(args.seed), samples.c_str(),
                 static_cast<unsigned long long>(closed.completed_ok),
                 closed.seconds, late.Percentile(0.99, 0.0));
  }

  system->Shutdown();
  system.reset();
  std::filesystem::remove_all(workdir);
  SyncFilesystem(std::filesystem::path(workdir).parent_path().string());

  if (check.mismatches > 0) {
    std::fprintf(stderr, "palmbench: %zu of %zu checked answers wrong; first: %s\n",
                 check.mismatches, check.checked,
                 check.first_mismatch.c_str());
  } else {
    std::fprintf(stderr, "palmbench: %zu answers checked, all correct\n",
                 check.checked);
  }
  const bool correct = check.mismatches == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace palmbench

int main(int argc, char** argv) {
  return palmbench::Run(palmbench::ParseArgs(argc, argv));
}
