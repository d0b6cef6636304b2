// The Palm workloads: their data, traffic, system under test and
// answer checks. Everything is generated from the workload seed; the
// system only ever sees the generated requests.
#ifndef PALMBENCH_WORKLOAD_H_
#define PALMBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "dist/coordinator.h"
#include "dist/service_endpoint.h"
#include "loadgen.h"
#include "palm/api.h"
#include "palm/http_server.h"
#include "series/series.h"

namespace palmbench {

enum class Kind { kAstro, kSeismic };

/// Sizes and rates of one workload (see README.md for why each exists).
struct Config {
  std::string name;
  Kind kind = Kind::kAstro;
  size_t series_length = 256;
  /// astro_explore: light curves in the static archive.
  size_t archive_series = 0;
  /// Series per ingest_batch request.
  size_t batch_series = 64;
  /// Stream workloads: batches loaded into the stream during set-up.
  size_t history_batches = 0;
  /// Stream workloads: queries search the newest `window_series`
  /// acknowledged series.
  int64_t window_series = 0;
  /// Open-loop arrival rates (requests or batches per second).
  double exact_rps = 0.0;
  double approx_rps = 0.0;
  double ingest_bps = 0.0;
  /// Share of approximate requests that re-ask an earlier one.
  double approx_reask = 0.0;
  /// Percentile reported as <op>_tail_ms, per operation type. Each leaves
  /// at least 31 samples beyond it in a 40 s run; p90 wherever a higher
  /// percentile swung too much from run to run. Ingest: p80, below the
  /// knee (between p85 and p90) past which the acknowledgements that waited
  /// are, and which swung with the host's load from run to run.
  double tail[kNumOps] = {0.9, 0.9, 0.8};
  /// Closed-loop request list length per second of the phase (an upper
  /// bound on capacity_rps; running out is reported).
  double closed_cap_rps = 1000.0;
  /// Exact answers checked against brute force (0 = every one).
  size_t exact_checks = 0;
};

/// Returns false for an unknown workload name.
bool ConfigFor(const std::string& name, bool tiny, Config* config);

/// One query of the traffic: the raw vector the client sends, and its
/// body (complete, or split around the window for stream queries).
struct Query {
  std::vector<float> values;
  bool exact = true;
  std::string body;         // complete body, or the part before the window
  std::string body_suffix;  // non-empty: windowed, body + window + suffix
};

/// One ingest_batch request: the values of `source` (a block of generated
/// series) stamped with timestamps first_ts, first_ts + 1, ...
struct Batch {
  size_t source = 0;
  int64_t first_ts = 0;
};

/// One complete system under test: a Service (or a coordinator over
/// shard services) behind the loopback HTTP front door.
struct System {
  struct Shard {
    std::unique_ptr<coconut::palm::api::Service> service;
    std::unique_ptr<coconut::palm::dist::ServiceEndpoint> endpoint;
    std::unique_ptr<coconut::palm::HttpServer> server;
  };
  std::string root;
  std::unique_ptr<coconut::palm::api::Service> service;  // single process
  std::vector<std::unique_ptr<Shard>> shards;            // dist
  std::unique_ptr<coconut::palm::dist::Coordinator> coordinator;
  std::unique_ptr<coconut::palm::HttpServer> server;
  double build_s = 0.0;

  uint16_t port() const { return server->port(); }
  coconut::Result<coconut::palm::api::IngestBatchReport> Ingest(
      const coconut::palm::api::IngestBatchRequest& request);
  coconut::Result<coconut::palm::api::DrainStreamReport> Drain(
      const std::string& stream);
  coconut::Result<coconut::palm::api::QueryReport> Query(
      const coconut::palm::api::QueryRequest& request);
  coconut::palm::api::ServerStatsResponse Stats() const;
  /// Stops the servers, destroys the services and removes `root`.
  void Shutdown();
  ~System() { Shutdown(); }
};

/// Result of the answer checks.
struct CheckReport {
  size_t checked = 0;
  size_t mismatches = 0;
  std::string first_mismatch;
  void Fail(const std::string& what);
};

class Workload : public Traffic {
 public:
  static constexpr const char* kArchive = "archive";  // astro static index
  static constexpr const char* kStream = "live";      // ingest target

  Workload(Config config, uint64_t seed, std::string workdir);

  const Config& config() const { return config_; }
  size_t connections() const { return connections_; }

  /// Generates every input from the seed (deterministic): the data, an
  /// open-loop schedule of `open_s` seconds, a closed-loop request list
  /// for `closed_s` seconds, and `trace_batches` extra ingest batches for
  /// the trace replay.
  void Generate(double open_s, double closed_s, size_t trace_batches);
  /// Serializes the ingest request bodies ahead of the load phases, so
  /// the client threads do not (the load generator's preparation, not the
  /// system's set-up; call after the last Generate).
  void PrepareIngestBodies();
  /// Brings a system up over the generated inputs: services, servers,
  /// build_index / create_stream, the stream history, a warm-up. With
  /// `shards` > 0 (stream workloads) the front door is a coordinator over
  /// that many shard services, each behind its own loopback server.
  coconut::Result<std::unique_ptr<System>> StartSystem(const std::string& tag,
                                                       bool cache,
                                                       size_t shards = 0);

  /// Traffic tables (valid after Generate()).
  Schedule OpenLoopSchedule() const;
  const std::vector<Request>& ClosedLoopRequests() const {
    return closed_mix_;
  }
  /// First of the trace replay's batches.
  size_t trace_batch_begin() const { return trace_batch_begin_; }

  void Send(coconut::palm::BlockingHttpClient* client, const Request& request,
            Outcome* outcome) override;

  /// Sends drain_stream over HTTP; returns its wall time in seconds, or a
  /// negative value on failure.
  double DrainOverHttp(uint16_t port);

  /// Checks every recorded answer of `requests`/`outcomes` against brute
  /// force over the generated inputs. Call after the final drain.
  void CheckAnswers(const std::vector<Request>& requests,
                    const std::vector<Outcome>& outcomes,
                    CheckReport* report) const;
  /// Post-drain checks: entry count == acknowledged series, fresh windowed
  /// answers == brute force.
  void CheckDrained(System* system, const coconut::palm::api::DrainStreamReport&
                                        drained,
                    CheckReport* report);

  /// Raw bytes the user handed over: acknowledged series (and the
  /// archive) x length x 4.
  double UserBytes() const;

  /// Negative self-test: perturb the first expected exact distance.
  void set_perturb(bool perturb) { perturb_ = perturb; }

  // ---- inputs, shared with the trace replay.
  size_t num_queries() const { return queries_.size(); }
  const coconut::series::SeriesCollection& archive() const { return archive_; }
  /// The typed form of a request as the client would send it.
  coconut::palm::api::QueryRequest TypedQuery(size_t item,
                                              int64_t window_end) const;
  coconut::palm::api::IngestBatchRequest TypedBatch(size_t item) const;
  /// Sample series of the workload's data (kernel timings).
  const coconut::series::SeriesCollection& sample_series() const;
  /// Marks a batch acknowledged (typed ingests outside the load phases).
  void MarkAcked(size_t batch);

 private:
  /// Forgets every acknowledgement (a fresh system starts empty).
  void ResetAcks();
  /// Series acknowledged so far (history included).
  uint64_t AckedSeries() const;
  /// End timestamp of the acknowledged prefix.
  int64_t AckedEnd() const;
  std::string QueryTarget() const;
  void AddQuery(std::vector<float> values, bool exact);
  std::string BatchBody(const Batch& batch) const;
  /// Normalized copy of the series stamped `ts` (the service's view).
  std::span<const float> SeriesAt(int64_t ts) const;
  /// Brute-force nearest neighbour over [begin, end] (timestamps).
  struct Nearest {
    bool found = false;
    int64_t ts = 0;
    double distance_sq = 0.0;
  };
  Nearest BruteForce(std::span<const float> query_norm, int64_t begin,
                     int64_t end) const;
  bool CheckOne(const Query& query, int64_t window_end,
                const std::string& response, CheckReport* report,
                bool perturb) const;

  const Config config_;
  const uint64_t seed_;
  const std::string workdir_;
  const size_t connections_;
  bool perturb_ = false;

  /// astro_explore archive as generated, and the service's normalized view.
  coconut::series::SeriesCollection archive_{0};
  coconut::series::SeriesCollection archive_norm_{0};
  /// Stream series blocks (one per distinct batch) and their normalized
  /// view; a batch stamps its block with fresh timestamps.
  coconut::series::SeriesCollection blocks_{0};
  coconut::series::SeriesCollection blocks_norm_{0};
  std::vector<std::string> block_prefix_;  // body up to the timestamps
  /// timestamp -> row of blocks_norm_.
  std::vector<uint32_t> ts_row_;

  std::vector<Query> queries_;
  std::vector<Batch> batches_;
  /// Request tables drawn in Generate().
  std::vector<Request> open_mix_;     // exact/approx/ingest in arrival order
  std::vector<double> open_due_;
  std::vector<Request> closed_mix_;
  size_t trace_batch_begin_ = 0;

  /// Acknowledgement tracking: batches acked, and the contiguous prefix.
  mutable std::mutex ack_mu_;
  std::vector<uint8_t> acked_;
  size_t acked_prefix_ = 0;
  uint64_t acked_series_ = 0;
  std::atomic<int64_t> acked_end_{-1};
};

}  // namespace palmbench

#endif  // PALMBENCH_WORKLOAD_H_
