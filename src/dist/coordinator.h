#ifndef COCONUT_DIST_COORDINATOR_H_
#define COCONUT_DIST_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "dist/shard_client.h"
#include "dist/topology.h"
#include "palm/api.h"
#include "palm/query_cache.h"
#include "palm/quota.h"
#include "palm/shard_route.h"
#include "series/series.h"

namespace coconut {
namespace palm {
namespace dist {

struct CoordinatorOptions {
  /// Shard servers in key-range order (entry i owns invSAX range i).
  std::vector<ShardEndpoint> shards;
  /// Per-shard connect/request timeouts and retry behavior.
  ShardClientOptions client;
  /// When a shard is unreachable, serve queries from the surviving shards
  /// (the answer covers a subset of the key space and is marked
  /// `degraded` on the wire). Off by default: a dead shard fails reads
  /// with a structured kUnavailable naming it.
  bool degraded_reads = false;
};

/// The distributed Palm backend: one process that owns the global
/// series-id space, the global timestamp watermark and the request fan-out
/// across N independent shard-server processes (palm_shardd), each a
/// complete single-process Palm service holding one invSAX key range.
///
/// Placement reuses palm/shard_route.h verbatim, so a coordinator over N
/// shard processes partitions the data exactly like a single-process
/// ShardedStreamingIndex / ShardedIndex with N shards — the dist oracle
/// test pins the two answer-for-answer. The coordinator forwards RAW
/// series (shards z-normalize on ingest with the same function, so the
/// stored bits match the single-process path) and z-normalizes a private
/// copy only to route; ingest sub-batches travel as CRC-checked binary
/// frames (ingest_batch_bin).
///
/// The front door itself — quota admission, the binary or JSON body
/// decode, the method table, the request checks and the answer cache — is
/// the api::FrontDoor it shares with api::Service, so a coordinator
/// refuses a malformed request with the same status and message a
/// single-process service would. The coordinator adds only the `shards`
/// health array of server_stats.
///
/// State model: shard servers persist their data (raw stores, WALs,
/// indexes); the coordinator's own registry — id maps, watermark, dataset
/// staging — is in memory. Recovering coordinator state from the shards
/// after a restart is future work; until then a restarted coordinator
/// serves recovered durable shard streams with structured errors rather
/// than mistranslated ids.
///
/// Fan-out reuses the in-process shard core's pieces: one IdMap per shard
/// per handle, RunOnEach with every call to shard s on strand s of a
/// K-worker pool (a shard has one connection, so its calls queue there
/// and no worker waits on another's), and ShardSet's gather step,
/// GatherAnswer.
///
/// Thread safety: a registry shared_mutex guards the name maps; ingest,
/// drain and drop serialize on the handle's op mutex (id assignment and
/// the watermark need it). Queries take no lock, as in
/// ShardedStreamingIndex: an ingest sets each routed series' id-map slot
/// before sending its sub-batch, every version stamp comes from one
/// coordinator-wide counter (a fill racing a drop can never stamp an
/// answer a recreated handle of the same name would serve), and a read
/// whose handle was dropped before its gather answers NotFound. No epoch
/// guard spans a shard call: with in-process shards, the shard's drop
/// would wait on the guard while the guard's holder waits on the shard.
class Coordinator final : public api::FrontDoor {
 public:
  static Result<std::unique_ptr<Coordinator>> Create(
      CoordinatorOptions options);
  ~Coordinator() override;

  /// Cache/quota counters plus per-shard health (the `shards` array).
  api::ServerStatsResponse ServerStats() const override;

  size_t num_shards() const { return shards_.size(); }

  // ---- typed operations (fanned out to the shard servers).

  Result<api::RegisterDatasetResponse> RegisterDataset(
      const api::RegisterDatasetRequest& request) override;
  Result<api::BuildIndexReport> BuildIndex(
      const api::BuildIndexRequest& request) override;
  Result<api::CreateStreamResponse> CreateStream(
      const api::CreateStreamRequest& request) override;
  Result<api::IngestBatchReport> IngestBatch(
      const api::IngestBatchRequest& request) override;
  Result<api::DrainStreamReport> DrainStream(
      const api::DrainStreamRequest& request) override;
  Result<api::QueryReport> Query(const api::QueryRequest& request) override;
  api::QueryBatchResponse QueryBatch(
      const api::QueryBatchRequest& request) override;
  Result<api::ListIndexesResponse> ListIndexes() override;
  Result<api::DropIndexResponse> DropIndex(
      const api::DropIndexRequest& request) override;
  Result<api::DropDatasetResponse> DropDataset(
      const api::DropDatasetRequest& request) override;

 private:
  /// Raw (un-normalized) dataset staged at the coordinator until
  /// build_index routes it; shards z-normalize their slices themselves.
  struct Dataset {
    series::SeriesCollection data{0};
    std::vector<int64_t> timestamps;
  };

  /// One distributed index or stream as the coordinator tracks it.
  struct DistHandle {
    DistHandle(size_t num_shards, uint64_t first_version)
        : ids(num_shards),
          next_local(num_shards, 0),
          has_index(num_shards, true),
          version(first_version) {}

    VariantSpec spec;
    bool streaming = false;
    /// Next global series id; ids are burned on rejected admissions,
    /// mirroring the single-process sharded semantics.
    uint64_t next_series_id = 0;
    /// Global timestamp watermark for kStrict/kClamp — the distributed
    /// twin of ShardedStreamingIndex::last_timestamp_.
    int64_t last_timestamp = std::numeric_limits<int64_t>::min();
    /// Per shard: shard-local ordinal -> global series id, the same map
    /// the in-process shards keep. Written before the handle is published
    /// (build) or under op_mutex (ingest); read lock-free by queries.
    std::vector<IdMap> ids;
    /// Per shard: the ordinal the shard assigns next (under op_mutex).
    std::vector<uint64_t> next_local;
    /// Static builds skip shards whose key range received no series (an
    /// empty dataset cannot be registered remotely); queries skip them
    /// too — an empty inner shard contributes nothing either way.
    std::vector<bool> has_index;
    /// Snapshot stamp for the answer cache, drawn from the coordinator's
    /// one counter on every successful mutation (ingest/drain). Valid
    /// because all mutations of shard data flow through this coordinator.
    std::atomic<uint64_t> version;
    /// True while the creating thread populates the handle outside the
    /// registry lock (PinHandle skips it), and again once DropIndex
    /// unregisters it: the tombstone a read checks after its gather.
    std::atomic<bool> building{true};
    std::mutex op_mutex;
  };

  explicit Coordinator(CoordinatorOptions options);

  std::shared_ptr<DistHandle> PinHandle(const std::string& name) const;

  /// num_shards in a wire spec must be 1 or match the topology (the
  /// topology IS the shard split; a different inner sharding would break
  /// the key-range equivalence with the single-process wrappers).
  Status CheckTopologySpec(const VariantSpec& spec) const;

  /// A fresh version stamp from the one coordinator-wide counter.
  uint64_t NextVersion() { return ++versions_; }

  /// Fans a call out to every shard whose params entry is set (nullopt =
  /// skip) and parses each reply as a `Response`; returns one Result per
  /// shard, positionally. ingest_batch_bin params are binary ingest
  /// frames, posted as such.
  template <class Response>
  std::vector<Result<Response>> Scatter(
      const std::string& method,
      const std::vector<std::optional<std::string>>& params, bool idempotent);
  /// Same params for every shard.
  template <class Response>
  std::vector<Result<Response>> Scatter(const std::string& method,
                                        const std::string& params,
                                        bool idempotent);

  /// Folds per-shard query answers (`answers[s]`, or the failure shard s
  /// returned) into one report: counters and io summed, the match chosen
  /// by GatherAnswer through the handle's id maps. A dead shard is skipped
  /// under degraded reads; a dropped handle answers NotFound.
  Result<api::QueryReport> Gather(
      const api::QueryRequest& request, const DistHandle& handle,
      const std::vector<Result<api::QueryReport>>& answers) const;

  const CoordinatorOptions options_;
  std::vector<std::unique_ptr<ShardClient>> shards_;
  /// K workers and one strand per shard; both empty when K == 1 (the one
  /// shard is called inline). The strands drain before the pool stops.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<SerialExecutor>> strands_;
  std::atomic<uint64_t> versions_{0};

  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<const Dataset>> datasets_;
  std::map<std::string, std::shared_ptr<DistHandle>> handles_;
};

}  // namespace dist
}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_DIST_COORDINATOR_H_
