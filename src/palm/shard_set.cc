#include "palm/shard_set.h"

#include <algorithm>

namespace coconut {
namespace palm {

template <class Inner>
Status ShardSet<Inner>::Open(storage::StorageManager* root,
                             const std::string& name, size_t num_shards,
                             size_t pool_bytes_per_shard,
                             const series::SaxConfig& sax, bool keep_files,
                             const OpenShard& open) {
  if (root == nullptr) {
    return Status::InvalidArgument("root storage manager is required");
  }
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  sax_ = sax;
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    COCONUT_ASSIGN_OR_RETURN(
        shard->storage,
        storage::StorageManager::Create(root->directory() + "/" + name +
                                        "_shard" + std::to_string(i)));
    if (!keep_files) COCONUT_RETURN_NOT_OK(shard->storage->Clear());
    shard->pool = std::make_unique<storage::BufferPool>(pool_bytes_per_shard);
    COCONUT_RETURN_NOT_OK(open(i, *shard));
    shards_.push_back(std::move(shard));
  }
  if (num_shards > 1) {
    query_pool_ = std::make_unique<ThreadPool>(
        std::min(num_shards, kMaxQueryThreads));
  }
  return Status::OK();
}

template <class Inner>
size_t ShardSet<Inner>::ShardOf(std::span<const float> znorm_values) const {
  return ShardOfSeries(znorm_values, sax_, shards_.size());
}

template <class Inner>
void ShardSet<Inner>::Scatter(const std::function<void(size_t)>& fn) {
  RunOnEach(
      shards_.size(), [this](size_t) { return query_pool_.get(); },
      [&](size_t i) {
        Shard& shard = *shards_[i];
        if (shard.index->ConcurrentReadsSafe()) return fn(i);
        std::lock_guard<std::mutex> lock(shard.mu);
        fn(i);
      });
}

template <class Inner>
Status ShardSet<Inner>::BuildAll(const std::function<Status(Shard&)>& fn) {
  std::unique_ptr<ThreadPool> build_pool;
  if (shards_.size() > 1) {
    build_pool = std::make_unique<ThreadPool>(shards_.size());
  }
  std::vector<Status> statuses(shards_.size());
  RunOnEach(
      shards_.size(), [&](size_t) { return build_pool.get(); },
      [&](size_t i) { statuses[i] = fn(*shards_[i]); });
  for (const Status& st : statuses) COCONUT_RETURN_NOT_OK(st);
  return Status::OK();
}

template <class Inner>
Status ShardSet<Inner>::ForEach(const std::function<Status(Shard&)>& fn) {
  Status first;
  for (auto& shard : shards_) {
    const Status st = fn(*shard);
    if (first.ok() && !st.ok()) first = st;
  }
  return first;
}

template <class Inner>
Result<core::SearchResult> ShardSet<Inner>::Search(
    std::span<const float> query, const core::SearchOptions& options,
    core::QueryCounters* counters, bool exact) {
  const size_t k = shards_.size();
  std::vector<Result<core::SearchResult>> results(
      k, Result<core::SearchResult>(Status::Internal("not executed")));
  std::vector<core::QueryCounters> shard_counters(k);
  Scatter([&](size_t i) {
    Inner& index = *shards_[i]->index;
    results[i] = exact
                     ? index.ExactSearch(query, options, &shard_counters[i])
                     : index.ApproxSearch(query, options, &shard_counters[i]);
  });
  core::SearchResult best;
  for (size_t i = 0; i < k; ++i) {
    COCONUT_RETURN_NOT_OK(results[i].status());
    COCONUT_RETURN_NOT_OK(Gather(i, results[i].value(), &best));
    if (counters != nullptr) counters->Add(shard_counters[i]);
  }
  return best;
}

template <class Inner>
Status ShardSet<Inner>::Gather(size_t i, const core::SearchResult& answer,
                               core::SearchResult* best) const {
  return GatherAnswer<&core::SearchResult::distance_sq>(
      shards_[i]->local_to_global, answer, best,
      [i] { return "shard " + std::to_string(i); });
}

template <class Inner>
uint64_t ShardSet<Inner>::num_entries() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index->num_entries();
  return total;
}

template <class Inner>
uint64_t ShardSet<Inner>::index_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index->index_bytes();
  return total;
}

template <class Inner>
uint64_t ShardSet<Inner>::snapshot_version() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index->snapshot_version();
  return total;
}

template <class Inner>
storage::IoStats ShardSet<Inner>::AggregateIoStats() const {
  storage::IoStats total;
  for (const auto& shard : shards_) {
    total.Add(shard->storage->SnapshotIoStats());
  }
  return total;
}

template <class Inner>
std::string ShardSet<Inner>::describe(const std::string& label) const {
  return label + "[" + std::to_string(shards_.size()) + "x" +
         shards_[0]->index->describe() + "]";
}

template class ShardSet<core::DataSeriesIndex>;
template class ShardSet<stream::StreamingIndex>;

}  // namespace palm
}  // namespace coconut
