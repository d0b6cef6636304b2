#ifndef COCONUT_TESTS_TEST_UTIL_H_
#define COCONUT_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/raw_store.h"
#include "core/types.h"
#include "series/distance.h"
#include "series/series.h"
#include "storage/storage_manager.h"
#include "stream/streaming_index.h"

namespace coconut {
namespace testutil {

/// Z-normalized random-walk collection: the standard synthetic workload of
/// the data series indexing literature.
inline series::SeriesCollection RandomWalkCollection(size_t count,
                                                     size_t length,
                                                     uint64_t seed) {
  series::SeriesCollection collection(length);
  collection.Reserve(count);
  Rng rng(seed);
  std::vector<float> buf(length);
  for (size_t i = 0; i < count; ++i) {
    double x = 0.0;
    for (size_t j = 0; j < length; ++j) {
      x += rng.NextGaussian();
      buf[j] = static_cast<float>(x);
    }
    series::ZNormalize(buf);
    collection.Append(buf);
  }
  return collection;
}

/// A query similar to collection[base] plus Gaussian noise (re-normalized).
inline std::vector<float> NoisyCopy(const series::SeriesCollection& collection,
                                    size_t base, double noise,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<float> q(collection[base].begin(), collection[base].end());
  for (float& v : q) v += static_cast<float>(noise * rng.NextGaussian());
  series::ZNormalize(q);
  return q;
}

/// Ground truth by linear scan.
struct BruteForceResult {
  size_t index;
  double distance_sq;
};

inline BruteForceResult BruteForceNearest(
    const series::SeriesCollection& collection,
    std::span<const float> query) {
  BruteForceResult best{0, std::numeric_limits<double>::infinity()};
  for (size_t i = 0; i < collection.size(); ++i) {
    const double d = series::EuclideanSquared(query, collection[i]);
    if (d < best.distance_sq) best = BruteForceResult{i, d};
  }
  return best;
}

/// The oracle every index variant is verified against: exact k nearest
/// neighbors by linear scan over the raw collection, ascending by distance
/// (ties broken by ordinal so the result is deterministic). An optional
/// `window` restricts candidates to ordinals whose timestamp — supplied via
/// `timestamps`, or the ordinal itself when null — falls inside it.
inline std::vector<BruteForceResult> BruteForceKnn(
    const series::SeriesCollection& collection, std::span<const float> query,
    size_t k, const core::TimeWindow& window = core::TimeWindow::All(),
    const std::vector<int64_t>* timestamps = nullptr) {
  std::vector<BruteForceResult> all;
  all.reserve(collection.size());
  for (size_t i = 0; i < collection.size(); ++i) {
    const int64_t t =
        timestamps != nullptr ? (*timestamps)[i] : static_cast<int64_t>(i);
    if (!window.Contains(t)) continue;
    all.push_back(
        BruteForceResult{i, series::EuclideanSquared(query, collection[i])});
  }
  std::sort(all.begin(), all.end(),
            [](const BruteForceResult& a, const BruteForceResult& b) {
              if (a.distance_sq != b.distance_sq) {
                return a.distance_sq < b.distance_sq;
              }
              return a.index < b.index;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

/// Populates a raw store from a collection (ids = ordinals).
inline Status FillRawStore(core::RawSeriesStore* store,
                           const series::SeriesCollection& collection) {
  for (size_t i = 0; i < collection.size(); ++i) {
    auto r = store->Append(collection[i]);
    if (!r.ok()) return r.status();
  }
  return store->Flush();
}

/// Parks every worker of a pool behind a latch — the "slow flusher": any
/// strand task submitted while parked queues but cannot run. Release()
/// lets the backlog drain; the destructor releases too, then waits for the
/// parked tasks to leave, so the throttle may go out of scope before the
/// pool's workers have woken.
class PoolThrottle {
 public:
  explicit PoolThrottle(ThreadPool* pool) : pool_(pool) {}

  ~PoolThrottle() {
    Release();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_ == 0; });
  }

  void Park() {
    const size_t n = pool_->num_threads();
    for (size_t i = 0; i < n; ++i) {
      pool_->Submit([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++parked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
        --parked_;
        cv_.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n] { return parked_ == n; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parked_ = 0;
  bool released_ = false;
};

/// Minimal WAL replay sink: records what reaches the index (ids,
/// timestamps, payloads and the restored watermark) without indexing it.
/// RestoreFromManifest stays unsupported, which exercises recovery's
/// full-replay fallback whenever a checkpoint survives.
class CapturingIndex : public stream::StreamingIndex {
 public:
  struct Entry {
    uint64_t id;
    int64_t timestamp;
    std::vector<float> values;
  };

  Status Ingest(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp) override {
    entries.push_back(Entry{series_id, timestamp,
                            {znorm_values.begin(), znorm_values.end()}});
    return Status::OK();
  }
  Status FlushAll() override { return Status::OK(); }
  Result<core::SearchResult> ApproxSearch(std::span<const float>,
                                          const core::SearchOptions&,
                                          core::QueryCounters*) override {
    return core::SearchResult{};
  }
  Result<core::SearchResult> ExactSearch(std::span<const float>,
                                         const core::SearchOptions&,
                                         core::QueryCounters*) override {
    return core::SearchResult{};
  }
  uint64_t num_entries() const override { return entries.size(); }
  size_t num_partitions() const override { return 0; }
  uint64_t index_bytes() const override { return 0; }
  std::string describe() const override { return "capturing"; }
  void RestoreWatermark(int64_t timestamp) override {
    restored_watermark = timestamp;
  }

  std::vector<Entry> entries;
  int64_t restored_watermark = std::numeric_limits<int64_t>::min();
};

}  // namespace testutil
}  // namespace coconut

#endif  // COCONUT_TESTS_TEST_UTIL_H_
