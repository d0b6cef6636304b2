#ifndef COCONUT_PALM_QUERY_CACHE_H_
#define COCONUT_PALM_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "palm/api.h"

namespace coconut {
namespace palm {
namespace api {

/// Capacity knobs for the service-level answer cache. Both limits apply;
/// eviction is strict LRU.
struct QueryCacheOptions {
  size_t max_entries = 4096;
  size_t max_bytes = 64ull << 20;
  /// Cache not-found exact answers too (a miss on the data is still a
  /// deterministic answer at a snapshot version). Off by default: a
  /// negative entry is only as trustworthy as the version stamp, and
  /// workloads probing absent keys can churn the LRU. Counted separately
  /// (negative_hits/negative_inserts) so operators can watch the win.
  bool cache_negative_results = false;
};

/// Counter snapshot (monotonic since cache creation, except entries/bytes
/// which are the current occupancy).
struct QueryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  /// Lookups that found the key but at a superseded snapshot version; the
  /// entry is dropped and the lookup counts as a miss too.
  uint64_t stale_drops = 0;
  /// Entries removed because their index was dropped or republished.
  uint64_t invalidations = 0;
  /// Subset of hits/inserts whose stored report is found=false (only
  /// nonzero with cache_negative_results on).
  uint64_t negative_hits = 0;
  uint64_t negative_inserts = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
};

/// Exact LRU answer cache for Query: the key encodes the index name, the
/// exact/approx mode, approx_candidates, the optional time window and the
/// raw float *bit patterns* of the query vector (memcmp semantics — two
/// queries hit the same entry iff they are byte-identical, so -0.0f vs
/// 0.0f and NaN payloads never alias). The stored QueryReport is re-served
/// verbatim, which keeps a hit byte-identical on the wire to the response
/// that filled it.
///
/// Exactness under ingest comes from the snapshot-version stamp
/// (core::IndexReader::snapshot_version): entries remember
/// the version they were computed at and Lookup only returns them while
/// the index still reports that version. The service fills an entry only
/// when the version read before the scan equals the version read after it
/// (the scan observed one stable snapshot). That bracket is the whole
/// guard on the lock-free read path too: the version counter is monotone
/// and bumped inside the writer's critical section *before* the
/// replacement snapshot is published, so a scan racing a background
/// publish either reads the old version twice (and computed against the
/// old snapshot — a correct entry for it) or sees the bracket differ and
/// stamps nothing. A stale answer can therefore never be inserted under
/// the new version, with no lock shared between filler and writer.
/// Because a dropped-and-recreated index restarts its counter, the
/// service additionally calls InvalidateIndex on every drop/republish of
/// a name (after an epoch Synchronize, so no in-flight lock-free fill
/// can stamp behind the invalidation).
///
/// Thread safety: a single internal mutex; every operation is O(1) except
/// InvalidateIndex (O(entries), drop-rate rare).
class QueryCache {
 public:
  explicit QueryCache(const QueryCacheOptions& options);

  /// Canonical key for a request. Heatmap captures are never cached (the
  /// report embeds a per-run access pattern); callers gate on Cacheable.
  static std::string KeyFor(const QueryRequest& request);
  static bool Cacheable(const QueryRequest& request);

  /// Returns the stored report iff present at exactly `version`.
  std::optional<QueryReport> Lookup(const std::string& key, uint64_t version);

  /// Stores (replacing any entry under the key), then evicts LRU-first
  /// down to both capacity limits.
  void Insert(const std::string& key, const std::string& index,
              uint64_t version, const QueryReport& report);

  /// Removes every entry belonging to `index` (drop/republish edge).
  void InvalidateIndex(const std::string& index);

  QueryCacheStats Snapshot() const;

  /// True when not-found answers are cached (QueryCacheOptions knob).
  bool negative_caching_enabled() const {
    return options_.cache_negative_results;
  }

 private:
  struct Entry {
    std::string key;
    std::string index;
    uint64_t version = 0;
    QueryReport report;
    size_t charge = 0;
  };

  size_t ChargeOf(const Entry& entry) const;
  void EraseLocked(std::list<Entry>::iterator it);

  const QueryCacheOptions options_;
  mutable std::mutex mu_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> map_;
  uint64_t bytes_ = 0;
  QueryCacheStats stats_;
};

/// One query's pass through the answer cache: Probe before the target's
/// op lock (a hit reads only the target's version), then Fill around the
/// scan. Fill stamps the answer only when two reads of the target's
/// version bracket the scan with the same value — the scan observed one
/// stable snapshot — and never stamps a degraded (partial key space)
/// answer. With no cache, or an uncacheable request, both are
/// pass-throughs that never call `version()`.
class CachedQuery {
 public:
  CachedQuery(QueryCache* cache, const QueryRequest& request)
      : cache_(cache != nullptr && QueryCache::Cacheable(request) ? cache
                                                                  : nullptr),
        request_(request) {
    if (cache_ != nullptr) key_ = QueryCache::KeyFor(request);
  }

  /// `version()` returns the target's snapshot stamp, or nullopt when the
  /// target is going away (nothing to serve). It must be safe to call
  /// without the target's op lock.
  template <typename VersionFn>
  std::optional<QueryReport> Probe(VersionFn version) {
    if (cache_ == nullptr) return std::nullopt;
    const std::optional<uint64_t> stamp = version();
    if (!stamp.has_value()) return std::nullopt;
    return cache_->Lookup(key_, *stamp);
  }

  /// `version()` reads the target's snapshot stamp; `scan()` computes the
  /// answer. Call with the target's read lock (or epoch guard) held.
  template <typename VersionFn, typename ScanFn>
  Result<QueryReport> Fill(VersionFn version, ScanFn scan) {
    if (cache_ == nullptr) return scan();
    const uint64_t before = version();
    Result<QueryReport> report = scan();
    if (report.ok() && !report.value().degraded && version() == before) {
      cache_->Insert(key_, request_.index, before, report.value());
    }
    return report;
  }

 private:
  QueryCache* const cache_;
  const QueryRequest& request_;
  std::string key_;
};

}  // namespace api
}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_QUERY_CACHE_H_
