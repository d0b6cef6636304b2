#ifndef COCONUT_BENCH_BENCH_UTIL_H_
#define COCONUT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/entry.h"
#include "core/raw_store.h"
#include "palm/factory.h"
#include "storage/storage_manager.h"
#include "workload/astronomy.h"
#include "workload/generator.h"

namespace coconut {
namespace bench {

inline series::SaxConfig BenchSax(int length = 256) {
  return series::SaxConfig{.series_length = length,
                           .num_segments = 16,
                           .bits_per_segment = 8};
}

/// Benches have no error path: a failed setup step prints its status and
/// aborts, so a failing run says which step failed and why.
inline void CheckOk(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::abort();
}

template <class T>
T ValueOrAbort(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return result.TakeValue();
}

/// One isolated arena per measured index: storage manager + raw store.
struct Arena {
  std::unique_ptr<storage::StorageManager> storage;
  std::unique_ptr<core::RawSeriesStore> raw;

  Arena() = default;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  static Arena Make(const std::string& tag, int series_length) {
    Arena arena;
    arena.storage =
        ValueOrAbort(storage::MakeTempStorage(tag), "MakeTempStorage");
    arena.raw = ValueOrAbort(
        core::RawSeriesStore::Create(arena.storage.get(), "raw",
                                     series_length),
        "RawSeriesStore::Create");
    return arena;
  }

  void FillRaw(const series::SeriesCollection& collection) {
    for (size_t i = 0; i < collection.size(); ++i) {
      ValueOrAbort(raw->Append(collection[i]), "RawSeriesStore::Append");
    }
    CheckOk(raw->Flush(), "RawSeriesStore::Flush");
  }

  ~Arena() {
    if (storage != nullptr) (void)storage->Clear();
  }
};

/// Cached astronomy collection shared across benchmark registrations.
inline const series::SeriesCollection& AstroCollection(size_t count,
                                                       int length = 256) {
  static std::map<std::pair<size_t, int>, series::SeriesCollection> cache;
  auto key = std::make_pair(count, length);
  auto it = cache.find(key);
  if (it == cache.end()) {
    workload::AstronomyGenerator gen(
        {.series_length = static_cast<size_t>(length)});
    it = cache.emplace(key, gen.Generate(count)).first;
  }
  return it->second;
}

/// Builds a static index of `spec` over `collection` inside `arena`.
inline std::unique_ptr<core::DataSeriesIndex> BuildStatic(
    const palm::VariantSpec& spec, Arena* arena,
    const series::SeriesCollection& collection) {
  auto index = ValueOrAbort(
      palm::CreateStaticIndex(spec, arena->storage.get(), "index", nullptr,
                              arena->raw.get()),
      "CreateStaticIndex");
  for (size_t i = 0; i < collection.size(); ++i) {
    CheckOk(index->Insert(i, collection[i], static_cast<int64_t>(i)),
            "DataSeriesIndex::Insert");
  }
  CheckOk(index->Finalize(), "DataSeriesIndex::Finalize");
  return index;
}

}  // namespace bench
}  // namespace coconut

#endif  // COCONUT_BENCH_BENCH_UTIL_H_
