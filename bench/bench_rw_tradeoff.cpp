// E4 (Section 2, read-vs-write): CTree's fill factor and CLSM's growth
// factor each trace a read/write frontier. Expected shape: lower fill
// factor -> cheaper inserts (absorbed by slack), longer leaf level;
// higher growth factor -> fewer runs per query but more merge rewriting;
// ADS+ sits strictly inside both frontiers.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "ads/ads_index.h"
#include "clsm/clsm.h"
#include "common/timer.h"
#include "ctree/ctree.h"

namespace coconut {
namespace bench {
namespace {

constexpr size_t kBase = 8'000;
constexpr size_t kInserts = 4'000;
constexpr size_t kQueries = 16;

// Builds a CTree at the given fill factor on the first half, then measures
// insert I/O for the second half and query latency after the updates.
void BM_CTreeFillFactor(benchmark::State& state) {
  const double fill = state.range(0) / 100.0;
  const auto& collection = AstroCollection(kBase + kInserts);

  double insert_ios = 0;
  double query_ms = 0;
  uint64_t leaves = 0;
  for (auto _ : state) {
    Arena arena = Arena::Make("bench_fill", 256);
    arena.FillRaw(collection);
    palm::VariantSpec spec;
    spec.sax = BenchSax();
    spec.family = palm::IndexFamily::kCTree;
    spec.fill_factor = fill;
    auto ctree = ctree::CTreeIndex::Create(
                     arena.storage.get(), "index",
                     {.sax = spec.sax, .fill_factor = fill}, nullptr,
                     arena.raw.get())
                     .TakeValue();
    for (size_t i = 0; i < kBase; ++i) {
      if (!ctree->Insert(i, collection[i], 0).ok()) std::abort();
    }
    if (!ctree->Finalize().ok()) std::abort();
    const uint64_t leaves_before = ctree->tree()->num_leaves();

    const storage::IoStats before = *arena.storage->io_stats();
    for (size_t i = kBase; i < kBase + kInserts; ++i) {
      if (!ctree->Insert(i, collection[i], 0).ok()) std::abort();
    }
    insert_ios = static_cast<double>(
                     arena.storage->io_stats()->Since(before).total_ios()) /
                 kInserts;
    state.counters["leaf_splits"] =
        static_cast<double>(ctree->tree()->num_leaves() - leaves_before);

    auto queries = workload::MakeNoisyQueries(collection, kQueries, 0.4, 5);
    WallTimer timer;
    for (const auto& query : queries) {
      benchmark::DoNotOptimize(
          ctree->ExactSearch(query, {}, nullptr).value().distance_sq);
    }
    query_ms = timer.ElapsedMillis() / kQueries;
    leaves = ctree->tree()->num_leaves();
  }
  state.counters["fill_pct"] = static_cast<double>(state.range(0));
  state.counters["ios_per_insert"] = insert_ios;
  state.counters["exact_query_ms"] = query_ms;
  state.counters["leaves"] = static_cast<double>(leaves);
}
BENCHMARK(BM_CTreeFillFactor)
    ->Arg(100)
    ->Arg(90)
    ->Arg(70)
    ->Arg(50)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// CLSM growth-factor sweep: ingestion write amplification vs query cost.
void BM_ClsmGrowthFactor(benchmark::State& state) {
  const int growth = static_cast<int>(state.range(0));
  const auto& collection = AstroCollection(kBase + kInserts);

  double write_amp = 0;
  double query_ms = 0;
  double levels = 0;
  for (auto _ : state) {
    Arena arena = Arena::Make("bench_growth", 256);
    arena.FillRaw(collection);
    auto lsm = clsm::Clsm::Create(arena.storage.get(), "lsm",
                                  {.sax = BenchSax(),
                                   .growth_factor = growth,
                                   .buffer_entries = 512},
                                  nullptr, arena.raw.get())
                   .TakeValue();
    for (size_t i = 0; i < collection.size(); ++i) {
      if (!lsm->Insert(i, collection[i], 0).ok()) std::abort();
    }
    if (!lsm->Finalize().ok()) std::abort();
    write_amp = static_cast<double>(lsm->entries_rewritten()) /
                collection.size();
    levels = static_cast<double>(lsm->num_active_levels());

    auto queries = workload::MakeNoisyQueries(collection, kQueries, 0.4, 6);
    WallTimer timer;
    for (const auto& query : queries) {
      benchmark::DoNotOptimize(
          lsm->ExactSearch(query, {}, nullptr).value().distance_sq);
    }
    query_ms = timer.ElapsedMillis() / kQueries;
  }
  state.counters["growth_factor"] = static_cast<double>(growth);
  state.counters["write_amplification"] = write_amp;
  state.counters["active_levels"] = levels;
  state.counters["exact_query_ms"] = query_ms;
}
BENCHMARK(BM_ClsmGrowthFactor)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ADS+ reference point on the same workload.
void BM_AdsReference(benchmark::State& state) {
  const auto& collection = AstroCollection(kBase + kInserts);
  double insert_ios = 0;
  double query_ms = 0;
  for (auto _ : state) {
    Arena arena = Arena::Make("bench_ads_ref", 256);
    arena.FillRaw(collection);
    auto ads = ads::AdsIndex::Create(arena.storage.get(), "ads",
                                     {.sax = BenchSax(),
                                      .leaf_capacity = 512,
                                      .global_buffer_entries = 1024},
                                     arena.raw.get())
                   .TakeValue();
    for (size_t i = 0; i < kBase; ++i) {
      if (!ads->Insert(i, collection[i], 0).ok()) std::abort();
    }
    const storage::IoStats before = *arena.storage->io_stats();
    for (size_t i = kBase; i < kBase + kInserts; ++i) {
      if (!ads->Insert(i, collection[i], 0).ok()) std::abort();
    }
    insert_ios = static_cast<double>(
                     arena.storage->io_stats()->Since(before).total_ios()) /
                 kInserts;
    auto queries = workload::MakeNoisyQueries(collection, kQueries, 0.4, 7);
    WallTimer timer;
    for (const auto& query : queries) {
      benchmark::DoNotOptimize(
          ads->ExactSearch(query, {}, nullptr).value().distance_sq);
    }
    query_ms = timer.ElapsedMillis() / kQueries;
  }
  state.counters["ios_per_insert"] = insert_ios;
  state.counters["exact_query_ms"] = query_ms;
}
BENCHMARK(BM_AdsReference)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace coconut

BENCHMARK_MAIN();
