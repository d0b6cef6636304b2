// E1 (Scenario 1 / Coconut Fig. "index construction"): bulk construction
// across families and dataset sizes. Expected shape: CTree and CLSM build
// several times faster than ADS+, with random writes O(1) vs O(N/buffer).
// BM_ParallelRunGeneration and BM_CTreeConstruct_Threads isolate the
// parallel construction sort: N worker threads (run generation and final
// merge) against the single-threaded baseline, identical output guaranteed
// by the extsort determinism tests.
#include <benchmark/benchmark.h>

#include <cstring>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/entry.h"
#include "extsort/external_sorter.h"

namespace coconut {
namespace bench {
namespace {

void RunConstruction(benchmark::State& state, palm::IndexFamily family) {
  const size_t count = static_cast<size_t>(state.range(0));
  const auto& collection = AstroCollection(count);
  palm::VariantSpec spec;
  spec.sax = BenchSax();
  spec.family = family;
  spec.buffer_entries = 4096;
  // A realistic constrained budget: ~1/8 of the summarization set.
  spec.memory_budget_bytes =
      std::max<size_t>(64 << 10, count * sizeof(core::IndexEntry) / 8);

  storage::IoStats io;
  for (auto _ : state) {
    Arena arena = Arena::Make("bench_construction", spec.sax.series_length);
    arena.FillRaw(collection);
    const storage::IoStats before = *arena.storage->io_stats();
    auto index = BuildStatic(spec, &arena, collection);
    io = arena.storage->io_stats()->Since(before);
    benchmark::DoNotOptimize(index->num_entries());
  }
  state.counters["seq_writes"] = static_cast<double>(io.sequential_writes);
  state.counters["rand_writes"] = static_cast<double>(io.random_writes);
  state.counters["series"] = static_cast<double>(count);
  state.counters["series_per_sec"] = benchmark::Counter(
      static_cast<double>(count), benchmark::Counter::kIsIterationInvariantRate);
}

// Parallel construction sort: sort `state.range(1)` random records with
// `state.range(0)` worker threads under one fixed budget, the serial
// case's 16 runs' worth. Threaded run generation cuts chunks of
// budget / (threads + 1), so the threaded cases spill more, smaller runs
// and may range-partition the final merge; the sweep compares the thread
// counts under the same memory, as a caller picking `threads` would.
void BM_ParallelRunGeneration(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t count = static_cast<size_t>(state.range(1));
  std::vector<core::IndexEntry> entries(count);
  Rng rng(7);
  for (size_t i = 0; i < count; ++i) {
    entries[i].key = series::SortableKey{{rng.NextUint64(), rng.NextUint64()}};
    entries[i].series_id = i;
    entries[i].timestamp = 0;
  }
  const size_t budget = count * sizeof(core::IndexEntry) / 16;
  extsort::SortStats stats;
  for (auto _ : state) {
    auto storage = storage::MakeTempStorage("bench_psort").TakeValue();
    extsort::ExternalSorter::Options opts;
    opts.record_size = sizeof(core::IndexEntry);
    opts.memory_budget_bytes = budget;
    opts.threads = threads;
    opts.storage = storage.get();
    opts.less = core::EntryBytesLess;
    auto sorter = extsort::ExternalSorter::Create(opts).TakeValue();
    for (const auto& e : entries) {
      if (auto st = sorter->Add(&e); !st.ok()) std::abort();
    }
    auto stream = sorter->Finish().TakeValue();
    core::IndexEntry rec;
    uint64_t drained = 0;
    while (stream->Next(reinterpret_cast<uint8_t*>(&rec)).TakeValue()) {
      ++drained;
    }
    benchmark::DoNotOptimize(drained);
    stats = sorter->stats();
    (void)storage->Clear();
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["runs_spilled"] = static_cast<double>(stats.runs_spilled);
  state.counters["merge_ranges"] = static_cast<double>(stats.merge_ranges);
  state.counters["records_per_sec"] = benchmark::Counter(
      static_cast<double>(count), benchmark::Counter::kIsIterationInvariantRate);
}

// Full CTree bulk load with a parallel construction sort (the end-to-end
// speedup the GUI's build panel would show).
void BM_CTreeConstruct_Threads(benchmark::State& state) {
  const size_t count = 16000;
  const auto& collection = AstroCollection(count);
  palm::VariantSpec spec;
  spec.sax = BenchSax();
  spec.family = palm::IndexFamily::kCTree;
  spec.construction_threads = static_cast<size_t>(state.range(0));
  spec.memory_budget_bytes =
      std::max<size_t>(64 << 10, count * sizeof(core::IndexEntry) / 8);
  for (auto _ : state) {
    Arena arena = Arena::Make("bench_ctree_par", spec.sax.series_length);
    arena.FillRaw(collection);
    auto index = BuildStatic(spec, &arena, collection);
    benchmark::DoNotOptimize(index->num_entries());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["series_per_sec"] = benchmark::Counter(
      static_cast<double>(count), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Construct_ADS(benchmark::State& state) {
  RunConstruction(state, palm::IndexFamily::kAds);
}
void BM_Construct_CTree(benchmark::State& state) {
  RunConstruction(state, palm::IndexFamily::kCTree);
}
void BM_Construct_CLSM(benchmark::State& state) {
  RunConstruction(state, palm::IndexFamily::kClsm);
}

// Threaded cases run sorter workers, so rates and times are wall-clock:
// the main thread's CPU time leaves the workers out.
BENCHMARK(BM_ParallelRunGeneration)
    ->ArgNames({"threads", "records"})
    ->ArgsProduct({{1, 2, 4}, {200000, 2000000}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();
BENCHMARK(BM_CTreeConstruct_Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();
BENCHMARK(BM_Construct_ADS)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Construct_CTree)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Construct_CLSM)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace bench
}  // namespace coconut

BENCHMARK_MAIN();
