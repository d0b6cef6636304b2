// E2/F2 (Scenario 1 query phase): approximate and exact query cost across
// families on the same static collection, plus the access-locality number
// behind the heat map. Expected shape: CTree answers with fewer I/Os and
// far higher locality than ADS+; materialization removes raw fetches.
//
// Also measures the front door's dispatch overhead (BM_Dispatch*): the
// same exact query through (a) the typed api::Service::Query path and
// (b) the full JSON-RPC Service::Dispatch round trip (parse request JSON
// -> method table -> typed call -> serialize response). (b) minus (a) is
// what the wire format costs; CI uploads these as a JSON artifact to
// track the tax over time.
//
// BM_Parse_IngestBatch is the ingest side of the same tax: parsing one
// 64-series JSON batch into its typed request.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "bench/bench_util.h"
#include "palm/api.h"
#include "palm/heatmap.h"
#include "series/kernels.h"
#include "workload/seismic.h"

namespace coconut {
namespace bench {
namespace {

constexpr size_t kCount = 16'000;
constexpr int kQuerySeed = 1234;

struct PreparedIndex {
  Arena arena;
  std::unique_ptr<core::DataSeriesIndex> index;
};

PreparedIndex* Prepare(palm::IndexFamily family, bool materialized) {
  // Keep only the most recent index: the repetitions of one case reuse it,
  // and the next case frees it before building its own. An ADS+ index holds
  // one open file per leaf, so two of them alive at once can exceed the
  // process's file-descriptor limit.
  static std::pair<int, bool> key;
  static std::unique_ptr<PreparedIndex> current;
  const auto wanted = std::make_pair(static_cast<int>(family), materialized);
  if (current == nullptr || key != wanted) {
    current.reset();
    key = wanted;
    current = std::make_unique<PreparedIndex>();
    current->arena = Arena::Make("bench_query", 256);
    const auto& collection = AstroCollection(kCount);
    current->arena.FillRaw(collection);
    palm::VariantSpec spec;
    spec.sax = BenchSax();
    spec.family = family;
    spec.materialized = materialized;
    spec.buffer_entries = 4096;
    current->index = BuildStatic(spec, &current->arena, collection);
  }
  return current.get();
}

void RunQuery(benchmark::State& state, palm::IndexFamily family,
              bool materialized, bool exact) {
  PreparedIndex* prepared = Prepare(family, materialized);
  const auto& collection = AstroCollection(kCount);
  auto queries = workload::MakeNoisyQueries(collection, 64, 0.4, kQuerySeed);

  core::QueryCounters counters;
  storage::IoStats io;
  size_t q = 0;
  prepared->arena.storage->tracker()->Clear();
  prepared->arena.storage->tracker()->Enable();
  const storage::IoStats before = *prepared->arena.storage->io_stats();
  for (auto _ : state) {
    auto result =
        exact ? prepared->index->ExactSearch(queries[q % queries.size()], {},
                                             &counters)
              : prepared->index->ApproxSearch(queries[q % queries.size()], {},
                                              &counters);
    benchmark::DoNotOptimize(result.value().distance_sq);
    ++q;
  }
  io = prepared->arena.storage->io_stats()->Since(before);
  prepared->arena.storage->tracker()->Disable();

  const double per_query = q > 0 ? 1.0 / q : 0.0;
  state.counters["reads_per_query"] =
      static_cast<double>(io.total_reads()) * per_query;
  state.counters["raw_fetches_per_query"] =
      static_cast<double>(counters.raw_fetches) * per_query;
  state.counters["entries_examined_per_query"] =
      static_cast<double>(counters.entries_examined) * per_query;
  state.counters["leaves_pruned_per_query"] =
      static_cast<double>(counters.leaves_pruned) * per_query;
  state.counters["access_locality"] =
      palm::AccessLocality(prepared->arena.storage->tracker()->events());
  // Which series::kernels tier scored the distances (COCONUT_FORCE_KERNEL
  // pins it), so runs under different dispatch modes stay comparable.
  state.SetLabel(series::kernels::IsaName(series::kernels::ActiveIsa()));
}

#define QUERY_BENCH(name, family, mat, exact)          \
  void name(benchmark::State& state) {                 \
    RunQuery(state, family, mat, exact);               \
  }                                                    \
  BENCHMARK(name)->Unit(benchmark::kMillisecond)

QUERY_BENCH(BM_Approx_ADS, palm::IndexFamily::kAds, false, false);
QUERY_BENCH(BM_Approx_CTree, palm::IndexFamily::kCTree, false, false);
QUERY_BENCH(BM_Approx_CLSM, palm::IndexFamily::kClsm, false, false);
QUERY_BENCH(BM_Exact_ADS, palm::IndexFamily::kAds, false, true);
QUERY_BENCH(BM_Exact_CTree, palm::IndexFamily::kCTree, false, true);
QUERY_BENCH(BM_Exact_CLSM, palm::IndexFamily::kClsm, false, true);
QUERY_BENCH(BM_Exact_ADSFull, palm::IndexFamily::kAds, true, true);
QUERY_BENCH(BM_Exact_CTreeFull, palm::IndexFamily::kCTree, true, true);
QUERY_BENCH(BM_Exact_CLSMFull, palm::IndexFamily::kClsm, true, true);

// ------------------------------------------------- dispatch overhead

constexpr size_t kDispatchCount = 4'000;

/// One Service with a built CTree index over a small astronomy
/// collection, shared across the dispatch benchmarks.
palm::api::Service* DispatchService() {
  static std::unique_ptr<palm::api::Service> service = [] {
    const std::string root =
        std::filesystem::temp_directory_path().string() +
        "/bench_dispatch_server";
    std::filesystem::remove_all(root);
    auto srv = palm::api::Service::Create(root).TakeValue();
    const auto& collection = AstroCollection(kDispatchCount);
    CheckOk(srv->RegisterDataset("astro", collection, nullptr).status(),
            "RegisterDataset");
    palm::VariantSpec spec;
    spec.sax = BenchSax();
    spec.family = palm::IndexFamily::kCTree;
    spec.buffer_entries = 4096;
    CheckOk(srv->BuildIndex("ctree", spec, "astro").status(), "BuildIndex");
    return srv;
  }();
  return service.get();
}

std::vector<palm::api::QueryRequest> DispatchQueries() {
  const auto& collection = AstroCollection(kDispatchCount);
  auto raw = workload::MakeNoisyQueries(collection, 32, 0.4, kQuerySeed);
  std::vector<palm::api::QueryRequest> queries;
  queries.reserve(raw.size());
  for (auto& q : raw) {
    palm::api::QueryRequest request;
    request.index = "ctree";
    request.query = std::move(q);
    queries.push_back(std::move(request));
  }
  return queries;
}

/// (a) Typed path: request struct in, report struct out — no JSON at all.
void BM_Dispatch_Typed(benchmark::State& state) {
  palm::api::Service* service = DispatchService();
  const auto queries = DispatchQueries();
  size_t q = 0;
  for (auto _ : state) {
    auto report = service->Query(queries[q % queries.size()]);
    if (!report.ok()) std::abort();
    benchmark::DoNotOptimize(report.value().distance);
    ++q;
  }
}
BENCHMARK(BM_Dispatch_Typed)->Unit(benchmark::kMillisecond);

/// (b) Wire path: JSON params in, JSON response out through
/// Service::Dispatch — what one HTTP request costs minus the socket.
void BM_Dispatch_Json(benchmark::State& state) {
  palm::api::Service* service = DispatchService();
  const auto queries = DispatchQueries();
  std::vector<std::string> params;
  params.reserve(queries.size());
  for (const auto& query : queries) params.push_back(query.ToJsonString());
  size_t q = 0;
  for (auto _ : state) {
    auto json = service->Dispatch("query", params[q % params.size()]);
    if (!json.ok()) std::abort();
    benchmark::DoNotOptimize(json.value().size());
    ++q;
  }
}
BENCHMARK(BM_Dispatch_Json)->Unit(benchmark::kMillisecond);

// ------------------------------------------------- ingest parse cost

/// The wire half of one ingest: JsonParse + IngestBatchRequest::FromJson
/// of a 64 x 256 SeismicGenerator batch, the shape palmbench streams.
void BM_Parse_IngestBatch(benchmark::State& state) {
  workload::SeismicGenerator::Options options;
  options.series_length = 256;
  options.batch_size = 64;
  workload::SeismicGenerator gen(options);
  workload::SeismicBatch batch = gen.NextBatch();
  palm::api::IngestBatchRequest request;
  request.stream = "seismic";
  request.batch = std::move(batch.series);
  request.timestamps = std::move(batch.timestamps);
  const std::string body = request.ToJsonString();
  for (auto _ : state) {
    auto parsed = JsonParse(body);
    if (!parsed.ok()) std::abort();
    auto typed = palm::api::IngestBatchRequest::FromJson(parsed.value());
    if (!typed.ok()) std::abort();
    benchmark::DoNotOptimize(typed.value().batch.data().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(body.size()));
  state.counters["body_bytes"] = static_cast<double>(body.size());
}
BENCHMARK(BM_Parse_IngestBatch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace coconut

BENCHMARK_MAIN();
