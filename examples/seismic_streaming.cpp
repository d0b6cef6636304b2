// Scenario 2 of the demonstration: dynamic streaming data series. Seismic
// batches arrive continually; the goal is to find earthquake-like patterns
// inside variable-sized temporal windows while ingestion continues. We
// compare the state of the art (ADS+ with PP and TP) against the
// recommender's pick, a non-materialized CLSM with BTP.
//
//   ./seismic_streaming
#include <cstdio>
#include <filesystem>

#include "palm/comparison.h"
#include "palm/api.h"
#include "workload/seismic.h"

using namespace coconut;
using palm::IndexFamily;
using palm::StreamMode;
using palm::VariantSpec;

namespace {

constexpr size_t kLength = 256;
constexpr size_t kBatch = 512;
constexpr int kBatches = 24;

series::SaxConfig Sax() {
  return series::SaxConfig{.series_length = kLength,
                           .num_segments = 16,
                           .bits_per_segment = 8};
}

}  // namespace

int main() {
  const std::string root = std::filesystem::temp_directory_path().string() +
                           "/coconut_seismic_example";
  auto server = palm::api::Service::Create(root).TakeValue();

  // The recommender's advice for this scenario.
  palm::Scenario scenario;
  scenario.sax = Sax();
  scenario.streaming = true;
  scenario.window_queries = true;
  scenario.dataset_size = kBatch * kBatches;
  scenario.expected_queries = 30;
  std::printf("recommender: %s\n\n",
              server->Recommend(scenario).ToJsonString().c_str());

  // The three contenders of the demo script.
  struct Contender {
    const char* name;
    VariantSpec spec;
  };
  std::vector<Contender> contenders;
  {
    VariantSpec ads_pp;
    ads_pp.sax = Sax();
    ads_pp.family = IndexFamily::kAds;
    ads_pp.mode = StreamMode::kPP;
    // A stream outgrows memory; cap the buffering budget so every
    // contender pays its structural I/O (the GUI's memory knob).
    ads_pp.memory_budget_bytes = 256 << 10;
    contenders.push_back({"ads_pp", ads_pp});
    VariantSpec ads_tp = ads_pp;
    ads_tp.mode = StreamMode::kTP;
    ads_tp.buffer_entries = 2048;
    contenders.push_back({"ads_tp", ads_tp});
    VariantSpec clsm_btp;
    clsm_btp.sax = Sax();
    clsm_btp.family = IndexFamily::kClsm;
    clsm_btp.mode = StreamMode::kBTP;
    clsm_btp.buffer_entries = 2048;
    contenders.push_back({"clsm_btp", clsm_btp});
  }
  for (const auto& c : contenders) {
    server->CreateStream(c.name, c.spec).TakeValue();
  }

  // Stream the batches into every contender, interleaving window queries
  // to model exploration-under-ingestion.
  workload::SeismicGenerator gen({.series_length = kLength,
                                  .batch_size = kBatch,
                                  .event_probability = 0.06});
  auto quake = gen.EarthquakeTemplate(77);

  std::vector<double> ingest_seconds(contenders.size(), 0.0);
  std::vector<double> query_under_load_ms(contenders.size(), 0.0);
  int queries_done = 0;

  for (int b = 0; b < kBatches; ++b) {
    auto batch = gen.NextBatch();
    for (size_t c = 0; c < contenders.size(); ++c) {
      ingest_seconds[c] += server
                               ->IngestBatch(contenders[c].name, batch.series,
                                             batch.timestamps)
                               .TakeValue()
                               .seconds;
    }
    // Every few batches, search the most recent window while updates are
    // in flight.
    if (b % 6 == 5) {
      const int64_t now = gen.current_time();
      core::TimeWindow window{now - static_cast<int64_t>(4 * kBatch), now};
      for (size_t c = 0; c < contenders.size(); ++c) {
        palm::api::QueryRequest req;
        req.index = contenders[c].name;
        req.query = quake;
        req.window = window;
        query_under_load_ms[c] += server->Query(req).TakeValue().seconds * 1e3;
      }
      ++queries_done;
    }
  }

  std::printf("after %d batches (%d series each):\n%s\n", kBatches,
              static_cast<int>(kBatch),
              server->ListIndexes().TakeValue().ToJsonString().c_str());

  std::vector<palm::ComparisonRow> ingest_rows;
  std::vector<palm::ComparisonRow> query_rows;
  for (size_t c = 0; c < contenders.size(); ++c) {
    ingest_rows.push_back({contenders[c].name, ingest_seconds[c]});
    query_rows.push_back(
        {contenders[c].name, query_under_load_ms[c] / queries_done});
  }
  std::printf("%s\n", palm::RenderBarChart("Total ingestion time", "seconds",
                                           ingest_rows)
                          .c_str());
  std::printf("%s\n",
              palm::RenderBarChart(
                  "Window query latency under updates", "ms (avg)",
                  query_rows)
                  .c_str());

  // Quiet phase: no updates in flight; sweep window sizes.
  std::printf("quiet-phase window sweep (exact query I/O):\n");
  const int64_t now = gen.current_time();
  for (double fraction : {0.05, 0.25, 1.0}) {
    const auto span = static_cast<int64_t>(fraction * now);
    core::TimeWindow window{now - span, now};
    std::printf("  window = %3.0f%% of history:\n", fraction * 100);
    for (const auto& c : contenders) {
      palm::api::QueryRequest req;
      req.index = c.name;
      req.query = quake;
      req.window = window;
      const palm::api::QueryReport report = server->Query(req).TakeValue();
      std::printf(
          "    %-9s %6.2f ms, reads(seq=%4llu rand=%4llu), partitions "
          "visited=%2llu skipped=%2llu\n",
          c.name, report.seconds * 1e3,
          static_cast<unsigned long long>(report.io.sequential_reads),
          static_cast<unsigned long long>(report.io.random_reads),
          static_cast<unsigned long long>(report.counters.partitions_visited),
          static_cast<unsigned long long>(report.counters.partitions_skipped));
    }
  }

  std::filesystem::remove_all(root);
  return 0;
}
