// A full Coconut Palm "GUI session" against the algorithms server,
// exercising the JSON request/response protocol end to end the way the
// PHP/JS client of the paper would: register data, ask the recommender,
// build competing indexes, query them, and fetch a heat map.
//
//   ./palm_session
#include <cstdio>
#include <filesystem>

#include "palm/api.h"
#include "workload/generator.h"

using namespace coconut;
using palm::IndexFamily;
using palm::VariantSpec;

namespace {

/// Prints a response the way the wire carries it.
template <typename Response>
void Reply(const Response& response) {
  std::printf("<< %s\n\n", response.ToJsonString().c_str());
}

}  // namespace

int main() {
  const std::string root = std::filesystem::temp_directory_path().string() +
                           "/coconut_palm_session";
  auto server = palm::api::Service::Create(root).TakeValue();

  series::SaxConfig sax{.series_length = 128, .num_segments = 16,
                        .bits_per_segment = 8};

  std::printf(">> registering dataset 'walk' (8000 x 128)\n");
  workload::RandomWalkGenerator gen(128, 4242);
  auto collection = gen.Generate(8000);
  if (auto st = server->RegisterDataset("walk", collection, nullptr);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.status().ToString().c_str());
    return 1;
  }

  std::printf(">> GET /recommend\n");
  palm::Scenario scenario;
  scenario.sax = sax;
  scenario.dataset_size = 8000;
  scenario.expected_queries = 50;
  Reply(server->Recommend(scenario));

  std::printf(">> POST /build {variant: CTree}\n");
  VariantSpec ctree;
  ctree.sax = sax;
  ctree.family = IndexFamily::kCTree;
  Reply(server->BuildIndex("ctree", ctree, "walk").TakeValue());

  std::printf(">> POST /build {variant: CLSM}\n");
  VariantSpec clsm;
  clsm.sax = sax;
  clsm.family = IndexFamily::kClsm;
  clsm.buffer_entries = 1024;
  Reply(server->BuildIndex("clsm", clsm, "walk").TakeValue());

  std::printf(">> GET /indexes\n");
  Reply(server->ListIndexes().TakeValue());

  std::printf(">> POST /query {index: ctree, exact: true, heatmap: true}\n");
  auto queries = workload::MakeNoisyQueries(collection, 1, 0.3, 17);
  palm::api::QueryRequest req;
  req.index = "ctree";
  req.query = queries[0];
  req.exact = true;
  req.capture_heatmap = true;
  req.heatmap_time_bins = 6;
  req.heatmap_location_bins = 24;
  Reply(server->Query(req).TakeValue());

  std::printf(">> POST /query {index: clsm, exact: false}\n");
  req.index = "clsm";
  req.exact = false;
  req.capture_heatmap = false;
  Reply(server->Query(req).TakeValue());

  std::printf(">> POST /drop_index {index: clsm}\n");
  Reply(server->DropIndex("clsm").TakeValue());

  std::printf(">> POST /drop_dataset {dataset: walk}\n");
  Reply(server->DropDataset("walk").TakeValue());

  std::printf(">> GET /indexes\n");
  Reply(server->ListIndexes().TakeValue());

  std::filesystem::remove_all(root);
  return 0;
}
