// Scan-counter pins: fixed seeded queries through every index family's
// single-query search paths (and CTree's shared batch scan), with the
// summed per-query counters and the answers compared against literals.
// The counters describe the work a scan does (leaves read and pruned,
// entries lower-bounded, raw series fetched, partitions touched); they do
// not depend on timing, so any change to them is a change in the visit
// order or the prune rule. A change that alters either on purpose updates
// the literals here and says why. On a mismatch the failure message
// prints the observed tally in literal form.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "ads/ads_index.h"
#include "clsm/clsm.h"
#include "ctree/ctree.h"
#include "stream/btp.h"
#include "stream/tp.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using core::QueryCounters;
using core::SearchOptions;
using core::SearchResult;
using core::TimeWindow;

constexpr size_t kSeries = 2000;
constexpr size_t kLength = 64;

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = kLength, .num_segments = 8,
                           .bits_per_segment = 8};
}

/// Summed counters plus the answers of one query set on one path.
struct Tally {
  uint64_t leaves_visited = 0;
  uint64_t leaves_pruned = 0;
  uint64_t entries_examined = 0;
  uint64_t raw_fetches = 0;
  uint64_t partitions_visited = 0;
  uint64_t partitions_skipped = 0;
  std::vector<uint64_t> ids;
  double distance_sum = 0;

  void Add(const QueryCounters& c, const SearchResult& r) {
    leaves_visited += c.leaves_visited;
    leaves_pruned += c.leaves_pruned;
    entries_examined += c.entries_examined;
    raw_fetches += c.raw_fetches;
    partitions_visited += c.partitions_visited;
    partitions_skipped += c.partitions_skipped;
    ids.push_back(r.series_id);
    distance_sum += r.distance_sq;
  }

  std::string ToLiteral() const {
    std::string s = "{" + std::to_string(leaves_visited) + ", " +
                    std::to_string(leaves_pruned) + ", " +
                    std::to_string(entries_examined) + ", " +
                    std::to_string(raw_fetches) + ", " +
                    std::to_string(partitions_visited) + ", " +
                    std::to_string(partitions_skipped) + ", {";
    for (size_t i = 0; i < ids.size(); ++i) {
      s += (i == 0 ? "" : ", ") + std::to_string(ids[i]);
    }
    char dist[64];
    std::snprintf(dist, sizeof(dist), "%.9f", distance_sum);
    return s + "}, " + dist + "}";
  }
};

void ExpectTally(const std::string& what, const Tally& got,
                 const Tally& want) {
  const std::string msg = what + " observed " + got.ToLiteral();
  EXPECT_EQ(got.leaves_visited, want.leaves_visited) << msg;
  EXPECT_EQ(got.leaves_pruned, want.leaves_pruned) << msg;
  EXPECT_EQ(got.entries_examined, want.entries_examined) << msg;
  EXPECT_EQ(got.raw_fetches, want.raw_fetches) << msg;
  EXPECT_EQ(got.partitions_visited, want.partitions_visited) << msg;
  EXPECT_EQ(got.partitions_skipped, want.partitions_skipped) << msg;
  EXPECT_EQ(got.ids, want.ids) << msg;
  EXPECT_NEAR(got.distance_sum, want.distance_sum, 1e-6) << msg;
}

using SearchFn = std::function<Result<SearchResult>(
    std::span<const float>, const SearchOptions&, QueryCounters*)>;

class ScanCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("scan_counters_test");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
    collection_ = testutil::RandomWalkCollection(kSeries, kLength, 11);
    raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", kLength)
               .TakeValue();
    ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection_).ok());
    for (uint64_t q = 0; q < 6; ++q) {
      queries_.push_back(
          testutil::NoisyCopy(collection_, q * 331 % kSeries, 0.3, 70 + q));
    }
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  /// Every query once through `fn`, each with fresh counters.
  Tally Run(const SearchFn& fn, const SearchOptions& options) {
    Tally tally;
    for (const auto& query : queries_) {
      QueryCounters counters;
      auto r = fn(query, options, &counters);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) tally.Add(counters, r.value());
    }
    return tally;
  }

  static SearchOptions Windowed() {
    SearchOptions options;
    options.window = TimeWindow{400, 1400};
    return options;
  }

  std::unique_ptr<ctree::CTree> BuildCTree(bool materialized) {
    auto builder = ctree::CTree::Builder::Create(
                       mgr_.get(), "ctree",
                       {.sax = TestSax(), .materialized = materialized})
                       .TakeValue();
    for (size_t i = 0; i < collection_.size(); ++i) {
      EXPECT_TRUE(
          builder->Add(i, collection_[i], static_cast<int64_t>(i)).ok());
    }
    return builder->Finish(nullptr, raw_.get()).TakeValue();
  }

  /// CTree approx, exact (unbounded and windowed) and the shared batch
  /// scan over the same query set, unbounded and windowed.
  void CheckCTree(bool materialized, const Tally& approx, const Tally& exact,
                  const Tally& exact_window, const Tally& batch,
                  const Tally& batch_window) {
    auto tree = BuildCTree(materialized);
    auto approx_fn = [&](std::span<const float> q, const SearchOptions& o,
                         QueryCounters* c) {
      return tree->ApproxSearch(q, o, c);
    };
    auto exact_fn = [&](std::span<const float> q, const SearchOptions& o,
                        QueryCounters* c) {
      return tree->ExactSearch(q, o, c);
    };
    ExpectTally("approx", Run(approx_fn, {}), approx);
    ExpectTally("exact", Run(exact_fn, {}), exact);
    ExpectTally("exact windowed", Run(exact_fn, Windowed()), exact_window);
    ExpectTally("batch", RunBatch(*tree, {}), batch);
    ExpectTally("batch windowed", RunBatch(*tree, Windowed()), batch_window);
  }

  Tally RunBatch(ctree::CTree& tree, const SearchOptions& options) {
    std::vector<std::span<const float>> spans(queries_.begin(),
                                              queries_.end());
    std::vector<SearchResult> results(queries_.size());
    std::vector<QueryCounters> counters(queries_.size());
    EXPECT_TRUE(
        tree.ExactSearchBatch(spans, options, results, counters).ok());
    Tally tally;
    for (size_t q = 0; q < queries_.size(); ++q) {
      tally.Add(counters[q], results[q]);
    }
    return tally;
  }

  /// Approx and exact (unbounded and windowed) through any family.
  void CheckSingle(const SearchFn& approx_fn, const SearchFn& exact_fn,
                   const Tally& approx, const Tally& exact,
                   const Tally& approx_window, const Tally& exact_window) {
    ExpectTally("approx", Run(approx_fn, {}), approx);
    ExpectTally("exact", Run(exact_fn, {}), exact);
    ExpectTally("approx windowed", Run(approx_fn, Windowed()), approx_window);
    ExpectTally("exact windowed", Run(exact_fn, Windowed()), exact_window);
  }

  template <typename Index>
  void CheckIndex(Index* index, const Tally& approx, const Tally& exact,
                  const Tally& approx_window, const Tally& exact_window) {
    CheckSingle(
        [index](std::span<const float> q, const SearchOptions& o,
                QueryCounters* c) { return index->ApproxSearch(q, o, c); },
        [index](std::span<const float> q, const SearchOptions& o,
                QueryCounters* c) { return index->ExactSearch(q, o, c); },
        approx, exact, approx_window, exact_window);
  }

  template <typename Stream>
  void IngestAll(Stream* stream) {
    for (size_t i = 0; i < collection_.size(); ++i) {
      ASSERT_TRUE(
          stream->Ingest(i, collection_[i], static_cast<int64_t>(i)).ok());
    }
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
  series::SeriesCollection collection_{kLength};
  std::vector<std::vector<float>> queries_;
};

TEST_F(ScanCountersTest, CTree) {
  CheckCTree(/*materialized=*/false,
      /*approx=*/{6, 0, 762, 37, 0, 0,
                  {0, 331, 1973, 993, 1324, 1655}, 35.888908330},
      /*exact=*/{52, 50, 6476, 246, 0, 0,
                 {0, 331, 662, 993, 1324, 1655}, 32.949783609},
      /*exact_window=*/{67, 35, 4230, 346, 0, 0,
                        {994, 615, 662, 993, 1324, 731}, 77.510775263},
      /*batch=*/{52, 50, 6476, 239, 0, 0,
                 {0, 331, 662, 993, 1324, 1655}, 32.949783609},
      /*batch_window=*/{67, 35, 4230, 291, 0, 0,
                        {994, 615, 662, 993, 1324, 731}, 77.510775263});
}

TEST_F(ScanCountersTest, CTreeFull) {
  CheckCTree(/*materialized=*/true,
      /*approx=*/{6, 0, 84, 0, 0, 0,
                  {0, 331, 1973, 993, 808, 1655}, 55.082015436},
      /*exact=*/{219, 645, 3062, 0, 0, 0,
                 {0, 331, 662, 993, 1324, 1655}, 32.949783609},
      /*exact_window=*/{378, 486, 2654, 0, 0, 0,
                        {994, 615, 662, 993, 1324, 731}, 77.510775263},
      /*batch=*/{219, 645, 3062, 0, 0, 0,
                 {0, 331, 662, 993, 1324, 1655}, 32.949783609},
      /*batch_window=*/{378, 486, 2654, 0, 0, 0,
                        {994, 615, 662, 993, 1324, 731}, 77.510775263});
}

TEST_F(ScanCountersTest, Ads) {
  auto ads = ads::AdsIndex::Create(mgr_.get(), "ads",
                                   {.sax = TestSax(), .leaf_capacity = 64,
                                    .global_buffer_entries = 256},
                                   raw_.get())
                 .TakeValue();
  for (size_t i = 0; i < collection_.size(); ++i) {
    ASSERT_TRUE(ads->Insert(i, collection_[i], static_cast<int64_t>(i)).ok());
  }
  CheckIndex(ads.get(),
      /*approx=*/{6, 0, 133, 33, 0, 0,
                  {0, 331, 1973, 993, 808, 1655}, 55.082015436},
      /*exact=*/{125, 0, 2412, 257, 0, 0,
                 {0, 331, 662, 993, 1324, 1655}, 32.949783609},
      /*approx_window=*/{6, 0, 66, 34, 0, 0,
                         {676, 1267, 706, 993, 808, 1024}, 113.678581131},
      /*exact_window=*/{340, 0, 2118, 320, 0, 0,
                        {994, 615, 662, 993, 1324, 731}, 77.510775263});
}

TEST_F(ScanCountersTest, AdsFull) {
  auto ads = ads::AdsIndex::Create(mgr_.get(), "ads",
                                   {.sax = TestSax(), .materialized = true,
                                    .leaf_capacity = 64,
                                    .global_buffer_entries = 256},
                                   raw_.get())
                 .TakeValue();
  for (size_t i = 0; i < collection_.size(); ++i) {
    ASSERT_TRUE(ads->Insert(i, collection_[i], static_cast<int64_t>(i)).ok());
  }
  CheckIndex(ads.get(),
      /*approx=*/{6, 0, 133, 0, 0, 0,
                  {0, 331, 1973, 993, 808, 1655}, 55.082015436},
      /*exact=*/{125, 0, 2412, 0, 0, 0,
                 {0, 331, 662, 993, 1324, 1655}, 32.949783609},
      /*approx_window=*/{6, 0, 66, 0, 0, 0,
                         {676, 1267, 706, 993, 808, 1024}, 113.678581131},
      /*exact_window=*/{340, 0, 2118, 0, 0, 0,
                        {994, 615, 662, 993, 1324, 731}, 77.510775263});
}

TEST_F(ScanCountersTest, Clsm) {
  auto lsm = clsm::Clsm::Create(mgr_.get(), "lsm",
                                {.sax = TestSax(), .growth_factor = 3,
                                 .buffer_entries = 150},
                                nullptr, raw_.get())
                 .TakeValue();
  for (size_t i = 0; i < collection_.size(); ++i) {
    ASSERT_TRUE(lsm->Insert(i, collection_[i], static_cast<int64_t>(i)).ok());
  }
  // Entries left in the memtable, and runs on more than one level.
  ASSERT_GT(lsm->buffered_entries(), 0u);
  ASSERT_GE(lsm->num_active_levels(), 2u);
  CheckIndex(lsm.get(),
      /*approx=*/{12, 0, 1720, 118, 0, 0,
                  {0, 331, 1973, 993, 363, 1655}, 51.491708112},
      /*exact=*/{70, 44, 8550, 431, 0, 0,
                 {0, 331, 662, 993, 1324, 1655}, 32.949783609},
      /*approx_window=*/{18, 0, 427, 49, 0, 0,
                         {994, 1267, 706, 993, 1122, 1024}, 105.578320710},
      /*exact_window=*/{88, 32, 4456, 398, 0, 0,
                        {994, 615, 662, 993, 1324, 731}, 77.510775263});
}

TEST_F(ScanCountersTest, TemporalPartitioning) {
  stream::TemporalPartitioningIndex::Options opts;
  opts.sax = TestSax();
  opts.buffer_entries = 150;
  auto tp = stream::TemporalPartitioningIndex::Create(mgr_.get(), "tp", opts,
                                                      nullptr, raw_.get())
                .TakeValue();
  IngestAll(tp.get());
  ASSERT_GT(tp->SnapshotStats().buffered, 0u);
  ASSERT_GT(tp->num_partitions(), 1u);
  CheckIndex(tp.get(),
      /*approx=*/{78, 0, 9166, 652, 78, 0,
                  {0, 331, 1973, 993, 436, 1655}, 50.915001322},
      /*exact=*/{209, 25, 20591, 953, 78, 0,
                 {0, 331, 662, 993, 1324, 1655}, 32.949783609},
      /*approx_window=*/{48, 0, 4513, 368, 48, 30,
                         {994, 1267, 562, 993, 436, 731}, 101.336831981},
      /*exact_window=*/{129, 15, 10227, 657, 48, 30,
                        {994, 615, 662, 993, 1324, 731}, 77.510775263});
}

TEST_F(ScanCountersTest, TemporalPartitioningAds) {
  stream::TemporalPartitioningIndex::Options opts;
  opts.sax = TestSax();
  opts.backend = stream::PartitionBackend::kAds;
  opts.buffer_entries = 150;
  opts.ads_leaf_capacity = 64;
  auto tp = stream::TemporalPartitioningIndex::Create(mgr_.get(), "tpads",
                                                      opts, nullptr,
                                                      raw_.get())
                .TakeValue();
  IngestAll(tp.get());
  ASSERT_GT(tp->SnapshotStats().buffered, 0u);
  ASSERT_GT(tp->num_partitions(), 1u);
  CheckIndex(tp.get(),
      /*approx=*/{84, 0, 472, 313, 78, 0,
                  {0, 331, 1973, 993, 1324, 1655}, 35.888908330},
      /*exact=*/{2445, 0, 6873, 1970, 78, 0,
                 {0, 331, 662, 993, 1324, 1655}, 32.949783609},
      /*approx_window=*/{54, 0, 223, 157, 48, 30,
                         {1173, 615, 706, 993, 1324, 1024}, 92.657509279},
      /*exact_window=*/{1773, 0, 3552, 1023, 48, 30,
                        {994, 615, 662, 993, 1324, 731}, 77.510775263});
}

TEST_F(ScanCountersTest, BoundedTemporalPartitioning) {
  stream::BoundedTemporalPartitioningIndex::BtpOptions opts;
  opts.sax = TestSax();
  opts.buffer_entries = 150;
  opts.merge_k = 2;
  auto btp = stream::BoundedTemporalPartitioningIndex::Create(
                 mgr_.get(), "btp", opts, nullptr, raw_.get())
                 .TakeValue();
  IngestAll(btp.get());
  ASSERT_GT(btp->SnapshotStats().buffered, 0u);
  ASSERT_GT(btp->num_partitions(), 1u);
  CheckIndex(btp.get(),
      /*approx=*/{18, 0, 2447, 171, 18, 0,
                  {0, 331, 1973, 993, 363, 1655}, 51.491708112},
      /*exact=*/{80, 40, 9785, 419, 18, 0,
                 {0, 331, 662, 993, 1324, 1655}, 32.949783609},
      /*approx_window=*/{12, 0, 750, 90, 12, 6,
                         {994, 1267, 1101, 993, 1122, 1024}, 105.416001632},
      /*exact_window=*/{76, 26, 4942, 379, 12, 6,
                        {994, 615, 662, 993, 1324, 731}, 77.510775263});
}

}  // namespace
}  // namespace coconut
