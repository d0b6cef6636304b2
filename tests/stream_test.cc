#include <gtest/gtest.h>

#include "clsm/clsm.h"
#include "palm/factory.h"
#include "stream/btp.h"
#include "stream/pp.h"
#include "stream/tp.h"
#include "tests/test_util.h"

namespace coconut {
namespace stream {
namespace {

using core::SearchOptions;
using core::TimeWindow;

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 64, .num_segments = 8,
                           .bits_per_segment = 8};
}

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("stream_test");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
    raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  // Ingests `collection` with timestamp = ordinal into `index`.
  void IngestAll(StreamingIndex* index,
                 const series::SeriesCollection& collection) {
    ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
    for (size_t i = 0; i < collection.size(); ++i) {
      ASSERT_TRUE(
          index->Ingest(i, collection[i], static_cast<int64_t>(i)).ok());
    }
  }

  // Ground truth restricted to a window (timestamps = ordinals).
  double WindowTruth(const series::SeriesCollection& collection,
                     std::span<const float> query, const TimeWindow& window) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < collection.size(); ++i) {
      if (!window.Contains(static_cast<int64_t>(i))) continue;
      best = std::min(best, series::EuclideanSquared(query, collection[i]));
    }
    return best;
  }

  std::unique_ptr<TemporalPartitioningIndex> MakeTp(
      PartitionBackend backend, size_t buffer_entries) {
    TemporalPartitioningIndex::Options opts;
    opts.sax = TestSax();
    opts.backend = backend;
    opts.buffer_entries = buffer_entries;
    return TemporalPartitioningIndex::Create(mgr_.get(), "tp", opts, nullptr,
                                             raw_.get())
        .TakeValue();
  }

  std::unique_ptr<BoundedTemporalPartitioningIndex> MakeBtp(
      size_t buffer_entries, int merge_k) {
    BoundedTemporalPartitioningIndex::BtpOptions opts;
    opts.sax = TestSax();
    opts.buffer_entries = buffer_entries;
    opts.merge_k = merge_k;
    return BoundedTemporalPartitioningIndex::Create(mgr_.get(), "btp", opts,
                                                    nullptr, raw_.get())
        .TakeValue();
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
};

// ------------------------------------------------------------------ PP

TEST_F(StreamTest, PpOverClsmMatchesWindowedBruteForce) {
  auto collection = testutil::RandomWalkCollection(600, 64, 1);
  clsm::Clsm::Options copts;
  copts.sax = TestSax();
  copts.buffer_entries = 100;
  auto inner =
      clsm::Clsm::Create(mgr_.get(), "lsm", copts, nullptr, raw_.get())
          .TakeValue();
  PostProcessingIndex pp(std::move(inner));
  IngestAll(&pp, collection);
  EXPECT_EQ(pp.num_entries(), 600u);
  EXPECT_EQ(pp.num_partitions(), 1u);
  EXPECT_EQ(pp.describe(), "CLSM-PP");

  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 599}, {100, 300}, {550, 599}, {0, 50}}) {
    SearchOptions opts;
    opts.window = TimeWindow{lo, hi};
    std::vector<float> query = testutil::NoisyCopy(collection, 200, 0.5, 99);
    auto got = pp.ExactSearch(query, opts, nullptr).TakeValue();
    ASSERT_TRUE(got.found);
    EXPECT_GE(got.timestamp, lo);
    EXPECT_LE(got.timestamp, hi);
    EXPECT_NEAR(got.distance_sq,
                WindowTruth(collection, query, opts.window), 1e-6)
        << "window [" << lo << "," << hi << "]";
  }
}

// ------------------------------------------------------------------ TP

TEST_F(StreamTest, TpSealsPartitionsAndCountsEntries) {
  auto collection = testutil::RandomWalkCollection(1000, 64, 2);
  auto tp = MakeTp(PartitionBackend::kSeqTable, 128);
  IngestAll(tp.get(), collection);
  EXPECT_EQ(tp->num_entries(), 1000u);
  // 1000/128 = 7 sealed partitions + a partial buffer.
  EXPECT_EQ(tp->num_partitions(), 7u);
  ASSERT_TRUE(tp->FlushAll().ok());
  EXPECT_EQ(tp->num_partitions(), 8u);
  EXPECT_EQ(tp->num_entries(), 1000u);
  EXPECT_EQ(tp->describe(), "CTree-TP");
}

TEST_F(StreamTest, TpExactMatchesWindowedBruteForce) {
  auto collection = testutil::RandomWalkCollection(800, 64, 3);
  auto tp = MakeTp(PartitionBackend::kSeqTable, 100);
  IngestAll(tp.get(), collection);
  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 799}, {250, 450}, {700, 799}, {0, 99}, {95, 105}}) {
    SearchOptions opts;
    opts.window = TimeWindow{lo, hi};
    std::vector<float> query = testutil::NoisyCopy(collection, 400, 0.5, 7);
    auto got = tp->ExactSearch(query, opts, nullptr).TakeValue();
    ASSERT_TRUE(got.found);
    EXPECT_GE(got.timestamp, lo);
    EXPECT_LE(got.timestamp, hi);
    EXPECT_NEAR(got.distance_sq,
                WindowTruth(collection, query, opts.window), 1e-6);
  }
}

TEST_F(StreamTest, TpSkipsPartitionsOutsideWindow) {
  auto collection = testutil::RandomWalkCollection(1000, 64, 4);
  auto tp = MakeTp(PartitionBackend::kSeqTable, 100);
  IngestAll(tp.get(), collection);
  ASSERT_TRUE(tp->FlushAll().ok());
  ASSERT_EQ(tp->num_partitions(), 10u);

  // Window covering only the newest partition.
  core::QueryCounters counters;
  SearchOptions opts;
  opts.window = TimeWindow{900, 999};
  std::vector<float> query(collection[950].begin(), collection[950].end());
  ASSERT_TRUE(tp->ExactSearch(query, opts, &counters).ok());
  EXPECT_EQ(counters.partitions_skipped, 9u);
  EXPECT_EQ(counters.partitions_visited, 1u);

  // Full-history window visits everything.
  counters.Reset();
  opts.window = TimeWindow::All();
  ASSERT_TRUE(tp->ExactSearch(query, opts, &counters).ok());
  EXPECT_EQ(counters.partitions_visited, 10u);
}

TEST_F(StreamTest, TpWithAdsBackendMatchesBruteForce) {
  auto collection = testutil::RandomWalkCollection(500, 64, 5);
  auto tp = MakeTp(PartitionBackend::kAds, 100);
  IngestAll(tp.get(), collection);
  EXPECT_EQ(tp->describe(), "ADS+-TP");
  EXPECT_EQ(tp->num_entries(), 500u);
  SearchOptions opts;
  opts.window = TimeWindow{50, 450};
  std::vector<float> query = testutil::NoisyCopy(collection, 250, 0.4, 8);
  auto got = tp->ExactSearch(query, opts, nullptr).TakeValue();
  ASSERT_TRUE(got.found);
  EXPECT_NEAR(got.distance_sq, WindowTruth(collection, query, opts.window),
              1e-6);
}

// ------------------------------------------------------------------ BTP

TEST_F(StreamTest, BtpBoundsPartitionCount) {
  auto collection = testutil::RandomWalkCollection(3200, 64, 6);
  auto tp = MakeTp(PartitionBackend::kSeqTable, 100);
  // Fresh raw store contents shared; use separate indexes over the same
  // collection.
  auto btp = MakeBtp(100, 2);
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(
        tp->Ingest(i, collection[i], static_cast<int64_t>(i)).ok());
    ASSERT_TRUE(
        btp->Ingest(i, collection[i], static_cast<int64_t>(i)).ok());
  }
  // TP accumulates linearly: 32 partitions. BTP with merge_k=2 keeps at
  // most one partition per size class: <= log2(32)+1 = 6.
  EXPECT_EQ(tp->num_partitions(), 32u);
  EXPECT_LE(btp->num_partitions(), 6u);
  EXPECT_GT(btp->merges_performed(), 0u);
  EXPECT_EQ(btp->num_entries(), 3200u);
  EXPECT_EQ(btp->describe(), "CLSM-BTP");
}

TEST_F(StreamTest, BtpExactMatchesWindowedBruteForce) {
  auto collection = testutil::RandomWalkCollection(1000, 64, 7);
  auto btp = MakeBtp(64, 2);
  IngestAll(btp.get(), collection);
  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 999}, {300, 600}, {900, 999}, {0, 63}, {500, 510}}) {
    SearchOptions opts;
    opts.window = TimeWindow{lo, hi};
    std::vector<float> query = testutil::NoisyCopy(collection, 500, 0.5, 9);
    auto got = btp->ExactSearch(query, opts, nullptr).TakeValue();
    ASSERT_TRUE(got.found);
    EXPECT_GE(got.timestamp, lo);
    EXPECT_LE(got.timestamp, hi);
    EXPECT_NEAR(got.distance_sq,
                WindowTruth(collection, query, opts.window), 1e-6)
        << "window [" << lo << "," << hi << "]";
  }
}

TEST_F(StreamTest, BtpMergedPartitionsPreserveTimeRanges) {
  // 700 entries at buffer 100 = 7 seals -> partitions of sizes 4+2+1
  // (classes 2, 1, 0), covering disjoint contiguous time ranges.
  auto collection = testutil::RandomWalkCollection(700, 64, 8);
  auto btp = MakeBtp(100, 2);
  IngestAll(btp.get(), collection);
  ASSERT_TRUE(btp->FlushAll().ok());
  ASSERT_EQ(btp->num_partitions(), 3u);

  // A window over the newest 100 entries intersects only the newest
  // (class-0) partition; the two older ones are skipped.
  core::QueryCounters counters;
  SearchOptions opts;
  opts.window = TimeWindow{620, 699};
  std::vector<float> query(collection[650].begin(), collection[650].end());
  auto got = btp->ExactSearch(query, opts, &counters).TakeValue();
  ASSERT_TRUE(got.found);
  EXPECT_EQ(got.series_id, 650u);
  EXPECT_GT(counters.partitions_skipped, 0u);
}

TEST_F(StreamTest, BtpApproxTouchesBoundedPartitions) {
  auto collection = testutil::RandomWalkCollection(3200, 64, 10);
  auto btp = MakeBtp(100, 2);
  IngestAll(btp.get(), collection);
  core::QueryCounters counters;
  std::vector<float> query = testutil::NoisyCopy(collection, 100, 0.4, 11);
  ASSERT_TRUE(btp->ApproxSearch(query, {}, &counters).ok());
  // Approximate cost is one probe per live partition, which BTP bounds
  // logarithmically.
  EXPECT_LE(counters.partitions_visited, 6u);
}

TEST_F(StreamTest, BtpMergesAreSequentialIo) {
  auto collection = testutil::RandomWalkCollection(1600, 64, 12);
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  auto btp = MakeBtp(100, 2);
  mgr_->io_stats()->Reset();
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(btp->Ingest(i, collection[i], static_cast<int64_t>(i)).ok());
  }
  const auto& io = *mgr_->io_stats();
  EXPECT_GT(io.sequential_writes, io.random_writes * 2);
}

TEST_F(StreamTest, RejectsBadOptions) {
  EXPECT_FALSE(BoundedTemporalPartitioningIndex::Create(
                   mgr_.get(), "x",
                   {.sax = TestSax(), .buffer_entries = 128, .merge_k = 1},
                   nullptr, raw_.get())
                   .ok());
  TemporalPartitioningIndex::Options bad;
  bad.sax = TestSax();
  bad.buffer_entries = 0;
  EXPECT_FALSE(TemporalPartitioningIndex::Create(mgr_.get(), "x", bad,
                                                 nullptr, raw_.get())
                   .ok());
}

TEST_F(StreamTest, EmptyStreamFindsNothing) {
  auto btp = MakeBtp(64, 2);
  std::vector<float> query(64, 0.0f);
  EXPECT_FALSE(btp->ApproxSearch(query, {}, nullptr).TakeValue().found);
  EXPECT_FALSE(btp->ExactSearch(query, {}, nullptr).TakeValue().found);
  EXPECT_EQ(btp->num_entries(), 0u);
}

// ------------------------------------------------- failed sync seals

// A synchronous seal that fails must leave the stream failed exactly as a
// failed background seal does: FlushAll and the next Ingest report the
// error, rather than FlushAll returning OK over a buffer never sealed.
struct SealCase {
  const char* name;
  palm::StreamMode mode;
  palm::IndexFamily family;
};

class SyncSealFailureTest : public StreamTest,
                            public ::testing::WithParamInterface<SealCase> {};

TEST_P(SyncSealFailureTest, FlushAllAndNextIngestReportTheError) {
  palm::VariantSpec spec;
  spec.sax = TestSax();
  spec.mode = GetParam().mode;
  spec.family = GetParam().family;
  spec.buffer_entries = 8;
  int failures = 1;
  spec.seal_test_hook = [&failures] {
    return failures-- > 0 ? Status::IoError("injected seal failure")
                          : Status::OK();
  };
  auto stream = palm::CreateStreamingIndex(spec, mgr_.get(), "fail", nullptr,
                                           raw_.get())
                    .TakeValue();
  auto collection = testutil::RandomWalkCollection(24, 64, 5);
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());
  for (size_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(
        stream->Ingest(i, collection[i], static_cast<int64_t>(i)).ok());
  }
  // The 8th admission fills the buffer; its inline seal fails.
  const Status sealed = stream->Ingest(7, collection[7], 7);
  EXPECT_EQ(sealed.code(), StatusCode::kIoError);
  EXPECT_EQ(stream->num_entries(), 8u);
  const Status drained = stream->FlushAll();
  EXPECT_EQ(drained.code(), StatusCode::kIoError);
  const Status after = stream->Ingest(8, collection[8], 8);
  EXPECT_EQ(after.code(), StatusCode::kIoError);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SyncSealFailureTest,
    ::testing::Values(
        SealCase{"CTreeTp", palm::StreamMode::kTP, palm::IndexFamily::kCTree},
        SealCase{"ClsmBtp", palm::StreamMode::kBTP, palm::IndexFamily::kClsm},
        SealCase{"ClsmPp", palm::StreamMode::kPP, palm::IndexFamily::kClsm}),
    [](const ::testing::TestParamInfo<SealCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace stream
}  // namespace coconut
