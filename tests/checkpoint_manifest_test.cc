// Golden checkpoint manifests: the on-disk TP, BTP and CLSM manifests that
// recovery reads. The WAL format fixtures pin the frame layout around an
// opaque manifest; these cases pin the manifests themselves. Each builds a
// synchronous durable stream from one fixed seeded collection, drains it,
// decodes the log with Wal::DecodeFrames, and compares the last checkpoint
// payload (durable entry count, manifest length, manifest bytes) with a
// hex literal. If one of these fails after an intentional manifest change,
// bump the WAL version and recapture — never edit a literal to match new
// code.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "palm/factory.h"
#include "stream/wal.h"
#include "tests/test_util.h"

namespace coconut {
namespace stream {
namespace {

constexpr size_t kLength = 32;
constexpr size_t kCount = 72;

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

class CheckpointManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("checkpoint_manifest");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
    collection_ = testutil::RandomWalkCollection(kCount, kLength, 2027);
    raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", kLength)
               .TakeValue();
    ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection_).ok());
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  /// Ingests the collection into a sync durable stream built from `spec`,
  /// drains it, and returns the hex of the log's last checkpoint payload.
  std::string LastCheckpointHex(palm::VariantSpec spec) {
    auto wal = Wal::Open(mgr_.get(), "wal", kLength);
    EXPECT_TRUE(wal.ok()) << wal.status().ToString();
    if (!wal.ok()) return "";
    spec.sax = series::SaxConfig{.series_length = kLength, .num_segments = 8,
                                 .bits_per_segment = 8};
    spec.buffer_entries = 16;
    spec.durable = true;
    spec.wal = wal.value().get();
    auto stream =
        palm::CreateStreamingIndex(spec, mgr_.get(), "s", nullptr, raw_.get());
    EXPECT_TRUE(stream.ok()) << stream.status().ToString();
    if (!stream.ok()) return "";
    for (size_t i = 0; i < collection_.size(); ++i) {
      EXPECT_TRUE(stream.value()
                      ->Ingest(i, collection_[i], static_cast<int64_t>(i))
                      .ok());
    }
    EXPECT_TRUE(stream.value()->CommitDurable().ok());
    EXPECT_TRUE(stream.value()->FlushAll().ok());

    std::ifstream in(mgr_->directory() + "/wal", std::ios::binary);
    const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
    std::vector<WalFrame> frames;
    EXPECT_EQ(Wal::DecodeFrames(bytes, &frames), bytes.size());
    std::vector<uint8_t> last;
    for (const WalFrame& frame : frames) {
      if (frame.type == WalFrameType::kCheckpoint) last = frame.payload;
    }
    return Hex(last);
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
  series::SeriesCollection collection_{kLength};
};

TEST_F(CheckpointManifestTest, CTreeTp) {
  palm::VariantSpec spec;
  spec.family = palm::IndexFamily::kCTree;
  spec.mode = palm::StreamMode::kTP;
  EXPECT_EQ(LastCheckpointHex(spec),
            "4800000000000000d80000000500000004000000732e70301000000000000000"
            "00000000000000000f000000000000000000000004000000732e703110000000"
            "0000000010000000000000001f000000000000000000000004000000732e7032"
            "100000000000000020000000000000002f000000000000000000000004000000"
            "732e7033100000000000000030000000000000003f0000000000000000000000"
            "04000000732e7034080000000000000040000000000000004700000000000000"
            "0000000005000000000000000500000000000000000000000000000000000000"
            "00000000");
}

TEST_F(CheckpointManifestTest, ClsmBtp) {
  palm::VariantSpec spec;
  spec.family = palm::IndexFamily::kClsm;
  spec.mode = palm::StreamMode::kBTP;
  spec.btp_merge_k = 2;
  EXPECT_EQ(LastCheckpointHex(spec),
            "48000000000000006c0000000200000004000000732e6d324000000000000000"
            "00000000000000003f000000000000000200000004000000732e703408000000"
            "0000000040000000000000004700000000000000000000000500000000000000"
            "050000000000000003000000000000000300000000000000");
}

TEST_F(CheckpointManifestTest, ClsmPp) {
  palm::VariantSpec spec;
  spec.family = palm::IndexFamily::kClsm;
  spec.mode = palm::StreamMode::kPP;
  spec.growth_factor = 2;
  EXPECT_EQ(LastCheckpointHex(spec),
            "480000000000000050000000020000000100000006000000732e4c302e351800"
            "0000000000000100000006000000732e4c312e33300000000000000006000000"
            "00000000b80000000000000006000000000000000500000000000000");
}

}  // namespace
}  // namespace stream
}  // namespace coconut
