// Golden-fixture tests for the on-disk WAL format (stream/wal.h). The
// byte files under tests/testdata/ were emitted by
// tests/testdata/generate_wal_fixtures.cc, which builds every frame with
// its own little-endian writer and CRC — independent of Wal::EncodeFrame
// — so the assertions here pin the format from two directions: the
// current encoder must reproduce the golden bytes exactly, and the
// current decoder must read them (plus deliberately future-versioned
// logs) with the documented version-skew semantics. If one of these
// tests fails after an intentional format change, bump the WAL version
// and regenerate — never edit a fixture to match new code.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/crc32c.h"
#include "core/raw_store.h"
#include "storage/storage_manager.h"
#include "stream/streaming_index.h"
#include "stream/wal.h"
#include "tests/test_util.h"

namespace coconut {
namespace stream {
namespace {

std::vector<uint8_t> ReadFixture(const std::string& name) {
  const std::string path = std::string(COCONUT_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

uint32_t ReadLeU32(const std::vector<uint8_t>& bytes, size_t at) {
  return static_cast<uint32_t>(bytes[at]) |
         static_cast<uint32_t>(bytes[at + 1]) << 8 |
         static_cast<uint32_t>(bytes[at + 2]) << 16 |
         static_cast<uint32_t>(bytes[at + 3]) << 24;
}

/// Copies fixture bytes into a fresh storage dir as the stream's "wal"
/// file so Wal::Open scans them exactly as it would after a restart.
class FixtureLog : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path().string() +
            "/wal_format_test_" + ::testing::UnitTest::GetInstance()
                                      ->current_test_info()
                                      ->name();
    std::filesystem::remove_all(root_);
    auto storage = storage::StorageManager::Create(root_);
    ASSERT_TRUE(storage.ok()) << storage.status().ToString();
    storage_ = storage.TakeValue();
  }

  void TearDown() override {
    storage_.reset();
    std::filesystem::remove_all(root_);
  }

  void InstallLog(const std::vector<uint8_t>& bytes) {
    auto file = storage_->CreateFile("wal");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE(file.value()->Append(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(file.value()->DataSync().ok());
  }

  std::string root_;
  std::unique_ptr<storage::StorageManager> storage_;
};

using testutil::CapturingIndex;

/// Asserts the fixed 16-byte header layout of `frame` and that the
/// stored CRC-32C matches a recomputation over header[4,12) ++ payload.
void ExpectWellFormedHeader(const std::vector<uint8_t>& frame,
                            uint8_t want_major, uint8_t want_minor,
                            uint8_t want_type, uint32_t want_payload_len) {
  ASSERT_GE(frame.size(), kWalFrameHeaderBytes);
  // Magic: the bytes "CWAL" (0x4C415743 little-endian).
  EXPECT_EQ(frame[0], 0x43);  // 'C'
  EXPECT_EQ(frame[1], 0x57);  // 'W'
  EXPECT_EQ(frame[2], 0x41);  // 'A'
  EXPECT_EQ(frame[3], 0x4C);  // 'L'
  EXPECT_EQ(ReadLeU32(frame, 0), kWalMagic);
  EXPECT_EQ(frame[4], want_major);
  EXPECT_EQ(frame[5], want_minor);
  EXPECT_EQ(frame[6], want_type);
  EXPECT_EQ(frame[7], 0) << "reserved byte must be zero";
  EXPECT_EQ(ReadLeU32(frame, 8), want_payload_len);
  ASSERT_EQ(frame.size(), kWalFrameHeaderBytes + want_payload_len);
  uint32_t crc = Crc32c(frame.data() + 4, 8);
  crc = Crc32cExtend(crc, frame.data() + kWalFrameHeaderBytes,
                     want_payload_len);
  EXPECT_EQ(ReadLeU32(frame, 12), crc);
}

TEST(WalFormat, HeaderFixtureBytes) {
  const std::vector<uint8_t> golden = ReadFixture("wal_header.bin");
  ExpectWellFormedHeader(golden, kWalVersionMajor, kWalVersionMinor,
                         /*type=*/1, /*payload_len=*/4);
  EXPECT_EQ(ReadLeU32(golden, kWalFrameHeaderBytes), 4u)
      << "stream-header payload is the u32 series length";

  // The current encoder reproduces the golden bytes exactly.
  std::vector<uint8_t> payload;
  WalPutU32(&payload, 4);
  EXPECT_EQ(Wal::EncodeFrame(WalFrameType::kStreamHeader, payload), golden);
}

TEST(WalFormat, BatchFixtureBytes) {
  const std::vector<uint8_t> golden = ReadFixture("wal_batch.bin");
  // Payload: count=3, then kMap{42}, kAdmit{id 0, ts 7, 4 floats
  // including both zeros and a quiet NaN}, kHole.
  std::vector<uint8_t> payload;
  WalPutU32(&payload, 3);
  payload.push_back(static_cast<uint8_t>(WalRecordKind::kMap));
  WalPutU64(&payload, 42);
  payload.push_back(static_cast<uint8_t>(WalRecordKind::kAdmit));
  WalPutU64(&payload, 0);
  WalPutI64(&payload, 7);
  const uint32_t float_bits[] = {0x00000000u,   // 0.0f
                                 0x80000000u,   // -0.0f
                                 0x3FC00000u,   // 1.5f
                                 0x7FC00000u};  // quiet NaN
  for (uint32_t bits : float_bits) {
    WalPutU32(&payload, bits);
  }
  payload.push_back(static_cast<uint8_t>(WalRecordKind::kHole));

  ExpectWellFormedHeader(golden, kWalVersionMajor, kWalVersionMinor,
                         /*type=*/2, static_cast<uint32_t>(payload.size()));
  EXPECT_EQ(Wal::EncodeFrame(WalFrameType::kBatch, payload), golden);

  std::vector<WalFrame> frames;
  EXPECT_EQ(Wal::DecodeFrames(golden, &frames), golden.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, WalFrameType::kBatch);
  EXPECT_EQ(frames[0].payload, payload);
}

TEST(WalFormat, CheckpointFixtureBytes) {
  const std::vector<uint8_t> golden = ReadFixture("wal_checkpoint.bin");
  std::vector<uint8_t> payload;
  WalPutU64(&payload, 2);  // durable_entries
  WalPutU32(&payload, 3);  // manifest_len
  payload.push_back('a');
  payload.push_back('b');
  payload.push_back('c');
  ExpectWellFormedHeader(golden, kWalVersionMajor, kWalVersionMinor,
                         /*type=*/3, static_cast<uint32_t>(payload.size()));
  EXPECT_EQ(Wal::EncodeFrame(WalFrameType::kCheckpoint, payload), golden);
}

TEST(WalFormat, BaseFixtureBytes) {
  const std::vector<uint8_t> golden = ReadFixture("wal_base.bin");
  std::vector<uint8_t> payload;
  WalPutU64(&payload, 2);   // base_ordinals
  WalPutU64(&payload, 1);   // base_admitted
  WalPutI64(&payload, -5);  // watermark
  WalPutU64(&payload, 0);   // folded checkpoint durable_entries
  WalPutU32(&payload, 0);   // manifest_len (no folded checkpoint)
  WalPutU64(&payload, 2);   // map_count
  WalPutU64(&payload, 9);
  WalPutU64(&payload, 11);
  ExpectWellFormedHeader(golden, kWalVersionMajor, kWalVersionMinor,
                         /*type=*/4, static_cast<uint32_t>(payload.size()));
  EXPECT_EQ(Wal::EncodeFrame(WalFrameType::kBase, payload), golden);
}

TEST_F(FixtureLog, GoldenLogOpensAndReplays) {
  InstallLog(ReadFixture("wal_log.bin"));
  auto opened = Wal::Open(storage_.get(), "wal", 4);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Wal> wal = opened.TakeValue();
  EXPECT_EQ(wal->base_ordinals(), 0u);

  CapturingIndex index;
  auto raw = core::RawSeriesStore::OpenTruncated(storage_.get(), "raw", 4, 0);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  WalRecoverOutcome outcome;
  ASSERT_TRUE(wal->Recover(&index, raw.value().get(), &outcome).ok());

  EXPECT_EQ(outcome.ordinals, 2u);
  EXPECT_EQ(outcome.admitted, 2u);
  EXPECT_EQ(outcome.watermark, 2);
  ASSERT_EQ(index.entries.size(), 2u);
  for (uint64_t id = 0; id < 2; ++id) {
    EXPECT_EQ(index.entries[id].id, id);
    EXPECT_EQ(index.entries[id].timestamp, static_cast<int64_t>(id) + 1);
    ASSERT_EQ(index.entries[id].values.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(index.entries[id].values[i],
                static_cast<float>(id * 4 + i + 1));
    }
  }
}

TEST_F(FixtureLog, GoldenLogRejectsLengthMismatch) {
  InstallLog(ReadFixture("wal_log.bin"));
  auto opened = Wal::Open(storage_.get(), "wal", 8);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FixtureLog, FutureMinorUnknownFrameIsSkipped) {
  const std::vector<uint8_t> golden = ReadFixture("wal_future_minor.bin");

  // Decoder: the unknown type-7 frame is dropped (not surfaced, not
  // fatal), the header and the batch around it both decode, and the
  // whole file is the valid prefix.
  std::vector<WalFrame> frames;
  bool major_too_new = true;
  EXPECT_EQ(Wal::DecodeFrames(golden, &frames, &major_too_new),
            golden.size());
  EXPECT_FALSE(major_too_new);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, WalFrameType::kStreamHeader);
  EXPECT_EQ(frames[1].type, WalFrameType::kBatch);

  // Open + Recover: the admit after the unknown frame is replayed.
  InstallLog(golden);
  auto opened = Wal::Open(storage_.get(), "wal", 4);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  CapturingIndex index;
  auto raw = core::RawSeriesStore::OpenTruncated(storage_.get(), "raw", 4, 0);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  WalRecoverOutcome outcome;
  ASSERT_TRUE(
      opened.value()->Recover(&index, raw.value().get(), &outcome).ok());
  ASSERT_EQ(index.entries.size(), 1u);
  EXPECT_EQ(index.entries[0].timestamp, 3);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(index.entries[0].values[i], static_cast<float>(i) - 1.5f);
  }
}

TEST_F(FixtureLog, FutureMajorLogIsRefused) {
  const std::vector<uint8_t> golden = ReadFixture("wal_future_major.bin");

  std::vector<WalFrame> frames;
  bool major_too_new = false;
  EXPECT_EQ(Wal::DecodeFrames(golden, &frames, &major_too_new), 0u);
  EXPECT_TRUE(major_too_new);
  EXPECT_TRUE(frames.empty());

  InstallLog(golden);
  auto opened = Wal::Open(storage_.get(), "wal", 4);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotSupported)
      << opened.status().ToString();
}

TEST_F(FixtureLog, FutureMajorFrameAppendedToV1LogIsRefused) {
  // The major-2 frame after the valid v1 header is committed data from a
  // newer writer — Open must refuse, not truncate it away as a torn tail.
  const std::vector<uint8_t> golden =
      ReadFixture("wal_future_major_appended.bin");

  std::vector<WalFrame> frames;
  bool major_too_new = false;
  const size_t valid = Wal::DecodeFrames(golden, &frames, &major_too_new);
  EXPECT_TRUE(major_too_new);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, WalFrameType::kStreamHeader);
  EXPECT_LT(valid, golden.size());

  InstallLog(golden);
  auto opened = Wal::Open(storage_.get(), "wal", 4);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotSupported)
      << opened.status().ToString();

  // And the refused open left the file byte-identical (nothing truncated).
  auto file = storage_->OpenFile("wal");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value()->size_bytes(), golden.size());
}

}  // namespace
}  // namespace stream
}  // namespace coconut
