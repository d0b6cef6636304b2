// Property-style round-trip tests for the write-ahead-log codec
// (stream/wal.h): frame encode -> decode is the identity on arbitrary
// payloads, record batches survive the full append -> commit -> scan ->
// replay cycle bit-for-bit — including the float edge cases a naive
// text or comparison-based codec mangles (NaN payloads, signed zeros,
// denormals) — and the torn-tail rule returns exactly the longest valid
// frame prefix no matter where the log is cut.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/raw_store.h"
#include "storage/storage_manager.h"
#include "stream/streaming_index.h"
#include "stream/wal.h"
#include "tests/test_util.h"

namespace coconut {
namespace stream {
namespace {

class WalTempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path().string() +
            "/wal_codec_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
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

  std::string root_;
  std::unique_ptr<storage::StorageManager> storage_;
};

using testutil::CapturingIndex;

/// Bitwise float equality: NaN == NaN, +0.0 != -0.0 — the payload must
/// come back as the same 32 bits, not merely compare equal.
void ExpectBitwiseEqual(std::span<const float> got,
                        std::span<const float> want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    uint32_t g = 0;
    uint32_t w = 0;
    std::memcpy(&g, &got[i], 4);
    std::memcpy(&w, &want[i], 4);
    EXPECT_EQ(g, w) << "float " << i << " changed bits";
  }
}

TEST(WalFrameCodec, RoundTripsRandomPayloads) {
  Rng rng(20260807);
  const WalFrameType types[] = {WalFrameType::kStreamHeader,
                                WalFrameType::kBatch, WalFrameType::kCheckpoint,
                                WalFrameType::kBase};
  std::vector<uint8_t> log;
  std::vector<WalFrame> expected;
  for (int round = 0; round < 64; ++round) {
    const size_t len = static_cast<size_t>(rng.NextUint64() % 2048);
    std::vector<uint8_t> payload(len);
    for (uint8_t& b : payload) {
      b = static_cast<uint8_t>(rng.NextUint64());
    }
    const WalFrameType type = types[rng.NextUint64() % 4];
    const std::vector<uint8_t> frame = Wal::EncodeFrame(type, payload);
    ASSERT_EQ(frame.size(), kWalFrameHeaderBytes + payload.size());

    // Each frame decodes alone...
    std::vector<WalFrame> one;
    EXPECT_EQ(Wal::DecodeFrames(frame, &one), frame.size());
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].type, type);
    EXPECT_EQ(one[0].payload, payload);

    // ...and concatenated with everything before it.
    log.insert(log.end(), frame.begin(), frame.end());
    expected.push_back(WalFrame{type, std::move(payload)});
  }
  std::vector<WalFrame> all;
  EXPECT_EQ(Wal::DecodeFrames(log, &all), log.size());
  ASSERT_EQ(all.size(), expected.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].type, expected[i].type);
    EXPECT_EQ(all[i].payload, expected[i].payload);
  }
}

TEST(WalFrameCodec, EveryCutReturnsLongestValidPrefix) {
  // Three small frames; cutting the byte stream anywhere must decode
  // exactly the frames that fit before the cut — never a partial frame,
  // never a crash.
  std::vector<uint8_t> log;
  std::vector<size_t> boundaries{0};
  for (uint32_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> payload(5 + i * 7, static_cast<uint8_t>(0xA0 + i));
    const std::vector<uint8_t> frame =
        Wal::EncodeFrame(WalFrameType::kBatch, payload);
    log.insert(log.end(), frame.begin(), frame.end());
    boundaries.push_back(log.size());
  }
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    std::vector<WalFrame> frames;
    const size_t valid = Wal::DecodeFrames(
        std::span<const uint8_t>(log.data(), cut), &frames);
    size_t want_frames = 0;
    size_t want_valid = 0;
    for (size_t b = 1; b < boundaries.size(); ++b) {
      if (boundaries[b] <= cut) {
        want_frames = b;
        want_valid = boundaries[b];
      }
    }
    EXPECT_EQ(frames.size(), want_frames) << "cut at " << cut;
    EXPECT_EQ(valid, want_valid) << "cut at " << cut;
  }
}

TEST_F(WalTempDir, BatchRecordsRoundTripThroughCommitAndReplay) {
  constexpr uint32_t kLen = 16;
  // The adversarial payload: quiet NaN, signaling-ish NaN bits, both
  // zeros, denormal, inf, lowest/highest finite.
  std::vector<float> nasty(kLen, 0.0f);
  nasty[0] = std::numeric_limits<float>::quiet_NaN();
  nasty[1] = -0.0f;
  nasty[2] = 0.0f;
  nasty[3] = std::numeric_limits<float>::denorm_min();
  nasty[4] = std::numeric_limits<float>::infinity();
  nasty[5] = -std::numeric_limits<float>::infinity();
  nasty[6] = std::numeric_limits<float>::lowest();
  nasty[7] = std::numeric_limits<float>::max();
  uint32_t nan_bits = 0x7FC00001u;
  std::memcpy(&nasty[8], &nan_bits, 4);

  Rng rng(7);
  std::vector<std::vector<float>> admits;
  {
    auto opened = Wal::Open(storage_.get(), "wal", kLen);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Wal> wal = opened.TakeValue();

    // An empty commit writes nothing.
    const uint64_t before = wal->size_bytes();
    ASSERT_TRUE(wal->Commit().ok());
    EXPECT_EQ(wal->size_bytes(), before);

    admits.push_back(nasty);
    wal->AppendAdmit(0, std::numeric_limits<int64_t>::min(), admits[0]);
    ASSERT_TRUE(wal->Commit().ok());

    for (uint64_t i = 1; i < 5; ++i) {
      std::vector<float> values(kLen);
      for (float& v : values) {
        v = static_cast<float>(rng.NextGaussian());
      }
      admits.push_back(values);
      wal->AppendAdmit(i, static_cast<int64_t>(i) * 1000 - 2000, values);
    }
    wal->AppendHole();
    wal->AppendMap(999);
    ASSERT_TRUE(wal->Commit().ok());
  }

  auto reopened = Wal::Open(storage_.get(), "wal", kLen);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<Wal> wal = reopened.TakeValue();
  CapturingIndex index;
  auto raw = core::RawSeriesStore::OpenTruncated(storage_.get(), "raw", kLen,
                                                 wal->base_ordinals());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  WalRecoverOutcome outcome;
  ASSERT_TRUE(wal->Recover(&index, raw.value().get(), &outcome).ok());

  EXPECT_EQ(outcome.admitted, 5u);
  EXPECT_EQ(outcome.ordinals, 6u);  // 5 admits + 1 hole
  EXPECT_EQ(outcome.watermark, 2000);
  ASSERT_EQ(outcome.local_to_global.size(), 1u);
  EXPECT_EQ(outcome.local_to_global[0], 999u);

  ASSERT_EQ(index.entries.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(index.entries[i].id, i);
    ExpectBitwiseEqual(index.entries[i].values, admits[i]);
  }
  EXPECT_EQ(index.entries[0].timestamp, std::numeric_limits<int64_t>::min());

  // Replay re-appended every payload (holes zero-filled) to the store.
  std::vector<float> fetched(kLen);
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(raw.value()->Get(i, fetched).ok());
    ExpectBitwiseEqual(fetched, admits[i]);
  }
  ASSERT_TRUE(raw.value()->Get(5, fetched).ok());
  for (float v : fetched) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST_F(WalTempDir, MaxLengthSeriesAndEmptyBatches) {
  // The longest series the wire accepts still fits one batch frame.
  constexpr uint32_t kLen = 4096;
  std::vector<float> big(kLen);
  Rng rng(11);
  for (float& v : big) {
    v = static_cast<float>(rng.NextGaussian());
  }
  {
    auto opened = Wal::Open(storage_.get(), "wal", kLen);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Wal> wal = opened.TakeValue();
    ASSERT_TRUE(wal->Commit().ok());  // nothing pending
    ASSERT_TRUE(wal->Commit().ok());  // still nothing
    wal->AppendAdmit(0, 42, big);
    ASSERT_TRUE(wal->Commit().ok());
    ASSERT_TRUE(wal->Commit().ok());  // drained, writes nothing again
  }
  auto reopened = Wal::Open(storage_.get(), "wal", kLen);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  CapturingIndex index;
  auto raw = core::RawSeriesStore::OpenTruncated(storage_.get(), "raw", kLen,
                                                 0);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  WalRecoverOutcome outcome;
  ASSERT_TRUE(
      reopened.value()->Recover(&index, raw.value().get(), &outcome).ok());
  ASSERT_EQ(index.entries.size(), 1u);
  ExpectBitwiseEqual(index.entries[0].values, big);
  EXPECT_EQ(index.restored_watermark, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(outcome.watermark, 42);
}

TEST_F(WalTempDir, RandomizedAppendCommitReplayEquivalence) {
  // Fuzz the batch structure: random interleavings of admits, holes and
  // maps across random commit boundaries must replay to exactly the
  // logged sequence.
  constexpr uint32_t kLen = 8;
  Rng rng(20260808);
  struct Op {
    int kind;  // 0 admit, 1 hole, 2 map
    uint64_t value;
    std::vector<float> values;
  };
  std::vector<Op> ops;
  {
    auto opened = Wal::Open(storage_.get(), "wal", kLen);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Wal> wal = opened.TakeValue();
    uint64_t ordinal = 0;
    int64_t ts = 0;
    for (int i = 0; i < 200; ++i) {
      const int kind = static_cast<int>(rng.NextUint64() % 3);
      if (kind == 0) {
        std::vector<float> values(kLen);
        for (float& v : values) {
          v = static_cast<float>(rng.NextGaussian());
        }
        ts += static_cast<int64_t>(rng.NextUint64() % 5);
        wal->AppendAdmit(ordinal, ts, values);
        ops.push_back(Op{0, ordinal, values});
        ++ordinal;
      } else if (kind == 1) {
        wal->AppendHole();
        ops.push_back(Op{1, ordinal, {}});
        ++ordinal;
      } else {
        const uint64_t global = rng.NextUint64() % 10000;
        wal->AppendMap(global);
        ops.push_back(Op{2, global, {}});
      }
      if (rng.NextUint64() % 7 == 0) {
        ASSERT_TRUE(wal->Commit().ok());
      }
    }
    ASSERT_TRUE(wal->Commit().ok());
  }
  auto reopened = Wal::Open(storage_.get(), "wal", kLen);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  CapturingIndex index;
  auto raw = core::RawSeriesStore::OpenTruncated(storage_.get(), "raw", kLen,
                                                 0);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  WalRecoverOutcome outcome;
  ASSERT_TRUE(
      reopened.value()->Recover(&index, raw.value().get(), &outcome).ok());

  size_t admit_at = 0;
  std::vector<uint64_t> maps;
  uint64_t ordinals = 0;
  for (const Op& op : ops) {
    if (op.kind == 0) {
      ASSERT_LT(admit_at, index.entries.size());
      EXPECT_EQ(index.entries[admit_at].id, op.value);
      ExpectBitwiseEqual(index.entries[admit_at].values, op.values);
      ++admit_at;
      ++ordinals;
    } else if (op.kind == 1) {
      ++ordinals;
    } else {
      maps.push_back(op.value);
    }
  }
  EXPECT_EQ(index.entries.size(), admit_at);
  EXPECT_EQ(outcome.ordinals, ordinals);
  EXPECT_EQ(outcome.local_to_global, maps);
}

/// Accepts any manifest and remembers it, so a test can see which
/// checkpoint recovery restored.
class ManifestCapturingIndex : public CapturingIndex {
 public:
  Status RestoreFromManifest(std::span<const uint8_t> bytes) override {
    manifest.assign(bytes.begin(), bytes.end());
    return Status::OK();
  }
  std::vector<uint8_t> manifest;
};

constexpr uint32_t kTruncLen = 4;

std::vector<float> TruncValues(uint64_t ordinal) {
  return std::vector<float>(kTruncLen, static_cast<float>(ordinal) + 0.5f);
}

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// Writes the truncation fixture through the live append path, with
/// every ordinal mapped (as a sharded stream does):
///   batch A  map 100, admit 0 (ts 5), map 101, hole 1, map 102,
///            admit 2 (ts 3)
///   checkpoint durable 2 "old"     (covers batch A)
///   batch B  map 103, admit 3 (ts 9), map 104, admit 4 (ts 7)
///   checkpoint durable 10 "future" (claims more admits than the log holds)
///   batch C  map 105, admit 5 (ts 11), map 106, hole 6
/// Each ordinal's payload also goes to `raw`, holes zero-filled.
void WriteTruncationFixture(Wal* wal, core::RawSeriesStore* raw) {
  const auto admit = [&](uint64_t ordinal, int64_t ts) {
    wal->AppendMap(100 + ordinal);
    ASSERT_TRUE(raw->Append(TruncValues(ordinal)).ok());
    wal->AppendAdmit(ordinal, ts, TruncValues(ordinal));
  };
  const auto hole = [&](uint64_t ordinal) {
    wal->AppendMap(100 + ordinal);
    ASSERT_TRUE(raw->Append(std::vector<float>(kTruncLen, 0.0f)).ok());
    wal->AppendHole();
  };
  admit(0, 5);
  hole(1);
  admit(2, 3);
  ASSERT_TRUE(wal->Commit().ok());
  ASSERT_TRUE(wal->AppendCheckpoint(2, Bytes("old")).ok());
  admit(3, 9);
  admit(4, 7);
  ASSERT_TRUE(wal->Commit().ok());
  ASSERT_TRUE(wal->AppendCheckpoint(10, Bytes("future")).ok());
  admit(5, 11);
  hole(6);
  ASSERT_TRUE(wal->Commit().ok());
}

std::vector<uint8_t> ReadLog(storage::StorageManager* storage) {
  auto file = storage->OpenFile("wal");
  EXPECT_TRUE(file.ok());
  std::vector<uint8_t> bytes(file.value()->size_bytes());
  EXPECT_TRUE(file.value()->ReadAt(0, bytes.data(), bytes.size()).ok());
  return bytes;
}

/// Byte offset of frame `index` in a log that decoded to `frames`.
size_t FrameOffset(const std::vector<WalFrame>& frames, size_t index) {
  size_t offset = 0;
  for (size_t i = 0; i < index; ++i) {
    offset += kWalFrameHeaderBytes + frames[i].payload.size();
  }
  return offset;
}

/// Bytes of the frames after the header and base of the log `bytes`.
uint64_t KeptFrameBytes(const std::vector<uint8_t>& bytes) {
  std::vector<WalFrame> frames;
  const size_t valid = Wal::DecodeFrames(bytes, &frames);
  EXPECT_GE(frames.size(), 2u);
  EXPECT_EQ(frames[1].type, WalFrameType::kBase);
  return valid - FrameOffset(frames, std::min<size_t>(frames.size(), 2));
}

TEST_F(WalTempDir, TruncationFoldsCoveredPrefixAndKeepsSuffix) {
  std::vector<uint8_t> before;
  {
    auto opened = Wal::Open(storage_.get(), "wal", kTruncLen);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto raw = core::RawSeriesStore::OpenTruncated(storage_.get(), "raw",
                                                   kTruncLen, 0);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    WriteTruncationFixture(opened.value().get(), raw.value().get());
    before = ReadLog(storage_.get());
    ASSERT_TRUE(opened.value()->TruncateBefore(raw.value().get()).ok());
  }

  // Only batch A and the "old" checkpoint are covered: the log is now
  // header, base, then batch B, the "future" checkpoint and batch C,
  // byte for byte as they were written.
  const std::vector<uint8_t> after = ReadLog(storage_.get());
  std::vector<WalFrame> old_frames;
  std::vector<WalFrame> new_frames;
  ASSERT_EQ(Wal::DecodeFrames(before, &old_frames), before.size());
  ASSERT_EQ(Wal::DecodeFrames(after, &new_frames), after.size());
  ASSERT_EQ(old_frames.size(), 6u);
  ASSERT_EQ(new_frames.size(), 5u);
  EXPECT_EQ(new_frames[0].type, WalFrameType::kStreamHeader);
  EXPECT_EQ(new_frames[1].type, WalFrameType::kBase);
  EXPECT_EQ(std::vector<uint8_t>(
                after.begin() + static_cast<ptrdiff_t>(FrameOffset(new_frames, 2)),
                after.end()),
            std::vector<uint8_t>(
                before.begin() + static_cast<ptrdiff_t>(FrameOffset(old_frames, 3)),
                before.end()));

  auto reopened = Wal::Open(storage_.get(), "wal", kTruncLen);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->base_ordinals(), 3u);
  auto raw = core::RawSeriesStore::OpenTruncated(
      storage_.get(), "raw", kTruncLen, reopened.value()->base_ordinals());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ManifestCapturingIndex index;
  WalRecoverOutcome outcome;
  ASSERT_TRUE(
      reopened.value()->Recover(&index, raw.value().get(), &outcome).ok());

  // The "future" checkpoint is uncovered (5 admits < 10), so the base's
  // "old" one is restored and admits 3..5 replay.
  EXPECT_EQ(index.manifest, Bytes("old"));
  EXPECT_EQ(index.restored_watermark, 5);
  EXPECT_EQ(outcome.ordinals, 7u);
  EXPECT_EQ(outcome.admitted, 5u);
  EXPECT_EQ(outcome.watermark, 11);
  EXPECT_EQ(outcome.local_to_global,
            (std::vector<uint64_t>{100, 101, 102, 103, 104, 105, 106}));
  ASSERT_EQ(index.entries.size(), 3u);
  const int64_t want_ts[] = {9, 7, 11};
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(index.entries[i].id, 3 + i);
    EXPECT_EQ(index.entries[i].timestamp, want_ts[i]);
    EXPECT_EQ(index.entries[i].values, TruncValues(3 + i));
  }
  std::vector<float> fetched(kTruncLen);
  for (const uint64_t ordinal : {0, 2, 3, 4, 5}) {
    ASSERT_TRUE(raw.value()->Get(ordinal, fetched).ok());
    EXPECT_EQ(fetched, TruncValues(ordinal)) << "ordinal " << ordinal;
  }
}

TEST_F(WalTempDir, TruncationReadsOnlyTheKeptFrames) {
  auto opened = Wal::Open(storage_.get(), "wal", kTruncLen);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Wal> wal = opened.TakeValue();
  auto raw = core::RawSeriesStore::OpenTruncated(storage_.get(), "raw",
                                                 kTruncLen, 0);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  WriteTruncationFixture(wal.get(), raw.value().get());

  // A kept suffix: no dropped frame is read back.
  uint64_t read_before = storage_->SnapshotIoStats().bytes_read;
  ASSERT_TRUE(wal->TruncateBefore(raw.value().get()).ok());
  uint64_t read = storage_->SnapshotIoStats().bytes_read - read_before;
  EXPECT_LE(read, KeptFrameBytes(ReadLog(storage_.get())));

  // Drained: a checkpoint covers every admit, nothing is kept, and the
  // truncation reads nothing at all.
  ASSERT_TRUE(wal->AppendCheckpoint(5, Bytes("drained")).ok());
  read_before = storage_->SnapshotIoStats().bytes_read;
  ASSERT_TRUE(wal->TruncateBefore(raw.value().get()).ok());
  read = storage_->SnapshotIoStats().bytes_read - read_before;
  EXPECT_EQ(read, 0u);
  EXPECT_EQ(KeptFrameBytes(ReadLog(storage_.get())), 0u);

  // The drained log recovers with nothing to replay.
  wal.reset();
  raw.value().reset();
  auto reopened = Wal::Open(storage_.get(), "wal", kTruncLen);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->base_ordinals(), 7u);
  auto reopened_raw = core::RawSeriesStore::OpenTruncated(
      storage_.get(), "raw", kTruncLen, reopened.value()->base_ordinals());
  ASSERT_TRUE(reopened_raw.ok()) << reopened_raw.status().ToString();
  ManifestCapturingIndex index;
  WalRecoverOutcome outcome;
  ASSERT_TRUE(reopened.value()
                  ->Recover(&index, reopened_raw.value().get(), &outcome)
                  .ok());
  EXPECT_EQ(index.manifest, Bytes("drained"));
  EXPECT_TRUE(index.entries.empty());
  EXPECT_EQ(outcome.ordinals, 7u);
  EXPECT_EQ(outcome.admitted, 5u);
  EXPECT_EQ(outcome.watermark, 11);
  EXPECT_EQ(outcome.local_to_global.size(), 7u);
}

}  // namespace
}  // namespace stream
}  // namespace coconut
