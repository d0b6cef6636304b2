// Corruption matrix for the write-ahead log: take a small real log, then
// for EVERY byte offset flip a bit, and for EVERY length truncate, and
// assert the reader never crashes and never invents data — each mangled
// log either fails to open with a structured error or recovers an exact
// prefix of whole acknowledged batches (CRC-32C framing makes every
// frame all-or-nothing, and scanning stops at the first bad frame).
// The ASan/UBSan CI job runs this same matrix to prove the bounded
// reader cannot be driven out of bounds by any length field.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/raw_store.h"
#include "storage/storage_manager.h"
#include "stream/streaming_index.h"
#include "stream/wal.h"
#include "tests/test_util.h"

namespace coconut {
namespace stream {
namespace {

constexpr uint32_t kLen = 8;

using testutil::CapturingIndex;

class WalCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path().string() +
            "/wal_corruption_test";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);

    // The pristine log: 2 commits of 2 admits each, with a (count-valid)
    // checkpoint between them, so the matrix mangles every frame type the
    // writer emits on the hot path.
    auto storage = storage::StorageManager::Create(root_ + "/orig");
    ASSERT_TRUE(storage.ok());
    auto opened = Wal::Open(storage.value().get(), "wal", kLen);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Wal> wal = opened.TakeValue();
    uint64_t ordinal = 0;
    for (int commit = 0; commit < 2; ++commit) {
      for (int i = 0; i < 2; ++i) {
        std::vector<float> v(kLen);
        for (uint32_t k = 0; k < kLen; ++k) {
          v[k] = static_cast<float>(ordinal) * 16.0f + static_cast<float>(k);
        }
        admits_.push_back(v);
        wal->AppendAdmit(ordinal, static_cast<int64_t>(ordinal) * 10, v);
        ++ordinal;
      }
      ASSERT_TRUE(wal->Commit().ok());
      if (commit == 0) {
        const std::vector<uint8_t> manifest{'m'};
        ASSERT_TRUE(wal->AppendCheckpoint(1, manifest).ok());
      }
    }

    auto file = storage.value()->OpenFile("wal");
    ASSERT_TRUE(file.ok());
    pristine_.resize(file.value()->size_bytes());
    ASSERT_TRUE(
        file.value()->ReadAt(0, pristine_.data(), pristine_.size()).ok());
    ASSERT_GT(pristine_.size(), kWalFrameHeaderBytes);
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  /// Opens `bytes` as a stream's log in a fresh directory and, when the
  /// open succeeds, recovers it. Every outcome is checked against the
  /// never-crash / exact-prefix contract.
  void CheckMangledLog(const std::vector<uint8_t>& bytes,
                       const std::string& what) {
    SCOPED_TRACE(what);
    const std::string dir = root_ + "/mangled";
    std::filesystem::remove_all(dir);
    auto storage = storage::StorageManager::Create(dir);
    ASSERT_TRUE(storage.ok());
    {
      auto file = storage.value()->CreateFile("wal");
      ASSERT_TRUE(file.ok());
      if (!bytes.empty()) {
        ASSERT_TRUE(file.value()->Append(bytes.data(), bytes.size()).ok());
      }
      ASSERT_TRUE(file.value()->DataSync().ok());
    }

    auto opened = Wal::Open(storage.value().get(), "wal", kLen);
    if (!opened.ok()) {
      const StatusCode code = opened.status().code();
      EXPECT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kNotSupported ||
                  code == StatusCode::kInvalidArgument)
          << "unstructured failure: " << opened.status().ToString();
      return;
    }

    std::unique_ptr<Wal> wal = opened.TakeValue();
    CapturingIndex index;
    auto raw = core::RawSeriesStore::OpenTruncated(
        storage.value().get(), "raw", kLen, wal->base_ordinals());
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    WalRecoverOutcome outcome;
    const Status recovered = wal->Recover(&index, raw.value().get(), &outcome);
    if (!recovered.ok()) {
      EXPECT_EQ(recovered.code(), StatusCode::kDataLoss)
          << "unstructured failure: " << recovered.ToString();
      return;
    }

    // A single mangling can only drop a frame (and everything after it):
    // what survives must be an exact prefix of whole committed batches.
    ASSERT_LE(index.entries.size(), admits_.size());
    EXPECT_EQ(index.entries.size() % 2, 0u)
        << "recovered a partial batch (commits held 2 admits each)";
    std::vector<float> fetched(kLen);
    for (size_t i = 0; i < index.entries.size(); ++i) {
      EXPECT_EQ(index.entries[i].id, i);
      EXPECT_EQ(index.entries[i].values, admits_[i])
          << "admit " << i << " mutated";
      ASSERT_TRUE(raw.value()->Get(i, fetched).ok());
      EXPECT_EQ(fetched, admits_[i]) << "raw series " << i << " mutated";
    }
    EXPECT_EQ(outcome.ordinals, index.entries.size());
  }

  std::string root_;
  std::vector<uint8_t> pristine_;
  std::vector<std::vector<float>> admits_;
};

TEST_F(WalCorruptionTest, PristineLogRecoversEverything) {
  // Sanity-check the fixture itself: unmangled, all 4 admits come back
  // (via full replay — the capture index cannot restore the manifest, and
  // nothing was truncated, so the fallback replays the whole log).
  CheckMangledLog(pristine_, "pristine");
}

TEST_F(WalCorruptionTest, BitFlipAtEveryOffset) {
  for (size_t at = 0; at < pristine_.size(); ++at) {
    std::vector<uint8_t> bytes = pristine_;
    bytes[at] ^= 0x01;
    CheckMangledLog(bytes, "bit flip at offset " + std::to_string(at));
  }
}

TEST_F(WalCorruptionTest, HighBitFlipAtEveryOffset) {
  // The sign/top bit catches different field corruption (huge lengths,
  // negative-looking counts) than the low bit does.
  for (size_t at = 0; at < pristine_.size(); ++at) {
    std::vector<uint8_t> bytes = pristine_;
    bytes[at] ^= 0x80;
    CheckMangledLog(bytes, "high-bit flip at offset " + std::to_string(at));
  }
}

TEST_F(WalCorruptionTest, TruncationAtEveryLength) {
  for (size_t len = 0; len <= pristine_.size(); ++len) {
    std::vector<uint8_t> bytes(pristine_.begin(),
                               pristine_.begin() + static_cast<long>(len));
    CheckMangledLog(bytes, "truncated to " + std::to_string(len) + " bytes");
  }
}

TEST_F(WalCorruptionTest, GarbageTail) {
  // A torn tail of pure garbage after valid frames: dropped silently.
  std::vector<uint8_t> bytes = pristine_;
  for (int i = 0; i < 40; ++i) {
    bytes.push_back(static_cast<uint8_t>(0xDE ^ (i * 37)));
  }
  CheckMangledLog(bytes, "40 garbage bytes appended");
}

TEST_F(WalCorruptionTest, TruncationRefusesACorruptKeptFrame) {
  // Three acknowledged 3-series batches and no checkpoint: truncation
  // keeps every frame. With a byte flipped inside the second, it must
  // fail with kDataLoss and leave the log's bytes as they were —
  // rewriting around the bad frame would silently drop the intact third
  // batch, which no checkpoint covers.
  const std::string dir = root_ + "/truncate";
  auto storage = storage::StorageManager::Create(dir);
  ASSERT_TRUE(storage.ok());
  auto opened = Wal::Open(storage.value().get(), "wal", kLen);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Wal> wal = opened.TakeValue();
  auto raw = core::RawSeriesStore::OpenTruncated(storage.value().get(), "raw",
                                                 kLen, 0);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  std::vector<uint64_t> batch_ends;
  uint64_t ordinal = 0;
  for (int commit = 0; commit < 3; ++commit) {
    for (int i = 0; i < 3; ++i) {
      const std::vector<float> v(kLen, static_cast<float>(ordinal));
      ASSERT_TRUE(raw.value()->Append(v).ok());
      wal->AppendAdmit(ordinal, static_cast<int64_t>(ordinal), v);
      ++ordinal;
    }
    ASSERT_TRUE(wal->Commit().ok());
    batch_ends.push_back(wal->size_bytes());
  }

  const std::string path = dir + "/wal";
  const auto read_log = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
  };
  std::vector<uint8_t> corrupted = read_log();
  const uint64_t flip_at = (batch_ends[0] + batch_ends[1]) / 2;
  corrupted[flip_at] ^= 0x01;
  {
    std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(static_cast<std::streamoff>(flip_at));
    out.put(static_cast<char>(corrupted[flip_at]));
  }

  const Status truncated = wal->TruncateBefore(raw.value().get());
  EXPECT_EQ(truncated.code(), StatusCode::kDataLoss) << truncated.ToString();
  EXPECT_EQ(read_log(), corrupted) << "truncation rewrote a corrupt log";
}

}  // namespace
}  // namespace stream
}  // namespace coconut
