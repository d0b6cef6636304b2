#ifndef COCONUT_STREAM_WAL_H_
#define COCONUT_STREAM_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/raw_store.h"
#include "storage/storage_manager.h"

namespace coconut {
namespace stream {

class StreamingIndex;

/// On-disk framing (all integers little-endian). Every frame is a 16-byte
/// header followed by `payload_len` payload bytes:
///
///   u32 magic      "CWAL"
///   u8  version_major   (reader rejects a larger major, structured error)
///   u8  version_minor   (larger minor stays readable: unknown frame
///                        types with a valid CRC are skipped)
///   u8  type            (WalFrameType)
///   u8  reserved        (0)
///   u32 payload_len
///   u32 crc32c          over header bytes [4, 12) ++ payload
///
/// A log is: one kStreamHeader frame, then (after a TruncateBefore) at
/// most one kBase frame, then kBatch / kCheckpoint frames in commit
/// order. Scanning stops at the first frame that fails to parse — a torn
/// tail from a mid-write crash — and recovery drops it; a log whose very
/// first frame is invalid is reported as kDataLoss instead (a torn tail
/// cannot reach offset zero: the header frame is synced at creation).
constexpr uint32_t kWalMagic = 0x4C415743u;  // "CWAL" in LE byte order
constexpr uint8_t kWalVersionMajor = 1;
constexpr uint8_t kWalVersionMinor = 0;
constexpr size_t kWalFrameHeaderBytes = 16;

enum class WalFrameType : uint8_t {
  /// Payload: u32 series_length. Always the first frame.
  kStreamHeader = 1,
  /// One group commit. Payload: u32 count, then `count` records, each
  /// u8 kind (WalRecordKind) followed by the kind's fields.
  kBatch = 2,
  /// A sealed-state marker written by the index's background strand.
  /// Payload: u64 durable_entries (admits, counted from stream start,
  /// covered by the manifest), u32 manifest_len, manifest bytes.
  kCheckpoint = 3,
  /// The self-contained base a truncated log starts from. Payload:
  /// u64 base_ordinals, u64 base_admitted, i64 watermark (max admitted
  /// timestamp among dropped records), u64 checkpoint_durable_entries,
  /// u32 manifest_len + manifest (empty when no checkpoint was folded
  /// in), u64 map_count + u64 global ids (sharded local->global entries
  /// for the dropped ordinals).
  kBase = 4,
};

enum class WalRecordKind : uint8_t {
  /// u64 id (raw-store ordinal), i64 timestamp, f32[series_length].
  kAdmit = 0,
  /// No fields: one raw-store ordinal burned by a rejected entry.
  kHole = 1,
  /// u64 global_id: the sharded wrapper's local->global mapping for the
  /// next ordinal-consuming record.
  kMap = 2,
};

/// What Wal::Recover rebuilt, for the owner to restore its own counters.
struct WalRecoverOutcome {
  /// Raw-store ordinals consumed (admits + holes): the next local id.
  uint64_t ordinals = 0;
  /// Entries admitted to the index (restored + replayed).
  uint64_t admitted = 0;
  /// Max admitted timestamp, or INT64_MIN when nothing was admitted.
  int64_t watermark = std::numeric_limits<int64_t>::min();
  /// local id -> global id, rebuilt from kMap records (sharded only).
  std::vector<uint64_t> local_to_global;
};

/// A decoded frame, surfaced for the format/corruption tests.
struct WalFrame {
  WalFrameType type;
  std::vector<uint8_t> payload;
  /// Byte offset of the frame's header within the decoded bytes.
  uint64_t offset = 0;
};

// ---- little-endian scalar encoding, shared by the log codec and the
// per-index checkpoint manifests (explicit byte order so the golden
// fixtures hold on any host).

inline void WalPutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

inline void WalPutU64(std::vector<uint8_t>* out, uint64_t v) {
  WalPutU32(out, static_cast<uint32_t>(v));
  WalPutU32(out, static_cast<uint32_t>(v >> 32));
}

inline void WalPutI64(std::vector<uint8_t>* out, int64_t v) {
  WalPutU64(out, static_cast<uint64_t>(v));
}

inline void WalPutString(std::vector<uint8_t>* out, const std::string& s) {
  WalPutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

/// Bounded little-endian reader; every Get checks the remaining bytes so
/// a corrupt length field can never read out of bounds (the corruption
/// matrix flips every byte and expects no crash).
class WalReader {
 public:
  explicit WalReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) return false;
    *v = bytes_[pos_++];
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    *v = static_cast<uint32_t>(bytes_[pos_]) |
         static_cast<uint32_t>(bytes_[pos_ + 1]) << 8 |
         static_cast<uint32_t>(bytes_[pos_ + 2]) << 16 |
         static_cast<uint32_t>(bytes_[pos_ + 3]) << 24;
    pos_ += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *v = static_cast<uint64_t>(hi) << 32 | lo;
    return true;
  }
  bool GetI64(int64_t* v) {
    uint64_t u = 0;
    if (!GetU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool Skip(size_t count) {
    if (count > remaining()) return false;
    pos_ += count;
    return true;
  }
  bool GetFloats(std::vector<float>* out, size_t count);
  bool GetBytes(std::vector<uint8_t>* out, size_t count);
  bool GetString(std::string* out);
  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

/// Per-stream (per-shard, when sharded) write-ahead log with group
/// commit. The ingest path buffers records in memory (AppendAdmit /
/// AppendHole / AppendMap, no I/O) directly behind a reserved frame
/// header; Commit() fills that header in, CRCs the buffer and writes it as
/// one kBatch frame, then fdatasyncs — the acknowledgement gate: an
/// `ingest_batch` reply is sent only after Commit() returns. The index's
/// background strand appends checkpoint frames after each durable seal so
/// recovery can restore the sealed state from its manifest and replay
/// only the suffix; TruncateBefore folds the reclaimed prefix into a
/// kBase frame via write-temp-then-rename.
///
/// The log keeps a small summary of every frame after its header and base
/// (where it sits, what its records consume, a checkpoint's count and
/// manifest), recorded as each frame is written or scanned at Open. Those
/// summaries are all truncation needs to choose the checkpoint and the
/// dropped prefix, so it reads back only the frames it keeps.
///
/// Crucially, AppendCheckpoint never flushes the pending record buffer:
/// pending records are unacknowledged, and making them durable as a side
/// effect of a background seal would resurrect unacked writes after a
/// crash. A checkpoint may therefore claim more entries than the log
/// holds admits for; recovery validates each checkpoint by count
/// (durable_entries <= base_admitted + admits in the log) and falls back
/// to an older one — or a full replay — when the newest is uncovered.
///
/// Thread-safety: append/commit run on the owner's single admission
/// thread; AppendCheckpoint runs on the index's background strand. An
/// internal mutex serializes the file writes.
class Wal {
 public:
  struct Options {
    /// Crash-point seam for the kill-test harness: called with a point
    /// name ("commit.mid_frame", "commit.pre_sync", "commit.post_sync",
    /// "checkpoint.pre_write", "checkpoint.mid_frame",
    /// "checkpoint.post_sync", "truncate.pre_rename",
    /// "truncate.post_rename") at each reachable point. When set, frame
    /// writes are split in two so mid-frame points expose a torn tail.
    std::function<void(const char*)> test_hook;
  };

  /// Opens the log `name` inside `storage`, creating it fresh (header
  /// frame, synced) when absent or empty. An existing log is scanned:
  /// frames are CRC-validated, a torn tail is truncated away, and the
  /// base/batch/checkpoint state is retained in memory for Recover().
  /// Fails with kDataLoss on a corrupt prefix, NotSupported on a larger
  /// major version, InvalidArgument on a series-length mismatch.
  static Result<std::unique_ptr<Wal>> Open(storage::StorageManager* storage,
                                           const std::string& name,
                                           uint32_t series_length,
                                           Options options = {});

  ~Wal() = default;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Buffers one admitted entry (called by the index inside its admission
  /// critical section, so log order == admission order). No I/O.
  void AppendAdmit(uint64_t id, int64_t timestamp,
                   std::span<const float> values);
  /// Buffers one burned ordinal (entry rejected after its raw append).
  void AppendHole();
  /// Buffers one sharded local->global mapping; must immediately precede
  /// the admit/hole that consumes the ordinal.
  void AppendMap(uint64_t global_id);

  /// Group commit: frames every buffered record into one kBatch frame,
  /// writes it and fdatasyncs. After this returns OK the records survive
  /// any crash. No-op when nothing is buffered.
  Status Commit();

  /// Appends a checkpoint frame (alone — see class comment) + fdatasync.
  /// Called from the index's background strand after a completed seal.
  Status AppendCheckpoint(uint64_t durable_entries,
                          std::span<const uint8_t> manifest);

  /// Reclaims the log prefix covered by the newest count-valid
  /// checkpoint. Commits pending records, syncs `raw` (the log is the
  /// only other copy of the dropped payloads), then rewrites the log as
  /// [header, kBase, uncovered frames] via temp-file + atomic rename.
  /// The checkpoint and the prefix are chosen from the frame summaries;
  /// only the kept frames are read back, and each must pass its CRC: a
  /// kept frame that does not fails the call with kDataLoss and leaves
  /// the log unchanged (it may precede acknowledged frames). A drained
  /// stream keeps no frames, so its truncation reads nothing.
  Status TruncateBefore(core::RawSeriesStore* raw);

  /// Replays the scanned log into `index` (created empty by the caller,
  /// with this Wal already wired in — appends are suppressed during
  /// replay). Restores the newest valid checkpoint's manifest, skips the
  /// admits it covers, re-appends every payload to `raw` (holes
  /// zero-filled), and ingests the remainder through the normal path.
  /// Call once, right after Open() on an existing log; frees the scanned
  /// state when done.
  Status Recover(StreamingIndex* index, core::RawSeriesStore* raw,
                 WalRecoverOutcome* outcome);

  /// True while Recover drives the index: the index's internal
  /// AppendAdmit calls during replay are dropped (their records are
  /// already in the log).
  bool replaying() const { return replaying_.load(std::memory_order_relaxed); }

  /// Raw-store ordinals folded into the base by truncation: the count to
  /// open the raw store at (RawSeriesStore::OpenTruncated) before
  /// Recover() replays the rest.
  uint64_t base_ordinals() const { return base_ordinals_; }

  /// Bytes of valid log on disk (tests).
  uint64_t size_bytes() const;

  uint32_t series_length() const { return series_length_; }

  // ---- frame-level helpers, shared with the format/corruption tests.

  /// Encodes one frame (header + payload) with the current version.
  static std::vector<uint8_t> EncodeFrame(WalFrameType type,
                                          std::span<const uint8_t> payload);

  /// Decodes the longest valid frame prefix of `bytes`. Returns the byte
  /// length of that prefix; `*major_too_new` is set when decoding stopped
  /// at a frame with a larger major version (the frames before it are
  /// still returned).
  static size_t DecodeFrames(std::span<const uint8_t> bytes,
                             std::vector<WalFrame>* frames,
                             bool* major_too_new = nullptr);

 private:
  struct Checkpoint {
    uint64_t durable_entries = 0;
    std::vector<uint8_t> manifest;
  };

  /// What truncation needs to know about one kBatch or kCheckpoint frame
  /// without reading it back.
  struct FrameSummary {
    uint64_t offset = 0;  // of the frame header, in the log file
    uint64_t length = 0;  // header + payload bytes
    WalFrameType type = WalFrameType::kBatch;
    // kBatch: the records' admits, ordinals (admits + holes), max admitted
    // timestamp and kMap global ids.
    uint64_t admits = 0;
    uint64_t ordinals = 0;
    int64_t max_timestamp = std::numeric_limits<int64_t>::min();
    std::vector<uint64_t> maps;
    // kCheckpoint: the sealed state it records.
    Checkpoint checkpoint;
  };

  Wal(storage::StorageManager* storage, std::string name,
      uint32_t series_length, Options options)
      : storage_(storage),
        name_(std::move(name)),
        series_length_(series_length),
        options_(std::move(options)),
        pending_(kBatchPrefixBytes) {}

  /// Parses the scanned frames into base/batch/checkpoint state and one
  /// summary per batch and checkpoint frame.
  Status AdoptScan(std::vector<WalFrame> frames);

  /// Writes one sealed frame, split in two when the hook is set
  /// (`mid_point` names the between-halves crash point), fdatasyncs, and
  /// records `summary` in frames_ with the frame's offset and length.
  Status WriteFrameLocked(std::span<const uint8_t> frame,
                          FrameSummary&& summary, const char* mid_point,
                          const char* pre_sync_point, const char* post_point);

  Status CommitLocked();

  /// The replay loop of Recover (replaying_ already set by the caller).
  Status ReplayInto(StreamingIndex* index, core::RawSeriesStore* raw,
                    uint64_t skip_admits, WalRecoverOutcome* outcome);

  void Hook(const char* point) {
    if (options_.test_hook && point != nullptr) options_.test_hook(point);
  }

  /// A batch frame's header and record count, reserved at the front of
  /// pending_ so Commit frames the records in place.
  static constexpr size_t kBatchPrefixBytes = kWalFrameHeaderBytes + 4;

  storage::StorageManager* storage_;
  const std::string name_;
  const uint32_t series_length_;
  const Options options_;

  mutable std::mutex mu_;
  std::unique_ptr<storage::File> file_;  // guarded by mu_
  // [reserved batch prefix][records], and their summary; guarded by mu_.
  std::vector<uint8_t> pending_;
  FrameSummary pending_summary_;
  // One summary per batch/checkpoint frame on disk, in log order; guarded
  // by mu_.
  std::vector<FrameSummary> frames_;
  std::atomic<bool> replaying_{false};

  // The base state (the kBase frame's contents, kept current by
  // TruncateBefore).
  uint64_t base_ordinals_ = 0;
  uint64_t base_admitted_ = 0;
  int64_t base_watermark_ = std::numeric_limits<int64_t>::min();
  std::vector<uint64_t> base_map_;
  std::optional<Checkpoint> base_checkpoint_;
  // Batch payloads scanned by Open() on an existing log; consumed by
  // Recover().
  std::vector<std::vector<uint8_t>> scanned_batches_;
};

}  // namespace stream
}  // namespace coconut

#endif  // COCONUT_STREAM_WAL_H_
