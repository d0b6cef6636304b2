#include "stream/wal.h"

#include <algorithm>
#include <cstring>

#include "common/crc32c.h"
#include "stream/streaming_index.h"

namespace coconut {
namespace stream {

bool WalReader::GetFloats(std::vector<float>* out, size_t count) {
  if (count > remaining() / sizeof(float)) return false;
  out->resize(count);
  std::memcpy(out->data(), bytes_.data() + pos_, count * sizeof(float));
  pos_ += count * sizeof(float);
  return true;
}

bool WalReader::GetBytes(std::vector<uint8_t>* out, size_t count) {
  if (count > remaining()) return false;
  out->assign(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
              bytes_.begin() + static_cast<ptrdiff_t>(pos_ + count));
  pos_ += count;
  return true;
}

bool WalReader::GetString(std::string* out) {
  uint32_t len = 0;
  if (!GetU32(&len) || len > remaining()) return false;
  out->assign(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
              bytes_.begin() + static_cast<ptrdiff_t>(pos_ + len));
  pos_ += len;
  return true;
}

namespace {

using Reader = WalReader;

void PutU32(std::vector<uint8_t>* out, uint32_t v) { WalPutU32(out, v); }
void PutU64(std::vector<uint8_t>* out, uint64_t v) { WalPutU64(out, v); }
void PutI64(std::vector<uint8_t>* out, int64_t v) { WalPutI64(out, v); }

void StoreU32(uint8_t* at, uint32_t v) {
  at[0] = static_cast<uint8_t>(v);
  at[1] = static_cast<uint8_t>(v >> 8);
  at[2] = static_cast<uint8_t>(v >> 16);
  at[3] = static_cast<uint8_t>(v >> 24);
}

/// Sanity cap on a frame's declared payload length: far above any real
/// frame (a batch is bounded by buffer_entries x series bytes), far below
/// anything a flipped length byte could use to balloon an allocation.
constexpr uint32_t kMaxFramePayload = 1u << 30;

/// Fills in the header reserved at the front of `frame` (the payload
/// follows it), CRC included.
void SealFrame(WalFrameType type, std::vector<uint8_t>* frame) {
  uint8_t* h = frame->data();
  const size_t payload_len = frame->size() - kWalFrameHeaderBytes;
  StoreU32(h, kWalMagic);
  h[4] = kWalVersionMajor;
  h[5] = kWalVersionMinor;
  h[6] = static_cast<uint8_t>(type);
  h[7] = 0;  // reserved
  StoreU32(h + 8, static_cast<uint32_t>(payload_len));
  uint32_t crc = Crc32c(h + 4, 8);
  crc = Crc32cExtend(crc, h + kWalFrameHeaderBytes, payload_len);
  StoreU32(h + 12, crc);
}

std::vector<uint8_t> HeaderFrame(uint32_t series_length) {
  std::vector<uint8_t> frame(kWalFrameHeaderBytes);
  PutU32(&frame, series_length);
  SealFrame(WalFrameType::kStreamHeader, &frame);
  return frame;
}

/// A frame that passed its checks, viewed in place.
struct FrameView {
  uint8_t major = 0;
  uint8_t type = 0;
  std::span<const uint8_t> payload;
};

/// Checks the frame at the front of `bytes` (magic, a payload length that
/// fits, CRC). Returns its header + payload length, or 0 when it fails.
size_t ParseFrame(std::span<const uint8_t> bytes, FrameView* view) {
  if (bytes.size() < kWalFrameHeaderBytes) return 0;
  Reader header(bytes.first(kWalFrameHeaderBytes));
  uint32_t magic = 0;
  uint8_t minor = 0;
  uint8_t reserved = 0;
  uint32_t payload_len = 0;
  uint32_t stored_crc = 0;
  header.GetU32(&magic);
  header.GetU8(&view->major);
  header.GetU8(&minor);
  header.GetU8(&view->type);
  header.GetU8(&reserved);
  header.GetU32(&payload_len);
  header.GetU32(&stored_crc);
  if (magic != kWalMagic || payload_len > kMaxFramePayload ||
      bytes.size() - kWalFrameHeaderBytes < payload_len) {
    return 0;
  }
  view->payload = bytes.subspan(kWalFrameHeaderBytes, payload_len);
  uint32_t crc = Crc32c(bytes.data() + 4, 8);
  crc = Crc32cExtend(crc, view->payload.data(), payload_len);
  return crc == stored_crc ? kWalFrameHeaderBytes + payload_len : 0;
}

}  // namespace

// --------------------------------------------------------------- frames

std::vector<uint8_t> Wal::EncodeFrame(WalFrameType type,
                                      std::span<const uint8_t> payload) {
  std::vector<uint8_t> frame(kWalFrameHeaderBytes + payload.size());
  std::copy(payload.begin(), payload.end(),
            frame.begin() + kWalFrameHeaderBytes);
  SealFrame(type, &frame);
  return frame;
}

size_t Wal::DecodeFrames(std::span<const uint8_t> bytes,
                         std::vector<WalFrame>* frames,
                         bool* major_too_new) {
  if (major_too_new != nullptr) *major_too_new = false;
  size_t pos = 0;
  FrameView view;
  while (const size_t length = ParseFrame(bytes.subspan(pos), &view)) {
    if (view.major > kWalVersionMajor) {
      // A valid frame from a future format generation: stop before it and
      // let the caller surface the structured error.
      if (major_too_new != nullptr) *major_too_new = true;
      break;
    }
    // A frame type this minor version does not know is skipped, not
    // fatal: its CRC proved it intact, and minor bumps only add types.
    if (view.type >= 1 && view.type <= 4) {
      frames->push_back(WalFrame{static_cast<WalFrameType>(view.type),
                                 {view.payload.begin(), view.payload.end()},
                                 pos});
    }
    pos += length;
  }
  return pos;
}

// ----------------------------------------------------------------- open

Result<std::unique_ptr<Wal>> Wal::Open(storage::StorageManager* storage,
                                       const std::string& name,
                                       uint32_t series_length,
                                       Options options) {
  auto wal = std::unique_ptr<Wal>(
      new Wal(storage, name, series_length, std::move(options)));
  std::vector<uint8_t> bytes;
  const bool existed = storage->Exists(name);
  if (existed) {
    COCONUT_ASSIGN_OR_RETURN(wal->file_, storage->OpenFile(name));
    bytes.resize(wal->file_->size_bytes());
    if (!bytes.empty()) {
      COCONUT_RETURN_NOT_OK(wal->file_->ReadAt(0, bytes.data(), bytes.size()));
    }
  } else {
    COCONUT_ASSIGN_OR_RETURN(wal->file_, storage->CreateFile(name));
  }

  if (bytes.empty()) {
    // Fresh (or empty) log: write the stream-header frame and make both
    // the bytes and the name durable before anything is acknowledged.
    const std::vector<uint8_t> frame = HeaderFrame(series_length);
    COCONUT_RETURN_NOT_OK(wal->file_->Append(frame.data(), frame.size()));
    COCONUT_RETURN_NOT_OK(wal->file_->DataSync());
    return wal;
  }

  bool major_too_new = false;
  std::vector<WalFrame> frames;
  const size_t valid_bytes = DecodeFrames(bytes, &frames, &major_too_new);
  if (frames.empty()) {
    if (major_too_new) {
      return Status::NotSupported(
          "wal '" + name + "' was written by a newer major format version");
    }
    // Non-empty file whose first frame doesn't parse: the header frame
    // was synced at creation, so this is corruption, not a torn tail —
    // refuse rather than silently wipe the stream.
    return Status::DataLoss("wal '" + name +
                            "' is corrupt at its stream header");
  }
  if (major_too_new) {
    // Valid frames from a newer major generation follow the readable
    // prefix. They are committed data, not a torn tail — truncating them
    // away would destroy a newer writer's acknowledged records.
    return Status::NotSupported(
        "wal '" + name + "' contains frames from a newer major format version");
  }
  if (frames[0].type != WalFrameType::kStreamHeader) {
    return Status::DataLoss("wal '" + name +
                            "' does not start with a stream header");
  }
  Reader header(frames[0].payload);
  uint32_t logged_length = 0;
  if (!header.GetU32(&logged_length)) {
    return Status::DataLoss("wal '" + name + "' has a short stream header");
  }
  if (logged_length != series_length) {
    return Status::InvalidArgument(
        "wal '" + name + "' holds series of length " +
        std::to_string(logged_length) + ", expected " +
        std::to_string(series_length));
  }
  // Drop the torn tail (a mid-write crash) so future appends extend a
  // valid log. Bytes past valid_bytes were never acknowledged: an ack
  // requires Commit's fdatasync to have returned, after the full frame.
  if (valid_bytes < bytes.size()) {
    COCONUT_RETURN_NOT_OK(
        wal->file_->Truncate(static_cast<uint64_t>(valid_bytes)));
    COCONUT_RETURN_NOT_OK(wal->file_->DataSync());
  }
  COCONUT_RETURN_NOT_OK(wal->AdoptScan(std::move(frames)));
  return wal;
}

Status Wal::AdoptScan(std::vector<WalFrame> frames) {
  const auto bad = [this](const char* what) {
    return Status::DataLoss("wal '" + name_ + "' has " + what);
  };
  for (size_t i = 1; i < frames.size(); ++i) {
    WalFrame& frame = frames[i];
    FrameSummary summary;
    summary.offset = frame.offset;
    summary.length = kWalFrameHeaderBytes + frame.payload.size();
    summary.type = frame.type;
    Reader r(frame.payload);
    switch (frame.type) {
      case WalFrameType::kStreamHeader:
        return bad("a duplicate stream header");
      case WalFrameType::kBase: {
        if (i != 1) return bad("a misplaced base frame");
        uint64_t ckpt_entries = 0;
        uint32_t manifest_len = 0;
        uint64_t map_count = 0;
        std::vector<uint8_t> manifest;
        if (!r.GetU64(&base_ordinals_) || !r.GetU64(&base_admitted_) ||
            !r.GetI64(&base_watermark_) || !r.GetU64(&ckpt_entries) ||
            !r.GetU32(&manifest_len) || !r.GetBytes(&manifest, manifest_len) ||
            !r.GetU64(&map_count) || map_count > r.remaining() / 8) {
          return bad("a bad base frame");
        }
        if (!manifest.empty() || ckpt_entries > 0) {
          base_checkpoint_ = Checkpoint{ckpt_entries, std::move(manifest)};
        }
        base_map_.resize(map_count);
        for (uint64_t& global : base_map_) r.GetU64(&global);
        continue;  // the base is state, not a summarized frame
      }
      case WalFrameType::kBatch: {
        // Summarize the records now (checkpoint validity and truncation
        // need them); the payloads themselves replay during Recover.
        uint32_t count = 0;
        if (!r.GetU32(&count)) return bad("a bad batch frame");
        for (uint32_t k = 0; k < count; ++k) {
          uint8_t kind = 0;
          if (!r.GetU8(&kind)) return bad("a bad batch frame");
          if (kind == static_cast<uint8_t>(WalRecordKind::kAdmit)) {
            int64_t ts = 0;
            if (!r.Skip(8) || !r.GetI64(&ts) ||
                !r.Skip(series_length_ * sizeof(float))) {
              return bad("a bad batch frame");
            }
            ++summary.admits;
            ++summary.ordinals;
            summary.max_timestamp = std::max(summary.max_timestamp, ts);
          } else if (kind == static_cast<uint8_t>(WalRecordKind::kHole)) {
            ++summary.ordinals;
          } else if (kind == static_cast<uint8_t>(WalRecordKind::kMap)) {
            uint64_t global = 0;
            if (!r.GetU64(&global)) return bad("a bad batch frame");
            summary.maps.push_back(global);
          } else {
            return bad("an unknown record kind");
          }
        }
        scanned_batches_.push_back(std::move(frame.payload));
        break;
      }
      case WalFrameType::kCheckpoint: {
        Checkpoint& ckpt = summary.checkpoint;
        uint32_t manifest_len = 0;
        if (!r.GetU64(&ckpt.durable_entries) || !r.GetU32(&manifest_len) ||
            !r.GetBytes(&ckpt.manifest, manifest_len)) {
          return bad("a bad checkpoint frame");
        }
        break;
      }
    }
    frames_.push_back(std::move(summary));
  }
  return Status::OK();
}

// --------------------------------------------------------------- append

void Wal::AppendAdmit(uint64_t id, int64_t timestamp,
                      std::span<const float> values) {
  if (replaying()) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(static_cast<uint8_t>(WalRecordKind::kAdmit));
  PutU64(&pending_, id);
  PutI64(&pending_, timestamp);
  const size_t at = pending_.size();
  pending_.resize(at + values.size() * sizeof(float));
  std::memcpy(pending_.data() + at, values.data(),
              values.size() * sizeof(float));
  ++pending_summary_.admits;
  ++pending_summary_.ordinals;
  pending_summary_.max_timestamp =
      std::max(pending_summary_.max_timestamp, timestamp);
}

void Wal::AppendHole() {
  if (replaying()) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(static_cast<uint8_t>(WalRecordKind::kHole));
  ++pending_summary_.ordinals;
}

void Wal::AppendMap(uint64_t global_id) {
  if (replaying()) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(static_cast<uint8_t>(WalRecordKind::kMap));
  PutU64(&pending_, global_id);
  pending_summary_.maps.push_back(global_id);
}

Status Wal::WriteFrameLocked(std::span<const uint8_t> frame,
                             FrameSummary&& summary, const char* mid_point,
                             const char* pre_sync_point,
                             const char* post_point) {
  summary.offset = file_->size_bytes();
  summary.length = frame.size();
  if (options_.test_hook) {
    // Two pwrites so the armed mid-frame point leaves a genuinely torn
    // frame on disk (a single pwrite would be all-or-nothing here —
    // SIGKILL does not shred the page cache).
    const size_t half = frame.size() / 2;
    COCONUT_RETURN_NOT_OK(file_->Append(frame.data(), half));
    Hook(mid_point);
    COCONUT_RETURN_NOT_OK(
        file_->Append(frame.data() + half, frame.size() - half));
  } else {
    COCONUT_RETURN_NOT_OK(file_->Append(frame.data(), frame.size()));
  }
  Hook(pre_sync_point);
  COCONUT_RETURN_NOT_OK(file_->DataSync());
  frames_.push_back(std::move(summary));
  Hook(post_point);
  return Status::OK();
}

Status Wal::CommitLocked() {
  const uint64_t records =
      pending_summary_.ordinals + pending_summary_.maps.size();
  if (records == 0) return Status::OK();
  StoreU32(pending_.data() + kWalFrameHeaderBytes,
           static_cast<uint32_t>(records));
  SealFrame(WalFrameType::kBatch, &pending_);
  COCONUT_RETURN_NOT_OK(WriteFrameLocked(pending_, std::move(pending_summary_),
                                         "commit.mid_frame", "commit.pre_sync",
                                         "commit.post_sync"));
  pending_.resize(kBatchPrefixBytes);
  pending_summary_ = FrameSummary{};
  return Status::OK();
}

Status Wal::Commit() {
  std::lock_guard<std::mutex> lock(mu_);
  return CommitLocked();
}

Status Wal::AppendCheckpoint(uint64_t durable_entries,
                             std::span<const uint8_t> manifest) {
  std::lock_guard<std::mutex> lock(mu_);
  Hook("checkpoint.pre_write");
  std::vector<uint8_t> frame(kWalFrameHeaderBytes);
  PutU64(&frame, durable_entries);
  PutU32(&frame, static_cast<uint32_t>(manifest.size()));
  frame.insert(frame.end(), manifest.begin(), manifest.end());
  SealFrame(WalFrameType::kCheckpoint, &frame);
  FrameSummary summary;
  summary.type = WalFrameType::kCheckpoint;
  summary.checkpoint = {durable_entries, {manifest.begin(), manifest.end()}};
  return WriteFrameLocked(frame, std::move(summary), "checkpoint.mid_frame",
                          nullptr, "checkpoint.post_sync");
}

uint64_t Wal::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_->size_bytes();
}

// ------------------------------------------------------------- truncate

Status Wal::TruncateBefore(core::RawSeriesStore* raw) {
  std::lock_guard<std::mutex> lock(mu_);
  // Pending records must reach the log first (they are not yet framed) —
  // and the raw file must be durable before any frame whose payload it
  // now carries is dropped: the log is the only other copy.
  COCONUT_RETURN_NOT_OK(CommitLocked());
  COCONUT_RETURN_NOT_OK(raw->Sync());

  // Newest count-valid checkpoint decides how much is reclaimable.
  uint64_t total_admits = base_admitted_;
  for (const FrameSummary& f : frames_) total_admits += f.admits;
  const Checkpoint none;  // durable_entries 0, empty manifest
  const Checkpoint* chosen =
      base_checkpoint_.has_value() ? &*base_checkpoint_ : &none;
  for (const FrameSummary& f : frames_) {
    if (f.type == WalFrameType::kCheckpoint &&
        f.checkpoint.durable_entries <= total_admits &&
        f.checkpoint.durable_entries >= chosen->durable_entries) {
      chosen = &f.checkpoint;
    }
  }

  // Drop the maximal frame prefix fully covered by the chosen checkpoint:
  // checkpoint frames always drop (the chosen one rides in the new base),
  // batch frames drop while every admit inside has an admission index
  // below durable_entries. Admission indexes are monotone in log order,
  // so this is a clean prefix cut. Folding a checkpoint's summary is a
  // no-op: it has no records.
  uint64_t new_ordinals = base_ordinals_;
  uint64_t new_admitted = base_admitted_;
  int64_t new_watermark = base_watermark_;
  std::vector<uint64_t> new_map = base_map_;
  size_t keep_from = 0;
  for (; keep_from < frames_.size(); ++keep_from) {
    const FrameSummary& f = frames_[keep_from];
    if (f.admits > 0 && new_admitted + f.admits > chosen->durable_entries) {
      break;
    }
    new_ordinals += f.ordinals;
    new_admitted += f.admits;
    new_watermark = std::max(new_watermark, f.max_timestamp);
    new_map.insert(new_map.end(), f.maps.begin(), f.maps.end());
  }

  // Read back only the kept frames, and refuse to rewrite around one that
  // fails its CRC: acknowledged frames may follow it.
  const std::span<const FrameSummary> kept(frames_.data() + keep_from,
                                           frames_.size() - keep_from);
  const uint64_t kept_from = kept.empty() ? 0 : kept.front().offset;
  std::vector<uint8_t> kept_bytes;
  if (!kept.empty()) {
    kept_bytes.resize(kept.back().offset + kept.back().length - kept_from);
    COCONUT_RETURN_NOT_OK(
        file_->ReadAt(kept_from, kept_bytes.data(), kept_bytes.size()));
  }
  const auto kept_frame = [&](const FrameSummary& f) {
    return std::span<const uint8_t>(kept_bytes)
        .subspan(f.offset - kept_from, f.length);
  };
  for (const FrameSummary& f : kept) {
    FrameView view;
    if (ParseFrame(kept_frame(f), &view) != f.length ||
        view.type != static_cast<uint8_t>(f.type)) {
      return Status::DataLoss("wal '" + name_ + "' frame at offset " +
                              std::to_string(f.offset) +
                              " is corrupt; truncation left the log as is");
    }
  }

  // Rewrite: header, base, kept frames — into a temp file, fsync, atomic
  // rename. A crash at any point leaves either the old complete log or
  // the new complete log; never a mix.
  const std::vector<uint8_t> header = HeaderFrame(series_length_);
  std::vector<uint8_t> base(kWalFrameHeaderBytes);
  PutU64(&base, new_ordinals);
  PutU64(&base, new_admitted);
  PutI64(&base, new_watermark);
  PutU64(&base, chosen->durable_entries);
  PutU32(&base, static_cast<uint32_t>(chosen->manifest.size()));
  base.insert(base.end(), chosen->manifest.begin(), chosen->manifest.end());
  PutU64(&base, new_map.size());
  for (const uint64_t global : new_map) PutU64(&base, global);
  SealFrame(WalFrameType::kBase, &base);

  const std::string tmp_name = name_ + ".tmp";
  {
    std::unique_ptr<storage::File> tmp;
    COCONUT_ASSIGN_OR_RETURN(tmp, storage_->CreateFile(tmp_name));
    COCONUT_RETURN_NOT_OK(tmp->Append(header.data(), header.size()));
    COCONUT_RETURN_NOT_OK(tmp->Append(base.data(), base.size()));
    for (const FrameSummary& f : kept) {
      const std::span<const uint8_t> frame = kept_frame(f);
      COCONUT_RETURN_NOT_OK(tmp->Append(frame.data(), frame.size()));
    }
    COCONUT_RETURN_NOT_OK(tmp->Sync());
  }
  Hook("truncate.pre_rename");
  COCONUT_RETURN_NOT_OK(storage_->RenameFile(tmp_name, name_));
  Hook("truncate.post_rename");
  COCONUT_ASSIGN_OR_RETURN(file_, storage_->OpenFile(name_));

  base_ordinals_ = new_ordinals;
  base_admitted_ = new_admitted;
  base_watermark_ = new_watermark;
  base_map_ = std::move(new_map);
  if (!chosen->manifest.empty() || chosen->durable_entries > 0) {
    base_checkpoint_ = *chosen;
  }
  frames_.erase(frames_.begin(), frames_.begin() + keep_from);
  uint64_t offset = header.size() + base.size();
  for (FrameSummary& f : frames_) {
    f.offset = offset;
    offset += f.length;
  }
  return Status::OK();
}

// -------------------------------------------------------------- recover

Status Wal::Recover(StreamingIndex* index, core::RawSeriesStore* raw,
                    WalRecoverOutcome* outcome) {
  // Newest count-valid checkpoint wins. A checkpoint written after
  // records that were still pending at the crash can claim entries the
  // log has no admits for — those entries were never acknowledged, so
  // such a checkpoint must not be restored; an older covered one (or a
  // full replay) reproduces exactly the acknowledged state.
  std::optional<Checkpoint> chosen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total_admits = base_admitted_;
    for (const FrameSummary& f : frames_) total_admits += f.admits;
    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
      if (it->type == WalFrameType::kCheckpoint &&
          it->checkpoint.durable_entries <= total_admits) {
        chosen = it->checkpoint;
        break;
      }
    }
    if (!chosen.has_value() && base_checkpoint_.has_value() &&
        base_checkpoint_->durable_entries <= total_admits) {
      chosen = base_checkpoint_;
    }
  }

  uint64_t skip_admits = 0;  // absolute admission index to replay from
  if (chosen.has_value()) {
    const Status restored = index->RestoreFromManifest(chosen->manifest);
    if (restored.ok()) {
      skip_admits = chosen->durable_entries;
    } else if (base_ordinals_ == 0) {
      // Nothing was truncated away: every admit is still in the log, so
      // a full replay rebuilds the same state without the manifest.
      skip_admits = 0;
    } else {
      return Status::DataLoss("wal '" + name_ +
                              "' checkpoint manifest unrestorable after "
                              "truncation: " +
                              restored.message());
    }
  } else if (base_admitted_ > 0) {
    return Status::DataLoss(
        "wal '" + name_ +
        "' was truncated but no covered checkpoint survives");
  }
  if (skip_admits < base_admitted_) {
    return Status::DataLoss("wal '" + name_ +
                            "' base admits exceed the restored checkpoint");
  }

  replaying_.store(true, std::memory_order_relaxed);
  const Status replayed = ReplayInto(index, raw, skip_admits, outcome);
  replaying_.store(false, std::memory_order_relaxed);
  COCONUT_RETURN_NOT_OK(replayed);

  // Free the scanned payload copies (the log itself stays on disk).
  scanned_batches_.clear();
  scanned_batches_.shrink_to_fit();
  return Status::OK();
}

Status Wal::ReplayInto(StreamingIndex* index, core::RawSeriesStore* raw,
                       uint64_t skip_admits, WalRecoverOutcome* outcome) {
  uint64_t ordinal = base_ordinals_;
  uint64_t admits_seen = base_admitted_;
  int64_t watermark = base_watermark_;
  bool watermark_restored = false;
  outcome->local_to_global = base_map_;
  const std::vector<float> zeros(series_length_, 0.0f);
  std::vector<float> values;

  auto ensure_watermark = [&]() {
    if (watermark_restored) return;
    if (watermark > std::numeric_limits<int64_t>::min()) {
      index->RestoreWatermark(watermark);
    }
    watermark_restored = true;
  };

  for (const std::vector<uint8_t>& payload : scanned_batches_) {
    Reader r(payload);
    uint32_t count = 0;
    r.GetU32(&count);  // validated by AdoptScan
    for (uint32_t k = 0; k < count; ++k) {
      uint8_t kind = 0;
      r.GetU8(&kind);
      if (kind == static_cast<uint8_t>(WalRecordKind::kAdmit)) {
        uint64_t id = 0;
        int64_t ts = 0;
        r.GetU64(&id);
        r.GetI64(&ts);
        r.GetFloats(&values, series_length_);
        if (id != ordinal) {
          return Status::DataLoss(
              "wal '" + name_ + "' admit id " + std::to_string(id) +
              " does not match raw ordinal " + std::to_string(ordinal));
        }
        COCONUT_RETURN_NOT_OK(raw->Append(values).status());
        ++ordinal;
        if (admits_seen < skip_admits) {
          watermark = std::max(watermark, ts);
        } else {
          ensure_watermark();
          Status st = index->Ingest(id, values, ts);
          if (st.code() == StatusCode::kResourceExhausted) {
            // Reject-mode backpressure can fire mid-replay exactly as it
            // would live; drain once and retry — replay is not a client
            // that can be asked to back off.
            COCONUT_RETURN_NOT_OK(index->FlushAll());
            st = index->Ingest(id, values, ts);
          }
          COCONUT_RETURN_NOT_OK(st);
          watermark = std::max(watermark, ts);
        }
        ++admits_seen;
      } else if (kind == static_cast<uint8_t>(WalRecordKind::kHole)) {
        // The ordinal was burned by a rejected entry; its raw payload is
        // unreachable (nothing in the index refers to it), so zero-fill.
        COCONUT_RETURN_NOT_OK(raw->Append(zeros).status());
        ++ordinal;
      } else {
        uint64_t global = 0;
        r.GetU64(&global);
        outcome->local_to_global.push_back(global);
      }
    }
  }
  ensure_watermark();
  COCONUT_RETURN_NOT_OK(raw->Flush());

  outcome->ordinals = ordinal;
  outcome->admitted = admits_seen;
  outcome->watermark = watermark;
  return Status::OK();
}

}  // namespace stream
}  // namespace coconut
