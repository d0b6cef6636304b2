// Generator for the golden WAL fixtures in this directory, kept so the
// fixtures are reproducible and reviewable. It deliberately builds every
// frame byte by byte — explicit little-endian writes plus the shared
// CRC-32C — instead of calling Wal::EncodeFrame, so wal_format_test.cc
// checking EncodeFrame against these bytes pins the format from two
// independent directions.
//
// Regenerate (from the repo root):
//   c++ -std=c++20 -Isrc -o /tmp/gen_wal_fixtures
//       tests/testdata/generate_wal_fixtures.cc
//   /tmp/gen_wal_fixtures tests/testdata
//
// The emitted files are versioned: they must only ever change together
// with a WAL format-version bump. The test build compiles this file too,
// and the ctest entry wal_fixtures_reproducible (check_wal_fixtures.cmake)
// byte-compares its output with the checked-in files — which also checks
// the CRC-32C implementation from a second direction.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.h"

namespace {

using coconut::Crc32c;
using coconut::Crc32cExtend;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF32(std::vector<uint8_t>* out, float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, 4);
  PutU32(out, bits);
}

/// One frame with an arbitrary version stamp (the golden set includes
/// deliberately future-versioned frames the current writer cannot emit).
std::vector<uint8_t> Frame(uint8_t major, uint8_t minor, uint8_t type,
                           const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  PutU32(&frame, 0x4C415743u);  // "CWAL"
  frame.push_back(major);
  frame.push_back(minor);
  frame.push_back(type);
  frame.push_back(0);  // reserved
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  uint32_t crc = Crc32c(frame.data() + 4, 8);
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  PutU32(&frame, crc);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

void Append(std::vector<uint8_t>* log, const std::vector<uint8_t>& frame) {
  log->insert(log->end(), frame.begin(), frame.end());
}

void WriteFile(const std::string& dir, const char* name,
               const std::vector<uint8_t>& bytes) {
  const std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  if (!bytes.empty() && std::fwrite(bytes.data(), 1, bytes.size(), f) !=
                            bytes.size()) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    std::exit(1);
  }
  std::fclose(f);
  std::printf("%s: %zu bytes\n", name, bytes.size());
}

std::vector<uint8_t> HeaderPayload(uint32_t series_length) {
  std::vector<uint8_t> p;
  PutU32(&p, series_length);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "tests/testdata";

  // ---- wal_header.bin: the frame every log starts with (length 4).
  WriteFile(dir, "wal_header.bin", Frame(1, 0, 1, HeaderPayload(4)));

  // ---- wal_batch.bin: one group commit holding all three record kinds —
  // a map, the admit it maps (with both zeros and a quiet NaN among the
  // values), and a hole.
  {
    std::vector<uint8_t> p;
    PutU32(&p, 3);  // count
    p.push_back(2);  // kMap
    PutU64(&p, 42);
    p.push_back(0);  // kAdmit
    PutU64(&p, 0);   // id
    PutI64(&p, 7);   // timestamp
    PutF32(&p, 0.0f);
    PutF32(&p, -0.0f);
    PutF32(&p, 1.5f);
    std::vector<uint8_t> nan{0x00, 0x00, 0xC0, 0x7F};  // quiet NaN
    p.insert(p.end(), nan.begin(), nan.end());
    p.push_back(1);  // kHole
    WriteFile(dir, "wal_batch.bin", Frame(1, 0, 2, p));
  }

  // ---- wal_checkpoint.bin: durable_entries=2, manifest "abc".
  {
    std::vector<uint8_t> p;
    PutU64(&p, 2);
    PutU32(&p, 3);
    p.push_back('a');
    p.push_back('b');
    p.push_back('c');
    WriteFile(dir, "wal_checkpoint.bin", Frame(1, 0, 3, p));
  }

  // ---- wal_base.bin: the truncation base — 2 ordinals (1 admit + 1
  // hole) dropped, watermark -5, no folded checkpoint, 2 map entries.
  {
    std::vector<uint8_t> p;
    PutU64(&p, 2);   // base_ordinals
    PutU64(&p, 1);   // base_admitted
    PutI64(&p, -5);  // watermark
    PutU64(&p, 0);   // checkpoint durable_entries
    PutU32(&p, 0);   // manifest_len
    PutU64(&p, 2);   // map_count
    PutU64(&p, 9);
    PutU64(&p, 11);
    WriteFile(dir, "wal_base.bin", Frame(1, 0, 4, p));
  }

  // ---- wal_log.bin: a complete openable log — header + one commit of
  // two admits (ids 0 and 1, timestamps 1 and 2, values 1..4 and 5..8).
  {
    std::vector<uint8_t> log;
    Append(&log, Frame(1, 0, 1, HeaderPayload(4)));
    std::vector<uint8_t> batch;
    PutU32(&batch, 2);
    for (uint64_t id = 0; id < 2; ++id) {
      batch.push_back(0);  // kAdmit
      PutU64(&batch, id);
      PutI64(&batch, static_cast<int64_t>(id) + 1);
      for (int i = 0; i < 4; ++i) {
        PutF32(&batch, static_cast<float>(id * 4 + i + 1));
      }
    }
    Append(&log, Frame(1, 0, 2, batch));
    WriteFile(dir, "wal_log.bin", log);
  }

  // ---- wal_future_minor.bin: a minor-version bump added an unknown
  // frame type (7) between the header and a batch. A current reader must
  // skip the unknown frame (its CRC proves it intact) and still replay
  // the batch.
  {
    std::vector<uint8_t> log;
    Append(&log, Frame(1, 0, 1, HeaderPayload(4)));
    std::vector<uint8_t> future{'f', 'u', 't', 'u', 'r', 'e'};
    Append(&log, Frame(1, 9, 7, future));
    std::vector<uint8_t> batch;
    PutU32(&batch, 1);
    batch.push_back(0);  // kAdmit
    PutU64(&batch, 0);
    PutI64(&batch, 3);
    for (int i = 0; i < 4; ++i) {
      PutF32(&batch, static_cast<float>(i) - 1.5f);
    }
    Append(&log, Frame(1, 9, 2, batch));
    WriteFile(dir, "wal_future_minor.bin", log);
  }

  // ---- wal_future_major.bin: a log created by major version 2. The
  // very first frame is unreadable; Open must refuse with NotSupported,
  // never treat it as corruption or a torn tail.
  WriteFile(dir, "wal_future_major.bin", Frame(2, 0, 1, HeaderPayload(4)));

  // ---- wal_future_major_appended.bin: a v1 log a newer writer appended
  // a major-2 frame to. The frame is committed data, not a torn tail;
  // Open must refuse rather than truncate it away.
  {
    std::vector<uint8_t> log;
    Append(&log, Frame(1, 0, 1, HeaderPayload(4)));
    std::vector<uint8_t> p{0x01};
    Append(&log, Frame(2, 0, 2, p));
    WriteFile(dir, "wal_future_major_appended.bin", log);
  }

  return 0;
}
