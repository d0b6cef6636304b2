#include "palm/api.h"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <filesystem>
#include <limits>
#include <optional>
#include <string_view>
#include <thread>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "palm/query_cache.h"
#include "palm/sharded_index.h"
#include "palm/sharded_streaming_index.h"
#include "series/series.h"
#include "stream/epoch.h"

namespace coconut {
namespace palm {
namespace api {

// --------------------------------------------------------------- errors

const char* StatusCodeToApiCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kIoError:
      return "io_error";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kNotSupported:
      return "not_supported";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnauthenticated:
      return "unauthenticated";
    case StatusCode::kDataLoss:
      return "data_loss";
    case StatusCode::kUnavailable:
      return "unavailable";
  }
  return "internal";
}

int StatusCodeToHttpStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
      return 409;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kNotSupported:
      return 501;
    case StatusCode::kUnauthenticated:
      return 401;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kIoError:
    case StatusCode::kInternal:
    case StatusCode::kDataLoss:
      return 500;
  }
  return 500;
}

Status ValidateName(const std::string& name, const char* what) {
  constexpr size_t kMaxNameLength = 128;
  if (name.empty()) {
    return Status::InvalidArgument(std::string(what) +
                                   " name must not be empty");
  }
  if (name.size() > kMaxNameLength) {
    return Status::InvalidArgument(std::string(what) + " name exceeds " +
                                   std::to_string(kMaxNameLength) +
                                   " characters");
  }
  if (name == "." || name == "..") {
    return Status::InvalidArgument(std::string(what) + " name '" + name +
                                   "' is reserved");
  }
  for (const char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          std::string(what) +
          " name may only contain [A-Za-z0-9_.-] characters");
    }
  }
  return Status::OK();
}

namespace {

/// Hard caps on attacker-declared sizes: wire fields that drive
/// allocations before any payload bytes constrain them (an empty "series"
/// with a huge "series_length", heat map bin counts) are bounded here so
/// a hostile request yields InvalidArgument, not std::bad_alloc.
constexpr uint64_t kMaxSeriesLength = 1u << 20;
/// Caps for wire-supplied VariantSpec knobs that size buffers, spawn
/// threads, or create per-shard storage stacks. Generous relative to any
/// real configuration, but small enough that one request cannot exhaust
/// the host before factory validation even runs.
constexpr uint64_t kMaxWireThreads = 1024;
constexpr uint64_t kMaxWireShards = 1024;
constexpr uint64_t kMaxWireBufferEntries = 1u << 24;
constexpr uint64_t kMaxWireMemoryBudgetBytes = 1ull << 36;  // 64 GiB
constexpr uint64_t kMaxWireLeafCapacity = 1u << 24;
constexpr int64_t kMaxWireSmallInt = 1024;  // growth_factor, btp_merge_k
/// Each in-flight seal pins up to buffer_entries series in memory; the cap
/// on the cap keeps a hostile spec from authorizing unbounded pinning.
constexpr uint64_t kMaxWireInflightSeals = 1u << 16;

int ApiCodeToHttpStatus(const std::string& code) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    const StatusCode sc = static_cast<StatusCode>(c);
    if (code == StatusCodeToApiCode(sc)) return StatusCodeToHttpStatus(sc);
  }
  return 500;
}

// ------------------------------------------------------ the wire codec
//
// Every wire struct declares its JSON shape once, as a field list:
//
//   template <class V> void Fields(V& v, QueryRequest& r) {
//     v(Req("index"), r.index);
//     v(Opt("exact"), r.exact);
//     ...
//   }
//
// Three visitors walk each list. The key pass (KeyProbe) runs first and
// rejects a member the list does not declare, so a request's errors keep
// their precedence: not an object, then an unknown field, then the fields
// in list order. The Reader then fills the struct and the Writer emits it,
// both in list order. The codec of an entry follows from the member's type
// (string, bool, double, 64-bit integers, vectors) or from a wrapper that
// adds a range, an enum spelling table or a nested object.

Status ExpectObject(const JsonValue& value, const char* what) {
  if (!value.is_object()) {
    return Status::InvalidArgument(std::string(what) +
                                   ": expected a JSON object");
  }
  return Status::OK();
}

Status FieldError(const char* what, std::string_view key, const char* need) {
  return Status::InvalidArgument(std::string(what) + ": field '" +
                                 std::string(key) + "' " + need);
}

/// Where a value sits, for error messages: "<what>: field '<key>' ...".
struct Ctx {
  const char* what;
  std::string_view key;
};

/// One field-list entry's key and presence rules.
struct Key {
  std::string_view name;
  bool required = false;
  /// False: the field is neither read nor written (still a known key).
  bool gate = true;
  /// False: the field is not written (still read when present). Keeps
  /// wire-additive fields off legacy outputs.
  bool emit = true;
  /// A missing key reads as JSON null, so the codec's own type error
  /// reports it.
  bool absent_as_null = false;

  Key If(bool on) const {
    Key k = *this;
    k.gate = on;
    return k;
  }
  Key EmitIf(bool on) const {
    Key k = *this;
    k.emit = on;
    return k;
  }
  Key AbsentAsNull() const {
    Key k = *this;
    k.absent_as_null = true;
    return k;
  }
};

constexpr Key Req(std::string_view name) { return Key{name, true}; }
constexpr Key Opt(std::string_view name) { return Key{name, false}; }

// ---- codecs chosen by the member's type.

Status ReadValue(const JsonValue& v, const Ctx& c, std::string& out) {
  if (!v.is_string()) return FieldError(c.what, c.key, "must be a string");
  out = v.string_value();
  return Status::OK();
}
void WriteValue(JsonWriter* w, const std::string& value) { w->String(value); }

Status ReadValue(const JsonValue& v, const Ctx& c, bool& out) {
  if (!v.is_bool()) return FieldError(c.what, c.key, "must be a boolean");
  out = v.bool_value();
  return Status::OK();
}
void WriteValue(JsonWriter* w, bool value) { w->Bool(value); }

Status ReadValue(const JsonValue& v, const Ctx& c, double& out) {
  if (!v.is_number()) return FieldError(c.what, c.key, "must be a number");
  out = v.AsDouble();
  return Status::OK();
}
void WriteValue(JsonWriter* w, double value) { w->Double(value); }

/// uint64_t and size_t.
template <std::unsigned_integral U>
  requires(sizeof(U) == sizeof(uint64_t))
Status ReadValue(const JsonValue& v, const Ctx& c, U& out) {
  if (!v.is_number()) return FieldError(c.what, c.key, "must be a number");
  Result<uint64_t> r = v.AsUint64();
  if (!r.ok()) {
    return FieldError(c.what, c.key, "must be a non-negative integer");
  }
  out = r.value();
  return Status::OK();
}
template <std::unsigned_integral U>
  requires(sizeof(U) == sizeof(uint64_t))
void WriteValue(JsonWriter* w, U value) {
  w->Uint(value);
}

Status ReadValue(const JsonValue& v, const Ctx& c, int64_t& out) {
  if (!v.is_number()) return FieldError(c.what, c.key, "must be a number");
  Result<int64_t> r = v.AsInt64();
  if (!r.ok()) return FieldError(c.what, c.key, "must be an integer");
  out = r.value();
  return Status::OK();
}
void WriteValue(JsonWriter* w, int64_t value) { w->Int(value); }

/// A query vector.
Status ReadValue(const JsonValue& v, const Ctx& c, std::vector<float>& out) {
  if (!v.is_array()) {
    return FieldError(c.what, c.key, "must be an array of numbers");
  }
  out.reserve(v.array_size());
  if (v.is_packed_array()) {
    for (const double x : v.packed_numbers()) {
      out.push_back(static_cast<float>(x));
    }
    return Status::OK();
  }
  for (const JsonValue& x : v.array()) {
    if (!x.is_number()) {
      return FieldError(c.what, c.key, "must contain only numbers");
    }
    out.push_back(static_cast<float>(x.AsDouble()));
  }
  return Status::OK();
}
void WriteValue(JsonWriter* w, const std::vector<float>& values) {
  w->BeginArray();
  for (const float x : values) w->Double(x);
  w->EndArray();
}

/// A timestamp column.
Status ReadValue(const JsonValue& v, const Ctx& c, std::vector<int64_t>& out) {
  if (!v.is_array()) {
    return FieldError(c.what, c.key, "must be an array of integers");
  }
  const size_t n = v.array_size();
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!v.element_is_number(i)) {
      return FieldError(c.what, c.key, "must contain only integers");
    }
    Result<int64_t> x = v.ElementAsInt64(i);
    if (!x.ok()) {
      return FieldError(c.what, c.key, "must contain only integers");
    }
    out.push_back(x.value());
  }
  return Status::OK();
}
void WriteValue(JsonWriter* w, const std::vector<int64_t>& values) {
  w->BeginArray();
  for (const int64_t x : values) w->Int(x);
  w->EndArray();
}

/// A recommendation's rationale.
Status ReadValue(const JsonValue& v, const Ctx& c,
                 std::vector<std::string>& out) {
  if (!v.is_array() || v.is_packed_array()) {
    return FieldError(c.what, c.key, "must be an array of strings");
  }
  for (const JsonValue& x : v.array()) {
    if (!x.is_string()) {
      return FieldError(c.what, c.key, "must contain only strings");
    }
    out.push_back(x.string_value());
  }
  return Status::OK();
}
void WriteValue(JsonWriter* w, const std::vector<std::string>& values) {
  w->BeginArray();
  for (const std::string& x : values) w->String(x);
  w->EndArray();
}

/// query_batch results: a report, or an {"error":{...}} entry in its place.
Status ReadValue(const JsonValue& v, const Ctx& c,
                 std::vector<QueryBatchResponse::Entry>& out) {
  if (!v.is_array() || v.is_packed_array()) {
    return FieldError(c.what, c.key, "must be an array of result objects");
  }
  out.reserve(v.array().size());
  for (const JsonValue& entry : v.array()) {
    QueryBatchResponse::Entry parsed;
    parsed.ok = entry.Find("error") == nullptr;
    if (parsed.ok) {
      COCONUT_ASSIGN_OR_RETURN(parsed.report, QueryReport::FromJson(entry));
    } else {
      COCONUT_ASSIGN_OR_RETURN(parsed.error, ApiError::FromJson(entry));
    }
    out.push_back(std::move(parsed));
  }
  return Status::OK();
}
void WriteValue(JsonWriter* w,
                const std::vector<QueryBatchResponse::Entry>& entries) {
  w->BeginArray();
  for (const QueryBatchResponse::Entry& entry : entries) {
    if (entry.ok) {
      entry.report.ToJson(w);
    } else {
      entry.error.ToJson(w);
    }
  }
  w->EndArray();
}

/// Wire-optional values (written only under EmitIf(has_value())).
template <class T>
Status ReadValue(const JsonValue& v, const Ctx& c, std::optional<T>& out) {
  T value{};
  COCONUT_RETURN_NOT_OK(ReadValue(v, c, value));
  out = std::move(value);
  return Status::OK();
}
template <class T>
void WriteValue(JsonWriter* w, const std::optional<T>& value) {
  WriteValue(w, *value);
}

// ---- wrappers that add a rule to a member.

/// Integers that narrow into `value` or drive allocations and thread
/// counts: out-of-range values are rejected instead of silently truncated
/// or honored at host-exhausting magnitudes.
template <class I>
struct IntIn {
  I& value;
  int64_t min;
  int64_t max;
};
template <class I>
Status ReadValue(const JsonValue& v, const Ctx& c, const IntIn<I>& f) {
  int64_t x = 0;
  COCONUT_RETURN_NOT_OK(ReadValue(v, c, x));
  if (x < f.min || x > f.max) {
    return Status::InvalidArgument(
        std::string(c.what) + ": field '" + std::string(c.key) +
        "' must be in [" + std::to_string(f.min) + ", " +
        std::to_string(f.max) + "]");
  }
  f.value = static_cast<I>(x);
  return Status::OK();
}
template <class I>
void WriteValue(JsonWriter* w, const IntIn<I>& f) {
  w->Int(static_cast<int64_t>(f.value));
}

template <class U>
struct UintIn {
  U& value;
  uint64_t max;
};
template <class U>
Status ReadValue(const JsonValue& v, const Ctx& c, const UintIn<U>& f) {
  uint64_t x = 0;
  COCONUT_RETURN_NOT_OK(ReadValue(v, c, x));
  if (x > f.max) {
    return Status::InvalidArgument(std::string(c.what) + ": field '" +
                                   std::string(c.key) + "' must be at most " +
                                   std::to_string(f.max));
  }
  f.value = static_cast<U>(x);
  return Status::OK();
}
template <class U>
void WriteValue(JsonWriter* w, const UintIn<U>& f) {
  w->Uint(static_cast<uint64_t>(f.value));
}

/// One enum value and its wire spelling. A table of these serves both
/// directions and the "(want a|b|c)" hint.
template <class E>
struct Spelling {
  E value;
  const char* name;
};

constexpr Spelling<IndexFamily> kFamilies[] = {
    {IndexFamily::kAds, "ads"},
    {IndexFamily::kCTree, "ctree"},
    {IndexFamily::kClsm, "clsm"}};
constexpr Spelling<StreamMode> kModes[] = {{StreamMode::kStatic, "static"},
                                           {StreamMode::kPP, "pp"},
                                           {StreamMode::kTP, "tp"},
                                           {StreamMode::kBTP, "btp"}};
constexpr Spelling<stream::TimestampPolicy> kTimestampPolicies[] = {
    {stream::TimestampPolicy::kPermissive, "permissive"},
    {stream::TimestampPolicy::kStrict, "strict"},
    {stream::TimestampPolicy::kClamp, "clamp"}};
constexpr Spelling<stream::BackpressurePolicy> kBackpressurePolicies[] = {
    {stream::BackpressurePolicy::kBlock, "block"},
    {stream::BackpressurePolicy::kReject, "reject"}};
constexpr Spelling<bool> kDurability[] = {{true, "on"}, {false, "off"}};

template <class E, size_t N>
struct Enum {
  E& value;
  const Spelling<E> (&table)[N];
};
/// An empty string keeps the default, like an absent key.
template <class E, size_t N>
Status ReadValue(const JsonValue& v, const Ctx& c, const Enum<E, N>& f) {
  std::string s;
  COCONUT_RETURN_NOT_OK(ReadValue(v, c, s));
  if (s.empty()) return Status::OK();
  std::string want;
  for (const Spelling<E>& spelling : f.table) {
    if (s == spelling.name) {
      f.value = spelling.value;
      return Status::OK();
    }
    if (!want.empty()) want += '|';
    want += spelling.name;
  }
  return Status::InvalidArgument(std::string(c.what) + ": unknown " +
                                 std::string(c.key) + " '" + s + "' (want " +
                                 want + ")");
}
template <class E, size_t N>
void WriteValue(JsonWriter* w, const Enum<E, N>& f) {
  const char* name = f.table[0].name;
  for (const Spelling<E>& spelling : f.table) {
    if (spelling.value == f.value) name = spelling.name;
  }
  w->String(name);
}

/// A heat map's max_count.
struct Uint32 {
  uint32_t& value;
};
Status ReadValue(const JsonValue& v, const Ctx& c, const Uint32& f) {
  uint64_t x = 0;
  COCONUT_RETURN_NOT_OK(ReadValue(v, c, x));
  if (x > std::numeric_limits<uint32_t>::max()) {
    return FieldError(c.what, c.key, "does not fit in 32 bits");
  }
  f.value = static_cast<uint32_t>(x);
  return Status::OK();
}
void WriteValue(JsonWriter* w, const Uint32& f) { w->Uint(f.value); }

/// A heat map's cells: time_bins rows of location_bins 32-bit counts.
struct Cells {
  HeatMap& map;
};
Status ReadValue(const JsonValue& v, const Ctx& c, const Cells& f) {
  HeatMap& map = f.map;
  const std::string what(c.what);
  if (!v.is_array() || v.array_size() != map.time_bins) {
    return Status::InvalidArgument(what + ": '" + std::string(c.key) +
                                   "' must be an array of time_bins rows");
  }
  const auto bad_row = [&what] {
    return Status::InvalidArgument(
        what + ": each cells row must have location_bins entries");
  };
  // Numbers where rows were expected.
  if (v.is_packed_array()) return bad_row();
  map.counts.reserve(map.time_bins * map.location_bins);
  for (const JsonValue& row : v.array()) {
    if (!row.is_array() || row.array_size() != map.location_bins) {
      return bad_row();
    }
    for (size_t j = 0; j < row.array_size(); ++j) {
      Result<uint64_t> cell = row.element_is_number(j)
                                  ? row.ElementAsUint64(j)
                                  : Result<uint64_t>(Status::InvalidArgument(
                                        "not a number"));
      if (!cell.ok() ||
          cell.value() > std::numeric_limits<uint32_t>::max()) {
        return Status::InvalidArgument(what +
                                       ": cells must be 32-bit counts");
      }
      map.counts.push_back(static_cast<uint32_t>(cell.value()));
    }
  }
  return Status::OK();
}
void WriteValue(JsonWriter* w, const Cells& f) {
  w->BeginArray();
  for (size_t t = 0; t < f.map.time_bins; ++t) {
    w->BeginArray();
    for (size_t l = 0; l < f.map.location_bins; ++l) w->Uint(f.map.at(t, l));
    w->EndArray();
  }
  w->EndArray();
}

/// The api_version inside an error body: written as kApiVersion, and any
/// other version is refused on read.
struct ApiVersion {};
Status ReadValue(const JsonValue& v, const Ctx& c, const ApiVersion&) {
  uint64_t version = 0;
  COCONUT_RETURN_NOT_OK(ReadValue(v, c, version));
  if (version != static_cast<uint64_t>(kApiVersion)) {
    return Status::InvalidArgument(std::string(c.what) +
                                   ": unsupported api_version " +
                                   std::to_string(version));
  }
  return Status::OK();
}
void WriteValue(JsonWriter* w, const ApiVersion&) { w->Int(kApiVersion); }

// ---- the series matrix: two keys of the enclosing object at once.

/// Shared by register_dataset and ingest_batch: reads "series" (array of
/// equal-length arrays of numbers) plus optional "series_length" into a
/// SeriesCollection, rejecting ragged input.
Result<series::SeriesCollection> ParseSeriesMatrix(const JsonValue& obj,
                                                   const char* what) {
  const JsonValue* arr = obj.Find("series");
  if (arr == nullptr) return FieldError(what, "series", "is required");
  if (!arr->is_array()) {
    return FieldError(what, "series", "must be an array of series");
  }
  uint64_t length = 0;
  bool have_length = false;
  if (const JsonValue* l = obj.Find("series_length"); l != nullptr) {
    if (!l->is_number() || !l->AsUint64().ok()) {
      return FieldError(what, "series_length",
                        "must be a non-negative integer");
    }
    length = l->AsUint64().value();
    have_length = true;
  }
  if (!have_length) {
    if (arr->array_size() == 0) {
      return Status::InvalidArgument(
          std::string(what) +
          ": empty 'series' requires an explicit 'series_length'");
    }
    // A packed outer array means the elements are numbers, not rows.
    if (arr->is_packed_array()) {
      return FieldError(what, "series", "must contain arrays of numbers");
    }
    const JsonValue& first = arr->array().front();
    if (!first.is_array()) {
      return FieldError(what, "series", "must contain arrays of numbers");
    }
    length = first.array_size();
  }
  if (length == 0) {
    return Status::InvalidArgument(std::string(what) +
                                   ": series length must be positive");
  }
  if (length > kMaxSeriesLength) {
    return Status::InvalidArgument(
        std::string(what) + ": series length " + std::to_string(length) +
        " exceeds the maximum of " + std::to_string(kMaxSeriesLength));
  }
  if (arr->is_packed_array() && arr->array_size() != 0) {
    // Numbers where rows were expected (with an explicit series_length
    // the first branch above didn't reject this shape).
    return Status::InvalidArgument(
        std::string(what) +
        ": series 0 does not have the expected length " +
        std::to_string(length));
  }
  series::SeriesCollection collection(static_cast<size_t>(length));
  collection.Reserve(arr->array_size());
  std::vector<float>& values = collection.mutable_data();
  for (size_t i = 0; i < arr->array().size(); ++i) {
    const JsonValue& row = arr->array()[i];
    if (!row.is_array() || row.array_size() != length) {
      return Status::InvalidArgument(
          std::string(what) + ": series " + std::to_string(i) +
          " does not have the expected length " + std::to_string(length));
    }
    // Rows convert straight into the collection's storage; it only grows
    // by a row once that row's length is checked.
    values.resize(values.size() + length);
    const std::span<float> out = collection.Mutable(i);
    if (row.is_packed_array()) {
      const std::span<const double> in = row.packed_numbers();
      for (size_t j = 0; j < in.size(); ++j) {
        out[j] = static_cast<float>(in[j]);
      }
    } else {
      for (size_t j = 0; j < out.size(); ++j) {
        const JsonValue& v = row.array()[j];
        if (!v.is_number()) {
          return Status::InvalidArgument(std::string(what) + ": series " +
                                         std::to_string(i) +
                                         " contains a non-numeric value");
        }
        out[j] = static_cast<float>(v.AsDouble());
      }
    }
  }
  return collection;
}

void WriteSeriesMatrix(const series::SeriesCollection& collection,
                       JsonWriter* w) {
  w->Field("series_length", static_cast<uint64_t>(collection.length()));
  w->Key("series");
  w->BeginArray();
  for (size_t i = 0; i < collection.size(); ++i) {
    w->BeginArray();
    for (const float v : collection[i]) w->Double(v);
    w->EndArray();
  }
  w->EndArray();
}

/// The field-list entry for a series matrix (v.Inline(SeriesMatrix{...})).
struct SeriesMatrix {
  series::SeriesCollection& data;
  static constexpr std::string_view kKeys[] = {"series_length", "series"};
};

// ---- the three visitors.

/// The key pass: does the field list declare `key`?
struct KeyProbe {
  std::string_view key;
  bool known = false;

  template <class M>
  void operator()(const Key& k, const M&) {
    known = known || k.name == key;
  }
  void Inline(const SeriesMatrix&) {
    for (const std::string_view k : SeriesMatrix::kKeys) {
      known = known || k == key;
    }
  }
  void Presence(std::string_view, bool&) {}
  template <class F>
  void Check(const F&) {}
};

/// Fills a struct from one JSON object, stopping at the first error.
class Reader {
 public:
  Reader(const JsonValue& object, const char* what)
      : object_(object), what_(what) {}

  template <class M>
  void operator()(const Key& k, M&& member) {
    if (!status_.ok() || !k.gate) return;
    const JsonValue* v = object_.Find(k.name);
    if (v == nullptr && k.absent_as_null) v = &kNull;
    if (v == nullptr) {
      if (k.required) status_ = FieldError(what_, k.name, "is required");
      return;
    }
    status_ = ReadValue(*v, Ctx{what_, k.name}, member);
  }
  void Inline(const SeriesMatrix& matrix) {
    if (!status_.ok()) return;
    Result<series::SeriesCollection> data =
        ParseSeriesMatrix(object_, what_);
    if (!data.ok()) {
      status_ = data.status();
      return;
    }
    matrix.data = data.TakeValue();
  }
  /// Sets `flag` to whether `key` is present (gates of later entries read
  /// it).
  void Presence(std::string_view key, bool& flag) {
    flag = object_.Find(key) != nullptr;
  }
  /// A rule across fields read so far.
  template <class F>
  void Check(const F& check) {
    if (status_.ok()) status_ = check();
  }

  const Status& status() const { return status_; }

 private:
  static inline const JsonValue kNull;
  const JsonValue& object_;
  const char* what_;
  Status status_;
};

/// Emits a struct's fields into an open JSON object.
struct Writer {
  JsonWriter* w;

  template <class M>
  void operator()(const Key& k, const M& member) {
    if (!k.gate || !k.emit) return;
    w->Key(std::string(k.name));
    WriteValue(w, member);
  }
  void Inline(const SeriesMatrix& matrix) {
    WriteSeriesMatrix(matrix.data, w);
  }
  void Presence(std::string_view, bool&) {}
  template <class F>
  void Check(const F&) {}
};

/// A field list as a value: list(visitor) walks T's Fields.
template <class T>
auto ListOf(T& t) {
  return [&t](auto& visitor) { Fields(visitor, t); };
}

template <class List>
Status ReadObject(const JsonValue& value, const char* what, const List& list) {
  COCONUT_RETURN_NOT_OK(ExpectObject(value, what));
  // Strict wire contract: a request naming fields the server does not
  // know is rejected, not silently half-honored.
  for (const JsonValue::Member& m : value.object()) {
    KeyProbe probe{m.first};
    list(probe);
    if (!probe.known) {
      return Status::InvalidArgument(std::string(what) + ": unknown field '" +
                                     m.first + "'");
    }
  }
  Reader reader(value, what);
  list(reader);
  return reader.status();
}

template <class List>
void WriteObject(JsonWriter* w, const List& list) {
  w->BeginObject();
  Writer writer{w};
  list(writer);
  w->EndObject();
}

template <class T>
Result<T> Decode(const JsonValue& value, const char* what) {
  T t;
  COCONUT_RETURN_NOT_OK(ReadObject(value, what, ListOf(t)));
  return t;
}

template <class T>
void Encode(const T& t, JsonWriter* w) {
  // One list serves the reader and the writer, so it takes T&; the Writer
  // only reads through it.
  WriteObject(w, ListOf(const_cast<T&>(t)));
}

// ---- nested objects.

/// A nested wire object over members of the enclosing struct.
template <class F>
struct Group {
  const char* what;
  F list;
};
template <class F>
Status ReadValue(const JsonValue& v, const Ctx&, const Group<F>& g) {
  return ReadObject(v, g.what, g.list);
}
template <class F>
void WriteValue(JsonWriter* w, const Group<F>& g) {
  WriteObject(w, g.list);
}

/// A member struct with its own field list, read under its own context.
template <class T>
struct Nested {
  T& value;
  const char* what;
};
template <class T>
Status ReadValue(const JsonValue& v, const Ctx&, const Nested<T>& n) {
  return ReadObject(v, n.what, ListOf(n.value));
}
template <class T>
Status ReadValue(const JsonValue& v, const Ctx&,
                 const Nested<std::optional<T>>& n) {
  T value{};
  COCONUT_RETURN_NOT_OK(ReadObject(v, n.what, ListOf(value)));
  n.value = value;
  return Status::OK();
}
template <class T>
void WriteValue(JsonWriter* w, const Nested<T>& n) {
  WriteObject(w, ListOf(n.value));
}
template <class T>
void WriteValue(JsonWriter* w, const Nested<std::optional<T>>& n) {
  WriteObject(w, ListOf(*n.value));
}

/// An array of structs, each read under `what`.
template <class T>
struct ObjectList {
  std::vector<T>& items;
  const char* what;
  const char* need;  // the error when the value is not such an array
};
template <class T>
Status ReadValue(const JsonValue& v, const Ctx& c, const ObjectList<T>& f) {
  if (!v.is_array() || v.is_packed_array()) {
    return FieldError(c.what, c.key, f.need);
  }
  f.items.reserve(v.array().size());
  for (const JsonValue& entry : v.array()) {
    COCONUT_ASSIGN_OR_RETURN(T item, Decode<T>(entry, f.what));
    f.items.push_back(std::move(item));
  }
  return Status::OK();
}
template <class T>
void WriteValue(JsonWriter* w, const ObjectList<T>& f) {
  w->BeginArray();
  for (const T& item : f.items) Encode(item, w);
  w->EndArray();
}

// ------------------------------------------------------ the field lists

template <class V>
void Fields(V& v, series::SaxConfig& sax) {
  v(Opt("series_length"),
    IntIn{sax.series_length, 0, static_cast<int64_t>(kMaxSeriesLength)});
  v(Opt("num_segments"), IntIn{sax.num_segments, 0, 1 << 12});
  v(Opt("bits_per_segment"), IntIn{sax.bits_per_segment, 0, 32});
}

/// Every knob of the spec except the process-local pointers and hooks.
template <class V>
void Fields(V& v, VariantSpec& s) {
  v(Opt("family"), Enum{s.family, kFamilies});
  v(Opt("materialized"), s.materialized);
  v(Opt("mode"), Enum{s.mode, kModes});
  v(Opt("sax"), Nested{s.sax, "spec.sax"});
  v(Opt("fill_factor"), s.fill_factor);
  v(Opt("growth_factor"), IntIn{s.growth_factor, 0, kMaxWireSmallInt});
  v(Opt("buffer_entries"), UintIn{s.buffer_entries, kMaxWireBufferEntries});
  v(Opt("memory_budget_bytes"),
    UintIn{s.memory_budget_bytes, kMaxWireMemoryBudgetBytes});
  v(Opt("construction_threads"),
    UintIn{s.construction_threads, kMaxWireThreads});
  v(Opt("ads_leaf_capacity"),
    UintIn{s.ads_leaf_capacity, kMaxWireLeafCapacity});
  v(Opt("btp_merge_k"), IntIn{s.btp_merge_k, 0, kMaxWireSmallInt});
  v(Opt("num_shards"), UintIn{s.num_shards, kMaxWireShards});
  v(Opt("timestamp_policy"), Enum{s.timestamp_policy, kTimestampPolicies});
  v(Opt("async_ingest"), s.async_ingest);
  v(Opt("max_inflight_seals"),
    UintIn{s.max_inflight_seals, kMaxWireInflightSeals});
  v(Opt("backpressure_policy"),
    Enum{s.backpressure_policy, kBackpressurePolicies});
  v(Opt("durability"), Enum{s.durable, kDurability});
}

template <class V>
void Fields(V& v, storage::IoStats& io) {
  v(Req("sequential_reads"), io.sequential_reads);
  v(Req("random_reads"), io.random_reads);
  v(Req("sequential_writes"), io.sequential_writes);
  v(Req("random_writes"), io.random_writes);
  v(Req("bytes_read"), io.bytes_read);
  v(Req("bytes_written"), io.bytes_written);
}

template <class V>
void Fields(V& v, core::QueryCounters& c) {
  v(Req("leaves_visited"), c.leaves_visited);
  v(Req("leaves_pruned"), c.leaves_pruned);
  v(Req("entries_examined"), c.entries_examined);
  v(Req("raw_fetches"), c.raw_fetches);
  v(Req("partitions_visited"), c.partitions_visited);
  v(Req("partitions_skipped"), c.partitions_skipped);
}

template <class V>
void Fields(V& v, HeatMap& map) {
  v(Req("time_bins"), map.time_bins);
  v(Req("location_bins"), map.location_bins);
  // Both bin counts size the cells reserve before any row constrains them.
  v.Check([&map] {
    if (map.time_bins > kMaxHeatMapBinsPerAxis ||
        map.location_bins > kMaxHeatMapBinsPerAxis) {
      return Status::InvalidArgument(
          "heatmap: bin counts exceed the maximum of " +
          std::to_string(kMaxHeatMapBinsPerAxis) + " per axis");
    }
    return Status::OK();
  });
  v(Req("total_events"), map.total_events);
  v(Req("distinct_pages"), map.distinct_pages);
  v(Req("distinct_files"), map.distinct_files);
  v(Req("max_count"), Uint32{map.max_count});
  v(Req("cells").AbsentAsNull(), Cells{map});
}

template <class V>
void Fields(V& v, core::TimeWindow& window) {
  v(Opt("begin"), window.begin);
  v(Opt("end"), window.end);
}

template <class V>
void Fields(V& v, ApiError& e) {
  v(Req("error"), Group{"error", [&e](auto& body) {
                          body(Req("api_version"), ApiVersion{});
                          body(Req("code"), e.code);
                          body(Req("message"), e.message);
                        }});
}

template <class V>
void Fields(V& v, RegisterDatasetRequest& r) {
  v(Req("name"), r.name);
  v.Inline(SeriesMatrix{r.data});
  v(Opt("timestamps").EmitIf(r.timestamps.has_value()), r.timestamps);
}

template <class V>
void Fields(V& v, RegisterDatasetResponse& r) {
  v(Req("dataset"), r.dataset);
  v(Req("series"), r.series);
  v(Req("series_length"), r.series_length);
}

template <class V>
void Fields(V& v, BuildIndexRequest& r) {
  v(Req("index"), r.index);
  v(Req("dataset"), r.dataset);
  v(Req("spec"), Nested{r.spec, "spec"});
}

template <class V>
void Fields(V& v, BuildIndexReport& r) {
  v(Req("index"), r.index);
  v(Req("variant"), r.variant);
  v(Req("dataset"), r.dataset);
  v(Req("shards"), r.shards);
  v(Req("entries"), r.entries);
  v(Req("build_seconds"), r.build_seconds);
  v(Req("index_bytes"), r.index_bytes);
  v(Req("total_bytes"), r.total_bytes);
  v(Req("io"), Nested{r.io, "io"});
}

template <class V>
void Fields(V& v, CreateStreamRequest& r) {
  v(Req("stream"), r.stream);
  v(Req("spec"), Nested{r.spec, "spec"});
}

template <class V>
void Fields(V& v, CreateStreamResponse& r) {
  v(Req("stream"), r.stream);
  v(Req("variant"), r.variant);
}

template <class V>
void Fields(V& v, IngestBatchRequest& r) {
  v(Req("stream"), r.stream);
  v.Inline(SeriesMatrix{r.batch});
  v(Req("timestamps"), r.timestamps);
}

/// The stream counters IngestBatchReport and DrainStreamReport share (the
/// members have the same names in both).
template <class V, class Report>
void StreamStatsFields(V& v, Report& r) {
  v(Req("total_entries"), r.total_entries);
  v(Req("partitions"), r.partitions);
  v(Req("buffered"), r.buffered);
  v(Req("pending_tasks"), r.pending_tasks);
  v(Req("seals_completed"), r.seals_completed);
  v(Req("merges_completed"), r.merges_completed);
  v(Req("seals_inflight"), r.seals_inflight);
  v(Req("ingest_stalls"), r.ingest_stalls);
  v(Req("ingest_rejects"), r.ingest_rejects);
  v(Req("stall_ms_p50"), r.stall_ms_p50);
  v(Req("stall_ms_p99"), r.stall_ms_p99);
}

template <class V>
void Fields(V& v, IngestBatchReport& r) {
  v(Req("stream"), r.stream);
  v(Req("ingested"), r.ingested);
  StreamStatsFields(v, r);
  v(Req("seconds"), r.seconds);
  v(Req("io"), Nested{r.io, "io"});
}

template <class V>
void Fields(V& v, DrainStreamRequest& r) {
  v(Req("stream"), r.stream);
}

template <class V>
void Fields(V& v, DrainStreamReport& r) {
  v(Req("stream"), r.stream);
  v(Req("drained"), r.drained);
  v(Req("drain_seconds"), r.drain_seconds);
  StreamStatsFields(v, r);
  v(Req("index_bytes"), r.index_bytes);
  v(Req("total_bytes"), r.total_bytes);
}

template <class V>
void Fields(V& v, QueryRequest& r) {
  v(Req("index"), r.index);
  v(Req("query"), r.query);
  v(Opt("exact"), r.exact);
  v(Opt("window").EmitIf(r.window.has_value()),
    Nested{r.window, "query.window"});
  // An inverted window used to sail through and silently scan nothing;
  // reject it at the boundary (ValidateQuery re-checks for the typed
  // in-process path).
  v.Check([&r] {
    if (r.window.has_value() && r.window->begin > r.window->end) {
      return Status::InvalidArgument(
          "query: field 'window' begin must be <= end (got begin=" +
          std::to_string(r.window->begin) +
          ", end=" + std::to_string(r.window->end) + ")");
    }
    return Status::OK();
  });
  v(Opt("approx_candidates"),
    IntIn{r.approx_candidates, std::numeric_limits<int>::min(),
          std::numeric_limits<int>::max()});
  v(Opt("capture_heatmap"), r.capture_heatmap);
  v(Opt("heatmap_time_bins"), r.heatmap_time_bins);
  v(Opt("heatmap_location_bins"), r.heatmap_location_bins);
}

/// Gated entries keep legacy outputs byte-identical: the match fields
/// only when found, the heat map only when captured, batch_size only
/// from a shared batched scan, degraded only from a partial coordinator
/// answer.
template <class V>
void Fields(V& v, QueryReport& r) {
  v(Req("index"), r.index);
  v(Req("exact"), r.exact);
  v(Req("found"), r.found);
  v(Req("series_id").If(r.found), r.series_id);
  v(Req("distance").If(r.found), r.distance);
  v(Opt("timestamp").If(r.found), r.timestamp);
  v(Req("seconds"), r.seconds);
  v(Req("io"), Nested{r.io, "io"});
  v(Req("counters"), Nested{r.counters, "counters"});
  v.Presence("heatmap", r.has_heatmap);
  v(Req("access_locality").If(r.has_heatmap), r.access_locality);
  v(Req("heatmap").If(r.has_heatmap), Nested{r.heatmap, "heatmap"});
  v(Opt("batch_size").EmitIf(r.batch_size > 1), r.batch_size);
  v(Opt("degraded").EmitIf(r.degraded), r.degraded);
}

template <class V>
void Fields(V& v, QueryBatchRequest& r) {
  v(Req("queries"),
    ObjectList{r.queries, "query", "must be an array of query objects"});
  v(Opt("threads"), UintIn{r.threads, kMaxWireThreads});
}

template <class V>
void Fields(V& v, QueryBatchResponse& r) {
  v(Req("results"), r.results);
}

template <class V>
void Fields(V& v, RecommendRequest& r) {
  Scenario& s = r.scenario;
  v(Opt("streaming"), s.streaming);
  v(Opt("dataset_size"), s.dataset_size);
  v(Opt("sax"), Nested{s.sax, "recommend.sax"});
  v(Opt("expected_queries"), s.expected_queries);
  v(Opt("update_ratio"), s.update_ratio);
  v(Opt("memory_budget_bytes"), s.memory_budget_bytes);
  v(Opt("window_queries"), s.window_queries);
  v(Opt("typical_window_fraction"), s.typical_window_fraction);
  v(Opt("storage_constrained"), s.storage_constrained);
}

template <class V>
void Fields(V& v, RecommendResponse& r) {
  v(Req("variant"), r.variant);
  v(Req("spec"), Group{"recommend.spec", [&r](auto& spec) {
                         spec(Req("materialized"), r.materialized);
                         spec(Req("fill_factor"), r.fill_factor);
                         spec(Opt("growth_factor"), r.growth_factor);
                         spec(Opt("buffer_entries"), r.buffer_entries);
                       }});
  v(Req("rationale").AbsentAsNull(), r.rationale);
}

template <class V>
void Fields(V& v, ListIndexesResponse::IndexInfo& r) {
  v(Req("name"), r.name);
  v(Req("variant"), r.variant);
  v(Req("streaming"), r.streaming);
  v(Req("shards"), r.shards);
  v(Req("entries"), r.entries);
  v(Req("total_bytes"), r.total_bytes);
}

template <class V>
void Fields(V& v, DropIndexRequest& r) {
  v(Req("index"), r.index);
}

template <class V>
void Fields(V& v, DropIndexResponse& r) {
  v(Req("index"), r.index);
  v(Req("dropped"), r.dropped);
  v(Req("streaming"), r.streaming);
  v(Req("entries"), r.entries);
  v(Req("reclaimed_bytes"), r.reclaimed_bytes);
}

template <class V>
void Fields(V& v, DropDatasetRequest& r) {
  v(Req("dataset"), r.dataset);
}

template <class V>
void Fields(V& v, DropDatasetResponse& r) {
  v(Req("dataset"), r.dataset);
  v(Req("dropped"), r.dropped);
  v(Req("series"), r.series);
}

template <class V>
void Fields(V& v, ServerStatsResponse::ShardHealth& r) {
  v(Req("endpoint"), r.endpoint);
  v(Req("healthy"), r.healthy);
  v(Req("requests"), r.requests);
  v(Req("failures"), r.failures);
  v(Req("consecutive_failures"), r.consecutive_failures);
}

/// The negative_* counters ride only on servers with negative caching on,
/// and shards only on a distributed coordinator.
template <class V>
void Fields(V& v, ServerStatsResponse& r) {
  v(Req("cache"),
    Group{"server_stats cache", [&r](auto& cache) {
            cache(Req("enabled"), r.cache_enabled);
            cache(Req("entries"), r.cache_entries);
            cache(Req("bytes"), r.cache_bytes);
            cache(Req("hits"), r.cache_hits);
            cache(Req("misses"), r.cache_misses);
            cache(Req("inserts"), r.cache_inserts);
            cache(Req("evictions"), r.cache_evictions);
            cache(Req("stale_drops"), r.cache_stale_drops);
            cache(Req("invalidations"), r.cache_invalidations);
            cache(Opt("negative_enabled").EmitIf(r.cache_negative_enabled),
                  r.cache_negative_enabled);
            cache(Opt("negative_hits").EmitIf(r.cache_negative_enabled),
                  r.cache_negative_hits);
            cache(Opt("negative_inserts").EmitIf(r.cache_negative_enabled),
                  r.cache_negative_inserts);
          }});
  v(Req("quota"), Group{"server_stats quota", [&r](auto& quota) {
                          quota(Req("enabled"), r.quota_enabled);
                          quota(Req("admitted"), r.quota_admitted);
                          quota(Req("throttled"), r.quota_throttled);
                          quota(Req("unauthenticated"),
                                r.quota_unauthenticated);
                        }});
  v(Opt("shards").EmitIf(!r.shards.empty()),
    ObjectList{r.shards, "server_stats shard", "must be an array of objects"});
}

}  // namespace

// ----------------------------------------------------- ApiError members

ApiError ApiError::FromStatus(const Status& status) {
  ApiError error;
  error.code = StatusCodeToApiCode(status.code());
  error.message = status.message();
  error.http_status = StatusCodeToHttpStatus(status.code());
  return error;
}

Result<ApiError> ApiError::FromJson(const JsonValue& value) {
  // A missing wrapper has its own message, ahead of the key pass.
  if (value.is_object() && value.Find("error") == nullptr) {
    return Status::InvalidArgument("error: missing 'error' wrapper");
  }
  COCONUT_ASSIGN_OR_RETURN(ApiError error, Decode<ApiError>(value, "error"));
  error.http_status = ApiCodeToHttpStatus(error.code);
  return error;
}

void ApiError::ToJson(JsonWriter* w) const { Encode(*this, w); }

// ----------------------------------------------------- shared fragments

Result<VariantSpec> VariantSpecFromJson(const JsonValue& value) {
  return Decode<VariantSpec>(value, "spec");
}
void VariantSpecToJson(const VariantSpec& spec, JsonWriter* w) {
  Encode(spec, w);
}

Result<storage::IoStats> IoStatsFromJson(const JsonValue& value) {
  return Decode<storage::IoStats>(value, "io");
}
void IoStatsToJson(const storage::IoStats& io, JsonWriter* w) {
  Encode(io, w);
}

Result<core::QueryCounters> QueryCountersFromJson(const JsonValue& value) {
  return Decode<core::QueryCounters>(value, "counters");
}
void QueryCountersToJson(const core::QueryCounters& counters, JsonWriter* w) {
  Encode(counters, w);
}

Result<HeatMap> HeatMapFromJson(const JsonValue& value) {
  return Decode<HeatMap>(value, "heatmap");
}

}  // namespace api

void HeatMapToJson(const HeatMap& map, JsonWriter* w) { api::Encode(map, w); }

namespace api {

// ------------------------------------------------ requests and responses

// Every wire struct but ApiError and ListIndexesResponse reads and writes
// through its field list alone; `what` prefixes its error messages.
#define COCONUT_WIRE_STRING(T)          \
  std::string T::ToJsonString() const { \
    JsonWriter w;                       \
    ToJson(&w);                         \
    return w.TakeString();              \
  }
#define COCONUT_WIRE_STRUCT(T, what)                          \
  Result<T> T::FromJson(const JsonValue& value) {             \
    return Decode<T>(value, what);                            \
  }                                                           \
  void T::ToJson(JsonWriter* w) const { Encode(*this, w); }   \
  COCONUT_WIRE_STRING(T)

COCONUT_WIRE_STRING(ApiError)
COCONUT_WIRE_STRUCT(RegisterDatasetRequest, "register_dataset")
COCONUT_WIRE_STRUCT(RegisterDatasetResponse, "register_dataset response")
COCONUT_WIRE_STRUCT(BuildIndexRequest, "build_index")
COCONUT_WIRE_STRUCT(BuildIndexReport, "build report")
COCONUT_WIRE_STRUCT(CreateStreamRequest, "create_stream")
COCONUT_WIRE_STRUCT(CreateStreamResponse, "create_stream response")
COCONUT_WIRE_STRUCT(IngestBatchRequest, "ingest_batch")
COCONUT_WIRE_STRUCT(IngestBatchReport, "ingest report")
COCONUT_WIRE_STRUCT(DrainStreamRequest, "drain_stream")
COCONUT_WIRE_STRUCT(DrainStreamReport, "drain report")
COCONUT_WIRE_STRUCT(QueryRequest, "query")
COCONUT_WIRE_STRUCT(QueryReport, "query report")
COCONUT_WIRE_STRUCT(QueryBatchRequest, "query_batch")
COCONUT_WIRE_STRUCT(QueryBatchResponse, "query_batch response")
COCONUT_WIRE_STRUCT(RecommendRequest, "recommend")
COCONUT_WIRE_STRUCT(RecommendResponse, "recommend response")
COCONUT_WIRE_STRUCT(DropIndexRequest, "drop_index")
COCONUT_WIRE_STRUCT(DropIndexResponse, "drop_index response")
COCONUT_WIRE_STRUCT(DropDatasetRequest, "drop_dataset")
COCONUT_WIRE_STRUCT(DropDatasetResponse, "drop_dataset response")
COCONUT_WIRE_STRUCT(ServerStatsResponse, "server_stats response")

/// A top-level JSON array, the legacy ListIndexes shape.
Result<ListIndexesResponse> ListIndexesResponse::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "list_indexes response";
  if (!value.is_array() || value.is_packed_array()) {
    return Status::InvalidArgument(std::string(kWhat) +
                                   ": expected a JSON array of objects");
  }
  ListIndexesResponse response;
  response.indexes.reserve(value.array().size());
  for (const JsonValue& entry : value.array()) {
    COCONUT_ASSIGN_OR_RETURN(IndexInfo info, Decode<IndexInfo>(entry, kWhat));
    response.indexes.push_back(std::move(info));
  }
  return response;
}
void ListIndexesResponse::ToJson(JsonWriter* w) const {
  w->BeginArray();
  for (const IndexInfo& info : indexes) Encode(info, w);
  w->EndArray();
}
COCONUT_WIRE_STRING(ListIndexesResponse)

#undef COCONUT_WIRE_STRUCT
#undef COCONUT_WIRE_STRING

// -------------------------------------------------------------- service

namespace {

/// The I/O counters a report brackets: the handle's own plus, for a
/// sharded index, every shard's — the wrappers read and write through
/// per-shard storage managers, where the handle's counters never see it.
/// `Handle` is Service::IndexHandle. Snapshot reads: an async stream's
/// background seals and merges may be doing I/O meanwhile.
template <class Handle>
storage::IoStats IoSnapshot(const Handle& handle) {
  storage::IoStats io = handle.storage->SnapshotIoStats();
  const core::IndexReader* reader = handle.reader.get();
  if (const auto* sharded = dynamic_cast<const ShardedIndex*>(reader)) {
    io.Add(sharded->AggregateIoStats());
  } else if (const auto* sharded_stream =
                 dynamic_cast<const ShardedStreamingIndex*>(reader)) {
    io.Add(sharded_stream->AggregateIoStats());
  }
  return io;
}

/// Copies the stream counters IngestBatchReport and DrainStreamReport share
/// (the members have the same names in both; see StreamStatsFields).
template <class Report>
void CopyStreamStats(const stream::StreamingStats& stats, Report* report) {
  report->total_entries = stats.entries;
  report->partitions = stats.sealed_partitions;
  report->buffered = stats.buffered;
  report->pending_tasks = stats.pending_tasks;
  report->seals_completed = stats.seals_completed;
  report->merges_completed = stats.merges_completed;
  report->seals_inflight = stats.seals_inflight;
  report->ingest_stalls = stats.ingest_stalls;
  report->ingest_rejects = stats.ingest_rejects;
  report->stall_ms_p50 = stats.stall_ms_p50;
  report->stall_ms_p99 = stats.stall_ms_p99;
}

}  // namespace

Result<std::unique_ptr<Service>> Service::Create(const std::string& root_dir,
                                                 size_t pool_bytes_per_index) {
  // Validate the root by creating it.
  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::StorageManager> probe,
                           storage::StorageManager::Create(root_dir));
  (void)probe;
  return std::unique_ptr<Service>(
      new Service(root_dir, pool_bytes_per_index));
}

Service::Service(std::string root_dir, size_t pool_bytes)
    : root_dir_(std::move(root_dir)), pool_bytes_(pool_bytes) {}

Service::~Service() = default;

std::shared_ptr<Service::IndexHandle> Service::FindHandle(
    const std::string& name) const {
  auto it = indexes_.find(name);
  if (it == indexes_.end() || it->second->building.load()) return nullptr;
  return it->second;
}

std::shared_ptr<Service::IndexHandle> Service::PinHandle(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return FindHandle(name);
}

Result<Service::IndexHandle*> Service::ReserveHandle(
    const std::string& index_name, const VariantSpec& spec) {
  if (indexes_.count(index_name) != 0) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  auto handle = std::make_shared<IndexHandle>();
  handle->spec = spec;
  handle->building.store(true);
  IndexHandle* raw_ptr = handle.get();
  indexes_[index_name] = std::move(handle);
  return raw_ptr;
}

Status Service::InitHandleStorage(const std::string& index_name,
                                  IndexHandle* handle) {
  COCONUT_ASSIGN_OR_RETURN(
      handle->storage,
      storage::StorageManager::Create(root_dir_ + "/idx_" + index_name));
  // A leftover directory is normally stale garbage from a crashed prior
  // run — but for a durable stream it is the durable state itself, and
  // create_stream means "open existing" when a log survives. The sharded
  // wrapper keeps its logs inside the per-shard subdirectories; the
  // unsharded log lives at the handle root.
  const bool durable_stream = handle->spec.durable &&
                              handle->spec.mode != StreamMode::kStatic;
  if (durable_stream) {
    handle->recovered =
        handle->spec.num_shards > 1
            ? ShardedStreamingIndex::HasDurableState(handle->storage.get(),
                                                     "stream")
            : handle->storage->Exists("wal");
  }
  if (!handle->recovered) {
    // Clear() can remove_all a large leftover directory from a crashed
    // prior run — one reason this runs outside the registry lock.
    COCONUT_RETURN_NOT_OK(handle->storage->Clear());
  }
  handle->pool = std::make_unique<storage::BufferPool>(pool_bytes_);
  if (durable_stream && handle->spec.num_shards == 1) {
    // Open (or create) the log first: its base frame says how many
    // raw-store ordinals the last truncation folded away, which is where
    // the recovered raw store must resume. The unacknowledged raw tail
    // past the durable prefix is cut; Recover() re-appends every logged
    // payload on top.
    stream::Wal::Options wal_options;
    wal_options.test_hook = handle->spec.wal_test_hook;
    COCONUT_ASSIGN_OR_RETURN(
        handle->wal,
        stream::Wal::Open(handle->storage.get(), "wal",
                          static_cast<uint32_t>(
                              handle->spec.sax.series_length),
                          std::move(wal_options)));
    if (handle->recovered) {
      COCONUT_ASSIGN_OR_RETURN(
          handle->raw,
          core::RawSeriesStore::OpenTruncated(handle->storage.get(), "raw",
                                              handle->spec.sax.series_length,
                                              handle->wal->base_ordinals()));
      return Status::OK();
    }
  }
  COCONUT_ASSIGN_OR_RETURN(
      handle->raw,
      core::RawSeriesStore::Create(handle->storage.get(), "raw",
                                   handle->spec.sax.series_length));
  return Status::OK();
}

Result<RegisterDatasetResponse> Service::RegisterDataset(
    const std::string& name, const series::SeriesCollection& data,
    const std::vector<int64_t>* timestamps) {
  COCONUT_RETURN_NOT_OK(ValidateName(name, "dataset"));
  COCONUT_RETURN_NOT_OK(ValidateDataset(data, timestamps));
  // The normalize-and-copy loop scales with the dataset (up to the wire
  // body cap), so it runs before the lock; the exclusive section is just
  // the duplicate check and the map insert. A racing duplicate wastes
  // the copy but stays correct.
  Dataset ds;
  ds.data = series::SeriesCollection(data.length());
  ds.data.Reserve(data.size());
  std::vector<float> buf;
  for (size_t i = 0; i < data.size(); ++i) {
    buf.assign(data[i].begin(), data[i].end());
    series::ZNormalize(buf);
    ds.data.Append(buf);
  }
  if (timestamps != nullptr) {
    ds.timestamps = *timestamps;
  } else {
    ds.timestamps.resize(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      ds.timestamps[i] = static_cast<int64_t>(i);
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (datasets_.count(name) != 0) {
    return Status::AlreadyExists("dataset '" + name + "' already registered");
  }
  datasets_[name] = std::make_shared<const Dataset>(std::move(ds));
  RegisterDatasetResponse response;
  response.dataset = name;
  response.series = data.size();
  response.series_length = data.length();
  return response;
}

Result<RegisterDatasetResponse> Service::RegisterDataset(
    const RegisterDatasetRequest& request) {
  return RegisterDataset(
      request.name, request.data,
      request.timestamps.has_value() ? &*request.timestamps : nullptr);
}

Result<BuildIndexReport> Service::BuildIndex(const std::string& index_name,
                                             const VariantSpec& spec,
                                             const std::string& dataset_name) {
  COCONUT_RETURN_NOT_OK(ValidateName(index_name, "index"));
  // Builds can take seconds to minutes, so the registry lock is held
  // exclusively only for the reserve and publish edges — and not at all
  // for the build itself (even a shared hold would park every writer,
  // and on writer-preferring shared_mutex implementations every reader,
  // for the full duration). The dataset snapshot is pinned via its
  // shared_ptr, so a concurrent DropDataset cannot free it, and the
  // reserved handle is invisible (FindHandle/ListIndexes skip building
  // handles) and undroppable (DropIndex refuses them), so the builder
  // thread owns it alone.
  IndexHandle* handle = nullptr;
  std::shared_ptr<const Dataset> dataset;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto ds_it = datasets_.find(dataset_name);
    if (ds_it == datasets_.end()) {
      return Status::NotFound("dataset '" + dataset_name +
                              "' not registered");
    }
    if (static_cast<int>(ds_it->second->data.length()) !=
        spec.sax.series_length) {
      return Status::InvalidArgument("spec series_length != dataset length");
    }
    dataset = ds_it->second;
    COCONUT_ASSIGN_OR_RETURN(handle, ReserveHandle(index_name, spec));
  }
  Result<BuildIndexReport> report = Status::Internal("build not started");
  if (const Status init = InitHandleStorage(index_name, handle); !init.ok()) {
    report = init;
  } else {
    report =
        BuildIndexOnHandle(index_name, spec, dataset_name, *dataset, handle);
  }
  if (report.ok()) {
    // A republished name restarts its snapshot-version counter, so any
    // cached answers from a previous life of this name must go before the
    // handle becomes visible.
    InvalidateCachedAnswers(index_name);
    handle->lock_free_reads = handle->reader->ConcurrentReadsSafe();
    std::unique_lock<std::shared_mutex> lock(mu_);
    handle->building.store(false);
  } else {
    TeardownHandle(index_name, handle);
  }
  return report;
}

Result<BuildIndexReport> Service::BuildIndexOnHandle(
    const std::string& index_name, const VariantSpec& spec,
    const std::string& dataset_name, const Dataset& dataset,
    IndexHandle* handle) {
  WallTimer timer;
  const storage::IoStats before = IoSnapshot(*handle);

  COCONUT_ASSIGN_OR_RETURN(
      std::unique_ptr<core::DataSeriesIndex> created,
      CreateStaticIndex(spec, handle->storage.get(), "index",
                        handle->pool.get(), handle->raw.get()));
  core::DataSeriesIndex& index = *created;
  handle->reader = std::move(created);
  // Sharded indexes route every series into a shard-local raw store; the
  // handle-level store would be a dead second copy of the dataset (doubled
  // disk and build I/O), so only unsharded indexes populate it.
  const bool shard_owned_raw = spec.num_shards > 1;
  for (size_t i = 0; i < dataset.data.size(); ++i) {
    if (!shard_owned_raw) {
      COCONUT_RETURN_NOT_OK(handle->raw->Append(dataset.data[i]).status());
    }
    COCONUT_RETURN_NOT_OK(
        index.Insert(i, dataset.data[i], dataset.timestamps[i]));
  }
  COCONUT_RETURN_NOT_OK(handle->raw->Flush());
  COCONUT_RETURN_NOT_OK(index.Finalize());
  handle->next_series_id = dataset.data.size();
  handle->build_seconds = timer.ElapsedSeconds();
  // Sharded shards did not exist at `before`, so their totals are this
  // build's.
  handle->build_io = IoSnapshot(*handle).Since(before);

  BuildIndexReport report;
  report.index = index_name;
  report.variant = VariantName(spec);
  report.dataset = dataset_name;
  report.shards = spec.num_shards;
  report.entries = index.num_entries();
  report.build_seconds = handle->build_seconds;
  report.index_bytes = index.index_bytes();
  report.total_bytes = handle->storage->TotalBytesOnDisk();
  report.io = handle->build_io;
  return report;
}

Result<BuildIndexReport> Service::BuildIndex(const BuildIndexRequest& request) {
  return BuildIndex(request.index, request.spec, request.dataset);
}

Result<CreateStreamResponse> Service::CreateStream(
    const std::string& stream_name, const VariantSpec& spec) {
  COCONUT_RETURN_NOT_OK(ValidateName(stream_name, "stream"));
  // Same reserve -> construct -> publish shape as BuildIndex: the handle
  // stays invisible while its streaming index is created outside the
  // exclusive lock (the builder thread is the only one touching it).
  IndexHandle* handle = nullptr;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    COCONUT_ASSIGN_OR_RETURN(handle, ReserveHandle(stream_name, spec));
  }
  // Failed creations normally tear the directory down so the name stays
  // reusable — but when the directory held durable state to recover, a
  // failed recovery (a corrupt log, a missing partition) must unregister
  // the name WITHOUT deleting the only copy of the log it failed to
  // read; the operator decides what to salvage.
  const auto discard = [this, &stream_name](IndexHandle* h) {
    if (!h->recovered) {
      TeardownHandle(stream_name, h);
      return;
    }
    h->reader.reset();
    h->wal.reset();
    h->raw.reset();
    h->pool.reset();
    h->storage.reset();
    std::unique_lock<std::shared_mutex> lock(mu_);
    indexes_.erase(stream_name);
  };
  if (const Status init = InitHandleStorage(stream_name, handle);
      !init.ok()) {
    discard(handle);
    return init;
  }
  // The spec the factory sees carries the process-local log pointer (the
  // registered handle->spec keeps wire fields only). Sharded durable
  // streams ignore it and open per-shard logs; the factory recovers them
  // from disk by itself.
  VariantSpec wired = spec;
  wired.wal = handle->wal.get();
  Result<std::unique_ptr<stream::StreamingIndex>> created =
      CreateStreamingIndex(wired, handle->storage.get(), "stream",
                           handle->pool.get(), handle->raw.get());
  if (!created.ok()) {
    // An invalid spec must not leave a half-initialized handle behind:
    // every registered handle carries a static or streaming index
    // (ListIndexes/Query/DropIndex rely on it), and the name and its
    // directory must stay reusable.
    discard(handle);
    return created.status();
  }
  handle->reader = created.TakeValue();
  if (auto* sharded_recovered =
          dynamic_cast<ShardedStreamingIndex*>(handle->stream());
      sharded_recovered != nullptr) {
    // 0 for a fresh sharded stream; max recovered global id + 1 after a
    // sharded recovery (the factory replayed the per-shard logs inside
    // Recover()).
    handle->next_series_id = sharded_recovered->recovered_next_series_id();
  } else if (handle->recovered) {
    // Unsharded recovery: the index above was created empty with the log
    // already wired in; restore the newest durable checkpoint and replay
    // the acknowledged suffix through the normal ingest path.
    stream::WalRecoverOutcome outcome;
    if (const Status st = handle->wal->Recover(handle->stream(),
                                               handle->raw.get(), &outcome);
        !st.ok()) {
      discard(handle);
      return st;
    }
    handle->next_series_id = outcome.ordinals;
  }
  // See BuildIndex: a recreated name restarts its version counter.
  InvalidateCachedAnswers(stream_name);
  handle->lock_free_reads = handle->reader->ConcurrentReadsSafe();
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    handle->building.store(false);
  }
  CreateStreamResponse response;
  response.stream = stream_name;
  response.variant = VariantName(spec);
  return response;
}

std::error_code Service::TeardownHandle(const std::string& name,
                                        IndexHandle* handle) {
  // The handle is tombstoned (building == true): lookups skip it, drops
  // refuse it, and the map entry keeps the name — and therefore the
  // directory — reserved. So this thread owns the handle, and the slow
  // parts (flushing destructors, deleting the directory tree) run
  // without the registry lock. Reset order mirrors the member destructor
  // order: index structures flush through the raw store / pool / storage
  // below them. storage is null when InitHandleStorage itself failed;
  // the directory path is deterministic either way.
  const std::string directory = handle->storage != nullptr
                                    ? handle->storage->directory()
                                    : root_dir_ + "/idx_" + name;
  handle->reader.reset();
  handle->wal.reset();
  handle->raw.reset();
  handle->pool.reset();
  handle->storage.reset();
  std::error_code ec;
  std::filesystem::remove_all(directory, ec);
  std::unique_lock<std::shared_mutex> lock(mu_);
  indexes_.erase(name);
  return ec;
}

Result<CreateStreamResponse> Service::CreateStream(
    const CreateStreamRequest& request) {
  return CreateStream(request.stream, request.spec);
}

Result<IngestBatchReport> Service::IngestBatch(
    const std::string& stream_name, const series::SeriesCollection& batch,
    const std::vector<int64_t>& timestamps) {
  // Pin the handle with one brief shared hold; the batch itself — which
  // kBlock backpressure can stall indefinitely — runs under the handle's
  // op mutex with no registry lock held, so it never parks registry
  // writers or unrelated indexes.
  std::shared_ptr<IndexHandle> handle = PinHandle(stream_name);
  if (handle == nullptr) {
    return Status::NotFound("stream '" + stream_name + "' not found");
  }
  COCONUT_RETURN_NOT_OK(
      ValidateIngest(batch, timestamps, handle->spec.sax.series_length));
  std::lock_guard<std::mutex> op_lock(handle->op_mutex);
  // A concurrent DropIndex tombstones, then waits on op_mutex: if it won
  // that race the members below are torn down — bounce like a miss.
  if (handle->building.load() || handle->stream() == nullptr) {
    return Status::NotFound("stream '" + stream_name + "' not found");
  }

  WallTimer timer;
  // A sharded stream routes every series into a shard-local raw store;
  // the handle-level store would be a dead second copy (same treatment as
  // the static sharded build path).
  const bool sharded = handle->spec.num_shards > 1;
  const storage::IoStats before = IoSnapshot(*handle);
  std::vector<float> buf;
  uint64_t admitted = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    buf.assign(batch[i].begin(), batch[i].end());
    series::ZNormalize(buf);
    // Series ids are raw-store ordinals (queries fetch by id), so take the
    // id Append assigned — or, sharded, the next global ordinal (the
    // wrapper appends to its shard's store and maps local ids back). If
    // the index then rejects the entry (a kStrict timestamp regression, a
    // backpressure reject), the ordinal stays burned as an unindexed raw
    // slot — ids of previously and subsequently admitted series keep
    // lining up either way.
    uint64_t id;
    if (sharded) {
      id = handle->next_series_id;
    } else {
      COCONUT_ASSIGN_OR_RETURN(id, handle->raw->Append(buf));
    }
    handle->next_series_id = id + 1;
    const Status st = handle->stream()->Ingest(id, buf, timestamps[i]);
    if (!st.ok() && handle->wal != nullptr) {
      // The ordinal above is burned whether or not the index admitted the
      // entry, so the log must burn it too — otherwise a replay would
      // assign later admits shifted ordinals. (Sharded streams journal
      // their own holes inside the wrapper; handle->wal is null there.)
      handle->wal->AppendHole();
    }
    if (st.code() == StatusCode::kResourceExhausted && admitted > 0) {
      // Reject-mode backpressure mid-batch: the admitted prefix cannot be
      // un-ingested, so report it truthfully (ingested < batch size, the
      // reject visible in ingest_rejects) instead of failing the whole
      // batch — a client that retried the full batch on 429 would
      // duplicate the prefix. A 429 therefore always means ZERO progress:
      // retry the same batch after draining.
      break;
    }
    COCONUT_RETURN_NOT_OK(st);
    ++admitted;
  }
  if (!sharded) {
    COCONUT_RETURN_NOT_OK(handle->raw->Flush());
  }
  // The durability ack gate: the report below tells the client the
  // admitted prefix is ingested, so its group commit must be on disk
  // first (one fdatasync per batch, fanned across shards when sharded).
  // No-op for non-durable streams.
  COCONUT_RETURN_NOT_OK(handle->stream()->CommitDurable());

  IngestBatchReport report;
  report.stream = stream_name;
  report.ingested = admitted;
  CopyStreamStats(handle->stream()->SnapshotStats(), &report);
  report.seconds = timer.ElapsedSeconds();
  report.io = IoSnapshot(*handle).Since(before);
  return report;
}

Result<IngestBatchReport> Service::IngestBatch(
    const IngestBatchRequest& request) {
  return IngestBatch(request.stream, request.batch, request.timestamps);
}

Result<DrainStreamReport> Service::DrainStream(const std::string& stream_name) {
  // Like IngestBatch: pin, release the registry, drain under op_mutex
  // only — a long drain barrier must not park registry writers.
  std::shared_ptr<IndexHandle> handle = PinHandle(stream_name);
  if (handle == nullptr) {
    return Status::NotFound("stream '" + stream_name + "' not found");
  }
  std::lock_guard<std::mutex> op_lock(handle->op_mutex);
  if (handle->building.load() || handle->stream() == nullptr) {
    return Status::NotFound("stream '" + stream_name + "' not found");
  }
  WallTimer timer;
  COCONUT_RETURN_NOT_OK(handle->stream()->FlushAll());
  // A drained stream is fully sealed and checkpointed, so the logs can
  // shrink to their base frame: recovering a drained stream replays
  // nothing.
  if (auto* sharded_drained =
          dynamic_cast<ShardedStreamingIndex*>(handle->stream());
      sharded_drained != nullptr) {
    COCONUT_RETURN_NOT_OK(sharded_drained->TruncateDurableLogs());
  } else if (handle->wal != nullptr) {
    COCONUT_RETURN_NOT_OK(handle->wal->TruncateBefore(handle->raw.get()));
  }
  const stream::StreamingStats stats = handle->stream()->SnapshotStats();
  DrainStreamReport report;
  report.stream = stream_name;
  report.drained = true;
  report.drain_seconds = timer.ElapsedSeconds();
  CopyStreamStats(stats, &report);
  report.index_bytes = handle->stream()->index_bytes();
  report.total_bytes = handle->storage->TotalBytesOnDisk();
  return report;
}

Result<DrainStreamReport> Service::DrainStream(
    const DrainStreamRequest& request) {
  return DrainStream(request.stream);
}

Result<QueryReport> Service::Query(const QueryRequest& request) {
  std::shared_ptr<IndexHandle> handle = PinHandle(request.index);
  if (handle == nullptr) {
    return Status::NotFound("index '" + request.index + "' not found");
  }
  // Validate at the API boundary: a malformed query used to reach the
  // index layers and misbehave there (empty spans, wrong-length distance
  // computations, zero candidate heaps).
  COCONUT_RETURN_NOT_OK(
      ValidateQuery(request, handle->spec.sax.series_length));
  // Cache probe, off the op mutex so a hit never waits behind a scan. A
  // hit requires the entry's snapshot version to equal the index's
  // current one, so a concurrent admission that lands just after this read
  // merely orders the (cached) query before the ingest — the answer is
  // still the exact answer at its version.
  CachedQuery cached(query_cache(), request);
  if (std::optional<QueryReport> hit =
          cached.Probe([&] { return ProbeVersion(*handle); })) {
    return *std::move(hit);
  }
  // Lock-free read path: an index that serves queries from epoch-published
  // snapshots never needs the per-handle op mutex, so a query cannot stall
  // behind a backpressure-blocked ingest batch. The whole read — tombstone
  // check, version bracket, scan, cache stamp — sits inside one epoch
  // guard, so DropIndex's Synchronize (which runs after the tombstone is
  // set) waits this query out before teardown and before the cache purge.
  // Heat-map capture mutates the handle's shared access tracker, so it
  // stays on the serialized path. There the fill bracket is what proves
  // the scan saw one snapshot: background seals/merges publish without
  // the op mutex.
  std::optional<stream::epoch::EpochGuard> guard;
  std::unique_lock<std::mutex> op_lock(handle->op_mutex, std::defer_lock);
  if (handle->lock_free_reads && !request.capture_heatmap) {
    guard.emplace();
  } else {
    op_lock.lock();
  }
  if (handle->building.load()) {
    return Status::NotFound("index '" + request.index + "' not found");
  }
  return cached.Fill([&] { return IndexVersion(*handle); },
                     [&] { return QueryLocked(request, handle.get()); });
}

std::optional<uint64_t> Service::ProbeVersion(const IndexHandle& handle) {
  // DropIndex tombstones the handle and then runs Synchronize before the
  // teardown resets the index, so a version read inside an epoch guard
  // that still sees the handle live cannot reach freed index state.
  stream::epoch::EpochGuard guard;
  if (handle.building.load()) return std::nullopt;
  return IndexVersion(handle);
}

uint64_t Service::IndexVersion(const IndexHandle& handle) {
  return handle.reader->snapshot_version();
}

Result<QueryReport> Service::QueryLocked(const QueryRequest& request,
                                         IndexHandle* handle) {
  std::vector<float> query = request.query;
  series::ZNormalize(query);

  core::SearchOptions options;
  if (request.window.has_value()) options.window = *request.window;
  options.approx_candidates = request.approx_candidates;

  core::QueryCounters counters;
  storage::AccessTracker* tracker = handle->storage->tracker();
  if (request.capture_heatmap) {
    if (handle->spec.num_shards > 1) {
      // Shard I/O never touches the handle-level tracker; a silent empty
      // heat map would read as an all-cold result, so refuse instead.
      return Status::NotSupported(
          "heat maps are not captured for sharded indexes yet");
    }
    tracker->Clear();
    tracker->Enable();
  }

  WallTimer timer;
  const storage::IoStats before = IoSnapshot(*handle);
  Result<core::SearchResult> result =
      request.exact ? handle->reader->ExactSearch(query, options, &counters)
                    : handle->reader->ApproxSearch(query, options, &counters);
  const double seconds = timer.ElapsedSeconds();
  if (request.capture_heatmap) tracker->Disable();
  if (!result.ok()) return result.status();
  const core::SearchResult& match = result.value();

  QueryReport report;
  report.index = request.index;
  report.exact = request.exact;
  report.found = match.found;
  if (match.found) {
    report.series_id = match.series_id;
    report.distance = std::sqrt(match.distance_sq);
    report.timestamp = match.timestamp;
  }
  report.seconds = seconds;
  report.io = IoSnapshot(*handle).Since(before);
  report.counters = counters;
  if (request.capture_heatmap) {
    // Snapshot: an async stream's background seals may still be recording.
    const std::vector<storage::AccessEvent> events =
        tracker->SnapshotEvents();
    report.has_heatmap = true;
    report.heatmap = BuildHeatMap(events, request.heatmap_time_bins,
                                  request.heatmap_location_bins);
    report.access_locality = AccessLocality(events);
  }
  return report;
}

void Service::QueryGroup(const std::vector<QueryRequest>& requests,
                         const std::vector<size_t>& ordinals,
                         std::vector<Result<QueryReport>>* results) {
  if (ordinals.empty()) return;
  // One pin for the whole group (every member names the same index).
  std::shared_ptr<IndexHandle> handle =
      PinHandle(requests[ordinals.front()].index);

  // Cache probe per ordinal before any bucketing: a hit is served verbatim
  // (it was filled by the single-query path, so batch_size stays 1) and
  // the miss set proceeds. Batched (shared-scan) results are never
  // inserted — their seconds/io fields are bucket-amortized, so caching
  // them would replay a different wire shape than a fresh single query.
  std::vector<size_t> pending;
  pending.reserve(ordinals.size());
  if (handle != nullptr) {
    for (size_t ordinal : ordinals) {
      CachedQuery cached(query_cache(), requests[ordinal]);
      if (std::optional<QueryReport> hit =
              cached.Probe([&] { return ProbeVersion(*handle); })) {
        (*results)[ordinal] = *std::move(hit);
        continue;
      }
      pending.push_back(ordinal);
    }
  } else {
    pending = ordinals;
  }

  // Bucket the requests that can share one exact scan: static index, exact,
  // no heatmap, valid query shape, valid window, and identical search
  // options (window + approx_candidates) — the batch path evaluates one
  // SearchOptions for the whole bucket. Everything else keeps the
  // per-request Query path, which also produces the precise per-request
  // validation errors.
  std::vector<size_t> fallback;
  std::vector<std::pair<const QueryRequest*, std::vector<size_t>>> buckets;
  if (handle != nullptr && !handle->is_stream()) {
    for (size_t ordinal : pending) {
      const QueryRequest& r = requests[ordinal];
      const bool eligible =
          r.exact && !r.capture_heatmap &&
          ValidateQuery(r, handle->spec.sax.series_length).ok();
      if (!eligible) {
        fallback.push_back(ordinal);
        continue;
      }
      bool placed = false;
      for (auto& [rep, members] : buckets) {
        const bool same_window =
            rep->window.has_value() == r.window.has_value() &&
            (!r.window.has_value() ||
             (rep->window->begin == r.window->begin &&
              rep->window->end == r.window->end));
        if (same_window && rep->approx_candidates == r.approx_candidates) {
          members.push_back(ordinal);
          placed = true;
          break;
        }
      }
      if (!placed) buckets.emplace_back(&r, std::vector<size_t>{ordinal});
    }
  } else {
    fallback = pending;
  }

  for (auto& [rep, members] : buckets) {
    (void)rep;
    if (members.size() >= 2) {
      QueryBatched(requests, members, handle.get(), results);
    } else {
      fallback.push_back(members.front());
    }
  }
  for (size_t ordinal : fallback) {
    (*results)[ordinal] = Query(requests[ordinal]);
  }
}

void Service::QueryBatched(const std::vector<QueryRequest>& requests,
                           const std::vector<size_t>& ordinals,
                           IndexHandle* handle,
                           std::vector<Result<QueryReport>>* results) {
  const size_t nq = ordinals.size();
  // Z-normalized copies; the index layers take spans over them.
  std::vector<std::vector<float>> queries(nq);
  std::vector<std::span<const float>> spans(nq);
  for (size_t i = 0; i < nq; ++i) {
    queries[i] = requests[ordinals[i]].query;
    series::ZNormalize(queries[i]);
    spans[i] = queries[i];
  }

  const QueryRequest& first = requests[ordinals.front()];
  core::SearchOptions options;
  if (first.window.has_value()) options.window = *first.window;
  options.approx_candidates = first.approx_candidates;

  std::lock_guard<std::mutex> op_lock(handle->op_mutex);
  if (handle->building.load()) {
    for (size_t ordinal : ordinals) {
      (*results)[ordinal] = Status::NotFound(
          "index '" + requests[ordinal].index + "' not found");
    }
    return;
  }

  std::vector<core::SearchResult> matches(nq);
  std::vector<core::QueryCounters> counters(nq);
  WallTimer timer;
  const storage::IoStats before = IoSnapshot(*handle);
  Status st =
      handle->reader->ExactSearchBatch(spans, options, matches, counters);
  const double seconds = timer.ElapsedSeconds();
  if (!st.ok()) {
    for (size_t ordinal : ordinals) (*results)[ordinal] = st;
    return;
  }
  const storage::IoStats delta = IoSnapshot(*handle).Since(before);

  for (size_t i = 0; i < nq; ++i) {
    const size_t ordinal = ordinals[i];
    QueryReport report;
    report.index = requests[ordinal].index;
    report.exact = true;
    report.found = matches[i].found;
    if (matches[i].found) {
      report.series_id = matches[i].series_id;
      report.distance = std::sqrt(matches[i].distance_sq);
      report.timestamp = matches[i].timestamp;
    }
    // The scan is shared: wall time is amortized evenly and the I/O delta
    // covers the whole bucket (per-query attribution is undefined there).
    report.seconds = seconds / static_cast<double>(nq);
    report.io = delta;
    report.counters = counters[i];
    report.batch_size = nq;
    (*results)[ordinal] = std::move(report);
  }
}

std::vector<Result<QueryReport>> Service::QueryBatch(
    const std::vector<QueryRequest>& requests, size_t threads) {
  std::vector<Result<QueryReport>> results(
      requests.size(),
      Result<QueryReport>(Status::Internal("not executed")));
  if (requests.empty()) return results;

  // Group request ordinals by target index. One task per group keeps every
  // index single-threaded (buffer pool pointers, tracker state and query
  // counters are per-index), while distinct indexes proceed in parallel.
  std::map<std::string, std::vector<size_t>> by_index;
  for (size_t i = 0; i < requests.size(); ++i) {
    by_index[requests[i].index].push_back(i);
  }

  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = std::min<size_t>(8, hw == 0 ? 1 : hw);
  }
  threads = std::min(threads, by_index.size());

  ThreadPool pool(threads);
  for (auto& [index_name, ordinals] : by_index) {
    (void)index_name;
    const std::vector<size_t>* group = &ordinals;
    pool.Submit([this, group, &requests, &results] {
      QueryGroup(requests, *group, &results);
    });
  }
  pool.Wait();
  return results;
}

QueryBatchResponse Service::QueryBatch(const QueryBatchRequest& request) {
  std::vector<Result<QueryReport>> results =
      QueryBatch(request.queries, static_cast<size_t>(request.threads));
  QueryBatchResponse response;
  response.results.reserve(results.size());
  for (Result<QueryReport>& result : results) {
    QueryBatchResponse::Entry entry;
    entry.ok = result.ok();
    if (result.ok()) {
      entry.report = result.TakeValue();
    } else {
      entry.error = ApiError::FromStatus(result.status());
    }
    response.results.push_back(std::move(entry));
  }
  return response;
}

Result<ListIndexesResponse> Service::ListIndexes() {
  // Snapshot the pinned handles under one brief shared hold, then read
  // each one under its op mutex with no registry lock — waiting out a
  // backpressure-stalled ingest on one index must not park the registry
  // for everyone else.
  std::vector<std::pair<std::string, std::shared_ptr<IndexHandle>>> pinned;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    pinned.reserve(indexes_.size());
    for (const auto& [name, handle] : indexes_) {
      // A building handle has reserved its name but carries no index yet;
      // its fields belong to the builder thread until published.
      if (handle->building.load()) continue;
      pinned.emplace_back(name, handle);
    }
  }
  ListIndexesResponse response;
  response.indexes.reserve(pinned.size());
  for (const auto& [name, handle] : pinned) {
    auto read_info = [&](const std::string& index_name) {
      ListIndexesResponse::IndexInfo info;
      info.name = index_name;
      info.variant = VariantName(handle->spec);
      info.streaming = handle->is_stream();
      info.shards = handle->spec.num_shards;
      info.entries = handle->reader->num_entries();
      info.total_bytes = handle->storage->TotalBytesOnDisk();
      response.indexes.push_back(std::move(info));
    };
    if (handle->lock_free_reads) {
      // Epoch-snapshot indexes answer stats reads lock-free; taking the op
      // mutex here would park the listing behind a backpressure-blocked
      // ingest batch on this one index.
      stream::epoch::EpochGuard guard;
      if (handle->building.load()) continue;
      read_info(name);
      continue;
    }
    // Serialize with per-index operations: sync streaming indexes update
    // entry counts without internal synchronization.
    std::lock_guard<std::mutex> op_lock(handle->op_mutex);
    // Dropped between the snapshot and here: skip, like the lookup miss.
    if (handle->building.load()) continue;
    read_info(name);
  }
  return response;
}

Result<DropIndexResponse> Service::DropIndex(const std::string& index_name) {
  std::shared_ptr<IndexHandle> handle;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = indexes_.find(index_name);
    if (it == indexes_.end()) {
      return Status::NotFound("index '" + index_name + "' not found");
    }
    if (it->second->building.load()) {
      // The owning thread (a build, or another drop) holds the handle
      // until it publishes or erases; erasing it here would free memory
      // that thread is using. 409: the name exists but is contended.
      return Status::AlreadyExists("index '" + index_name +
                                   "' is busy (building or being "
                                   "dropped); retry shortly");
    }
    handle = it->second;
    // Tombstone the handle: no new op can find it, and ops already past
    // the lookup hold the op_mutex this thread acquires next — so the
    // quiesce below waits out any in-flight batch (even one stalled on
    // backpressure) and the teardown after it runs exclusively, all
    // without the registry lock.
    handle->building.store(true);
  }
  DropIndexResponse response;
  response.index = index_name;
  std::string directory;
  {
    std::lock_guard<std::mutex> op_lock(handle->op_mutex);
    directory = handle->storage->directory();
    response.streaming = handle->is_stream();
    if (handle->is_stream()) {
      // Quiesce background seals/merges before tearing the stack down. A
      // drain error does not block the drop — the handle is going away
      // either way and its destructor waits for stragglers.
      (void)handle->stream()->FlushAll();
    }
    response.entries = handle->reader->num_entries();
    response.reclaimed_bytes = handle->storage->TotalBytesOnDisk();
  }
  // Wait out every lock-free reader that pinned the handle before the
  // tombstone above: each checks `building` inside its epoch guard, so any
  // query still touching this index's snapshots (or about to stamp its
  // cache) entered before the store and is drained here. After this
  // barrier no thread can insert a stale entry under this name or touch
  // the stack the teardown below destroys.
  stream::epoch::EpochManager::Global().Synchronize();
  // The name is about to disappear; purge its cached answers so a future
  // index reusing the name (whose version counter restarts at 0) can
  // never collide with this one's entries.
  InvalidateCachedAnswers(index_name);
  // op_mutex released before TeardownHandle takes mu_ exclusively (never
  // hold both): late ops that pinned the handle pre-tombstone bounce off
  // `building` under the op mutex instead of touching torn-down members.
  const std::error_code ec = TeardownHandle(index_name, handle.get());
  if (ec) {
    return Status::IoError("failed to remove '" + directory +
                           "': " + ec.message());
  }
  response.dropped = true;
  return response;
}

Result<DropIndexResponse> Service::DropIndex(const DropIndexRequest& request) {
  return DropIndex(request.index);
}

Result<DropDatasetResponse> Service::DropDataset(
    const std::string& dataset_name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = datasets_.find(dataset_name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + dataset_name + "' not registered");
  }
  DropDatasetResponse response;
  response.dataset = dataset_name;
  response.series = it->second->data.size();
  datasets_.erase(it);
  response.dropped = true;
  return response;
}

Result<DropDatasetResponse> Service::DropDataset(
    const DropDatasetRequest& request) {
  return DropDataset(request.dataset);
}

core::DataSeriesIndex* Service::static_index(const std::string& name) {
  std::shared_ptr<IndexHandle> handle = PinHandle(name);
  return handle == nullptr
             ? nullptr
             : dynamic_cast<core::DataSeriesIndex*>(handle->reader.get());
}

stream::StreamingIndex* Service::stream_index(const std::string& name) {
  std::shared_ptr<IndexHandle> handle = PinHandle(name);
  return handle == nullptr ? nullptr : handle->stream();
}

storage::StorageManager* Service::index_storage(const std::string& name) {
  std::shared_ptr<IndexHandle> handle = PinHandle(name);
  return handle == nullptr ? nullptr : handle->storage.get();
}

}  // namespace api
}  // namespace palm
}  // namespace coconut
