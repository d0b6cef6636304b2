#ifndef COCONUT_COMMON_JSON_H_
#define COCONUT_COMMON_JSON_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace coconut {

/// Streaming JSON writer producing compact, valid JSON. The Palm algorithms
/// server serializes every response through this class, mirroring the
/// GUI<->server JSON protocol of the paper without an HTTP transport.
///
/// Usage:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("name"); w.String("ctree");
///   w.Key("seconds"); w.Double(1.25);
///   w.EndObject();
///   std::string payload = w.TakeString();
class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Writes an object key; must be followed by exactly one value.
  void Key(const std::string& name);

  void String(const std::string& value);
  void Int(int64_t value);
  void Uint(uint64_t value);
  void Double(double value);
  void Bool(bool value);
  void Null();

  /// Convenience: Key + value in one call.
  void Field(const std::string& name, const std::string& value) {
    Key(name);
    String(value);
  }
  void Field(const std::string& name, int64_t value) {
    Key(name);
    Int(value);
  }
  void Field(const std::string& name, uint64_t value) {
    Key(name);
    Uint(value);
  }
  void Field(const std::string& name, double value) {
    Key(name);
    Double(value);
  }
  void Field(const std::string& name, bool value) {
    Key(name);
    Bool(value);
  }

  /// Returns the accumulated JSON text and resets the writer.
  std::string TakeString();

  /// Read-only view of the buffer (for tests).
  const std::string& str() const { return out_; }

 private:
  void MaybeComma();
  static void AppendEscaped(std::string* out, const std::string& s);

  std::string out_;
  // Tracks whether a value was already emitted at each nesting depth, so a
  // comma is written before subsequent siblings.
  std::vector<bool> needs_comma_{false};
  bool pending_key_ = false;
};

/// A parsed JSON document — the read-side counterpart of JsonWriter. The
/// Palm service layer parses every wire request into a JsonValue before
/// converting it to a typed request struct, so malformed input is rejected
/// in one place with one error shape.
///
/// Numbers remember how they were spelled: integer literals that fit are
/// held as int64/uint64 (ids and byte counts round-trip exactly), anything
/// else as double. AsDouble()/AsInt64()/AsUint64() convert across the three
/// representations when the value is exactly representable.
///
/// All-numeric arrays — the dominant shape on this wire (series matrices,
/// query vectors, timestamp columns, heat-map rows) — are held in a packed
/// representation (kNumArray): one double plus a one-byte spelling tag per
/// element instead of a full JsonValue node (~160 bytes each), cutting the
/// DOM for a parsed series matrix by more than an order of magnitude. One
/// number scanner serves scalars and array elements alike: it validates
/// and converts each number in place on the input, with no allocation per
/// number, and the parser appends array elements straight to the packed
/// columns, building no node for them. An
/// integer element participates only when its value survives the double
/// round-trip (|v| <= 2^53); otherwise the whole array falls back to nodes
/// so AsInt64/AsUint64 and Dump stay exact. The spelling tags make
/// Dump() byte-identical to the node form. Packed arrays answer
/// is_array(), array_size() and the element accessors like node arrays,
/// but array() itself — a reference into node storage — returns an empty
/// vector for them: iterate with array_size()/element accessors (or the
/// packed_numbers() fast path) instead.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray,
                    kObject, kNumArray };

  /// How a packed numeric element was spelled (drives exact re-emission).
  enum class NumTag : uint8_t { kInt = 0, kUint = 1, kDouble = 2 };

  using Array = std::vector<JsonValue>;
  /// Object members in document order (duplicate keys rejected at parse).
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() = default;
  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeInt(int64_t v);
  static JsonValue MakeUint(uint64_t v);
  static JsonValue MakeDouble(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(Array v);
  static JsonValue MakeObject(Object v);
  /// Packed numeric array; data/tags are parallel and every tagged integer
  /// must be exactly representable as double (the parser guarantees this).
  static JsonValue MakeNumArray(std::vector<double> data,
                                std::vector<uint8_t> tags);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint ||
           kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const {
    return kind_ == Kind::kArray || kind_ == Kind::kNumArray;
  }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_packed_array() const { return kind_ == Kind::kNumArray; }

  /// Typed accessors; calling one on the wrong kind is a programming error
  /// (callers check kind()/is_*() first — the typed API layer does).
  bool bool_value() const { return bool_; }
  const std::string& string_value() const { return string_; }
  const Array& array() const { return array_; }
  const Object& object() const { return object_; }
  Array& mutable_array() { return array_; }
  Object& mutable_object() { return object_; }

  /// Numeric conversions. AsDouble works for every numeric kind (with the
  /// usual precision loss for 64-bit extremes); the integer accessors fail
  /// with InvalidArgument when the value is not exactly representable
  /// (fractional, out of range, or negative for AsUint64).
  double AsDouble() const;
  Result<int64_t> AsInt64() const;
  Result<uint64_t> AsUint64() const;

  /// Uniform array element access, valid for both representations (node
  /// and packed). The element conversions follow the same rules as the
  /// scalar As* accessors.
  size_t array_size() const;
  bool element_is_number(size_t i) const;
  double NumberAt(size_t i) const;
  Result<int64_t> ElementAsInt64(size_t i) const;
  Result<uint64_t> ElementAsUint64(size_t i) const;
  /// Packed payload; empty for node arrays — fast path for consumers that
  /// only need the values as doubles (series matrices, query vectors).
  std::span<const double> packed_numbers() const {
    return kind_ == Kind::kNumArray ? std::span<const double>(num_data_)
                                    : std::span<const double>();
  }

  /// Approximate heap bytes retained by this DOM (recursive vector/string
  /// capacities; allocator headers and the root node itself excluded — a
  /// lower bound). Pins the packed-array memory win in tests.
  size_t DeepMemoryBytes() const;

  /// Object member lookup; nullptr when absent or this is not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Serializes this value through `writer` (compact form, same escaping
  /// as the rest of the server's output).
  void WriteTo(JsonWriter* writer) const;

  /// Compact serialization of this value.
  std::string Dump() const;

 private:
  /// Element i of a packed array materialized as a scalar node.
  JsonValue PackedElement(size_t i) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
  /// kNumArray payload: parallel value/spelling-tag columns.
  std::vector<double> num_data_;
  std::vector<uint8_t> num_tags_;
};

/// Parses one complete JSON document (trailing non-whitespace is an
/// error). Accepts the full JSON grammar: nested arrays/objects, string
/// escapes including \uXXXX (UTF-16 surrogate pairs are combined and
/// re-encoded as UTF-8), and int/uint/double numeric literals. Duplicate
/// object keys and documents nested deeper than 128 levels are rejected —
/// a wire-facing parser fails loudly instead of guessing.
Result<JsonValue> JsonParse(std::string_view text);

}  // namespace coconut

#endif  // COCONUT_COMMON_JSON_H_
