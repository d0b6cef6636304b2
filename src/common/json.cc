#include "common/json.h"

#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <locale.h>  // NOLINT: newlocale/strtod_l need the POSIX header.
#include <unordered_set>

namespace coconut {

namespace {

/// Parses a double from a pre-validated JSON number token, independent of
/// the process locale. strtod honors LC_NUMERIC, so a host locale with a
/// ',' decimal separator would silently mis-parse every wire double (stop
/// at the '.'); std::from_chars is locale-free by definition. The
/// locale-pinned strtod_l fallback covers toolchains without
/// floating-point from_chars and the out-of-range edge (where it
/// reproduces classic strtod results: ±HUGE_VAL on overflow, ±0 on
/// underflow — the caller's isfinite check rejects the former). The token
/// is a span of the input, so the fallback copies it to get the
/// terminator strtod needs; the from_chars path allocates nothing.
bool ParseDoubleToken(const char* begin, const char* end, double* out) {
#if defined(__cpp_lib_to_chars)
  {
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec == std::errc() && ptr == end) {
      *out = value;
      return true;
    }
  }
#endif
  static const locale_t c_locale =
      newlocale(LC_ALL_MASK, "C", static_cast<locale_t>(nullptr));
  const std::string token(begin, end);
  char* stop = nullptr;
  errno = 0;
  const double value =
      c_locale != static_cast<locale_t>(nullptr)
          ? strtod_l(token.c_str(), &stop, c_locale)
          : std::strtod(token.c_str(), &stop);
  if (stop != token.c_str() + token.size()) return false;
  *out = value;
  return true;
}

}  // namespace

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!needs_comma_.empty() && needs_comma_.back()) out_ += ',';
  if (!needs_comma_.empty()) needs_comma_.back() = true;
}

void JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  needs_comma_.push_back(false);
}

void JsonWriter::EndObject() {
  out_ += '}';
  needs_comma_.pop_back();
}

void JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  needs_comma_.push_back(false);
}

void JsonWriter::EndArray() {
  out_ += ']';
  needs_comma_.pop_back();
}

void JsonWriter::Key(const std::string& name) {
  MaybeComma();
  out_ += '"';
  AppendEscaped(&out_, name);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::String(const std::string& value) {
  MaybeComma();
  out_ += '"';
  AppendEscaped(&out_, value);
  out_ += '"';
}

void JsonWriter::Int(int64_t value) {
  MaybeComma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  out_ += buf;
}

void JsonWriter::Uint(uint64_t value) {
  MaybeComma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out_ += buf;
}

void JsonWriter::Double(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_ += "null";  // JSON has no NaN/Inf literal.
    return;
  }
  char buf[64];
#if defined(__cpp_lib_to_chars)
  // Shortest round-trip form: parsing the emitted bytes recovers the
  // exact double. The distributed coordinator folds query distances and
  // stats read back off this wire, so lossy formatting here would break
  // the bit-for-bit equivalence with a single-process deployment (and it
  // is locale-proof, unlike snprintf).
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec == std::errc()) {
    out_.append(buf, ptr);
    return;
  }
#endif
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Locale-pinned fallback: undo a ',' decimal separator if LC_NUMERIC
  // slipped one in.
  for (char* p = buf; *p != '\0'; ++p) {
    if (*p == ',') *p = '.';
  }
  out_ += buf;
}

void JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
}

std::string JsonWriter::TakeString() {
  std::string result = std::move(out_);
  out_.clear();
  needs_comma_.assign(1, false);
  pending_key_ = false;
  return result;
}

// ----------------------------------------------------------- JsonValue

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::MakeInt(int64_t v) {
  JsonValue j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}

JsonValue JsonValue::MakeUint(uint64_t v) {
  JsonValue j;
  j.kind_ = Kind::kUint;
  j.uint_ = v;
  return j;
}

JsonValue JsonValue::MakeDouble(double v) {
  JsonValue j;
  j.kind_ = Kind::kDouble;
  j.double_ = v;
  return j;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::MakeArray(Array v) {
  JsonValue j;
  j.kind_ = Kind::kArray;
  j.array_ = std::move(v);
  return j;
}

JsonValue JsonValue::MakeObject(Object v) {
  JsonValue j;
  j.kind_ = Kind::kObject;
  j.object_ = std::move(v);
  return j;
}

JsonValue JsonValue::MakeNumArray(std::vector<double> data,
                                  std::vector<uint8_t> tags) {
  JsonValue j;
  j.kind_ = Kind::kNumArray;
  j.num_data_ = std::move(data);
  j.num_tags_ = std::move(tags);
  return j;
}

JsonValue JsonValue::PackedElement(size_t i) const {
  const double d = num_data_[i];
  switch (static_cast<NumTag>(num_tags_[i])) {
    case NumTag::kInt:
      return MakeInt(static_cast<int64_t>(d));
    case NumTag::kUint:
      return MakeUint(static_cast<uint64_t>(d));
    case NumTag::kDouble:
      break;
  }
  return MakeDouble(d);
}

size_t JsonValue::array_size() const {
  return kind_ == Kind::kNumArray ? num_data_.size() : array_.size();
}

bool JsonValue::element_is_number(size_t i) const {
  return kind_ == Kind::kNumArray ? true : array_[i].is_number();
}

double JsonValue::NumberAt(size_t i) const {
  return kind_ == Kind::kNumArray ? num_data_[i] : array_[i].AsDouble();
}

Result<int64_t> JsonValue::ElementAsInt64(size_t i) const {
  return kind_ == Kind::kNumArray ? PackedElement(i).AsInt64()
                                  : array_[i].AsInt64();
}

Result<uint64_t> JsonValue::ElementAsUint64(size_t i) const {
  return kind_ == Kind::kNumArray ? PackedElement(i).AsUint64()
                                  : array_[i].AsUint64();
}

size_t JsonValue::DeepMemoryBytes() const {
  // libstdc++ keeps strings up to 15 chars inline; longer ones own a heap
  // block of capacity+1 bytes. Close enough for the bound this provides.
  auto string_heap = [](const std::string& s) -> size_t {
    return s.capacity() > 15 ? s.capacity() + 1 : 0;
  };
  size_t bytes = string_heap(string_);
  bytes += num_data_.capacity() * sizeof(double);
  bytes += num_tags_.capacity();
  bytes += array_.capacity() * sizeof(JsonValue);
  for (const JsonValue& v : array_) bytes += v.DeepMemoryBytes();
  bytes += object_.capacity() * sizeof(Member);
  for (const Member& m : object_) {
    bytes += string_heap(m.first);
    bytes += m.second.DeepMemoryBytes();
  }
  return bytes;
}

double JsonValue::AsDouble() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kUint:
      return static_cast<double>(uint_);
    case Kind::kDouble:
      return double_;
    default:
      return 0.0;
  }
}

Result<int64_t> JsonValue::AsInt64() const {
  switch (kind_) {
    case Kind::kInt:
      return int_;
    case Kind::kUint:
      if (uint_ > static_cast<uint64_t>(INT64_MAX)) {
        return Status::InvalidArgument("number exceeds int64 range");
      }
      return static_cast<int64_t>(uint_);
    case Kind::kDouble: {
      const double d = double_;
      const int64_t as_int = static_cast<int64_t>(d);
      if (d < -9.2233720368547758e18 || d >= 9.2233720368547758e18 ||
          static_cast<double>(as_int) != d) {
        return Status::InvalidArgument("number is not an exact int64");
      }
      return as_int;
    }
    default:
      return Status::InvalidArgument("value is not a number");
  }
}

Result<uint64_t> JsonValue::AsUint64() const {
  switch (kind_) {
    case Kind::kInt:
      if (int_ < 0) {
        return Status::InvalidArgument("negative number where uint expected");
      }
      return static_cast<uint64_t>(int_);
    case Kind::kUint:
      return uint_;
    case Kind::kDouble: {
      const double d = double_;
      if (d < 0.0 || d >= 1.8446744073709552e19) {
        return Status::InvalidArgument("number exceeds uint64 range");
      }
      const uint64_t as_uint = static_cast<uint64_t>(d);
      if (static_cast<double>(as_uint) != d) {
        return Status::InvalidArgument("number is not an exact uint64");
      }
      return as_uint;
    }
    default:
      return Status::InvalidArgument("value is not a number");
  }
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void JsonValue::WriteTo(JsonWriter* writer) const {
  switch (kind_) {
    case Kind::kNull:
      writer->Null();
      break;
    case Kind::kBool:
      writer->Bool(bool_);
      break;
    case Kind::kInt:
      writer->Int(int_);
      break;
    case Kind::kUint:
      writer->Uint(uint_);
      break;
    case Kind::kDouble:
      writer->Double(double_);
      break;
    case Kind::kString:
      writer->String(string_);
      break;
    case Kind::kArray:
      writer->BeginArray();
      for (const JsonValue& v : array_) v.WriteTo(writer);
      writer->EndArray();
      break;
    case Kind::kNumArray:
      // The spelling tags re-emit each element exactly as the node form
      // would have, so packing never changes serialized output.
      writer->BeginArray();
      for (size_t i = 0; i < num_data_.size(); ++i) {
        switch (static_cast<NumTag>(num_tags_[i])) {
          case NumTag::kInt:
            writer->Int(static_cast<int64_t>(num_data_[i]));
            break;
          case NumTag::kUint:
            writer->Uint(static_cast<uint64_t>(num_data_[i]));
            break;
          case NumTag::kDouble:
            writer->Double(num_data_[i]);
            break;
        }
      }
      writer->EndArray();
      break;
    case Kind::kObject:
      writer->BeginObject();
      for (const Member& m : object_) {
        writer->Key(m.first);
        m.second.WriteTo(writer);
      }
      writer->EndObject();
      break;
  }
}

std::string JsonValue::Dump() const {
  JsonWriter w;
  WriteTo(&w);
  return w.TakeString();
}

// -------------------------------------------------------------- parser

namespace {

constexpr int kMaxParseDepth = 128;

/// Recursive-descent parser over the input span. Errors carry the byte
/// offset of the failure so a malformed wire request is diagnosable.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    COCONUT_RETURN_NOT_OK(ParseValue(0, &value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(int depth, JsonValue* out) {
    if (depth > kMaxParseDepth) return Fail("document nested too deeply");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        COCONUT_RETURN_NOT_OK(ParseString(&s));
        *out = JsonValue::MakeString(std::move(s));
        return Status::OK();
      }
      case 't':
        COCONUT_RETURN_NOT_OK(Literal("true"));
        *out = JsonValue::MakeBool(true);
        return Status::OK();
      case 'f':
        COCONUT_RETURN_NOT_OK(Literal("false"));
        *out = JsonValue::MakeBool(false);
        return Status::OK();
      case 'n':
        COCONUT_RETURN_NOT_OK(Literal("null"));
        *out = JsonValue::MakeNull();
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("invalid literal");
    }
    pos_ += word.size();
    return Status::OK();
  }

  Status ParseObject(int depth, JsonValue* out) {
    ++pos_;  // '{'
    JsonValue::Object members;
    // Duplicate detection must stay O(1) per key: a linear scan over the
    // members would let one size-capped request with millions of keys pin
    // a parser thread for minutes (quadratic CPU DoS). The set holds
    // copies because vector growth moves the member strings.
    std::unordered_set<std::string> seen;
    SkipWhitespace();
    if (Consume('}')) {
      *out = JsonValue::MakeObject(std::move(members));
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key string");
      }
      std::string key;
      COCONUT_RETURN_NOT_OK(ParseString(&key));
      if (!seen.insert(key).second) {
        return Fail("duplicate object key '" + key + "'");
      }
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      SkipWhitespace();
      JsonValue value;
      COCONUT_RETURN_NOT_OK(ParseValue(depth + 1, &value));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Fail("expected ',' or '}' in object");
    }
    *out = JsonValue::MakeObject(std::move(members));
    return Status::OK();
  }

  Status ParseArray(int depth, JsonValue* out) {
    ++pos_;  // '['
    // Optimistically pack into the flat numeric representation — the
    // dominant wire shape (series matrices, query vectors) would
    // otherwise cost a full JsonValue node per number. Numbers are
    // scanned straight into the columns; the first element that doesn't
    // fit demotes everything parsed so far to nodes. The columns grow
    // from empty: sizing them from a sibling row would let a hostile
    // [[<many numbers>],[1],[1],...] multiply its memory.
    std::vector<double> data;
    std::vector<uint8_t> tags;
    bool packed = true;
    JsonValue::Array elements;
    SkipWhitespace();
    if (Consume(']')) {
      // Empty arrays stay node-backed (nothing to pack).
      *out = JsonValue::MakeArray(std::move(elements));
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      // Elements past the depth cap go through ParseValue, which rejects
      // them.
      if (packed && depth < kMaxParseDepth && AtNumber()) {
        Number number;
        COCONUT_RETURN_NOT_OK(ScanNumber(&number));
        if (number.Packable()) {
          data.push_back(number.value);
          tags.push_back(static_cast<uint8_t>(number.tag));
        } else {
          packed = false;
          Unpack(&data, &tags, &elements);
          elements.push_back(number.ToNode());
        }
      } else {
        JsonValue value;
        COCONUT_RETURN_NOT_OK(ParseValue(depth + 1, &value));
        if (packed) {
          packed = false;
          Unpack(&data, &tags, &elements);
        }
        elements.push_back(std::move(value));
      }
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Fail("expected ',' or ']' in array");
    }
    *out = packed ? JsonValue::MakeNumArray(std::move(data), std::move(tags))
                  : JsonValue::MakeArray(std::move(elements));
    return Status::OK();
  }

  /// Moves packed columns into node storage (the demotion of an array
  /// that turned out not to be all-numeric).
  static void Unpack(std::vector<double>* data, std::vector<uint8_t>* tags,
                     JsonValue::Array* elements) {
    elements->reserve(data->size() + 1);
    for (size_t i = 0; i < data->size(); ++i) {
      const double d = (*data)[i];
      switch (static_cast<JsonValue::NumTag>((*tags)[i])) {
        case JsonValue::NumTag::kInt:
          elements->push_back(JsonValue::MakeInt(static_cast<int64_t>(d)));
          break;
        case JsonValue::NumTag::kUint:
          elements->push_back(JsonValue::MakeUint(static_cast<uint64_t>(d)));
          break;
        case JsonValue::NumTag::kDouble:
          elements->push_back(JsonValue::MakeDouble(d));
          break;
      }
    }
    data->clear();
    tags->clear();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Fail("raw control character in string");
      if (c != '\\') {
        *out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          uint32_t code = 0;
          COCONUT_RETURN_NOT_OK(ParseHex4(&code));
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired UTF-16 high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            COCONUT_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid UTF-16 low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("unpaired UTF-16 low surrogate");
          }
          AppendUtf8(out, code);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, uint32_t code) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  /// One scanned number: how it was spelled and its value. Integer
  /// spellings also keep their exact 64-bit value.
  struct Number {
    JsonValue::NumTag tag = JsonValue::NumTag::kDouble;
    double value = 0.0;
    int64_t int_value = 0;    // kInt
    uint64_t uint_value = 0;  // kUint

    /// True when the number can join a packed array without changing any
    /// observable behavior: doubles always; integers only when they
    /// survive the double round trip (|v| <= 2^53), so the exact integer
    /// accessors and Dump() spelling are preserved.
    bool Packable() const {
      constexpr int64_t kExact = int64_t{1} << 53;
      switch (tag) {
        case JsonValue::NumTag::kInt:
          return int_value >= -kExact && int_value <= kExact;
        case JsonValue::NumTag::kUint:
          return uint_value <= static_cast<uint64_t>(kExact);
        case JsonValue::NumTag::kDouble:
          break;
      }
      return true;
    }

    JsonValue ToNode() const {
      switch (tag) {
        case JsonValue::NumTag::kInt:
          return JsonValue::MakeInt(int_value);
        case JsonValue::NumTag::kUint:
          return JsonValue::MakeUint(uint_value);
        case JsonValue::NumTag::kDouble:
          break;
      }
      return JsonValue::MakeDouble(value);
    }
  };

  bool AtNumber() const {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    return c == '-' || (c >= '0' && c <= '9');
  }

  Status ParseNumber(JsonValue* out) {
    Number number;
    COCONUT_RETURN_NOT_OK(ScanNumber(&number));
    *out = number.ToNode();
    return Status::OK();
  }

  /// The one number scanner: validates the JSON number grammar on the
  /// input span and converts it in place, with no copy of the token.
  /// Integer literals that fit are held as int64 (negative spelling) or
  /// uint64; anything else — fractions, exponents, integers wider than
  /// 64 bits — as double.
  Status ScanNumber(Number* out) {
    const size_t start = pos_;
    const bool negative = Consume('-');
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Fail("invalid number");
    }
    // Leading zero must not be followed by another digit (JSON grammar).
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      return Fail("leading zero in number");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Fail("digits required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Fail("digits required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      if (negative) {
        int64_t v = 0;
        const auto [ptr, ec] = std::from_chars(first, last, v);
        if (ec == std::errc() && ptr == last) {
          *out = Number{JsonValue::NumTag::kInt, static_cast<double>(v), v, 0};
          return Status::OK();
        }
      } else {
        uint64_t v = 0;
        const auto [ptr, ec] = std::from_chars(first, last, v);
        if (ec == std::errc() && ptr == last) {
          *out = Number{JsonValue::NumTag::kUint, static_cast<double>(v), 0, v};
          return Status::OK();
        }
      }
      // Fall through: integer literal wider than 64 bits -> double.
    }
    double d = 0.0;
    if (!ParseDoubleToken(first, last, &d)) return Fail("invalid number");
    if (!std::isfinite(d)) return Fail("number out of double range");
    *out = Number{JsonValue::NumTag::kDouble, d, 0, 0};
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> JsonParse(std::string_view text) {
  return JsonParser(text).Parse();
}

void JsonWriter::AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace coconut
