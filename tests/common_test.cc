#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <charconv>
#include <clocale>
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace coconut {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kAlreadyExists),
               "AlreadyExists");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotSupported), "NotSupported");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnauthenticated),
               "Unauthenticated");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Status UseParsed(int v, int* out) {
  COCONUT_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  *out = parsed * 2;
  return Status::OK();
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 21);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ParsePositive(-3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseParsed(4, &out).ok());
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(UseParsed(-1, &out).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = r.TakeValue();
  EXPECT_EQ(*v, 7);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(1234);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

// ---------------------------------------------------------------- JsonWriter

TEST(JsonTest, FlatObject) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", std::string("ctree"));
  w.Field("entries", static_cast<int64_t>(1024));
  w.Field("ratio", 0.5);
  w.Field("ok", true);
  w.EndObject();
  EXPECT_EQ(w.TakeString(),
            R"({"name":"ctree","entries":1024,"ratio":0.5,"ok":true})");
}

TEST(JsonTest, NestedStructures) {
  JsonWriter w;
  w.BeginObject();
  w.Key("runs");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.BeginObject();
  w.Field("k", std::string("v"));
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.TakeString(), R"({"runs":[1,2,{"k":"v"}]})");
}

TEST(JsonTest, EscapesSpecialCharacters) {
  JsonWriter w;
  w.BeginObject();
  w.Field("s", std::string("a\"b\\c\nd"));
  w.EndObject();
  EXPECT_EQ(w.TakeString(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonTest, NonFiniteDoubleBecomesNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[null,null]");
}

TEST(JsonTest, TakeStringResetsWriter) {
  JsonWriter w;
  w.BeginArray();
  w.Int(1);
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[1]");
  w.BeginArray();
  w.Int(2);
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[2]");
}

// ---------------------------------------------------------------- WallTimer

TEST(TimerTest, MeasuresNonNegativeAndMonotone) {
  WallTimer t;
  double a = t.ElapsedSeconds();
  double b = t.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

// --------------------------------------------------------- deferred tasks

TEST(SerialExecutorTest, RunsTasksInSubmissionOrderAcrossPoolThreads) {
  ThreadPool pool(4);
  SerialExecutor strand(&pool);
  std::vector<int> order;  // Unsynchronized on purpose: the strand is the
                           // serialization, which TSan verifies in CI.
  for (int i = 0; i < 200; ++i) {
    strand.Submit([&order, i] { order.push_back(i); });
  }
  strand.Drain();
  EXPECT_EQ(strand.pending(), 0u);
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(SerialExecutorTest, DrainIsReusable) {
  ThreadPool pool(2);
  SerialExecutor strand(&pool);
  int count = 0;
  strand.Submit([&count] { ++count; });
  strand.Drain();
  EXPECT_EQ(count, 1);
  strand.Submit([&count] { ++count; });
  strand.Drain();
  EXPECT_EQ(count, 2);
}

TEST(WaitGroupTest, WaitBlocksUntilAllDone) {
  ThreadPool pool(3);
  WaitGroup wg;
  std::atomic<int> done{0};
  wg.Add(20);
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&wg, &done] {
      done.fetch_add(1);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(done.load(), 20);
  EXPECT_EQ(wg.pending(), 0u);
}

// ------------------------------------------------- JsonValue / JsonParse

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(JsonParse("null").TakeValue().is_null());
  EXPECT_EQ(JsonParse("true").TakeValue().bool_value(), true);
  EXPECT_EQ(JsonParse("false").TakeValue().bool_value(), false);
  EXPECT_EQ(JsonParse("\"hi\"").TakeValue().string_value(), "hi");

  JsonValue v = JsonParse("42").TakeValue();
  EXPECT_EQ(v.kind(), JsonValue::Kind::kUint);
  EXPECT_EQ(v.AsUint64().value(), 42u);
  EXPECT_EQ(v.AsInt64().value(), 42);
  EXPECT_EQ(v.AsDouble(), 42.0);

  v = JsonParse("-17").TakeValue();
  EXPECT_EQ(v.kind(), JsonValue::Kind::kInt);
  EXPECT_EQ(v.AsInt64().value(), -17);
  EXPECT_FALSE(v.AsUint64().ok());

  v = JsonParse("3.5").TakeValue();
  EXPECT_EQ(v.kind(), JsonValue::Kind::kDouble);
  EXPECT_EQ(v.AsDouble(), 3.5);

  v = JsonParse("1e3").TakeValue();
  EXPECT_EQ(v.AsDouble(), 1000.0);
  EXPECT_EQ(v.AsInt64().value(), 1000);

  // 64-bit extremes round-trip exactly.
  v = JsonParse("18446744073709551615").TakeValue();
  EXPECT_EQ(v.AsUint64().value(), UINT64_MAX);
  EXPECT_FALSE(v.AsInt64().ok());
  v = JsonParse("-9223372036854775808").TakeValue();
  EXPECT_EQ(v.AsInt64().value(), INT64_MIN);
}

// Regression: number parsing used to route through locale-sensitive
// strtod, so a process whose C locale uses a decimal *comma* (any
// embedder can flip it — GUI toolkits routinely do) rejected every
// fractional JSON number on the wire. Parsing now goes through
// std::from_chars (locale-pinned strtod_l fallback), and the writer
// through std::to_chars, so both directions are locale-independent.
TEST(JsonParseTest, NumbersAreLocaleIndependent) {
  const char* previous = std::setlocale(LC_ALL, nullptr);
  const std::string restore = previous != nullptr ? previous : "C";
  const char* flipped = nullptr;
  for (const char* candidate :
       {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8",
        "fr_FR"}) {
    flipped = std::setlocale(LC_ALL, candidate);
    if (flipped != nullptr) break;
  }
  if (flipped == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  // The locale must actually use a comma, or the flip proves nothing.
  char probe[32];
  std::snprintf(probe, sizeof(probe), "%.1f", 1.5);
  if (std::string(probe) != "1,5") {
    std::setlocale(LC_ALL, restore.c_str());
    GTEST_SKIP() << "locale does not use a decimal comma";
  }

  JsonValue v = JsonParse("3.5").TakeValue();
  EXPECT_EQ(v.kind(), JsonValue::Kind::kDouble);
  EXPECT_EQ(v.AsDouble(), 3.5);
  EXPECT_EQ(JsonParse("1e3").TakeValue().AsDouble(), 1000.0);
  EXPECT_EQ(JsonParse("-0.25").TakeValue().AsDouble(), -0.25);
  // A comma is still not valid JSON, whatever the locale says.
  EXPECT_FALSE(JsonParse("3,5").ok());

  JsonWriter w;
  w.BeginObject();
  w.Field("x", 1.5);
  w.EndObject();
  EXPECT_EQ(w.TakeString(), "{\"x\":1.5}");

  std::setlocale(LC_ALL, restore.c_str());
}

TEST(JsonParseTest, NestedStructures) {
  JsonValue v =
      JsonParse(" { \"a\" : [ 1 , {\"b\": [true, null]} ] , \"c\": {} } ")
          .TakeValue();
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array().size(), 2u);
  EXPECT_EQ(a->array()[0].AsUint64().value(), 1u);
  const JsonValue* b = a->array()[1].Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->array()[0].bool_value());
  EXPECT_TRUE(b->array()[1].is_null());
  EXPECT_TRUE(v.Find("c")->is_object());
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(JsonParse("\"a\\\"b\\\\c\\/d\\n\\t\"").TakeValue().string_value(),
            "a\"b\\c/d\n\t");
  // BMP escape, and a surrogate pair for U+1F600.
  EXPECT_EQ(JsonParse("\"\\u00e9\"").TakeValue().string_value(), "\xc3\xa9");
  EXPECT_EQ(JsonParse("\"\\u20ac\"").TakeValue().string_value(),
            "\xe2\x82\xac");
  EXPECT_EQ(JsonParse("\"\\ud83d\\ude00\"").TakeValue().string_value(),
            "\xf0\x9f\x98\x80");
  // Unpaired surrogates are malformed.
  EXPECT_FALSE(JsonParse("\"\\ud83d\"").ok());
  EXPECT_FALSE(JsonParse("\"\\ude00\"").ok());
  EXPECT_FALSE(JsonParse("\"\\ud83dx\"").ok());
}

TEST(JsonParseTest, MalformedDocuments) {
  const char* bad[] = {
      "",           "{",           "}",            "{\"a\":}",
      "{\"a\" 1}",  "[1,]",        "[1 2]",        "tru",
      "01",         "1.",          "1e",           "-",
      "\"unterminated", "\"bad\\q\"", "{\"a\":1}extra", "nan",
      "{\"a\":1,\"a\":2}",  // duplicate key
      // The same number errors inside arrays, where elements are scanned
      // straight into the packed columns.
      "[01]",       "[1.]",        "[-]",          "[1e]",
      "[1,-]",      "[1,2,]",      "[1e400]",      "[-1e400]",
  };
  for (const char* doc : bad) {
    EXPECT_FALSE(JsonParse(doc).ok()) << doc;
  }
  // In-array number errors report the same message, at the failing byte.
  EXPECT_EQ(JsonParse("[01]").status().message(),
            "JSON parse error at offset 1: leading zero in number");
  EXPECT_EQ(JsonParse("[1.]").status().message(),
            "JSON parse error at offset 3: digits required after decimal "
            "point");
  EXPECT_EQ(JsonParse("[1,-]").status().message(),
            "JSON parse error at offset 4: invalid number");
  EXPECT_EQ(JsonParse("[-1e400]").status().message(),
            "JSON parse error at offset 7: number out of double range");
  // Control characters must be escaped.
  EXPECT_FALSE(JsonParse("\"a\nb\"").ok());
  // Nesting past the depth cap is rejected rather than overflowing.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(JsonParse(deep).ok());
}

TEST(JsonParseTest, DumpRoundTripsThroughWriter) {
  const std::string doc =
      "{\"s\":\"a\\\"b\",\"n\":-3,\"u\":42,\"d\":1.5,\"t\":true,"
      "\"z\":null,\"arr\":[1,2,3],\"obj\":{\"k\":\"v\"}}";
  Result<JsonValue> parsed = JsonParse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Dump(), doc);
}

// --------------------------------------------- packed numeric arrays

TEST(JsonPackedArrayTest, AllNumericArraysPack) {
  JsonValue v = JsonParse("[1,-2,3.5,0,4294967296]").TakeValue();
  EXPECT_TRUE(v.is_packed_array());
  EXPECT_TRUE(v.is_array());
  ASSERT_EQ(v.array_size(), 5u);
  // array() is node storage and intentionally empty for the packed form.
  EXPECT_TRUE(v.array().empty());
  EXPECT_EQ(v.packed_numbers().size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_TRUE(v.element_is_number(i));
  EXPECT_EQ(v.NumberAt(2), 3.5);
  EXPECT_EQ(v.ElementAsInt64(1).value(), -2);
  EXPECT_EQ(v.ElementAsUint64(4).value(), 4294967296u);
  EXPECT_FALSE(v.ElementAsUint64(1).ok());  // negative
  EXPECT_FALSE(v.ElementAsInt64(2).ok());   // fractional

  // Empty and mixed arrays stay node-backed; uniform accessors agree.
  EXPECT_FALSE(JsonParse("[]").TakeValue().is_packed_array());
  JsonValue mixed = JsonParse("[1,\"x\",2]").TakeValue();
  EXPECT_FALSE(mixed.is_packed_array());
  EXPECT_EQ(mixed.array_size(), 3u);
  EXPECT_TRUE(mixed.element_is_number(0));
  EXPECT_FALSE(mixed.element_is_number(1));
  EXPECT_EQ(mixed.ElementAsInt64(2).value(), 2);
}

TEST(JsonPackedArrayTest, SpellingTagsKeepDumpByteIdentical) {
  // Int, uint and double spellings re-emit exactly as written even though
  // the packed store holds every value as a double (a raw %.12g re-emission
  // of a 13+-digit integer would corrupt it).
  const std::string doc = "[0,-7,2.25,1e3,9007199254740992,-9007199254740992]";
  JsonValue v = JsonParse(doc).TakeValue();
  ASSERT_TRUE(v.is_packed_array());
  EXPECT_EQ(v.Dump(), "[0,-7,2.25,1000,9007199254740992,-9007199254740992]");

  // Integers beyond 2^53 do not survive the double round-trip: the array
  // demotes to nodes and stays exact.
  JsonValue big = JsonParse("[1,18446744073709551615]").TakeValue();
  EXPECT_FALSE(big.is_packed_array());
  EXPECT_EQ(big.ElementAsUint64(1).value(), UINT64_MAX);
  EXPECT_EQ(big.Dump(), "[1,18446744073709551615]");
  JsonValue negbig = JsonParse("[-9223372036854775808]").TakeValue();
  EXPECT_FALSE(negbig.is_packed_array());
  EXPECT_EQ(negbig.ElementAsInt64(0).value(), INT64_MIN);

  // The packing boundary is exactly 2^53 on both signs.
  JsonValue edge = JsonParse("[9007199254740993]").TakeValue();
  EXPECT_FALSE(edge.is_packed_array());
  EXPECT_EQ(edge.ElementAsUint64(0).value(), 9007199254740993u);
  EXPECT_EQ(edge.Dump(), "[9007199254740993]");
  edge = JsonParse("[-9007199254740993]").TakeValue();
  EXPECT_FALSE(edge.is_packed_array());
  EXPECT_EQ(edge.ElementAsInt64(0).value(), -9007199254740993);
  EXPECT_EQ(edge.Dump(), "[-9007199254740993]");

  // Both 64-bit extremes in one array, and an integer wider than 64 bits,
  // which becomes a double and packs.
  JsonValue extremes =
      JsonParse("[-9223372036854775808,18446744073709551615]").TakeValue();
  EXPECT_FALSE(extremes.is_packed_array());
  EXPECT_EQ(extremes.ElementAsInt64(0).value(), INT64_MIN);
  EXPECT_EQ(extremes.ElementAsUint64(1).value(), UINT64_MAX);
  EXPECT_EQ(extremes.Dump(), "[-9223372036854775808,18446744073709551615]");
  JsonValue wide = JsonParse("[1234567890123456789012345]").TakeValue();
  ASSERT_TRUE(wide.is_packed_array());
  EXPECT_EQ(wide.NumberAt(0), 1234567890123456789012345.0);
  EXPECT_EQ(wide.Dump(), "[1.2345678901234568e+24]");

  // Demotion in the middle of an array keeps every value and spelling.
  JsonValue mid = JsonParse("[1.5,18446744073709551615,2]").TakeValue();
  EXPECT_FALSE(mid.is_packed_array());
  ASSERT_EQ(mid.array_size(), 3u);
  EXPECT_EQ(mid.array()[0].kind(), JsonValue::Kind::kDouble);
  EXPECT_EQ(mid.NumberAt(0), 1.5);
  EXPECT_EQ(mid.ElementAsUint64(1).value(), UINT64_MAX);
  EXPECT_EQ(mid.array()[2].kind(), JsonValue::Kind::kUint);
  EXPECT_EQ(mid.ElementAsUint64(2).value(), 2u);
  EXPECT_EQ(mid.Dump(), "[1.5,18446744073709551615,2]");

  // Underflow parses to zero, as a scalar does.
  JsonValue tiny = JsonParse("[1e-400]").TakeValue();
  ASSERT_TRUE(tiny.is_packed_array());
  EXPECT_EQ(tiny.NumberAt(0), 0.0);
  EXPECT_EQ(tiny.Dump(), "[0]");

  // Whitespace around packed elements.
  JsonValue spaced = JsonParse("[ 1 ,\n2\t]").TakeValue();
  ASSERT_TRUE(spaced.is_packed_array());
  EXPECT_EQ(spaced.Dump(), "[1,2]");
}

// Every float and double the writer emits parses back to the double that
// std::from_chars reads from the same token, bit for bit, as a scalar and
// inside a packed row. Values span subnormals to 2^53, so every row packs.
TEST(JsonPackedArrayTest, WriterTokensParseBitIdenticalToFromChars) {
  Rng rng(20240611);
  std::vector<std::string> tokens;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t bits = rng.NextUint64();
    double value = 0.0;
    if (i % 2 == 0) {
      // A double: random sign and mantissa, exponent field in [0, 1075].
      value = std::bit_cast<double>(
          (bits & 0x800FFFFFFFFFFFFFull) |
          (rng.NextBounded(1076) << 52));
    } else {
      // A float, as series values are written: exponent field in [0, 179].
      value = std::bit_cast<float>(
          (static_cast<uint32_t>(bits) & 0x807FFFFFu) |
          static_cast<uint32_t>(rng.NextBounded(180) << 23));
    }
    if (value == 0.0) continue;  // "-0" spells an integer, parsed as +0
    JsonWriter w;
    w.Double(value);
    tokens.push_back(w.TakeString());
  }

  auto from_chars = [](const std::string& token) {
    double expected = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), expected);
    EXPECT_TRUE(ec == std::errc() && ptr == token.data() + token.size())
        << token;
    return std::bit_cast<uint64_t>(expected);
  };
  constexpr size_t kRow = 256;
  std::string doc = "[";
  for (size_t i = 0; i < tokens.size(); ++i) {
    const JsonValue scalar = JsonParse(tokens[i]).TakeValue();
    ASSERT_TRUE(scalar.is_number()) << tokens[i];
    EXPECT_EQ(std::bit_cast<uint64_t>(scalar.AsDouble()), from_chars(tokens[i]))
        << tokens[i];
    doc += i % kRow == 0 ? (i == 0 ? "[" : "],[") : ",";
    doc += tokens[i];
  }
  doc += "]]";
  const JsonValue matrix = JsonParse(doc).TakeValue();
  ASSERT_EQ(matrix.array_size(), (tokens.size() + kRow - 1) / kRow);
  for (size_t r = 0; r < matrix.array_size(); ++r) {
    const JsonValue& row = matrix.array()[r];
    ASSERT_TRUE(row.is_packed_array()) << r;
    const std::span<const double> values = row.packed_numbers();
    for (size_t j = 0; j < values.size(); ++j) {
      const std::string& token = tokens[r * kRow + j];
      EXPECT_EQ(std::bit_cast<uint64_t>(values[j]), from_chars(token))
          << token;
    }
  }
}

TEST(JsonPackedArrayTest, PackedMatrixShrinksDomByOrderOfMagnitude) {
  // The satellite bug: a parsed series matrix used to retain one full
  // JsonValue node (~160 bytes) per float. Build a 64x128 matrix and pin
  // the packed DOM under a per-element budget no node DOM can meet.
  std::string doc = "[";
  for (int row = 0; row < 64; ++row) {
    doc += row ? ",[" : "[";
    for (int col = 0; col < 128; ++col) {
      doc += col ? ",0.125" : "0.125";
    }
    doc += "]";
  }
  doc += "]";
  JsonValue v = JsonParse(doc).TakeValue();
  ASSERT_EQ(v.array_size(), 64u);
  ASSERT_TRUE(v.array()[0].is_packed_array());
  const size_t elements = 64 * 128;
  const size_t bytes = v.DeepMemoryBytes();
  // Packed cost is 9 bytes/element (double + tag) plus vector slack; a
  // node-backed DOM costs sizeof(JsonValue) >= 100 bytes/element. Assert
  // the packed bound with generous headroom.
  EXPECT_LT(bytes, elements * 32) << bytes;
  EXPECT_GE(bytes, elements * 9);  // sanity: the data itself is counted
}

TEST(JsonPackedArrayTest, HostileRowShapesKeepDomLinearInInput) {
  // One long row followed by many one-element rows: a parser that sized
  // each row's columns from its sibling would retain 1000 x the long row.
  std::string doc = "[[";
  for (int i = 0; i < 100000; ++i) doc += i ? ",1" : "1";
  doc += "]";
  for (int i = 0; i < 1000; ++i) doc += ",[1]";
  doc += "]";
  const JsonValue v = JsonParse(doc).TakeValue();
  ASSERT_EQ(v.array_size(), 1001u);
  ASSERT_TRUE(v.array()[1000].is_packed_array());
  EXPECT_LT(v.DeepMemoryBytes(), doc.size() * 16)
      << v.DeepMemoryBytes() << " retained for " << doc.size() << " bytes";
}

}  // namespace
}  // namespace coconut
