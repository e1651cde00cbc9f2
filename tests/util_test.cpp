#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace amdrel {
namespace {

TEST(Error, CheckMacroThrows) {
  EXPECT_THROW(AMDREL_CHECK(1 == 2), Error);
  EXPECT_NO_THROW(AMDREL_CHECK(1 == 1));
  try {
    AMDREL_CHECK_MSG(false, "context here");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context here"), std::string::npos);
  }
}

TEST(Error, ParseErrorCarriesLocation) {
  ParseError e("foo.vhd", 42, "bad token");
  EXPECT_EQ(e.file(), "foo.vhd");
  EXPECT_EQ(e.line(), 42);
  EXPECT_NE(std::string(e.what()).find("foo.vhd:42"), std::string::npos);
}

TEST(Json, ParseAndDumpRoundTrip) {
  const std::string text =
      "{\"a\":1,\"b\":[true,false,null],\"c\":{\"nested\":\"s\\n\"},"
      "\"d\":-2.5}";
  const util::Json v = util::parse_json(text);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").as_array().size(), 3u);
  EXPECT_TRUE(v.at("b").as_array()[0].as_bool());
  EXPECT_TRUE(v.at("b").as_array()[2].is_null());
  EXPECT_EQ(v.at("c").at("nested").as_string(), "s\n");
  EXPECT_EQ(v.at("d").as_number(), -2.5);
  // Insertion order survives the round trip byte-for-byte.
  EXPECT_EQ(v.dump(), text);
  EXPECT_EQ(util::parse_json(v.dump()).dump(), text);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const util::Json v = util::parse_json("\"\\u00e9\\u20ac\"");
  EXPECT_EQ(v.as_string(), "\xc3\xa9\xe2\x82\xac");  // é €
}

TEST(Json, MalformedInputsThrow) {
  EXPECT_THROW(util::parse_json(""), Error);
  EXPECT_THROW(util::parse_json("{"), Error);
  EXPECT_THROW(util::parse_json("{\"a\":}"), Error);
  EXPECT_THROW(util::parse_json("[1,]"), Error);
  EXPECT_THROW(util::parse_json("nul"), Error);
  EXPECT_THROW(util::parse_json("\"unterminated"), Error);
  EXPECT_THROW(util::parse_json("{} trailing"), Error);
  for (const char* bad : {"-", "1e", "inf", "NaN", "1e400"}) {
    EXPECT_THROW(util::parse_json(bad), Error) << bad;  // finite numbers only
  }
}

TEST(Json, IntegersStayExactAcrossInt64AndUint64) {
  const util::Json v = util::parse_json(
      "[9007199254740993,18446744073709551615,-9223372036854775808]");
  const auto& a = v.as_array();
  EXPECT_EQ(a[0].as_u64(), 9007199254740993u);  // 2^53+1: no double rounding
  EXPECT_EQ(a[0].as_int(), 9007199254740993);
  EXPECT_EQ(a[1].as_u64(), 18446744073709551615u);
  EXPECT_THROW(a[1].as_int(), Error);  // past int64
  EXPECT_EQ(a[2].as_int(), INT64_MIN);
  EXPECT_THROW(a[2].as_u64(), Error);  // negative
  EXPECT_EQ(v.dump(),
            "[9007199254740993,18446744073709551615,-9223372036854775808]");
  util::Json obj = util::Json::make_object();
  obj.set("u", ~std::uint64_t{0});
  obj.set("i", std::int64_t{-9007199254740993});
  EXPECT_EQ(obj.dump(), "{\"u\":18446744073709551615,\"i\":-9007199254740993}");
  // as_number() still reads every number (rounded when it must be).
  EXPECT_EQ(a[1].as_number(), 18446744073709551616.0);
}

TEST(Json, OutOfRangeNumbersThrowInsteadOfOverflowingACast) {
  const util::Json big = util::parse_json("1e300");
  EXPECT_THROW(big.as_int(), Error);
  EXPECT_THROW(big.as_u64(), Error);
  EXPECT_THROW(util::parse_json("-1e300").as_int(), Error);
  EXPECT_THROW(util::parse_json("9223372036854775808.0").as_int(), Error);
  EXPECT_THROW(util::parse_json("-1").as_u64(), Error);
  EXPECT_THROW(util::parse_json("2.5").as_u64(), Error);
  EXPECT_EQ(util::parse_json("3.0").as_int(), 3);
  EXPECT_EQ(util::parse_json("1e3").as_u64(), 1000u);
  EXPECT_EQ(big.dump(), "1e+300");
  EXPECT_EQ(util::Json::make_number(-1e300).dump(), "-1e+300");
  // JSON has no NaN or infinity: they serialize as null.
  EXPECT_EQ(util::Json::make_number(std::nan("")).dump(), "null");
  EXPECT_EQ(util::Json::make_number(HUGE_VAL).dump(), "null");
}

TEST(Json, DoublesPrintInTheShortestRoundTripForm) {
  EXPECT_EQ(util::Json::make_number(0.1).dump(), "0.1");
  EXPECT_EQ(util::Json::make_number(0.0017256109999999999).dump(),
            "0.001725611");
  EXPECT_EQ(util::Json::make_number(-2.5).dump(), "-2.5");
  EXPECT_EQ(util::Json::make_number(12.0).dump(), "12");  // integral
  EXPECT_EQ(util::Json::make_number(-0.0).dump(), "0");
  EXPECT_EQ(util::Json::make_number(1e-7).dump(), "1e-07");
  // Seeded sweep over magnitudes and bit patterns: the text reads back
  // as exactly the same double.
  Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    double x = 0.0;
    if (i % 2 == 0) {
      const double mantissa = rng.next_double() * 2.0 - 1.0;
      x = std::ldexp(mantissa, static_cast<int>(rng.next_below(2000)) - 1000);
    } else {
      const std::uint64_t bits = rng.next_u64();
      std::memcpy(&x, &bits, sizeof(x));
      if (!std::isfinite(x)) continue;
    }
    const std::string text = util::Json::make_number(x).dump();
    EXPECT_EQ(util::parse_json(text).as_number(), x) << text;
  }
}

TEST(Json, CheckedAccessorsRejectMismatches) {
  const util::Json v = util::parse_json("{\"n\":1.5,\"s\":\"x\"}");
  EXPECT_THROW(v.at("n").as_string(), Error);
  EXPECT_THROW(v.at("n").as_int(), Error);  // 1.5 is not integral
  EXPECT_THROW(v.at("s").as_number(), Error);
  EXPECT_THROW(v.at("missing"), Error);
  EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng r(9);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.next_int(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  r.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(Strings, SplitWs) {
  auto t = split_ws("  a\tbb  ccc \n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "ccc");
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, SplitCharKeepsEmpties) {
  auto t = split_char("a,,b,", ',');
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t[2], "b");
  EXPECT_EQ(t[3], "");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(to_upper("AbC"), "ABC");
}

TEST(Strings, PrefixSuffixIequals) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
  EXPECT_TRUE(iequals("ENTITY", "entity"));
  EXPECT_FALSE(iequals("entity", "entit"));
}

TEST(Strings, Printf) {
  EXPECT_EQ(strprintf("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(strprintf("plain"), "plain");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "22.75"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.75"), std::string::npos);
  // Numeric column right-aligned: "  1.5" has leading spaces.
  EXPECT_NE(s.find("  1.5"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   10,
                   [](std::size_t i) {
                     if (i == 5) throw Error("boom");
                   }),
               Error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(4, [](std::size_t) { throw Error("x"); });
  } catch (const Error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace amdrel
