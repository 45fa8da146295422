/**
 * @file
 * Tests for the JSON writer every artifact goes through
 * (tools/bench_json.hh): number() against the printf/scanf search
 * that defines it, string escaping, indentation, and the stream
 * contract (flushed at root close, short writes set badbit).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "bench_json.hh"
#include "sim/types.hh"

namespace
{

using cedar::tools::JsonParseError;
using cedar::tools::JsonValue;
using cedar::tools::JsonWriter;

/** number()'s definition, executed literally: try %.1g .. %.17g and
 *  keep the first text that scans back to @p v. The reference the
 *  writer's to_chars/from_chars path must match byte for byte. */
std::string
oracleNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::array<char, 40> buf{};
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf.data(), buf.size(), "%.*g", prec, v);
        double back = 0;
        std::sscanf(buf.data(), "%lf", &back);
        if (back == v)
            break;
    }
    return buf.data();
}

/** Compares number() with the oracle, reporting the first misses. */
class OracleCheck
{
  public:
    void
    operator()(double v)
    {
        ++checked_;
        const std::string got = JsonWriter::number(v);
        const std::string want = oracleNumber(v);
        if (got == want)
            return;
        if (++missed_ <= 5) {
            char hex[32];
            std::snprintf(hex, sizeof(hex), "%a", v);
            ADD_FAILURE() << hex << ": number() gave " << got
                          << ", oracle " << want;
        }
    }

    ~OracleCheck() { EXPECT_EQ(missed_, 0u) << "of " << checked_; }

    std::size_t checked() const { return checked_; }

  private:
    std::size_t checked_ = 0;
    std::size_t missed_ = 0;
};

double
fromBits(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

TEST(JsonValue, CountsAreCheckedBeforeAnyIntegerCast)
{
    const JsonValue v = JsonValue::parse(
        "{\"n\": 12, \"seed\": 18446744073709551615, \"big\": 1e3,"
        " \"huge\": 1e300, \"neg\": -1, \"frac\": 2.5,"
        " \"wide\": 18446744073709551616, \"inf\": 1e400,"
        " \"s\": \"7\"}");
    EXPECT_EQ(v.at("n").asCount(), 12u);
    // Integer literals are exact: a 64-bit seed keeps every digit.
    EXPECT_EQ(v.at("seed").asCount(), 18446744073709551615u);
    EXPECT_EQ(v.at("big").asCount(), 1000u);
    EXPECT_EQ(v.at("n").asCount(12), 12u);
    EXPECT_THROW(v.at("n").asCount(11), JsonParseError);
    for (const char *k : {"huge", "neg", "frac", "wide", "inf", "s"})
        EXPECT_THROW(v.at(k).asCount(), JsonParseError) << k;

    // Missing keys take the default; present ones of the wrong type
    // still throw.
    EXPECT_EQ(v.countOr("n"), 12u);
    EXPECT_EQ(v.countOr("absent"), 0u);
    EXPECT_THROW(v.countOr("huge"), JsonParseError);
    EXPECT_EQ(v.numOr("frac"), 2.5);
    EXPECT_EQ(v.numOr("absent", 4.0), 4.0);
    EXPECT_EQ(v.strOr("s"), "7");
    EXPECT_EQ(v.strOr("absent"), "");
    EXPECT_THROW(v.strOr("n"), JsonParseError);
    EXPECT_EQ(v.at("n").numOr("x", 1.0), 1.0); // not an object
}

TEST(JsonWriter, NumberMatchesOracleOnTraceTimestamps)
{
    // Exporters print tick * (1e6 / clock): at the default 20 MHz
    // most of these need 16-17 digits.
    OracleCheck check;
    std::mt19937_64 rng(13);
    for (const double clock : {cedar::sim::default_clock_hz, 33.3e6}) {
        const double us = 1e6 / clock;
        for (std::uint64_t t = 0; t < 100000; ++t)
            check(static_cast<double>(t) * us);
        for (int i = 0; i < 100000; ++i)
            check(static_cast<double>(rng() >> 20) * us);
    }
    EXPECT_EQ(check.checked(), 400000u);
}

TEST(JsonWriter, NumberMatchesOracleOnRandomBitPatterns)
{
    OracleCheck check;
    std::mt19937_64 rng(42);
    for (int i = 0; i < 500000; ++i)
        check(fromBits(rng())); // includes inf/nan -> "null"
    EXPECT_EQ(check.checked(), 500000u);
}

TEST(JsonWriter, NumberMatchesOracleOnSubnormals)
{
    // Exponent field zero, random mantissa and sign.
    OracleCheck check;
    std::mt19937_64 rng(7);
    for (int i = 0; i < 100000; ++i)
        check(fromBits(rng() & 0x800fffffffffffffULL));
    EXPECT_EQ(check.checked(), 100000u);
}

TEST(JsonWriter, NumberMatchesOracleOnEdgeValues)
{
    OracleCheck check;
    auto around = [&](double v) {
        for (const double s : {v, -v}) {
            check(s);
            check(std::nextafter(s, 0.0));
            check(std::nextafter(s, s * 2 + 1));
        }
    };
    around(0.0);
    around(DBL_MAX);
    around(DBL_MIN);
    around(std::numeric_limits<double>::denorm_min());
    check(std::numeric_limits<double>::infinity());
    check(std::numeric_limits<double>::quiet_NaN());
    for (int e = -1074; e <= 1023; ++e)
        around(std::ldexp(1.0, e));
    for (int e = -323; e <= 308; ++e)
        around(std::strtod(("1e" + std::to_string(e)).c_str(), nullptr));
    // %g switches between fixed and scientific notation at exponent
    // -5 and at the precision; probe both sides of each.
    for (const double v : {1e-5, 1e-4, 1e15, 1e16, 1e17, 0.5e-4, 9.5e-5,
                           99999.5, 123456.5, 0.1, 0.3, 2.0 / 3.0})
        around(v);
    for (std::int64_t i = -1000; i <= 1000; ++i)
        check(static_cast<double>(i));
    EXPECT_GT(check.checked(), 15000u);
}

TEST(JsonWriter, NumberPicksShortestPrintfPrecision)
{
    EXPECT_EQ(JsonWriter::number(0.0), "0");
    EXPECT_EQ(JsonWriter::number(-0.0), "-0");
    EXPECT_EQ(JsonWriter::number(150.0), "1.5e+02");
    EXPECT_EQ(JsonWriter::number(100.0), "1e+02");
    EXPECT_EQ(JsonWriter::number(0.1), "0.1");
    EXPECT_EQ(JsonWriter::number(3 * 0.05), "0.15000000000000002");
    EXPECT_EQ(JsonWriter::number(1e-5), "1e-05");
    EXPECT_EQ(JsonWriter::number(1e-4), "0.0001");
    EXPECT_EQ(JsonWriter::number(1e17), "1e+17");
    EXPECT_EQ(JsonWriter::number(DBL_MAX), "1.7976931348623157e+308");
    EXPECT_EQ(JsonWriter::number(std::numeric_limits<double>::infinity()),
              "null");
}

// ----- strings -----

/** The escaping the writer has always produced, as a reference. */
std::string
oracleQuoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

TEST(JsonWriter, EscapingIsUnchanged)
{
    EXPECT_EQ(JsonWriter::quoted("a\"b\\c\n\r\t\x01\x1f\x7f/\xc3\xa9"),
              "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\x7f/\xc3\xa9\"");
    EXPECT_EQ(JsonWriter::quoted(""), "\"\"");
    std::string all;
    for (int c = 0; c < 256; ++c) {
        const std::string one(1, static_cast<char>(c));
        EXPECT_EQ(JsonWriter::quoted(one), oracleQuoted(one)) << c;
        all += one;
        all += "ab";
    }
    EXPECT_EQ(JsonWriter::quoted(all), oracleQuoted(all));

    // Keys and values take the same path as quoted().
    std::ostringstream os;
    {
        JsonWriter j(os);
        j.beginObject().field(all, all).endObject();
    }
    EXPECT_EQ(os.str(), "{\n  " + oracleQuoted(all) + ": " +
                            oracleQuoted(all) + "\n}\n");
    EXPECT_EQ(JsonValue::parse(os.str()).at(all).asString(), all);
}

TEST(JsonWriter, ScalarsAndDeepNesting)
{
    std::ostringstream os;
    JsonWriter j(os);
    constexpr int depth = 100; // deeper than one run of indent spaces
    for (int d = 0; d < depth; ++d)
        j.beginArray();
    j.value(std::numeric_limits<std::int64_t>::min());
    j.value(std::numeric_limits<std::uint64_t>::max());
    j.value(true).value(false).value("s").value(0.5).value(-7);
    for (int d = 0; d < depth; ++d)
        j.endArray();

    std::string want;
    for (int d = 0; d < depth; ++d) {
        if (d > 0)
            want.append("\n").append(2 * d, ' ');
        want += '[';
    }
    const std::string pad = "\n" + std::string(2 * depth, ' ');
    want += pad + "-9223372036854775808," + pad + "18446744073709551615," +
            pad + "true," + pad + "false," + pad + "\"s\"," + pad +
            "0.5," + pad + "-7";
    for (int d = depth - 1; d >= 0; --d)
        want.append("\n").append(2 * d, ' ').append("]");
    EXPECT_EQ(os.str(), want);
}

// ----- stream contract -----

TEST(JsonWriter, EveryByteIsInTheStreamWhenTheRootCloses)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject().key("rows").beginArray();
    for (int i = 0; i < 5000; ++i) // many times the staging chunk
        j.beginObject().field("i", i).field("x", i * 0.05).endObject();
    j.endArray();
    j.field("tail", "end");
    j.endObject();
    // The writer is still alive: nothing may be held back.
    const std::string doc = os.str();
    EXPECT_TRUE(doc.ends_with("\n  \"tail\": \"end\"\n}\n"));
    const JsonValue v = JsonValue::parse(doc);
    ASSERT_EQ(v.at("rows").asArray().size(), 5000u);
    EXPECT_EQ(v.at("rows").asArray()[4999].at("x").asNumber(),
              4999 * 0.05);
    os << "after";
    EXPECT_EQ(os.str(), doc + "after");

    // A scalar root closes as soon as it is emitted.
    std::ostringstream scalar;
    JsonWriter s(scalar);
    s.value(1.5);
    EXPECT_EQ(scalar.str(), "1.5");

    // An array root ends without a newline, as it always has.
    std::ostringstream arr;
    JsonWriter a(arr);
    a.beginArray().value(1).endArray();
    EXPECT_EQ(arr.str(), "[\n  1\n]");
}

TEST(JsonWriter, DestructorFlushesAnUnfinishedDocument)
{
    std::ostringstream os;
    {
        JsonWriter j(os);
        j.beginObject().field("k", 1);
    }
    EXPECT_EQ(os.str(), "{\n  \"k\": 1");
}

/** A sink that accepts @p room bytes, then refuses everything. */
class FailingBuf : public std::streambuf
{
  public:
    explicit FailingBuf(std::size_t room) : room_(room) {}

  protected:
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        const auto take = std::min<std::streamsize>(
            n, static_cast<std::streamsize>(room_));
        room_ -= static_cast<std::size_t>(take);
        return take;
    }

    int_type
    overflow(int_type ch) override
    {
        if (room_ == 0)
            return traits_type::eof();
        --room_;
        return traits_type::not_eof(ch);
    }

  private:
    std::size_t room_;
};

TEST(JsonWriter, FailingStreambufLeavesStreamNotGood)
{
    for (const std::size_t room : {0, 10, 5000}) {
        FailingBuf buf(room);
        std::ostream os(&buf);
        {
            JsonWriter j(os);
            j.beginObject().key("rows").beginArray();
            for (int i = 0; i < 1000; ++i)
                j.value(i * 0.05);
            j.endArray().endObject();
            EXPECT_TRUE(os.bad()) << "room " << room;
        }
        EXPECT_FALSE(os.good());
    }
}

} // namespace
