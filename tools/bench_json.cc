#include "bench_json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace cedar::tools
{

namespace
{

/** Append the quoted, escaped form of @p s through @p put, which
 *  takes (const char *, std::size_t); clean runs go out whole. */
template <typename Put>
void
escapeInto(std::string_view s, Put &&put)
{
    static constexpr char hex[] = "0123456789abcdef";
    put("\"", 1);
    std::size_t run = 0; // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        put(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': put("\\\"", 2); break;
          case '\\': put("\\\\", 2); break;
          case '\n': put("\\n", 2); break;
          case '\r': put("\\r", 2); break;
          case '\t': put("\\t", 2); break;
          default: {
            const char esc[6] = {'\\', 'u', '0', '0', hex[c >> 4],
                                 hex[c & 0xf]};
            put(esc, sizeof(esc));
          }
        }
    }
    put(s.data() + run, s.size() - run);
    put("\"", 1);
}

/** Indentation source: two spaces per nesting level. */
constexpr std::string_view spaces =
    "                                                                "
    "                                                                ";

/** A parsed number as a count in [0, @p max]: the integer literal
 *  @p i when @p exact, otherwise @p v if it is whole, >= 0 and below
 *  2^64 (every double below 2^64 converts in range; 2^64 itself does
 *  not), checked against @p max before the cast. */
std::optional<std::uint64_t>
countIn(bool exact, std::uint64_t i, double v, std::uint64_t max)
{
    if (exact)
        return i <= max ? std::optional<std::uint64_t>(i) : std::nullopt;
    if (v >= 0 && v < 0x1p64 && v == std::floor(v) &&
        static_cast<std::uint64_t>(v) <= max)
        return static_cast<std::uint64_t>(v);
    return std::nullopt;
}

} // namespace

std::string
JsonWriter::quoted(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    escapeInto(s, [&](const char *p, std::size_t n) { out.append(p, n); });
    return out;
}

std::string
JsonWriter::number(double v)
{
    char buf[number_chars];
    return std::string(buf, number(v, buf));
}

/*
 * For a finite v whose mantissa bits are not all zero, the round-trip
 * interval around v is symmetric, so the correctly rounded decimal
 * with the shortest round-trip digit count n is at least as close to
 * v as those shortest digits are: it lies in the interval too, and it
 * is the one to_chars picks (both break ties to even). %.{n}g then
 * prints to_chars' shortest scientific digits, laid out in %g's
 * notation. Zero and exact powers of two (an asymmetric interval)
 * take the precision search.
 */
std::size_t
JsonWriter::number(double v, char *out)
{
    if (!std::isfinite(v)) {
        std::memcpy(out, "null", 4); // JSON has no inf/nan
        return 4;
    }
    char *const last = out + number_chars;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    if ((bits & ((std::uint64_t(1) << 52) - 1)) == 0) {
        // No text with fewer significant digits than the shortest
        // round-trip form parses back to v, so start at that count;
        // %.{prec}g can still miss here: verify, step up on a miss.
        auto r = std::to_chars(out, last, v, std::chars_format::scientific);
        int prec = 0;
        for (const char *p = out; p != r.ptr && *p != 'e'; ++p)
            prec += *p >= '0' && *p <= '9';
        for (;; ++prec) {
            r = std::to_chars(out, last, v, std::chars_format::general,
                              prec);
            double back = 0;
            std::from_chars(out, r.ptr, back);
            if (back == v || prec >= 17)
                break;
        }
        return static_cast<std::size_t>(r.ptr - out);
    }

    // "[-]d[.ddd]e(+|-)XX": split it into sign, digits and exponent.
    char sci[number_chars];
    char *const end = std::to_chars(sci, sci + sizeof(sci), v,
                                    std::chars_format::scientific)
                          .ptr;
    const char *const e = std::find(sci, end, 'e');
    int exp = 0;
    std::from_chars(e + (e[1] == '+' ? 2 : 1), end, exp);
    const char *const lead = sci + (v < 0); // the first digit
    const int n = static_cast<int>(e - lead) - (e - lead > 1);
    // %g prints scientific outside -4 <= exp < precision.
    if (exp < -4 || exp >= n) {
        std::memcpy(out, sci, static_cast<std::size_t>(end - sci));
        return static_cast<std::size_t>(end - sci);
    }
    char digits[17];
    digits[0] = *lead;
    if (n > 1)
        std::memcpy(digits + 1, lead + 2, static_cast<std::size_t>(n - 1));
    char *o = out;
    if (v < 0)
        *o++ = '-';
    if (exp < 0) {
        std::memcpy(o, "0.0000", static_cast<std::size_t>(1 - exp));
        o += 1 - exp;
        std::memcpy(o, digits, static_cast<std::size_t>(n));
        o += n;
    } else {
        std::memcpy(o, digits, static_cast<std::size_t>(exp + 1));
        o += exp + 1;
        if (exp + 1 < n) {
            *o++ = '.';
            std::memcpy(o, digits + exp + 1,
                        static_cast<std::size_t>(n - exp - 1));
            o += n - exp - 1;
        }
    }
    return static_cast<std::size_t>(o - out);
}

JsonWriter::~JsonWriter()
{
    try {
        flush();
    } catch (...) {
        // Only a stream with exceptions() enabled throws here, after
        // setstate() has recorded the failure in its badbit; a
        // destructor must not throw.
    }
}

void
JsonWriter::toStream(const char *p, std::size_t n)
{
    std::streambuf *sb = os_.rdbuf();
    const auto sn = static_cast<std::streamsize>(n);
    if (sb == nullptr || sb->sputn(p, sn) != sn)
        os_.setstate(std::ios::badbit);
}

void
JsonWriter::flush()
{
    const std::size_t n = len_;
    len_ = 0;
    if (n > 0)
        toStream(chunk_.data(), n);
}

void
JsonWriter::put(const char *p, std::size_t n)
{
    if (n > chunk_.size() - len_) {
        flush();
        if (n > chunk_.size())
            return toStream(p, n); // too big to stage
    }
    std::memcpy(chunk_.data() + len_, p, n);
    len_ += n;
}

void
JsonWriter::put(char c)
{
    if (len_ == chunk_.size())
        flush();
    chunk_[len_++] = c;
}

void
JsonWriter::putQuoted(std::string_view s)
{
    escapeInto(s, [this](const char *p, std::size_t n) { put(p, n); });
}

void
JsonWriter::newline()
{
    put('\n');
    for (std::size_t n = 2 * stack_.size(); n > 0;) {
        const std::size_t k = std::min(n, spaces.size());
        put(spaces.data(), k);
        n -= k;
    }
}

void
JsonWriter::separator()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // the key already emitted "...": for this value
    }
    if (!stack_.empty()) {
        if (!firstInCtx_)
            put(',');
        newline();
    }
    firstInCtx_ = false;
}

void
JsonWriter::closeValue()
{
    if (stack_.empty())
        flush(); // the root value is complete
}

JsonWriter &
JsonWriter::beginObject()
{
    separator();
    stack_.push_back(Ctx::object);
    firstInCtx_ = true;
    put('{');
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    stack_.pop_back();
    if (!firstInCtx_)
        newline();
    firstInCtx_ = false;
    put('}');
    if (stack_.empty())
        put('\n');
    closeValue();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separator();
    stack_.push_back(Ctx::array);
    firstInCtx_ = true;
    put('[');
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    stack_.pop_back();
    if (!firstInCtx_)
        newline();
    firstInCtx_ = false;
    put(']');
    closeValue();
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    separator();
    putQuoted(k);
    put(": ", 2);
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separator();
    putQuoted(v);
    closeValue();
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separator();
    char buf[number_chars];
    put(buf, number(v, buf));
    closeValue();
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separator();
    char buf[24];
    put(buf, static_cast<std::size_t>(
                 std::to_chars(buf, buf + sizeof(buf), v).ptr - buf));
    closeValue();
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separator();
    char buf[24];
    put(buf, static_cast<std::size_t>(
                 std::to_chars(buf, buf + sizeof(buf), v).ptr - buf));
    closeValue();
    return *this;
}

JsonWriter &
JsonWriter::rendered(std::initializer_list<std::string_view> parts)
{
    separator();
    for (const std::string_view p : parts)
        put(p);
    closeValue();
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separator();
    put(v ? std::string_view("true") : std::string_view("false"));
    closeValue();
    return *this;
}

// ---------------------------------------------------------------
// Reader
// ---------------------------------------------------------------

/** Recursive-descent parser over the emitter's JSON subset. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonParseError("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeWord(const char *w)
    {
        const std::size_t n = std::string(w).size();
        if (s_.compare(pos_, n, w) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    value()
    {
        const char c = peek();
        JsonValue v;
        switch (c) {
        case '{': {
            v.kind_ = JsonValue::Kind::object;
            ++pos_;
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            for (;;) {
                if (peek() != '"')
                    fail("expected object key");
                std::string k = string();
                expect(':');
                v.obj_.emplace_back(std::move(k), value());
                const char n = peek();
                ++pos_;
                if (n == '}')
                    return v;
                if (n != ',')
                    fail("expected ',' or '}' in object");
            }
        }
        case '[': {
            v.kind_ = JsonValue::Kind::array;
            ++pos_;
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            for (;;) {
                v.arr_.push_back(value());
                const char n = peek();
                ++pos_;
                if (n == ']')
                    return v;
                if (n != ',')
                    fail("expected ',' or ']' in array");
            }
        }
        case '"':
            v.kind_ = JsonValue::Kind::string;
            v.str_ = string();
            return v;
        case 't':
            if (!consumeWord("true"))
                fail("bad literal");
            v.kind_ = JsonValue::Kind::boolean;
            v.b_ = true;
            return v;
        case 'f':
            if (!consumeWord("false"))
                fail("bad literal");
            v.kind_ = JsonValue::Kind::boolean;
            v.b_ = false;
            return v;
        case 'n':
            if (!consumeWord("null"))
                fail("bad literal");
            v.kind_ = JsonValue::Kind::null;
            return v;
        default:
            return number();
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                fail("unterminated escape");
            c = s_[pos_++];
            switch (c) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > s_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = s_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // The emitter only writes \u00xx control escapes;
                // reject surrogates rather than mis-decode them.
                if (cp >= 0xd800 && cp <= 0xdfff)
                    fail("surrogate \\u escapes unsupported");
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
            }
            default:
                fail("bad escape character");
            }
        }
        if (pos_ >= s_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return out;
    }

    JsonValue
    number()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        auto digits = [&] {
            const std::size_t d0 = pos_;
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
            if (pos_ == d0)
                fail("expected digits");
        };
        digits();
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            digits();
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            digits();
        }
        const std::string tok = s_.substr(start, pos_ - start);
        JsonValue v;
        v.kind_ = JsonValue::Kind::number;
        v.num_ = std::strtod(tok.c_str(), nullptr);
        const char *end = tok.data() + tok.size();
        const auto [p, ec] = std::from_chars(tok.data(), end, v.int_);
        v.exactInt_ = ec == std::errc() && p == end;
        return v;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::boolean)
        throw JsonParseError("JSON value is not a boolean");
    return b_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::number)
        throw JsonParseError("JSON value is not a number");
    return num_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::string)
        throw JsonParseError("JSON value is not a string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (kind_ != Kind::array)
        throw JsonParseError("JSON value is not an array");
    return arr_;
}

std::uint64_t
JsonValue::asCount(std::uint64_t max) const
{
    const double v = asNumber();
    if (const auto n = countIn(exactInt_, int_, v, max))
        return *n;
    throw JsonParseError("JSON number " +
                         (exactInt_ ? std::to_string(int_)
                                    : JsonWriter::number(v)) +
                         " is not an integer in [0, " +
                         std::to_string(max) + "]");
}

std::optional<std::uint64_t>
checkedCount(std::string_view text, std::uint64_t max)
{
    const char *first = text.data();
    const char *last = first + text.size();
    std::uint64_t i = 0;
    const auto [ip, iec] = std::from_chars(first, last, i);
    const bool exact = iec == std::errc() && ip == last;
    double v = 0;
    if (!exact) {
        const auto [dp, dec] = std::from_chars(first, last, v);
        if (dec != std::errc() || dp != last)
            return std::nullopt;
    }
    return countIn(exact, i, v, max);
}

double
JsonValue::numOr(const std::string &k, double dflt) const
{
    return has(k) ? at(k).asNumber() : dflt;
}

std::string
JsonValue::strOr(const std::string &k) const
{
    return has(k) ? at(k).asString() : std::string();
}

std::uint64_t
JsonValue::countOr(const std::string &k, std::uint64_t max) const
{
    return has(k) ? at(k).asCount(max) : 0;
}

const JsonValue &
JsonValue::at(const std::string &k) const
{
    if (kind_ != Kind::object)
        throw JsonParseError("JSON value is not an object");
    for (const auto &kv : obj_)
        if (kv.first == k)
            return kv.second;
    throw JsonParseError("missing JSON key \"" + k + "\"");
}

bool
JsonValue::has(const std::string &k) const
{
    if (kind_ != Kind::object)
        return false;
    for (const auto &kv : obj_)
        if (kv.first == k)
            return true;
    return false;
}

JsonValue
JsonValue::parse(const std::string &text)
{
    return JsonParser(text).document();
}

} // namespace cedar::tools
