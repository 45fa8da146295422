/**
 * @file
 * A tiny dependency-free JSON emitter and reader.
 *
 * The writer emits every JSON artifact in the tree: metrics, reports,
 * scenario and study summaries, Chrome/Perfetto traces (hundreds of
 * MB for a span trace, so it is built for throughput), and the
 * BENCH_sweep.json trajectory that the delta reporter
 * (tools/bench_delta) reads back through the reader. It covers
 * nested objects/arrays, string/number/bool scalars, correct string
 * escaping, and round-trippable numbers (see number()). Commas and
 * key/value ordering are handled by a context stack, so call sites
 * read like the document. The reader is a strict recursive-descent
 * parser over the same subset (full RFC 8259 minus \\u surrogate
 * pairs, which the emitter never produces). The reader's count check
 * (checkedCount) is shared with every other reader of counts from
 * text.
 */

#ifndef CEDAR_TOOLS_BENCH_JSON_HH
#define CEDAR_TOOLS_BENCH_JSON_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cedar::tools
{

/**
 * Streaming JSON writer with automatic comma/indent management.
 *
 * Output is staged in a small fixed chunk and handed to the stream's
 * buffer with one sputn() per chunk, never through ostream
 * formatting. Flush contract: every byte of a document is in the
 * stream once its root value closes (the closing brace of the root
 * object/array, or a scalar emitted at the top level), so callers
 * may append to the stream or read an ostringstream's str() while
 * the writer is still alive. The destructor flushes whatever an
 * unfinished document left staged. A short write sets badbit on the
 * stream.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next emitted value belongs to it. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(std::int64_t(v)); }
    JsonWriter &value(unsigned v) { return value(std::uint64_t(v)); }
    JsonWriter &value(bool v);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** Escape + quote a string per RFC 8259 (control characters
     *  without a short escape become \\u00xx). */
    static std::string quoted(std::string_view s);

    /**
     * The text of `printf("%.*g", p, v)` for the smallest precision
     * p in 1..17 whose text parses back to exactly @p v (p = 17 when
     * none does); "null" for inf/nan, which JSON cannot express.
     */
    static std::string number(double v);

    /** Room for any number() text ("-1.2345678901234567e-308"). */
    static constexpr std::size_t number_chars = 32;

    /** number(v) written into @p out, which has number_chars bytes of
     *  room, without allocating; returns its length. */
    static std::size_t number(double v, char *out);

    /**
     * Emit @p parts, concatenated, as one value already rendered for
     * this depth (a container indented as this writer indents it),
     * with the separator this writer puts before it: none after a
     * key, else a comma and newline. For exporters that render a
     * record's constant text once and splice in only what varies.
     */
    JsonWriter &rendered(std::initializer_list<std::string_view> parts);

  private:
    enum class Ctx { array, object };

    void separator();
    void newline();
    void closeValue();
    void flush();
    void toStream(const char *p, std::size_t n);
    void put(const char *p, std::size_t n);
    void put(std::string_view s) { put(s.data(), s.size()); }
    void put(char c);
    void putQuoted(std::string_view s);

    std::ostream &os_;
    std::vector<Ctx> stack_;
    bool firstInCtx_ = true;
    bool pendingKey_ = false;
    std::size_t len_ = 0; //!< bytes staged in chunk_
    std::array<char, 4096> chunk_;
};

/** Malformed input handed to JsonValue::parse. */
class JsonParseError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A parsed JSON document node. Heap-boxed children keep the type
 * regular; benchmark artifacts are a few kilobytes, so convenience
 * beats compactness here. Accessors throw JsonParseError on a type
 * or key mismatch, or a number that is not the count asked for —
 * for a reader of files off disk, "this field is missing" is a
 * diagnostic, not a crash or undefined behaviour.
 */
class JsonValue
{
  public:
    enum class Kind { null, boolean, number, string, array, object };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::null; }

    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;

    /**
     * This number as a count or seed: an integer in [0, @p max].
     * Integer literals are read exactly, so a 64-bit seed keeps
     * every digit. Throws for anything else — a non-number, or a
     * negative, fractional or out-of-range value (1e300 must not
     * reach a float-to-integer cast).
     */
    std::uint64_t
    asCount(std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
        const;

    /** Missing-key helpers: member @p k of this object, or the
     *  default when this is not an object holding @p k. A member of
     *  the wrong type still throws. */
    double numOr(const std::string &k, double dflt = 0) const;
    std::string strOr(const std::string &k) const;
    std::uint64_t
    countOr(const std::string &k,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
        const;

    /** Member lookup; throws unless this is an object with key @p k. */
    const JsonValue &at(const std::string &k) const;
    /** True when this is an object containing key @p k. */
    bool has(const std::string &k) const;

    /** Parse one complete document; trailing garbage is an error. */
    static JsonValue parse(const std::string &text);

  private:
    Kind kind_ = Kind::null;
    bool b_ = false;
    bool exactInt_ = false; //!< an integer literal that fits int_
    double num_ = 0;
    std::uint64_t int_ = 0;
    std::string str_;
    std::vector<JsonValue> arr_;
    /** Insertion-ordered members; a vector because std::map of an
     *  incomplete element type is not portable. */
    std::vector<std::pair<std::string, JsonValue>> obj_;

    friend class JsonParser;
};

/**
 * @p text as a count in [0, @p max], or nullopt: the one check every
 * reader of a count from untrusted text shares (JsonValue::asCount,
 * the CLI, fault specs, scenario and workload files). An integer
 * literal is read exactly, so a 64-bit seed keeps every digit; any
 * other number ("1e6") must be whole, >= 0 and below 2^64, and is
 * checked against @p max before any float-to-integer cast (1e300
 * never reaches one). No '+', blank or hex prefix is accepted, and no
 * negative value.
 */
std::optional<std::uint64_t>
checkedCount(std::string_view text,
             std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

} // namespace cedar::tools

#endif // CEDAR_TOOLS_BENCH_JSON_HH
