/**
 * @file
 * The one flat-JSON codec. Every flat JSON line the repository reads
 * or writes goes through it: point records, the job journal, daemon
 * requests and replies, the heartbeat, telemetry dumps, histograms
 * and trace spans.
 *
 * Grammar, strictly:
 *   - one object per line: `{`, then `"key":value` pairs separated
 *     by commas, then `}`; nothing may follow the closing brace;
 *   - values are scalars only: a string, a number, true, false or
 *     null (no nesting);
 *   - no duplicate keys;
 *   - spaces and tabs may separate tokens;
 *   - strings carry exactly the escapes appendEscaped() emits:
 *     \" \\ \n \r \t, and \u00XX (lowercase hex) for the other
 *     control characters; raw control characters are an error;
 *   - numbers follow the JSON number grammar, plus the four
 *     spellings %.17g prints for non-finite doubles (nan, -nan, inf,
 *     -inf). A number that overflows a double (1e999) is an error.
 *
 * A number token keeps its text; it is converted only when a
 * FlatReader asks for a type, and that type decides what is valid.
 * An unsigned integer is plain decimal digits, so `3.0` and `1e300`
 * are not job ids.
 */

#ifndef SBN_UTIL_FLATJSON_HH
#define SBN_UTIL_FLATJSON_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sbn {

/** One scalar value of a flat JSON object. */
struct FlatValue
{
    enum class Kind
    {
        String,
        Number,
        Bool,
        Null,
    };

    Kind kind = Kind::Null;
    /** A string's unescaped contents; otherwise the token as written
     *  (`12.5`, `nan`, `true`, `null`). */
    std::string text;
};

/** Key -> value map of one flat JSON object line, ordered by key. */
using FlatObject = std::map<std::string, FlatValue, std::less<>>;

/**
 * Parse one flat JSON object line (see the file comment). Returns
 * false and sets @p error on anything outside the grammar.
 */
bool parseFlatObject(std::string_view line, FlatObject &out,
                     std::string &error);

/** Append @p text to @p out with the codec's string escapes. */
void appendEscaped(std::string &out, std::string_view text);

/**
 * Re-render a parsed object: keys in map order, strings escaped,
 * every other value as its token text. Rendering a parsed render
 * gives the same bytes again.
 */
std::string renderFlatObject(const FlatObject &object);

/**
 * Builds one flat JSON object line, fields in call order. Each
 * method appends one `"key":value` field and returns the writer.
 */
class FlatWriter
{
  public:
    FlatWriter();

    FlatWriter &string(std::string_view key, std::string_view value);
    FlatWriter &unsignedInt(std::string_view key, std::uint64_t value);
    FlatWriter &integer(std::string_view key, long long value);
    FlatWriter &boolean(std::string_view key, bool value);
    FlatWriter &null(std::string_view key);
    /** The exact %.17g form (formatExactDouble). */
    FlatWriter &exact(std::string_view key, double value);
    /** `key` as the exact decimal plus `key_bits` as the "0x%016x"
     *  IEEE-754 bit pattern; FlatReader::exactPair reads it back. */
    FlatWriter &exactPair(std::string_view key, double value);
    /** A fixed-point %.*f decimal with @p places digits. */
    FlatWriter &fixed(std::string_view key, double value, int places);

    /** Close the object and return the line (no newline). */
    std::string finish();

  private:
    void key(std::string_view key);

    std::string out_;
};

/**
 * Typed, validating reads from a parsed object. Each read finds its
 * key, checks the value's kind and converts it; on failure it
 * returns false and sets the error string given at construction,
 * naming the key. finish() then rejects any key no read asked for.
 * The object must outlive the reader.
 */
class FlatReader
{
  public:
    FlatReader(const FlatObject &object, std::string &error);

    bool has(std::string_view key) const;

    bool string(std::string_view key, std::string &out);
    /** Plain decimal digits only, exact in 64 bits. */
    bool unsignedInt(std::string_view key, std::uint64_t &out);
    /** Any number token that converts to a finite double. */
    bool finiteDouble(std::string_view key, double &out);
    bool boolean(std::string_view key, bool &out);
    /** The FlatWriter::exactPair form: the bits are the value; the
     *  decimal must agree with them (checkExactDouble). */
    bool exactPair(std::string_view key, double &out);

    /** True when every key of the object was read. */
    bool finish();

  private:
    const FlatValue *find(std::string_view key, FlatValue::Kind kind,
                          const char *what);
    /** Name @p key and the type it must hold (and, when given, the
     *  value it held instead) in the error; returns false. */
    bool mismatch(std::string_view key, const char *what,
                  const FlatValue *value);

    const FlatObject &object_;
    std::string &error_;
    std::vector<const FlatValue *> read_;
};

/** The IEEE-754 bit pattern of @p value. */
std::uint64_t doubleBits(double value);

/** The double behind a doubleBits() pattern. */
double doubleFromBits(std::uint64_t bits);

/**
 * The canonical exact decimal form of a double: %.17g, which
 * round-trips the bit pattern. Every serializer that writes exact
 * doubles (the codec, workload names, golden files) renders through
 * this one function.
 */
std::string formatExactDouble(double value);

/** A 64-bit fingerprint or bit pattern in the "0x%016x" form. */
std::string formatFingerprint(std::uint64_t fingerprint);

/**
 * Parse the "0x%016x" form back. Returns false (leaving @p out
 * untouched) on anything else: wrong prefix, wrong length, digits
 * that are not lowercase hex.
 */
bool parseFingerprint(std::string_view text, std::uint64_t &out);

/**
 * Decode an exact decimal written beside its "0x%016x" bit pattern.
 * The bits are the value; the decimal must parse to the same bits
 * (any NaN matches any NaN, since a NaN's decimal drops its
 * payload). Returns nullptr and sets @p out on success, otherwise
 * the reason.
 */
const char *checkExactDouble(const std::string &decimal,
                             std::string_view bits, double &out);

} // namespace sbn

#endif // SBN_UTIL_FLATJSON_HH
