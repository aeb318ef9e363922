#include "util/flatjson.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace sbn {

namespace {

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

int
hexDigit(char c)
{
    if (isDigit(c))
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

/**
 * Length of the number token at the start of @p s, or 0 if there is
 * none. Sets @p may_overflow when the token is large enough that only
 * converting it can tell whether it fits a double.
 */
std::size_t
numberLength(std::string_view s, bool &may_overflow)
{
    for (const std::string_view word : {"-nan", "-inf", "nan", "inf"})
        if (s.substr(0, word.size()) == word)
            return word.size();
    std::size_t i = !s.empty() && s[0] == '-' ? 1 : 0;
    const std::size_t digits = i;
    if (i < s.size() && s[i] == '0')
        ++i;
    else
        while (i < s.size() && isDigit(s[i]))
            ++i;
    if (i == digits)
        return 0;
    // DBL_MAX has 309 integer digits.
    may_overflow = i - digits >= 309;
    if (i < s.size() && s[i] == '.') {
        const std::size_t fraction = ++i;
        while (i < s.size() && isDigit(s[i]))
            ++i;
        if (i == fraction)
            return 0;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < s.size() && (s[i] == '+' || s[i] == '-'))
            ++i;
        const std::size_t exponent = i;
        while (i < s.size() && isDigit(s[i]))
            ++i;
        if (i == exponent)
            return 0;
        may_overflow = true;
    }
    return i;
}

/** Cursor over the line being parsed. */
class Lexer
{
  public:
    Lexer(std::string_view line, std::string &error)
        : line_(line), error_(error)
    {
    }

    bool atEnd() const { return pos_ >= line_.size(); }

    void skipSpace()
    {
        while (!atEnd() && (line_[pos_] == ' ' || line_[pos_] == '\t'))
            ++pos_;
    }

    bool consume(char c)
    {
        if (atEnd() || line_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool fail(const std::string &what)
    {
        error_ = what + " at column " + std::to_string(pos_ + 1);
        return false;
    }

    bool string(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        for (;;) {
            const std::size_t run = pos_;
            while (!atEnd() && line_[pos_] != '"' && line_[pos_] != '\\' &&
                   static_cast<unsigned char>(line_[pos_]) >= 0x20)
                ++pos_;
            out.append(line_.substr(run, pos_ - run));
            if (atEnd())
                return fail("unterminated string");
            if (consume('"'))
                return true;
            if (line_[pos_] != '\\')
                return fail("raw control character in a string");
            if (!escape(out))
                return fail("unsupported escape in a string");
        }
    }

    bool value(FlatValue &out)
    {
        if (atEnd())
            return fail("expected a value");
        if (line_[pos_] == '"') {
            out.kind = FlatValue::Kind::String;
            return string(out.text);
        }
        const std::string_view rest = line_.substr(pos_);
        for (const auto &[word, kind] :
             {std::pair{std::string_view("true"), FlatValue::Kind::Bool},
              std::pair{std::string_view("false"), FlatValue::Kind::Bool},
              std::pair{std::string_view("null"), FlatValue::Kind::Null}}) {
            if (rest.substr(0, word.size()) == word) {
                out.kind = kind;
                out.text = word;
                pos_ += word.size();
                return true;
            }
        }
        bool may_overflow = false;
        const std::size_t length = numberLength(rest, may_overflow);
        if (length == 0)
            return fail("expected a value");
        out.kind = FlatValue::Kind::Number;
        out.text = rest.substr(0, length);
        if (may_overflow && !std::isfinite(std::strtod(out.text.c_str(),
                                                       nullptr)))
            return fail("number '" + out.text + "' overflows a double");
        pos_ += length;
        return true;
    }

  private:
    /** The escape at pos_ (a backslash), exactly as appendEscaped
     *  writes it. */
    bool escape(std::string &out)
    {
        const std::string_view rest = line_.substr(pos_);
        if (rest.size() < 2)
            return false;
        char c = '\0';
        switch (rest[1]) {
        case '"':
        case '\\':
            c = rest[1];
            break;
        case 'n':
            c = '\n';
            break;
        case 'r':
            c = '\r';
            break;
        case 't':
            c = '\t';
            break;
        }
        if (c != '\0') {
            out += c;
            pos_ += 2;
            return true;
        }
        // \u00XX: the control characters without a short escape.
        if (rest.size() < 6 || rest.substr(1, 3) != "u00")
            return false;
        const int high = hexDigit(rest[4]);
        const int low = hexDigit(rest[5]);
        if (high < 0 || high > 1 || low < 0)
            return false;
        c = static_cast<char>(high * 16 + low);
        if (c == '\n' || c == '\r' || c == '\t')
            return false;
        out += c;
        pos_ += 6;
        return true;
    }

    std::string_view line_;
    std::string &error_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseFlatObject(std::string_view line, FlatObject &out,
                std::string &error)
{
    out.clear();
    Lexer lex(line, error);
    lex.skipSpace();
    if (!lex.consume('{'))
        return lex.fail("expected '{'");
    lex.skipSpace();
    if (!lex.consume('}')) {
        for (;;) {
            lex.skipSpace();
            std::string key;
            if (!lex.string(key))
                return false;
            lex.skipSpace();
            if (!lex.consume(':'))
                return lex.fail("expected ':'");
            lex.skipSpace();
            FlatValue value;
            if (!lex.value(value))
                return false;
            // try_emplace leaves the key alone when it is a duplicate.
            if (!out.try_emplace(std::move(key), std::move(value)).second)
                return lex.fail("duplicate key \"" + key + "\"");
            lex.skipSpace();
            if (lex.consume('}'))
                break;
            if (!lex.consume(','))
                return lex.fail("expected ',' or '}'");
        }
    }
    lex.skipSpace();
    if (!lex.atEnd())
        return lex.fail("trailing bytes after the object");
    return true;
}

void
appendEscaped(std::string &out, std::string_view text)
{
    // Plain bytes are copied a run at a time; most text needs no
    // escape at all.
    std::size_t run = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
            continue;
        out.append(text.substr(run, i - run));
        out += '\\';
        switch (c) {
        case '"':
        case '\\':
            out += c;
            break;
        case '\n':
            out += 'n';
            break;
        case '\r':
            out += 'r';
            break;
        case '\t':
            out += 't';
            break;
        default:
            const char *const hex = "0123456789abcdef";
            out += "u00";
            out += hex[c >> 4];
            out += hex[c & 0xf];
        }
        run = i + 1;
    }
    out.append(text.substr(run));
}

std::string
renderFlatObject(const FlatObject &object)
{
    std::string out = "{";
    for (const auto &[key, value] : object) {
        if (out.size() > 1)
            out += ',';
        out += '"';
        appendEscaped(out, key);
        out += "\":";
        if (value.kind == FlatValue::Kind::String) {
            out += '"';
            appendEscaped(out, value.text);
            out += '"';
        } else {
            out += value.text;
        }
    }
    out += '}';
    return out;
}

void
FlatWriter::key(std::string_view key)
{
    if (out_.size() > 1)
        out_ += ',';
    out_ += '"';
    appendEscaped(out_, key);
    out_ += "\":";
}

FlatWriter &
FlatWriter::string(std::string_view key, std::string_view value)
{
    this->key(key);
    out_ += '"';
    appendEscaped(out_, value);
    out_ += '"';
    return *this;
}

FlatWriter &
FlatWriter::unsignedInt(std::string_view key, std::uint64_t value)
{
    this->key(key);
    out_ += std::to_string(value);
    return *this;
}

FlatWriter &
FlatWriter::integer(std::string_view key, long long value)
{
    this->key(key);
    out_ += std::to_string(value);
    return *this;
}

FlatWriter &
FlatWriter::boolean(std::string_view key, bool value)
{
    this->key(key);
    out_ += value ? "true" : "false";
    return *this;
}

FlatWriter &
FlatWriter::null(std::string_view key)
{
    this->key(key);
    out_ += "null";
    return *this;
}

FlatWriter &
FlatWriter::exact(std::string_view key, double value)
{
    this->key(key);
    out_ += formatExactDouble(value);
    return *this;
}

FlatWriter &
FlatWriter::exactPair(std::string_view key, double value)
{
    exact(key, value);
    std::string bits_key(key);
    bits_key += "_bits";
    return string(bits_key, formatFingerprint(doubleBits(value)));
}

FlatWriter &
FlatWriter::fixed(std::string_view key, double value, int places)
{
    this->key(key);
    char buffer[512];
    std::snprintf(buffer, sizeof buffer, "%.*f", places, value);
    out_ += buffer;
    return *this;
}

FlatWriter::FlatWriter()
{
    // Room for a point record with its latency group.
    out_.reserve(768);
    out_ += '{';
}

std::string
FlatWriter::finish()
{
    out_ += '}';
    return std::move(out_);
}

FlatReader::FlatReader(const FlatObject &object, std::string &error)
    : object_(object), error_(error)
{
    read_.reserve(object.size());
}

bool
FlatReader::has(std::string_view key) const
{
    return object_.find(key) != object_.end();
}

bool
FlatReader::mismatch(std::string_view key, const char *what,
                     const FlatValue *value)
{
    error_ = "key \"" + std::string(key) + "\" must be " + what;
    if (value != nullptr)
        error_ += ", not " + value->text;
    return false;
}

const FlatValue *
FlatReader::find(std::string_view key, FlatValue::Kind kind,
                 const char *what)
{
    const auto it = object_.find(key);
    if (it == object_.end()) {
        error_ = "missing key \"" + std::string(key) + "\"";
        return nullptr;
    }
    if (it->second.kind != kind) {
        mismatch(key, what, nullptr);
        return nullptr;
    }
    read_.push_back(&it->second);
    return &it->second;
}

bool
FlatReader::string(std::string_view key, std::string &out)
{
    const FlatValue *value = find(key, FlatValue::Kind::String, "a string");
    if (value == nullptr)
        return false;
    out = value->text;
    return true;
}

bool
FlatReader::unsignedInt(std::string_view key, std::uint64_t &out)
{
    const char *const what = "an unsigned integer";
    const FlatValue *value = find(key, FlatValue::Kind::Number, what);
    if (value == nullptr)
        return false;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t result = 0;
    for (const char c : value->text) {
        if (!isDigit(c) ||
            result > (kMax - static_cast<std::uint64_t>(c - '0')) / 10)
            return mismatch(key, what, value);
        result = result * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = result;
    return true;
}

bool
FlatReader::finiteDouble(std::string_view key, double &out)
{
    const char *const what = "a finite number";
    const FlatValue *value = find(key, FlatValue::Kind::Number, what);
    if (value == nullptr)
        return false;
    const double result = std::strtod(value->text.c_str(), nullptr);
    if (!std::isfinite(result))
        return mismatch(key, what, value);
    out = result;
    return true;
}

bool
FlatReader::boolean(std::string_view key, bool &out)
{
    const FlatValue *value = find(key, FlatValue::Kind::Bool, "true or false");
    if (value == nullptr)
        return false;
    out = value->text == "true";
    return true;
}

bool
FlatReader::exactPair(std::string_view key, double &out)
{
    std::string bits_key(key);
    bits_key += "_bits";
    const FlatValue *decimal = find(key, FlatValue::Kind::Number, "a number");
    const FlatValue *bits =
        decimal == nullptr
            ? nullptr
            : find(bits_key, FlatValue::Kind::String, "a bit pattern string");
    if (bits == nullptr)
        return false;
    if (const char *why = checkExactDouble(decimal->text, bits->text, out)) {
        error_ = "\"" + std::string(key) + "\" (" + decimal->text +
                 ") and \"" + bits_key + "\" (" + bits->text + "): " + why;
        return false;
    }
    return true;
}

bool
FlatReader::finish()
{
    for (const auto &[key, value] : object_) {
        if (std::find(read_.begin(), read_.end(), &value) == read_.end()) {
            error_ = "unexpected key \"" + key + "\"";
            return false;
        }
    }
    return true;
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof value, "IEEE-754 double");
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

double
doubleFromBits(std::uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof value);
    return value;
}

std::string
formatExactDouble(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string
formatFingerprint(std::uint64_t fingerprint)
{
    char buffer[24];
    std::snprintf(buffer, sizeof buffer, "0x%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return buffer;
}

bool
parseFingerprint(std::string_view text, std::uint64_t &out)
{
    if (text.size() != 18 || text[0] != '0' || text[1] != 'x')
        return false;
    std::uint64_t value = 0;
    for (const char c : text.substr(2)) {
        const int digit = hexDigit(c);
        if (digit < 0)
            return false;
        value = (value << 4) | static_cast<std::uint64_t>(digit);
    }
    out = value;
    return true;
}

const char *
checkExactDouble(const std::string &decimal, std::string_view bits,
                 double &out)
{
    std::uint64_t pattern = 0;
    if (!parseFingerprint(bits, pattern))
        return "the bit pattern is not 0x plus 16 hex digits";
    char *end = nullptr;
    const double parsed = std::strtod(decimal.c_str(), &end);
    if (decimal.empty() || end != decimal.c_str() + decimal.size())
        return "the decimal is not a number";
    const double value = doubleFromBits(pattern);
    if (!(std::isnan(parsed) && std::isnan(value)) &&
        doubleBits(parsed) != pattern)
        return "the decimal disagrees with the bit pattern";
    out = value;
    return nullptr;
}

} // namespace sbn
