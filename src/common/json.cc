#include "common/json.hh"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <cstdlib>

namespace mcd::json
{

namespace
{

/** Recursive-descent parser over a borrowed text buffer. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    run(Value &out, std::string *error)
    {
        bool ok = parseValue(out, 0) && (skipSpace(), pos_ == text_.size());
        if (!ok) {
            if (error_.empty())
                error_ = "trailing characters";
            if (error)
                *error = error_ + " at byte " + std::to_string(pos_);
        }
        return ok;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const char *message)
    {
        if (error_.empty())
            error_ = message;
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char expected)
    {
        if (pos_ < text_.size() && text_[pos_] == expected) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, std::size_t length)
    {
        if (text_.compare(pos_, length, word) != 0)
            return false;
        pos_ += length;
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{': return parseObject(out, depth);
          case '[': return parseArray(out, depth);
          case '"':
            out.kind = Value::Kind::String;
            return parseString(out.string);
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true", 4) || fail("bad literal");
          case 'f':
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            return literal("false", 5) || fail("bad literal");
          case 'n':
            out.kind = Value::Kind::Null;
            return literal("null", 4) || fail("bad literal");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(Value &out, int depth)
    {
        out.kind = Value::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (consume('}'))
            return true;
        while (true) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (!consume(':'))
                return fail("expected ':'");
            Value member;
            if (!parseValue(member, depth + 1))
                return false;
            out.object.emplace_back(std::move(key), std::move(member));
            skipSpace();
            if (consume('}'))
                return true;
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Value &out, int depth)
    {
        out.kind = Value::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (consume(']'))
            return true;
        while (true) {
            Value element;
            if (!parseValue(element, depth + 1))
                return false;
            out.array.push_back(std::move(element));
            skipSpace();
            if (consume(']'))
                return true;
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    bool
    hexQuad(unsigned &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad \\u escape");
        }
        return true;
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // '"'
        out.clear();
        while (true) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned cp = 0;
                if (!hexQuad(cp))
                    return false;
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // High surrogate: require a paired low surrogate.
                    if (!literal("\\u", 2))
                        return fail("unpaired surrogate");
                    unsigned low = 0;
                    if (!hexQuad(low))
                        return false;
                    if (low < 0xdc00 || low > 0xdfff)
                        return fail("unpaired surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (low - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    return fail("unpaired surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("bad escape");
            }
        }
    }

    bool
    parseNumber(Value &out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        std::size_t digits = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ == digits)
            return fail("expected a value");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            std::size_t frac = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            if (pos_ == frac)
                return fail("bad number");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            std::size_t exp = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            if (pos_ == exp)
                return fail("bad number");
        }
        out.kind = Value::Kind::Number;
        out.number =
            std::strtod(text_.substr(start, pos_ - start).c_str(),
                        nullptr);
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::string error_;
};

} // namespace

const Value *
Value::get(const std::string &key) const
{
    for (const auto &[name, value] : object)
        if (name == key)
            return &value;
    return nullptr;
}

std::string
Value::getString(const std::string &key,
                 const std::string &fallback) const
{
    const Value *v = get(key);
    return v && v->isString() ? v->string : fallback;
}

double
Value::getNumber(const std::string &key, double fallback) const
{
    const Value *v = get(key);
    return v && v->isNumber() ? v->number : fallback;
}

std::uint64_t
Value::getU64(const std::string &key, std::uint64_t fallback) const
{
    const Value *v = get(key);
    if (!v || !v->isNumber() || v->number < 0.0)
        return fallback;
    return static_cast<std::uint64_t>(v->number);
}

bool
parse(const std::string &text, Value &out, std::string *error)
{
    out = Value{};
    return Parser(text).run(out, error);
}

std::string
escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
str(const std::string &text)
{
    // Built with += (not `"\"" + ... + "\""`): GCC 12's -Wrestrict
    // false-positives on prepending a literal to an rvalue string.
    std::string out;
    out.reserve(text.size() + 2);
    out += '"';
    out += escape(text);
    out += '"';
    return out;
}

std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    // JSON has no infinities or NaNs; the stats never produce them,
    // but guard anyway.
    if (std::strchr(buf, 'n') || std::strchr(buf, 'i'))
        return "null";
    return buf;
}

std::string
u64(std::uint64_t value)
{
    return std::to_string(value);
}

} // namespace mcd::json
