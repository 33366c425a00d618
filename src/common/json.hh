/**
 * @file
 * Minimal JSON support for the serving layer and the CLI: a
 * recursive-descent parser into a small `Value` tree, and the emit
 * helpers (`escape`/`str`/`num`/`u64`) the JSON-producing surfaces
 * share. The grammar we exchange is flat and small — requests and
 * replies of the `mcd_cli serve` protocol, the CLI's `--json` output —
 * so a dependency-free ~300-line implementation beats vendoring a
 * library the container may not have.
 *
 * Parser notes:
 *  - Full JSON value grammar (objects, arrays, strings, numbers,
 *    true/false/null), UTF-8 passed through verbatim; `\uXXXX`
 *    escapes decode to UTF-8 (surrogate pairs included).
 *  - Object member order is preserved (vector of pairs, not a map);
 *    duplicate keys keep the first occurrence for `get()`.
 *  - Depth-limited (64) so hostile input cannot overflow the stack —
 *    this code sits behind a network-facing socket.
 */

#ifndef MCD_COMMON_JSON_HH
#define MCD_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mcd::json
{

/** One parsed JSON value (a tree; cheap enough at protocol sizes). */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup (objects only): first match, or nullptr. */
    const Value *get(const std::string &key) const;

    /** The member's string value, or `fallback` when absent/not a
     *  string. */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;

    /** The member's number, or `fallback` when absent/not a number. */
    double getNumber(const std::string &key, double fallback) const;

    /** getNumber narrowed to a non-negative integer (truncated);
     *  negative numbers return `fallback`. */
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback) const;
};

/**
 * Parse `text` (one complete JSON value, surrounding whitespace
 * allowed). Returns false — with a position-annotated message in
 * `error` when non-null — on any syntax violation, trailing garbage,
 * or excessive nesting; `out` is unspecified on failure.
 */
bool parse(const std::string &text, Value &out,
           std::string *error = nullptr);

/** Escape a string's content for embedding inside JSON quotes. */
std::string escape(const std::string &text);

/** A quoted, escaped JSON string literal. */
std::string str(const std::string &text);

/** A JSON number via %.17g (round-trips doubles); non-finite values
 *  emit `null`, which the flat stats grammar treats as absent. */
std::string num(double value);

/** A JSON integer literal. */
std::string u64(std::uint64_t value);

} // namespace mcd::json

#endif // MCD_COMMON_JSON_HH
