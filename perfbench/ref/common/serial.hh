/**
 * @file
 * Exact byte serialization shared by the cache keys and the artifact
 * store, plus the FNV-1a string hash. ControllerSpec::appendTo, the
 * spec cacheKey() builders, and the artifact encoders jointly build
 * their byte strings from these helpers, so there is exactly one
 * definition of the byte layout: equal serializations are the store's
 * proof of bit-identical values (doubles are appended as raw IEEE-754
 * bits, strings length-prefixed, so no two distinct values ever
 * collide), and `Reader` is the exact inverse used to decode persisted
 * artifacts (any truncation or trailing garbage marks the blob
 * corrupt instead of decoding to a wrong value).
 */

#ifndef MCD_COMMON_SERIAL_HH
#define MCD_COMMON_SERIAL_HH

#include <cstdint>
#include <cstring>
#include <string>

namespace mcd::serial
{

inline void
appendU64(std::string &out, std::uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

inline void
appendI64(std::string &out, std::int64_t v)
{
    appendU64(out, static_cast<std::uint64_t>(v));
}

inline void
appendDouble(std::string &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    appendU64(out, bits);
}

inline void
appendString(std::string &out, const std::string &s)
{
    appendU64(out, s.size());
    out += s;
}

/** FNV-1a: a build-independent deterministic string hash. */
inline std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Sequential decoder over a byte string written with the append
 * helpers. Every read checks bounds; the first short or malformed
 * field latches `ok()` false and makes all subsequent reads return
 * zero values, so a decoder can run to completion and test `ok()`
 * (plus `atEnd()` for trailing garbage) once at the end.
 */
class Reader
{
  public:
    explicit Reader(const std::string &data) : data_(data) {}

    bool ok() const { return ok_; }
    bool atEnd() const { return ok_ && pos_ == data_.size(); }

    std::uint64_t
    readU64()
    {
        if (!take(sizeof(std::uint64_t)))
            return 0;
        std::uint64_t v;
        std::memcpy(&v, data_.data() + pos_ - sizeof(v), sizeof(v));
        return v;
    }

    std::int64_t
    readI64()
    {
        return static_cast<std::int64_t>(readU64());
    }

    double
    readDouble()
    {
        std::uint64_t bits = readU64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return ok_ ? v : 0.0;
    }

    std::string
    readString()
    {
        std::uint64_t n = readU64();
        if (!ok_ || n > data_.size() - pos_) {
            ok_ = false;
            return {};
        }
        std::string s = data_.substr(pos_, n);
        pos_ += n;
        return s;
    }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || n > data_.size() - pos_) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    const std::string &data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace mcd::serial

#endif // MCD_COMMON_SERIAL_HH
