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

/**
 * Unsigned LEB128 varint: seven bits per byte, low group first, the
 * high bit set on every byte but the last. For the compact checkpoint
 * encodings, whose fields (sparse table indices, counters, stamps) are
 * mostly small; fixed-width appendU64 stays the layout of every key.
 */
inline void
appendVar(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out += static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    out += static_cast<char>(v);
}

/** Signed varint: zigzag (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...) over
 *  appendVar, so small magnitudes of either sign stay one byte. */
inline void
appendSVar(std::string &out, std::int64_t v)
{
    appendVar(out, (static_cast<std::uint64_t>(v) << 1) ^
                       static_cast<std::uint64_t>(v >> 63));
}

/**
 * Sparse table layout shared by the compact checkpoint encoders: the
 * table size, how many entries `keep(i)` selects, then per selected
 * entry its varint gap from the previous one (0 for adjacent entries)
 * followed by whatever `write(i)` appends.
 */
template <typename Keep, typename Write>
void
appendSparse(std::string &out, std::size_t size, Keep keep, Write write)
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < size; ++i)
        count += keep(i) ? 1 : 0;
    appendVar(out, size);
    appendVar(out, count);
    std::size_t next = 0;
    for (std::size_t i = 0; i < size; ++i) {
        if (!keep(i))
            continue;
        appendVar(out, i - next);
        write(i);
        next = i + 1;
    }
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

    /** Unread bytes: an upper bound on the count of any list still to
     *  come whose entries take at least one byte each, so a decoder
     *  can refuse a corrupt count before allocating for it. */
    std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

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

    /**
     * Inverse of appendVar. Only the canonical (shortest) encoding of
     * a value that fits 64 bits decodes: a redundant zero high group
     * or an overlong tail marks the data corrupt, so every accepted
     * blob re-encodes to the same bytes.
     */
    std::uint64_t
    readVar()
    {
        std::uint64_t v = 0;
        for (int shift = 0; take(1); shift += 7) {
            auto byte = static_cast<std::uint8_t>(data_[pos_ - 1]);
            std::uint64_t group = byte & 0x7f;
            if ((shift == 63 && byte > 1) ||
                (shift > 0 && byte == 0)) {
                ok_ = false;
                return 0;
            }
            v |= group << shift;
            if ((byte & 0x80) == 0)
                return v;
        }
        return 0;
    }

    /** Inverse of appendSVar. */
    std::int64_t
    readSVar()
    {
        std::uint64_t u = readVar();
        return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
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

/**
 * Inverse of appendSparse over a table of `size` entries: calls
 * `read(i)` to decode each stored entry's fields. False on a size
 * mismatch, a count above the table, an index that does not rise
 * within the table, short data, or a `read` that returns false — and
 * never calls `read` with an index outside the table.
 */
template <typename Read>
bool
readSparse(Reader &in, std::size_t size, Read read)
{
    std::uint64_t stored = in.readVar();
    std::uint64_t count = in.readVar();
    if (!in.ok() || stored != size || count > size)
        return false;
    std::uint64_t next = 0;
    for (std::uint64_t n = 0; n < count; ++n) {
        std::uint64_t gap = in.readVar();
        if (!in.ok() || gap >= size - next ||
            !read(static_cast<std::size_t>(next + gap)))
            return false;
        next += gap + 1;
    }
    return in.ok();
}

} // namespace mcd::serial

#endif // MCD_COMMON_SERIAL_HH
