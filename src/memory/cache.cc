#include "memory/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace mcd
{

namespace
{

bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    if (!isPowerOfTwo(config_.sizeBytes) ||
        !isPowerOfTwo(static_cast<std::uint64_t>(config_.lineBytes)))
        mcd_fatal("%s: size and line size must be powers of two",
                  config_.name.c_str());
    if (config_.associativity < 1)
        mcd_fatal("%s: associativity must be >= 1", config_.name.c_str());

    std::uint64_t num_lines = config_.sizeBytes /
        static_cast<std::uint64_t>(config_.lineBytes);
    if (num_lines % static_cast<std::uint64_t>(config_.associativity) != 0)
        mcd_fatal("%s: lines not divisible by associativity",
                  config_.name.c_str());
    num_sets_ = static_cast<int>(
        num_lines / static_cast<std::uint64_t>(config_.associativity));
    if (!isPowerOfTwo(static_cast<std::uint64_t>(num_sets_)))
        mcd_fatal("%s: set count must be a power of two",
                  config_.name.c_str());
    line_shift_ = std::countr_zero(
        static_cast<std::uint64_t>(config_.lineBytes));
    set_bits_ = std::countr_zero(static_cast<std::uint64_t>(num_sets_));
    lines_.resize(num_lines);
}

int
Cache::setIndex(std::uint64_t addr) const
{
    return static_cast<int>(
        (addr >> line_shift_) &
        static_cast<std::uint64_t>(num_sets_ - 1));
}

std::uint64_t
Cache::tagOf(std::uint64_t addr) const
{
    return addr >> line_shift_;
}

Cache::Line *
Cache::findLine(std::uint64_t addr)
{
    int set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    auto *base = &lines_[static_cast<std::size_t>(set) *
                         static_cast<std::size_t>(config_.associativity)];
    for (int w = 0; w < config_.associativity; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(std::uint64_t addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

CacheAccessResult
Cache::access(std::uint64_t addr, bool write)
{
    CacheAccessResult result;
    ++lru_clock_;

    if (Line *line = findLine(addr)) {
        hits_.inc();
        line->lruStamp = lru_clock_;
        line->dirty = line->dirty || write;
        result.hit = true;
        return result;
    }

    misses_.inc();

    // Choose a victim: first invalid way, otherwise true LRU.
    int set = setIndex(addr);
    auto *base = &lines_[static_cast<std::size_t>(set) *
                         static_cast<std::size_t>(config_.associativity)];
    Line *victim = &base[0];
    for (int w = 0; w < config_.associativity; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }

    if (victim->valid && victim->dirty) {
        writebacks_.inc();
        result.writeback = true;
        result.victimAddr = victim->tag << line_shift_;
    }

    victim->valid = true;
    victim->dirty = write;
    victim->tag = tagOf(addr);
    victim->lruStamp = lru_clock_;
    return result;
}

bool
Cache::probe(std::uint64_t addr) const
{
    return findLine(addr) != nullptr;
}

// Valid lines only (serial::appendSparse): per line the tag above the
// set bits (the set is the line's position) with the dirty bit, and
// the LRU stamp. Invalid lines load as default lines, which is exact:
// a run never reads an invalid line's fields (findLine tests `valid`
// first, and victim choice takes the first invalid way before
// comparing any stamp).
void
Cache::saveState(std::string &out) const
{
    serial::appendSparse(
        out, lines_.size(), [&](std::size_t i) { return lines_[i].valid; },
        [&](std::size_t i) {
            const Line &line = lines_[i];
            serial::appendVar(out, (line.tag >> set_bits_) << 1 |
                                       (line.dirty ? 1 : 0));
            serial::appendVar(out, line.lruStamp);
        });
    serial::appendVar(out, lru_clock_);
    serial::appendVar(out, hits_.value());
    serial::appendVar(out, misses_.value());
    serial::appendVar(out, writebacks_.value());
}

bool
Cache::loadState(serial::Reader &in)
{
    std::fill(lines_.begin(), lines_.end(), Line{});
    auto ways = static_cast<std::size_t>(config_.associativity);
    bool lines_ok =
        serial::readSparse(in, lines_.size(), [&](std::size_t i) {
            std::uint64_t tag_dirty = in.readVar();
            Line &line = lines_[i];
            line.valid = true;
            line.dirty = (tag_dirty & 1) != 0;
            line.tag = (tag_dirty >> 1) << set_bits_ | i / ways;
            line.lruStamp = in.readVar();
            return true;
        });
    if (!lines_ok)
        return false;
    lru_clock_ = in.readVar();
    hits_.set(in.readVar());
    misses_.set(in.readVar());
    writebacks_.set(in.readVar());
    return in.ok();
}

double
Cache::missRate() const
{
    std::uint64_t total = hits_.value() + misses_.value();
    if (total == 0)
        return 0.0;
    return static_cast<double>(misses_.value()) /
           static_cast<double>(total);
}

} // namespace mcd
