#include "memory/cache.hh"

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

void
Cache::invalidate(std::uint64_t addr)
{
    if (Line *line = findLine(addr)) {
        line->valid = false;
        line->dirty = false;
    }
}

void
Cache::saveState(std::string &out) const
{
    serial::appendU64(out, lines_.size());
    for (const Line &line : lines_) {
        serial::appendU64(out, line.tag);
        serial::appendU64(out, (line.valid ? 1u : 0u) |
                                   (line.dirty ? 2u : 0u));
        serial::appendU64(out, line.lruStamp);
    }
    serial::appendU64(out, lru_clock_);
    serial::appendU64(out, hits_.value());
    serial::appendU64(out, misses_.value());
    serial::appendU64(out, writebacks_.value());
}

bool
Cache::loadState(serial::Reader &in)
{
    if (in.readU64() != lines_.size())
        return false;
    for (Line &line : lines_) {
        line.tag = in.readU64();
        std::uint64_t flags = in.readU64();
        line.valid = (flags & 1u) != 0;
        line.dirty = (flags & 2u) != 0;
        line.lruStamp = in.readU64();
    }
    lru_clock_ = in.readU64();
    hits_.set(in.readU64());
    misses_.set(in.readU64());
    writebacks_.set(in.readU64());
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
