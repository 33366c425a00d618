#include "telemetry/stat_registry.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace mcd
{
namespace telemetry
{

namespace
{

/** Lower edge of bucket b: 0, 1, 2, 4, 8, ... (bit_width inverse). */
std::uint64_t
bucketLow(int b)
{
    return b == 0 ? 0 : 1ull << (b - 1);
}

/** Inclusive upper edge of bucket b: 0, 1, 3, 7, 15, ... */
std::uint64_t
bucketHigh(int b)
{
    if (b == 0)
        return 0;
    if (b >= 64)
        return ~0ull;
    return (1ull << b) - 1;
}

std::string
fmt(const char *f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

/** %.17g emitter matching common/json.hh's number convention, but
 *  local so telemetry keeps a std-only dependency surface. */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += fmt("\\u%04x",
                           static_cast<unsigned>(
                               static_cast<unsigned char>(c)));
            else
                out += c;
        }
    }
    return out;
}

} // namespace

double
HistogramData::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    // Rank of the target sample, 1-based, nearest-rank rounded up.
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count));
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;

    std::uint64_t seen = 0;
    for (int b = 0; b < BUCKETS; ++b) {
        if (buckets[b] == 0)
            continue;
        if (seen + buckets[b] >= rank) {
            // Interpolate inside this bucket by rank position.
            double lo = static_cast<double>(bucketLow(b));
            double hi = static_cast<double>(bucketHigh(b));
            double within = buckets[b] > 1
                ? static_cast<double>(rank - seen - 1) /
                    static_cast<double>(buckets[b] - 1)
                : 0.0;
            double v = lo + (hi - lo) * within;
            // The exact extremes are known; never report outside them.
            v = std::max(v, static_cast<double>(min));
            v = std::min(v, static_cast<double>(max));
            return v;
        }
        seen += buckets[b];
    }
    return static_cast<double>(max);
}

void
Histogram::record(std::uint64_t v)
{
    int b = std::bit_width(v);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);

    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v,
                                       std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v,
                                       std::memory_order_relaxed)) {
    }
}

HistogramData
Histogram::read() const
{
    HistogramData d;
    d.count = count_.load(std::memory_order_relaxed);
    d.sum = sum_.load(std::memory_order_relaxed);
    std::uint64_t mn = min_.load(std::memory_order_relaxed);
    d.min = d.count > 0 && mn != ~0ull ? mn : 0;
    d.max = max_.load(std::memory_order_relaxed);
    for (int b = 0; b < HistogramData::BUCKETS; ++b)
        d.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    return d;
}

void
Histogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~0ull, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

StatRegistry &
StatRegistry::instance()
{
    // Leaked on purpose: subsystems bump stats from static-destruction
    // order we don't control, so the registry must never die first.
    static StatRegistry *registry = new StatRegistry();
    return *registry;
}

Counter &
StatRegistry::counter(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = stats_[path];
    if (!e.ownedCounter) {
        e = Entry{};
        e.kind = StatValue::Kind::Counter;
        e.ownedCounter = std::make_unique<Counter>();
    }
    return *e.ownedCounter;
}

Histogram &
StatRegistry::histogram(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = stats_[path];
    if (!e.ownedHistogram) {
        e = Entry{};
        e.kind = StatValue::Kind::Histogram;
        e.ownedHistogram = std::make_unique<Histogram>();
    }
    return *e.ownedHistogram;
}

void
StatRegistry::bindCounter(const std::string &path, const Counter *stat)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry e;
    e.kind = StatValue::Kind::Counter;
    e.boundCounter = stat;
    stats_[path] = std::move(e);
}

void
StatRegistry::bindFn(const std::string &path,
                     std::function<std::uint64_t()> fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry e;
    e.kind = StatValue::Kind::Counter;
    e.fn = std::move(fn);
    stats_[path] = std::move(e);
}

void
StatRegistry::unbind(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = stats_.find(path);
    if (it == stats_.end())
        return;
    const Entry &e = it->second;
    if (e.ownedCounter || e.ownedHistogram)
        return; // owned stats are process-lifetime
    stats_.erase(it);
}

std::vector<StatValue>
StatRegistry::snapshot(const std::string &prefix) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<StatValue> out;
    out.reserve(stats_.size());
    for (const auto &[path, e] : stats_) {
        if (path.compare(0, prefix.size(), prefix) != 0)
            continue;
        StatValue v;
        v.path = path;
        v.kind = e.kind;
        switch (e.kind) {
          case StatValue::Kind::Counter:
            if (e.fn)
                v.counter = e.fn();
            else if (e.boundCounter)
                v.counter = e.boundCounter->value();
            else if (e.ownedCounter)
                v.counter = e.ownedCounter->value();
            break;
          case StatValue::Kind::Histogram:
            if (e.ownedHistogram)
                v.hist = e.ownedHistogram->read();
            break;
        }
        out.push_back(std::move(v));
    }
    // std::map iteration is already sorted; keep the contract explicit
    // in case the container ever changes.
    std::sort(out.begin(), out.end(),
              [](const StatValue &a, const StatValue &b) {
                  return a.path < b.path;
              });
    return out;
}

std::string
StatRegistry::renderJson(const std::vector<StatValue> &stats)
{
    std::string out = "{";
    bool first = true;
    for (const StatValue &s : stats) {
        if (!first)
            out += ",";
        first = false;
        out += "\n  \"" + jsonEscape(s.path) + "\": ";
        switch (s.kind) {
          case StatValue::Kind::Counter:
            out += fmt("%" PRIu64, s.counter);
            break;
          case StatValue::Kind::Histogram:
            out += fmt("{\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                       ", \"min\": %" PRIu64 ", \"max\": %" PRIu64,
                       s.hist.count, s.hist.sum, s.hist.min,
                       s.hist.max);
            out += ", \"mean\": " + num(s.hist.mean());
            out += ", \"p50\": " + num(s.hist.quantile(0.5));
            out += ", \"p95\": " + num(s.hist.quantile(0.95));
            out += ", \"p99\": " + num(s.hist.quantile(0.99));
            out += "}";
            break;
        }
    }
    out += first ? "}" : "\n}";
    return out;
}

} // namespace telemetry
} // namespace mcd
