#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace mcd
{

void
RunningStats::push(double x)
{
    ++count_;
    if (count_ == 1) {
        mean_ = x;
        m2_ = 0.0;
        min_ = x;
        max_ = x;
        return;
    }
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStats::reset()
{
    count_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

Histogram::Histogram(double lo, double hi, int bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / bins),
      counts_(static_cast<std::size_t>(bins), 0)
{
    if (bins <= 0 || hi <= lo)
        mcd_fatal("invalid histogram range [%f, %f) with %d bins",
                  lo, hi, bins);
}

void
Histogram::push(double x)
{
    ++count_;
    int bin;
    if (x < lo_) {
        bin = 0;
    } else if (x >= hi_) {
        bin = bins() - 1;
    } else {
        bin = static_cast<int>((x - lo_) / width_);
        bin = std::min(bin, bins() - 1);
    }
    ++counts_[static_cast<std::size_t>(bin)];
}

std::uint64_t
Histogram::binCount(int bin) const
{
    if (bin < 0 || bin >= bins())
        mcd_panic("histogram bin %d out of range", bin);
    return counts_[static_cast<std::size_t>(bin)];
}

double
Histogram::binLow(int bin) const
{
    return lo_ + width_ * bin;
}

double
Histogram::binFraction(int bin) const
{
    if (count_ == 0)
        return 0.0;
    return static_cast<double>(binCount(bin)) /
           static_cast<double>(count_);
}

void
StatDump::set(const std::string &name, double value)
{
    values_[name] = value;
}

double
StatDump::get(const std::string &name) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        mcd_panic("unknown stat '%s'", name.c_str());
    return it->second;
}

bool
StatDump::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::string
StatDump::render() const
{
    std::ostringstream os;
    for (const auto &[name, value] : values_)
        os << name << " " << value << "\n";
    return os.str();
}

} // namespace mcd
