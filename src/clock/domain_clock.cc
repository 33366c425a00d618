#include "clock/domain_clock.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mcd
{

namespace
{

/**
 * A bound on the truncated jitter sigma x q over every draw q of
 * Rng::normal: the table is monotonic, so its ends bound each
 * interpolated draw; one tick of slack covers the interpolation's
 * rounding. An absurd sigma saturates at a bound no period reaches.
 */
Tick
maxJitterOf(double sigma, const double *quantiles)
{
    constexpr double SATURATED = 1.0e15;
    double q = std::max(std::abs(quantiles[0]),
                        std::abs(quantiles[Rng::NORMAL_TABLE_SIZE]));
    double bound = std::ceil(std::abs(sigma) * q) + 1.0;
    return static_cast<Tick>(bound < SATURATED ? bound : SATURATED);
}

} // namespace

DomainClock::DomainClock(DomainId id, const DvfsModel &dvfs,
                         Hertz start_freq, std::uint64_t seed, bool jittered)
    : id_(id), dvfs_(&dvfs),
      rng_(seed ^ (0x5bd1e995u * (static_cast<std::uint64_t>(id) + 1))),
      jittered_(jittered), sigma_(dvfs.config().jitterSigmaPs),
      quantiles_(Rng::normalQuantiles()),
      max_jitter_(jittered ? maxJitterOf(sigma_, quantiles_) : 0)
{
    setCurrent(dvfs_->quantize(start_freq));
    target_freq_ = cur_freq_;
    // Randomized starting phase within one period (Section 4).
    nominal_time_ = jittered_
        ? static_cast<Tick>(rng_.uniform() * static_cast<double>(period_))
        : 0;
    last_edge_ = -1; // allows a first edge at time 0
    next_edge_ = jitteredEdge();
}

void
DomainClock::saveState(std::string &out) const
{
    serial::appendDouble(out, cur_freq_);
    serial::appendDouble(out, target_freq_);
    serial::appendI64(out, nominal_time_);
    serial::appendI64(out, next_edge_);
    serial::appendI64(out, last_edge_);
    serial::appendU64(out, cycles_);
    serial::appendU64(out, freq_changes_);
    for (std::uint64_t word : rng_.state())
        serial::appendU64(out, word);
}

bool
DomainClock::loadState(serial::Reader &in)
{
    Hertz cur_freq = in.readDouble();
    Hertz target_freq = in.readDouble();
    Tick nominal_time = in.readI64();
    Tick next_edge = in.readI64();
    Tick last_edge = in.readI64();
    std::uint64_t cycles = in.readU64();
    std::uint64_t freq_changes = in.readU64();
    std::array<std::uint64_t, 4> rng_state;
    for (std::uint64_t &word : rng_state)
        word = in.readU64();
    if (!in.ok())
        return false;
    // The period is derived from cur_freq, so both frequencies must lie
    // in the grid's range before anything is computed from them. The
    // top grid point may round an ulp past freqMax; the negated range
    // test also rejects NaN.
    Hertz lowest = dvfs_->pointFreq(0);
    Hertz highest = std::max(dvfs_->config().freqMax,
                             dvfs_->pointFreq(dvfs_->numPoints() - 1));
    for (Hertz freq : {cur_freq, target_freq}) {
        if (!(freq >= lowest && freq <= highest))
            return false;
    }
    if (next_edge <= last_edge)
        return false;

    setCurrent(cur_freq);
    target_freq_ = target_freq;
    nominal_time_ = nominal_time;
    next_edge_ = next_edge;
    last_edge_ = last_edge;
    cycles_ = cycles;
    freq_changes_ = freq_changes;
    rng_.setState(rng_state);
    return true;
}

Hertz
DomainClock::setTargetFrequency(Hertz freq)
{
    Hertz quantized = dvfs_->quantize(freq);
    if (quantized != target_freq_) {
        target_freq_ = quantized;
        ++freq_changes_;
    }
    return quantized;
}

Hertz
DomainClock::setFrequencyImmediate(Hertz freq)
{
    Hertz quantized = dvfs_->quantize(freq);
    if (quantized != cur_freq_)
        ++freq_changes_;
    setCurrent(quantized);
    target_freq_ = quantized;
    return quantized;
}

} // namespace mcd
