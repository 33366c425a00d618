#include "clock/domain_clock.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mcd
{

DomainClock::DomainClock(DomainId id, const DvfsModel &dvfs,
                         Hertz start_freq, std::uint64_t seed, bool jittered)
    : id_(id), dvfs_(&dvfs),
      rng_(seed ^ (0x5bd1e995u * (static_cast<std::uint64_t>(id) + 1))),
      jittered_(jittered)
{
    cur_freq_ = dvfs_->quantize(start_freq);
    target_freq_ = cur_freq_;
    // Randomized starting phase within one period (Section 4).
    Tick period = periodFromFreq(cur_freq_);
    nominal_time_ = jittered_
        ? static_cast<Tick>(rng_.uniform() * static_cast<double>(period))
        : 0;
    last_edge_ = -1; // allows a first edge at time 0
    next_edge_ = jitteredEdge();
}

Tick
DomainClock::advance()
{
    Tick edge = next_edge_;
    last_edge_ = edge;
    ++cycles_;

    Tick period = periodFromFreq(cur_freq_);
    stepSlew(period);
    // Period for the upcoming cycle reflects the post-slew frequency.
    nominal_time_ += periodFromFreq(cur_freq_);
    next_edge_ = jitteredEdge();
    return edge;
}

void
DomainClock::stepSlew(Tick elapsed)
{
    if (cur_freq_ == target_freq_)
        return;
    double delta = dvfs_->slewHzPerTick() * static_cast<double>(elapsed);
    if (cur_freq_ < target_freq_)
        cur_freq_ = std::min(target_freq_, cur_freq_ + delta);
    else
        cur_freq_ = std::max(target_freq_, cur_freq_ - delta);
}

Tick
DomainClock::jitteredEdge()
{
    Tick edge = nominal_time_;
    if (jittered_) {
        double jitter = rng_.normal(0.0, dvfs_->config().jitterSigmaPs);
        edge += static_cast<Tick>(jitter);
    }
    // Edges must remain strictly monotonic even under extreme jitter
    // draws; clamp to one tick past the previous edge.
    return std::max(edge, last_edge_ + 1);
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
    cur_freq_ = in.readDouble();
    target_freq_ = in.readDouble();
    nominal_time_ = in.readI64();
    next_edge_ = in.readI64();
    last_edge_ = in.readI64();
    cycles_ = in.readU64();
    freq_changes_ = in.readU64();
    std::array<std::uint64_t, 4> rng_state;
    for (std::uint64_t &word : rng_state)
        word = in.readU64();
    rng_.setState(rng_state);
    return in.ok();
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
    cur_freq_ = quantized;
    target_freq_ = quantized;
    return quantized;
}

} // namespace mcd
