#include "clock/dvfs_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mcd
{

DvfsModel::DvfsModel(const DvfsConfig &config)
    : config_(config)
{
    if (config_.numPoints < 2)
        mcd_fatal("DVFS grid needs at least 2 points, got %d",
                  config_.numPoints);
    if (config_.freqMax <= config_.freqMin)
        mcd_fatal("DVFS frequency range is empty");
    if (config_.syncWindowFraction < 0.0)
        mcd_fatal("synchronization window must not be negative");
    step_ = (config_.freqMax - config_.freqMin) / (config_.numPoints - 1);
    sync_window_ = static_cast<Tick>(
        config_.syncWindowFraction * 1e12 / config_.freqMax + 0.5);
    // slewNsPerMhz nanoseconds per megahertz of change:
    // rate = 1 MHz / (slewNsPerMhz ns) = 1e6 Hz / (slewNsPerMhz * 1e3 ticks)
    slew_hz_per_tick_ = 1e6 / (config_.slewNsPerMhz * 1e3);
}

Hertz
DvfsModel::quantize(Hertz freq) const
{
    Hertz clamped = std::clamp(freq, config_.freqMin, config_.freqMax);
    double idx = std::round((clamped - config_.freqMin) / step_);
    return config_.freqMin + idx * step_;
}

int
DvfsModel::pointIndex(Hertz freq) const
{
    Hertz clamped = std::clamp(freq, config_.freqMin, config_.freqMax);
    return static_cast<int>(
        std::round((clamped - config_.freqMin) / step_));
}

Hertz
DvfsModel::pointFreq(int index) const
{
    if (index < 0 || index >= config_.numPoints)
        mcd_panic("operating point index %d out of range", index);
    return config_.freqMin + index * step_;
}

Tick
DvfsModel::slewTime(Hertz from, Hertz to) const
{
    double delta_mhz = std::abs(to - from) / 1e6;
    return static_cast<Tick>(delta_mhz * config_.slewNsPerMhz * 1e3 + 0.5);
}

} // namespace mcd
