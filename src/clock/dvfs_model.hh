/**
 * @file
 * The DVFS operating-point model of Table 1 / Section 4.
 *
 * 320 frequency points span a linear range from 1.0 GHz down to 250 MHz;
 * a linear voltage range from 1.2 V down to 0.65 V corresponds to the
 * frequency points (the paper's approximation of XScale's smooth
 * transitions). Frequency changes slew at 49.1 ns/MHz and the processor
 * executes through the change. Inter-domain communication is guarded by a
 * synchronization window of 30 % of the 1.0 GHz period (300 ps).
 */

#ifndef MCD_CLOCK_DVFS_MODEL_HH
#define MCD_CLOCK_DVFS_MODEL_HH

#include <algorithm>

#include "common/types.hh"

namespace mcd
{

/** Configuration of the DVFS model; defaults are the paper's Table 1. */
struct DvfsConfig
{
    Hertz freqMax = 1.0e9;          //!< 1.0 GHz
    Hertz freqMin = 250.0e6;        //!< 250 MHz
    Volt voltMax = 1.20;            //!< at freqMax
    Volt voltMin = 0.65;            //!< at freqMin
    int numPoints = 320;            //!< linear frequency grid
    double slewNsPerMhz = 49.1;     //!< XScale frequency change rate [7]
    double jitterSigmaPs = 110.0;   //!< per-edge clock jitter, N(0, sigma)
    double syncWindowFraction = 0.30; //!< of the 1.0 GHz period
};

/**
 * Immutable operating-point table: quantization to the 320-point grid and
 * the linear V(f) map.
 */
class DvfsModel
{
  public:
    explicit DvfsModel(const DvfsConfig &config = DvfsConfig{});

    const DvfsConfig &config() const { return config_; }

    /** Grid spacing in hertz between adjacent operating points. */
    Hertz stepHz() const { return step_; }

    /** Number of operating points. */
    int numPoints() const { return config_.numPoints; }

    /** Clamp to [freqMin, freqMax] and snap to the nearest grid point. */
    Hertz quantize(Hertz freq) const;

    /** Index of the grid point for a (quantized) frequency; 0 = freqMin. */
    int pointIndex(Hertz freq) const;

    /** Frequency of the grid point with the given index. */
    Hertz pointFreq(int index) const;

    /** Supply voltage for a frequency via the linear map (clamped). */
    Volt
    voltage(Hertz freq) const
    {
        Hertz clamped = std::clamp(freq, config_.freqMin, config_.freqMax);
        double t = (clamped - config_.freqMin) /
                   (config_.freqMax - config_.freqMin);
        return config_.voltMin + t * (config_.voltMax - config_.voltMin);
    }

    /** Synchronization window in ticks (300 ps for default config). */
    Tick syncWindow() const { return sync_window_; }

    /**
     * Time to slew between two frequencies, in ticks:
     * |f1 - f0| (MHz) * slewNsPerMhz.
     */
    Tick slewTime(Hertz from, Hertz to) const;

    /** Frequency slew rate in hertz per tick. */
    double slewHzPerTick() const { return slew_hz_per_tick_; }

  private:
    DvfsConfig config_;
    Hertz step_;
    Tick sync_window_;
    double slew_hz_per_tick_;
};

} // namespace mcd

#endif // MCD_CLOCK_DVFS_MODEL_HH
