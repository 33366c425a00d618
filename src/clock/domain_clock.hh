/**
 * @file
 * An independently clocked MCD domain.
 *
 * Following Section 4 of the paper, each domain clock keeps a nominal
 * edge time that advances by the (possibly slewing) period; the visible
 * edge is the nominal time plus a per-cycle jitter draw from N(0, 110 ps).
 * Starting phases are randomized. The simulator interleaves domains by
 * repeatedly advancing whichever clock has the earliest next edge, which
 * tracks the relationship among all clock edges cycle by cycle — exactly
 * the scheme the paper describes for accounting synchronization costs.
 *
 * Frequency changes follow the XScale model: the clock keeps running
 * during a change, with the period recomputed each edge while the
 * frequency slews toward its target at 49.1 ns/MHz. Voltage follows the
 * linear V(f) map of the DvfsModel during the ramp.
 *
 * advance() runs once per domain edge, tens of millions of times per
 * run, so the edge is inline and draws on cached values: the period of
 * the current frequency (derived state, recomputed wherever the
 * frequency changes and never serialized), the jitter sigma, and the
 * Rng's quantile table. A clock that is not slewing pays only the
 * jitter draw.
 *
 * A run of edges on which nothing happens can be consumed in one call.
 * skip(k) leaves the clock exactly as k advance() calls would: it makes
 * the same k RNG draws but interpolates jitter only for the last
 * consumed edge and the new pending one. That is exact only while the
 * clock is calm(): not slewing, so the period is constant; a period of
 * at least 2 x maxJitter() + 2, so the monotonic clamp cannot bind
 * between two edges; and a pending edge that lies before the next
 * nominal edge less maxJitter(), so the clamp cannot bind on the first
 * skipped edge either. maxJitter() bounds |edge - nominal| over every
 * possible draw, which also lets a caller bound the time of an edge
 * ahead (earliestEdge()) and count the edges that surely fall before a
 * time (edgesBefore()) without drawing them.
 */

#ifndef MCD_CLOCK_DOMAIN_CLOCK_HH
#define MCD_CLOCK_DOMAIN_CLOCK_HH

#include <algorithm>
#include <cstdint>

#include "clock/dvfs_model.hh"
#include "common/random.hh"
#include "common/serial.hh"
#include "common/types.hh"

namespace mcd
{

/** One domain's clock generator. */
class DomainClock
{
  public:
    /**
     * @param id          domain this clock drives (for reporting)
     * @param dvfs        shared operating-point model
     * @param start_freq  initial (quantized) frequency
     * @param seed        jitter/phase RNG seed; same seed -> same edges
     * @param jittered    disable to get an ideal jitter-free clock
     */
    DomainClock(DomainId id, const DvfsModel &dvfs, Hertz start_freq,
                std::uint64_t seed, bool jittered = true);

    DomainId id() const { return id_; }

    /** Time of the next (not yet consumed) clock edge. */
    Tick nextEdge() const { return next_edge_; }

    /** Time of the most recently consumed edge. */
    Tick lastEdge() const { return last_edge_; }

    /** Number of edges consumed so far. */
    std::uint64_t cycles() const { return cycles_; }

    /**
     * Consume the pending edge and schedule the following one. Returns
     * the time of the consumed edge. Steps the frequency slew by one
     * period's worth of time.
     */
    Tick
    advance()
    {
        Tick edge = next_edge_;
        last_edge_ = edge;
        ++cycles_;
        // The slew steps by one period of wall time; the upcoming
        // cycle's period reflects the post-slew frequency.
        if (slewing())
            stepSlew(period_);
        nominal_time_ += period_;
        next_edge_ = jitteredEdge();
        return edge;
    }

    /**
     * Can skip() consume edges exactly (see the file comment)? False
     * while slewing.
     */
    bool
    calm() const
    {
        return !slewing() && period_ >= 2 * max_jitter_ + 2 &&
               nominal_time_ + period_ - max_jitter_ > next_edge_;
    }

    /**
     * Consume `k` pending edges exactly as `k` advance() calls would.
     * Requires calm(); a calm clock stays calm.
     */
    void
    skip(std::uint64_t k)
    {
        if (k == 0)
            return;
        cycles_ += k;
        if (k == 1) {
            last_edge_ = next_edge_;
        } else {
            // Draws of the edges between the first and the last
            // consumed one: the clamp cannot bind, so only the RNG
            // state they leave matters.
            if (jittered_) {
                for (std::uint64_t i = 2; i < k; ++i)
                    rng_.next();
            }
            nominal_time_ += static_cast<Tick>(k - 1) * period_;
            last_edge_ = jitteredEdge();
        }
        nominal_time_ += period_;
        next_edge_ = jitteredEdge();
    }

    /** Bound on |edge - nominal time| over every jitter draw; 0 for a
     *  jitter-free clock. */
    Tick maxJitter() const { return max_jitter_; }

    /**
     * A lower bound on the time of the edge that makes cycles() reach
     * `cycle`: the pending edge's time if that edge does (or already
     * did), MAX_TICK if the edge lies beyond the tick range. Requires
     * calm().
     */
    Tick
    earliestEdge(std::uint64_t cycle) const
    {
        if (cycle <= cycles_ + 1)
            return next_edge_;
        // Called on quiet edges, so the range check multiplies rather
        // than divides.
        Tick span;
        if (cycle - cycles_ - 1 > static_cast<std::uint64_t>(MAX_TICK) ||
            __builtin_mul_overflow(static_cast<Tick>(cycle - cycles_ - 1),
                                   period_, &span) ||
            span > MAX_TICK - nominal_time_)
            return MAX_TICK;
        return nominal_time_ + span - max_jitter_;
    }

    /**
     * How many pending edges surely fall before `limit`: the pending
     * edge if it does, then every edge whose nominal time plus
     * maxJitter() does. Requires calm().
     */
    std::uint64_t
    edgesBefore(Tick limit) const
    {
        if (next_edge_ >= limit)
            return 0;
        Tick room = limit - 1 - max_jitter_ - nominal_time_;
        return 1 + static_cast<std::uint64_t>(
                       room >= period_ ? room / period_ : 0);
    }

    /**
     * edgesBefore(limit) >= 2, without its divide: it runs on quiet
     * edges. Requires calm().
     */
    bool
    twoEdgesBefore(Tick limit) const
    {
        return next_edge_ < limit &&
               limit - 1 - max_jitter_ - nominal_time_ >= period_;
    }

    /** Instantaneous frequency (may be mid-slew). */
    Hertz frequency() const { return cur_freq_; }

    /** The frequency the slew is heading toward. */
    Hertz targetFrequency() const { return target_freq_; }

    /** True while the frequency is still slewing toward its target. */
    bool slewing() const { return cur_freq_ != target_freq_; }

    /** Instantaneous supply voltage via the V(f) map. */
    Volt voltage() const { return dvfs_->voltage(cur_freq_); }

    /**
     * Request a new target frequency (quantized to the grid). Takes
     * effect gradually via the slew model; the clock never stops.
     * Returns the quantized target actually set.
     */
    Hertz setTargetFrequency(Hertz freq);

    /**
     * Immediately jump to a (quantized) frequency with no slew. Used for
     * the off-line algorithms, which request changes ahead of need so
     * the slew completes before the interval begins (Section 5), and for
     * tests.
     */
    Hertz setFrequencyImmediate(Hertz freq);

    /** Count of target-frequency change requests (PLL activations). */
    std::uint64_t frequencyChanges() const { return freq_changes_; }

    /** Serialize frequency/slew/edge/RNG state (checkpointing). */
    void saveState(std::string &out) const;

    /**
     * Inverse of saveState; false on short data, on a frequency that
     * is not finite or lies outside the model's range, and on a next
     * edge that does not follow the last one. The clock is unchanged
     * on failure.
     */
    bool loadState(serial::Reader &in);

  private:
    DomainId id_;
    const DvfsModel *dvfs_;
    Rng rng_;
    bool jittered_;

    double sigma_;              //!< jitter sigma (ps)
    const double *quantiles_;   //!< Rng::normalQuantiles()
    Tick max_jitter_;           //!< see maxJitter()

    Hertz cur_freq_;
    Hertz target_freq_;
    Tick period_;               //!< periodFromFreq(cur_freq_)

    Tick nominal_time_;     //!< jitter-free accumulated edge time
    Tick next_edge_;        //!< nominal + jitter, monotonic-clamped
    Tick last_edge_;
    std::uint64_t cycles_ = 0;
    std::uint64_t freq_changes_ = 0;

    /** Advance the slew by `elapsed` ticks of wall time. */
    void
    stepSlew(Tick elapsed)
    {
        double delta = dvfs_->slewHzPerTick() * static_cast<double>(elapsed);
        if (cur_freq_ < target_freq_)
            setCurrent(std::min(target_freq_, cur_freq_ + delta));
        else
            setCurrent(std::max(target_freq_, cur_freq_ - delta));
    }

    /** Set the current frequency and the period derived from it. */
    void
    setCurrent(Hertz freq)
    {
        cur_freq_ = freq;
        period_ = periodFromFreq(freq);
    }

    /** Compute the jittered edge for the current nominal time. */
    Tick
    jitteredEdge()
    {
        Tick edge = nominal_time_;
        if (jittered_) {
            // Rng::normal(0.0, sigma_)'s arithmetic, over the cached
            // table, so every sample is bit-identical to it.
            double jitter = 0.0 + sigma_ * rng_.normal(quantiles_);
            edge += static_cast<Tick>(jitter);
        }
        // Edges must remain strictly monotonic even under extreme
        // jitter draws; clamp to one tick past the previous edge.
        return std::max(edge, last_edge_ + 1);
    }
};

} // namespace mcd

#endif // MCD_CLOCK_DOMAIN_CLOCK_HH
