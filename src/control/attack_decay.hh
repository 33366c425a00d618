/**
 * @file
 * The paper's contribution: the Attack/Decay on-line frequency
 * controller (Section 3.1, Listing 1).
 *
 * Per controllable domain and per 10,000-instruction interval:
 *  - if the end-stop counter saturated, force an attack away from the
 *    extreme (period *= 1 +/- ReactionChange);
 *  - else if queue utilization rose by more than DeviationThreshold
 *    (relative), attack upward (period *= 1 - ReactionChange);
 *  - else if it fell by more than the threshold and the IPC guard
 *    permits, attack downward (period *= 1 + ReactionChange);
 *  - otherwise decay (period *= 1 + Decay) when the guard permits.
 *
 * The IPC guard: Listing 1 lines 19/25 literally read
 * `(PrevIPC / IPC) >= PerfDegThreshold`, but the prose says the guard
 * must *block* frequency decreases when IPC degraded by more than the
 * threshold ("If the IPC change exceeds this threshold, the frequency is
 * left unchanged"). We implement the prose semantics by default —
 * a decrease is permitted iff PrevIPC/IPC <= 1 + PerfDegThreshold — and
 * provide the literal reading behind `literalListingGuard` (threshold
 * interpreted as the ratio 1 + PerfDegThreshold) for the ablation bench.
 *
 * The controller keeps an unquantized internal frequency per domain (the
 * hardware's 16-24-bit period register) and programs the quantized
 * 320-point grid value into the PLL, so small Decay steps accumulate
 * instead of being swallowed by grid rounding.
 */

#ifndef MCD_CONTROL_ATTACK_DECAY_HH
#define MCD_CONTROL_ATTACK_DECAY_HH

#include <array>

#include "core/interval.hh"

namespace mcd
{

/** Table 2 algorithm parameters; defaults are the Section 5 config. */
struct AttackDecayConfig
{
    double deviationThreshold = 0.0175; //!< 1.75 %
    double reactionChange = 0.06;       //!< 6.0 %
    double decay = 0.00175;             //!< 0.175 %
    double perfDegThreshold = 0.025;    //!< 2.5 %
    int endstopCount = 10;              //!< intervals at an extreme
    bool literalListingGuard = false;   //!< Listing 1 `>=` semantics
};

/**
 * The Section 5 configuration compensated for this repo's scaled
 * measurement windows (DESIGN.md substitution 4): Decay = 1.25 %
 * (the per-epoch decay must rise ~40x-compressed epoch counts for
 * the frequency envelope to cover the same range; the value sits in
 * the flat-optimal region of the paper's Figure 6(a)) and
 * PerfDegThreshold = 1.5 % (per-interval IPC is noisier over short
 * epochs, so the guard trips earlier; inside the Table 2 range).
 * The single definition every scaled consumer — the figures behind
 * `mcd_cli figure` (bench/bench_util.cc) and the tournament defaults
 * (src/eval/tournament.cc) — builds from.
 */
AttackDecayConfig scaledAttackDecayConfig();

/** Per-domain Attack/Decay state (Listing 1's local variables). */
struct AttackDecayDomainState
{
    double prevUtilization = 0.0;
    double prevIpc = 0.0;
    int upperEndstop = 0;
    int lowerEndstop = 0;
    Hertz freq = 0.0; //!< unquantized internal frequency
};

/**
 * One Listing 1 update step for a single domain: consumes the
 * interval's queue utilization and IPC, mutates the state (frequency,
 * end-stop counters, previous-sample registers) and returns the new
 * internal frequency, clamped to [f_min, f_max]. Shared by the
 * three-domain controller and the front-end extension.
 */
Hertz attackDecayStep(AttackDecayDomainState &state, double utilization,
                      double ipc, const AttackDecayConfig &config,
                      Hertz f_min, Hertz f_max);

/** The Attack/Decay controller. */
class AttackDecayController : public FrequencyController
{
  public:
    explicit AttackDecayController(
        const AttackDecayConfig &config = AttackDecayConfig{});

    void onStart(ClockSystem &clocks) override;
    void onInterval(const IntervalStats &stats,
                    ClockSystem &clocks) override;

    const AttackDecayConfig &config() const { return config_; }

    /** Internal (unquantized) frequency of a controlled domain. */
    Hertz internalFrequency(int slot) const;

  private:
    AttackDecayConfig config_;
    std::array<AttackDecayDomainState, NUM_CONTROLLED> state_{};
    bool started_ = false;
};

/**
 * Extension (the paper's "future work", Section 7): apply the same
 * Attack/Decay law to the Fetch/Dispatch domain, using reorder-buffer
 * occupancy as the front end's "queue" signal (the ROB is the structure
 * the front end feeds). Section 3 reports that front-end slowdown
 * causes nearly linear performance degradation, which is why the paper
 * pins it at 1 GHz; this controller exists to reproduce and quantify
 * that claim (bench/ablation_frontend).
 */
class FrontEndAttackDecayController : public FrequencyController
{
  public:
    explicit FrontEndAttackDecayController(
        const AttackDecayConfig &config = AttackDecayConfig{});

    void onStart(ClockSystem &clocks) override;
    void onInterval(const IntervalStats &stats,
                    ClockSystem &clocks) override;

    Hertz internalFrontEndFrequency() const { return fe_state_.freq; }

  private:
    AttackDecayController back_end_;
    AttackDecayConfig config_;
    AttackDecayDomainState fe_state_{};
};

} // namespace mcd

#endif // MCD_CONTROL_ATTACK_DECAY_HH
