/**
 * @file
 * Workload generator interface plus the phase-structured behavioral
 * specification used to stand in for the paper's MediaBench / Olden /
 * SPEC2000 applications (see DESIGN.md, substitution 1).
 */

#ifndef MCD_WORKLOAD_WORKLOAD_HH
#define MCD_WORKLOAD_WORKLOAD_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/serial.hh"
#include "workload/micro_op.hh"

namespace mcd
{

/** Produces the correct-path dynamic micro-op stream of a program. */
class WorkloadGenerator
{
  public:
    virtual ~WorkloadGenerator() = default;

    /** Next dynamic instruction; streams are unbounded (they wrap). */
    virtual MicroOp next() = 0;

    /** Workload name for reporting. */
    virtual const std::string &name() const = 0;

    /**
     * Serialize the generator position (checkpointing). Restoring the
     * saved bytes into a generator built from the identical spec +
     * horizon must reproduce the remaining op stream bit-for-bit.
     * Stateless generators may keep the no-op defaults.
     */
    virtual void saveState(std::string &out) const { (void)out; }

    /** Inverse of saveState; false on malformed data. */
    virtual bool loadState(serial::Reader &in) { return in.ok(); }
};

/**
 * Behavior of one program phase. Fractions are of all dynamic
 * instructions and need not sum to 1; the remainder is integer ALU work.
 */
struct PhaseSpec
{
    /** Relative share of the program's instructions spent here. */
    double weight = 1.0;

    // Instruction mix.
    double loadFrac = 0.22;
    double storeFrac = 0.10;
    double branchFrac = 0.15;
    double fpFrac = 0.0;      //!< FP arithmetic (adds + mults + divs)
    double fpMultShare = 0.35; //!< share of fpFrac that is mult/div/sqrt
    double intMultFrac = 0.01;
    double callFrac = 0.004;  //!< call/return pairs

    // Control behavior.
    int loopLength = 24;        //!< static micro-ops per loop body
    double loopIterations = 48; //!< mean iterations before loop exit
    double branchBias = 0.72;   //!< taken probability of data branches
    double branchNoise = 0.25;  //!< fraction of data branches that are
                                //!< random (unpredictable) vs patterned
    int codeLoops = 6;          //!< distinct loop bodies cycled through
                                //!< (I-cache footprint knob)

    // Memory behavior.
    std::uint64_t dataFootprint = 48 * 1024; //!< bytes touched
    double chaseFrac = 0.0;   //!< loads that serially pointer-chase
    int strideBytes = 8;      //!< stride of streaming accesses

    // Parallelism.
    int depWindow = 8; //!< how far back sources reach; bigger = more ILP
};

/** A named program: an ordered list of phases plus a seed. */
struct BenchmarkSpec
{
    std::string name;
    std::string suite;        //!< "MediaBench", "Olden", "Spec2000"
    std::vector<PhaseSpec> phases;
    std::uint64_t seed = 1;

    /**
     * Absolute length, in instructions, of one pass through the phase
     * list; the program cycles through it until the horizon. 0 (the
     * default) keeps the classic behavior: weights scale over the
     * whole horizon. Absolute periods let a scenario pin its phase-
     * flip rate to the controller's reaction window regardless of the
     * measured window size (the `synthetic:square=` stressor).
     */
    std::uint64_t periodInstructions = 0;
};

/**
 * The deterministic synthetic program generator. Reproduces, per phase:
 * loop-structured control flow (predictable loop-back branches plus
 * noisy data-dependent branches), streaming and pointer-chasing memory
 * references over a configurable footprint, FP bursts, call/return
 * pairs, and tunable dependence distance. The same spec + seed + horizon
 * always produces the identical stream.
 */
class SyntheticProgram : public WorkloadGenerator
{
  public:
    /**
     * @param spec     behavioral specification
     * @param horizon  planned instruction count used to scale phase
     *                 boundaries; the stream wraps past the horizon
     */
    SyntheticProgram(const BenchmarkSpec &spec, std::uint64_t horizon);

    MicroOp next() override;
    const std::string &name() const override { return spec_.name; }

    void saveState(std::string &out) const override;
    bool loadState(serial::Reader &in) override;

    /** Index of the phase the generator is currently in. */
    int currentPhase() const { return phase_index_; }

  private:
    struct StreamState
    {
        std::uint64_t base = 0;
        std::uint64_t size = 0;
        std::uint64_t pos = 0;
        std::int64_t stride = 8;
        bool chase = false;
        bool fp = false;
        /** Lemire's fastmod reciprocal of `size`, ceil(2^128 / size),
         *  in 64-bit halves so the struct keeps 8-byte alignment:
         *  derived, set with the size and never serialized. */
        std::uint64_t sizeRecipHi = 0;
        std::uint64_t sizeRecipLo = 0;
    };

    struct StaticOp
    {
        OpClass cls = OpClass::IntAlu;
        int stream = -1;
        bool noisyBranch = false;
        bool fixedTaken = true; //!< biased direction of quiet branches
        double takenBias = 0.5;
        int skipCount = 0; //!< hammock size for internal branches
    };

    BenchmarkSpec spec_;
    std::uint64_t horizon_;
    std::uint64_t period_;  //!< instructions per pass through the phases
    std::vector<std::uint64_t> phase_end_; //!< cumulative boundaries

    Rng rng_;
    std::uint64_t instructions_ = 0;
    int phase_index_ = -1;

    // Current phase's code layout and data streams. Bodies are built
    // once per phase entry: the static code of a region never changes
    // between visits (real programs have static code), so the branch
    // predictor sees stable per-PC behavior.
    std::vector<StreamState> streams_;
    std::vector<std::uint64_t> region_base_; //!< per-loop-slot code base
    std::vector<std::vector<StaticOp>> bodies_; //!< per-region static code
    std::uint64_t region_stride_ = 0;

    // Current loop visit.
    int region_ = 0;       //!< which of the phase's codeLoops we run
    int body_index_ = 0;
    std::uint64_t iterations_left_ = 1;
    std::uint64_t iteration_ = 0;
    bool at_region_jump_ = false;

    // Subroutine (call/return) state.
    int sub_ops_left_ = 0;
    std::uint64_t sub_pc_ = 0;
    std::uint64_t sub_return_to_ = 0;

    // Register allocation. Sources are drawn from the destinations of
    // the last RECENT_REGS instructions, a power of two so the ring
    // index is a mask.
    static constexpr std::size_t RECENT_REGS = 8;
    int int_reg_rr_ = 1;   //!< round-robin integer dst allocator
    int fp_reg_rr_ = 0;    //!< round-robin fp dst allocator
    std::array<int, RECENT_REGS> recent_int_;
    std::array<int, RECENT_REGS> recent_fp_;
    double serial_prob_ = 0.0; //!< phase's chance to source last_int_dst_
    int last_int_dst_ = NO_REG;
    int last_chase_dst_ = NO_REG;

    const PhaseSpec &phase() const;
    void selectPhase();
    void enterPhase(int index);
    std::vector<StaticOp> buildBody();
    void startVisit();
    void noteIntWrite(int reg);
    void noteFpWrite(int reg);
    int allocIntDst();
    int allocFpDst();
    int pickIntSrc();
    int pickFpSrc();
    std::uint64_t nextStreamAddr(int stream);
    MicroOp emitBodyOp();
};

/** Fixed, caller-supplied micro-op sequence (wraps); for tests. */
class TraceWorkload : public WorkloadGenerator
{
  public:
    TraceWorkload(std::string name, std::vector<MicroOp> ops);

    MicroOp next() override;
    const std::string &name() const override { return name_; }

    void saveState(std::string &out) const override;
    bool loadState(serial::Reader &in) override;

  private:
    std::string name_;
    std::vector<MicroOp> ops_;
    std::size_t index_ = 0;
};

} // namespace mcd

#endif // MCD_WORKLOAD_WORKLOAD_HH
