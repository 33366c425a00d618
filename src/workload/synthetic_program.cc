#include "workload/workload.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace mcd
{

namespace
{

/** Length of the fixed call subroutine: 4 ALU ops plus a return. */
constexpr int SUB_LENGTH = 5;

/** Deterministic address scrambler for pointer-chase streams. */
std::uint64_t
chaseHash(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Set a nonzero divisor's fastmod reciprocal, ceil(2^128 / d), as its
 *  high and low halves. */
void
setFastmodRecip(std::uint64_t d, std::uint64_t &hi, std::uint64_t &lo)
{
    unsigned __int128 recip = ~static_cast<unsigned __int128>(0) / d + 1;
    hi = static_cast<std::uint64_t>(recip >> 64);
    lo = static_cast<std::uint64_t>(recip);
}

/**
 * x % d from d's fastmod reciprocal without a divide (Lemire, Kaser and
 * Kurz, "Faster Remainder by Direct Computation", 2019): exact for every
 * 64-bit x and d, because the reciprocal carries 128 bits.
 */
std::uint64_t
fastmod(std::uint64_t x, std::uint64_t hi, std::uint64_t lo,
        std::uint64_t d)
{
    // The fraction x / d, mod 1, in 128 bits.
    unsigned __int128 frac =
        ((static_cast<unsigned __int128>(hi) << 64) | lo) * x;
    unsigned __int128 low =
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(frac)) *
         d) >> 64;
    return static_cast<std::uint64_t>(
        (low + (frac >> 64) * d) >> 64);
}

/** Probabilistic rounding: floor(x) or ceil(x) with fractional chance. */
int
stochasticRound(double x, Rng &rng)
{
    double fl = std::floor(x);
    int base = static_cast<int>(fl);
    return base + (rng.chance(x - fl) ? 1 : 0);
}

/**
 * Chance that an integer source is the most recent integer destination:
 * small dependence windows produce serial chains, large ones spread
 * sources out.
 */
double
serialProb(const PhaseSpec &p)
{
    return 1.5 / std::max(2, p.depWindow);
}

} // namespace

SyntheticProgram::SyntheticProgram(const BenchmarkSpec &spec,
                                   std::uint64_t horizon)
    : spec_(spec), horizon_(horizon), rng_(spec.seed)
{
    if (spec_.phases.empty())
        mcd_fatal("benchmark '%s' has no phases", spec_.name.c_str());
    if (horizon_ == 0)
        mcd_fatal("workload horizon must be nonzero");

    double total_weight = 0.0;
    for (const auto &p : spec_.phases)
        total_weight += p.weight;
    if (total_weight <= 0.0)
        mcd_fatal("benchmark '%s' has zero total phase weight",
                  spec_.name.c_str());

    // Phase boundaries span one period: the whole horizon by default,
    // or the spec's absolute periodInstructions (the program then
    // cycles through the phase list until the horizon).
    period_ = spec_.periodInstructions > 0 ? spec_.periodInstructions
                                           : horizon_;
    double acc = 0.0;
    for (const auto &p : spec_.phases) {
        acc += p.weight / total_weight;
        phase_end_.push_back(static_cast<std::uint64_t>(
            acc * static_cast<double>(period_)));
    }
    phase_end_.back() = period_; // absorb rounding

    recent_int_.fill(0);
    recent_fp_.fill(NUM_INT_ARCH_REGS);

    selectPhase();
}

const PhaseSpec &
SyntheticProgram::phase() const
{
    return spec_.phases[static_cast<std::size_t>(phase_index_)];
}

void
SyntheticProgram::selectPhase()
{
    std::uint64_t pos = instructions_ % period_;
    int index = 0;
    while (pos >= phase_end_[static_cast<std::size_t>(index)])
        ++index;
    if (index != phase_index_)
        enterPhase(index);
}

void
SyntheticProgram::enterPhase(int index)
{
    phase_index_ = index;
    const PhaseSpec &p = phase();
    serial_prob_ = serialProb(p);

    // Code layout: codeLoops regions, contiguous and line-aligned so the
    // phase's instruction footprint is codeLoops * regionBytes.
    int loops = std::max(1, p.codeLoops);
    std::uint64_t body_slots = static_cast<std::uint64_t>(
        std::max(6, p.loopLength));
    // body + region jump + pad + subroutine
    std::uint64_t region_bytes =
        (body_slots + 2 + SUB_LENGTH + 2) * 4;
    region_bytes = (region_bytes + 63) & ~63ull;
    region_stride_ = region_bytes;

    std::uint64_t code_base =
        0x01000000ull * (static_cast<std::uint64_t>(index) + 1);
    region_base_.assign(static_cast<std::size_t>(loops), 0);
    for (int r = 0; r < loops; ++r) {
        region_base_[static_cast<std::size_t>(r)] =
            code_base + static_cast<std::uint64_t>(r) * region_bytes;
    }

    // Data layout: a handful of streams partitioning the footprint.
    std::uint64_t footprint = std::max<std::uint64_t>(p.dataFootprint, 512);
    int num_streams = static_cast<int>(
        std::clamp<std::uint64_t>(footprint / (16 * 1024), 2, 8));
    int num_chase = static_cast<int>(
        std::lround(p.chaseFrac * num_streams));
    std::uint64_t data_base = 0x400000000000ull +
        0x100000000ull * static_cast<std::uint64_t>(index);
    std::uint64_t stream_size =
        (footprint / static_cast<std::uint64_t>(num_streams)) & ~63ull;
    stream_size = std::max<std::uint64_t>(stream_size, 128);

    streams_.clear();
    for (int s = 0; s < num_streams; ++s) {
        StreamState st;
        st.base = data_base + static_cast<std::uint64_t>(s) * stream_size;
        st.size = stream_size;
        setFastmodRecip(stream_size, st.sizeRecipHi, st.sizeRecipLo);
        st.pos = (static_cast<std::uint64_t>(s) * 64) % stream_size;
        st.stride = p.strideBytes;
        st.chase = s < num_chase;
        streams_.push_back(st);
    }

    region_ = 0;
    bodies_.clear();
    bodies_.reserve(static_cast<std::size_t>(loops));
    for (int r = 0; r < loops; ++r)
        bodies_.push_back(buildBody());
    startVisit();
}

void
SyntheticProgram::startVisit()
{
    const PhaseSpec &p = phase();
    body_index_ = 0;
    iteration_ = 0;
    double iters = p.loopIterations * rng_.uniform(0.5, 1.5);
    iterations_left_ = static_cast<std::uint64_t>(
        std::max(2.0, std::round(iters)));
}

std::vector<SyntheticProgram::StaticOp>
SyntheticProgram::buildBody()
{
    const PhaseSpec &p = phase();
    int body_len = std::max(6, p.loopLength);

    // Expected slot counts for this body, probabilistically rounded so
    // small fractions still appear over many loop instances.
    double len = static_cast<double>(body_len);
    int n_load = stochasticRound(len * p.loadFrac, rng_);
    int n_store = stochasticRound(len * p.storeFrac, rng_);
    int n_branch = std::max(
        0, stochasticRound(len * p.branchFrac, rng_) - 1);
    int n_fp = stochasticRound(len * p.fpFrac, rng_);
    int n_imult = stochasticRound(len * p.intMultFrac, rng_);
    int n_call = stochasticRound(len * p.callFrac, rng_);

    // Leave room for the loop-back branch in the last slot and keep the
    // body from being all special slots.
    int budget = body_len - 1;
    auto clampTo = [&budget](int n) {
        int taken = std::min(n, budget);
        budget -= taken;
        return taken;
    };
    n_load = clampTo(n_load);
    n_store = clampTo(n_store);
    n_branch = clampTo(n_branch);
    n_fp = clampTo(n_fp);
    n_imult = clampTo(n_imult);
    n_call = clampTo(n_call);

    std::vector<StaticOp> slots;
    slots.reserve(static_cast<std::size_t>(body_len));

    double fp_load_share =
        p.fpFrac > 0.0 ? std::min(0.7, p.fpFrac * 1.2) : 0.0;

    for (int i = 0; i < n_load; ++i) {
        StaticOp op;
        op.cls = rng_.chance(fp_load_share) ? OpClass::FpLoad
                                            : OpClass::Load;
        op.stream = static_cast<int>(rng_.range(streams_.size()));
        slots.push_back(op);
    }
    for (int i = 0; i < n_store; ++i) {
        StaticOp op;
        op.cls = rng_.chance(fp_load_share * 0.5) ? OpClass::FpStore
                                                  : OpClass::Store;
        op.stream = static_cast<int>(rng_.range(streams_.size()));
        slots.push_back(op);
    }
    for (int i = 0; i < n_branch; ++i) {
        StaticOp op;
        op.cls = OpClass::Branch;
        op.noisyBranch = rng_.chance(p.branchNoise);
        // Quiet branches are strongly biased per-PC, like most branches
        // in real programs; only noisy branches are data-dependent.
        op.fixedTaken = rng_.chance(p.branchBias);
        op.takenBias = p.branchBias;
        op.skipCount = 1 + static_cast<int>(rng_.range(3));
        slots.push_back(op);
    }
    for (int i = 0; i < n_fp; ++i) {
        StaticOp op;
        if (rng_.chance(p.fpMultShare)) {
            double r = rng_.uniform();
            op.cls = r < 0.10 ? OpClass::FpDiv
                   : r < 0.14 ? OpClass::FpSqrt
                              : OpClass::FpMult;
        } else {
            op.cls = OpClass::FpAdd;
        }
        slots.push_back(op);
    }
    for (int i = 0; i < n_imult; ++i) {
        StaticOp op;
        op.cls = rng_.chance(0.15) ? OpClass::IntDiv : OpClass::IntMult;
        slots.push_back(op);
    }
    for (int i = 0; i < n_call; ++i) {
        StaticOp op;
        op.cls = OpClass::Call;
        slots.push_back(op);
    }
    while (static_cast<int>(slots.size()) < body_len - 1)
        slots.push_back(StaticOp{}); // IntAlu filler

    // Deterministic Fisher-Yates shuffle of all but the loop-back slot.
    for (std::size_t i = slots.size(); i > 1; --i) {
        std::size_t j = rng_.range(i);
        std::swap(slots[i - 1], slots[j]);
    }

    // Calls may not sit in the last two slots (the return must land on a
    // real body op before the loop-back branch).
    for (std::size_t i = slots.size() >= 2 ? slots.size() - 2 : 0;
         i < slots.size(); ++i) {
        if (slots[i].cls == OpClass::Call)
            slots[i].cls = OpClass::IntAlu;
    }

    StaticOp loop_back;
    loop_back.cls = OpClass::Branch;
    slots.push_back(loop_back);
    return slots;
}

void
SyntheticProgram::noteIntWrite(int reg)
{
    recent_int_[instructions_ % RECENT_REGS] = reg;
    last_int_dst_ = reg;
}

void
SyntheticProgram::noteFpWrite(int reg)
{
    recent_fp_[instructions_ % RECENT_REGS] = reg;
}

int
SyntheticProgram::allocIntDst()
{
    int reg = 1 + (int_reg_rr_ % (NUM_INT_ARCH_REGS - 5));
    ++int_reg_rr_;
    return reg;
}

int
SyntheticProgram::allocFpDst()
{
    int reg = NUM_INT_ARCH_REGS + (fp_reg_rr_ % NUM_FP_ARCH_REGS);
    ++fp_reg_rr_;
    return reg;
}

int
SyntheticProgram::pickIntSrc()
{
    if (last_int_dst_ != NO_REG && rng_.chance(serial_prob_))
        return last_int_dst_;
    return recent_int_[rng_.range(RECENT_REGS)];
}

int
SyntheticProgram::pickFpSrc()
{
    return recent_fp_[rng_.range(RECENT_REGS)];
}

std::uint64_t
SyntheticProgram::nextStreamAddr(int stream)
{
    StreamState &st = streams_[static_cast<std::size_t>(stream)];
    // Every stream keeps pos < size, so a stride in [0, size) wraps with
    // one subtraction.
    if (st.chase) {
        st.pos = fastmod(chaseHash(st.pos + 0x9e3779b97f4a7c15ull),
                         st.sizeRecipHi, st.sizeRecipLo, st.size) &
                 ~7ull;
    } else if (st.stride >= 0 &&
               static_cast<std::uint64_t>(st.stride) < st.size) {
        st.pos += static_cast<std::uint64_t>(st.stride);
        if (st.pos >= st.size)
            st.pos -= st.size;
    } else {
        st.pos = (st.pos + static_cast<std::uint64_t>(st.stride)) %
                 st.size;
    }
    return st.base + st.pos;
}

MicroOp
SyntheticProgram::next()
{
    MicroOp op;

    if (sub_ops_left_ > 0) {
        // Inside the fixed call subroutine.
        op.pc = sub_pc_;
        sub_pc_ += 4;
        if (sub_ops_left_ == 1) {
            op.cls = OpClass::Return;
            op.taken = true;
            op.target = sub_return_to_;
        } else {
            op.cls = OpClass::IntAlu;
            op.srcA = pickIntSrc();
            op.dst = allocIntDst();
            noteIntWrite(op.dst);
        }
        --sub_ops_left_;
        ++instructions_;
        return op;
    }

    if (at_region_jump_) {
        // Unconditional jump from the end of this region to the start of
        // the next (cycling the phase's code footprint).
        std::uint64_t pc = region_base_[static_cast<std::size_t>(region_)] +
            static_cast<std::uint64_t>(
                bodies_[static_cast<std::size_t>(region_)].size()) * 4;
        int prev_phase = phase_index_;
        selectPhase();
        if (phase_index_ == prev_phase) {
            region_ = (region_ + 1) %
                static_cast<int>(region_base_.size());
            startVisit();
        }
        op.pc = pc;
        op.cls = OpClass::Branch;
        op.taken = true;
        op.target = region_base_[static_cast<std::size_t>(region_)];
        at_region_jump_ = false;
        ++instructions_;
        return op;
    }

    op = emitBodyOp();
    ++instructions_;
    return op;
}

MicroOp
SyntheticProgram::emitBodyOp()
{
    const std::vector<StaticOp> &body =
        bodies_[static_cast<std::size_t>(region_)];
    const StaticOp &sop = body[static_cast<std::size_t>(body_index_)];
    std::uint64_t base = region_base_[static_cast<std::size_t>(region_)];
    std::uint64_t pc = base +
        static_cast<std::uint64_t>(body_index_) * 4;
    bool is_loop_back =
        body_index_ == static_cast<int>(body.size()) - 1;

    MicroOp op;
    op.pc = pc;
    op.cls = sop.cls;

    if (is_loop_back) {
        op.cls = OpClass::Branch;
        op.srcA = pickIntSrc();
        if (iterations_left_ > 1) {
            op.taken = true;
            op.target = base;
            --iterations_left_;
            ++iteration_;
            body_index_ = 0;
        } else {
            op.taken = false;
            at_region_jump_ = true;
            body_index_ = 0;
        }
        return op;
    }

    switch (sop.cls) {
      case OpClass::Load:
      case OpClass::FpLoad:
        {
            const StreamState &st =
                streams_[static_cast<std::size_t>(sop.stream)];
            op.srcA = st.chase && last_chase_dst_ != NO_REG
                ? last_chase_dst_ : pickIntSrc();
            op.memAddr = nextStreamAddr(sop.stream);
            if (sop.cls == OpClass::FpLoad) {
                op.dst = allocFpDst();
                noteFpWrite(op.dst);
            } else {
                op.dst = allocIntDst();
                noteIntWrite(op.dst);
                if (st.chase)
                    last_chase_dst_ = op.dst;
            }
            ++body_index_;
            break;
        }
      case OpClass::Store:
      case OpClass::FpStore:
        op.srcA = pickIntSrc(); // address register
        op.srcB = sop.cls == OpClass::FpStore ? pickFpSrc()
                                              : pickIntSrc();
        op.memAddr = nextStreamAddr(sop.stream);
        ++body_index_;
        break;
      case OpClass::Branch:
        {
            op.srcA = pickIntSrc();
            bool taken;
            if (sop.noisyBranch) {
                taken = rng_.chance(sop.takenBias);
            } else {
                // Strongly biased branch with a rare flip.
                taken = sop.fixedTaken != rng_.chance(0.02);
            }
            int max_skip = static_cast<int>(body.size()) - 2 -
                body_index_;
            int skip = std::min(sop.skipCount, std::max(0, max_skip));
            if (taken && skip > 0) {
                op.taken = true;
                op.target = pc + 4 *
                    (static_cast<std::uint64_t>(skip) + 1);
                body_index_ += skip + 1;
            } else {
                op.taken = false;
                ++body_index_;
            }
            break;
        }
      case OpClass::Call:
        op.taken = true;
        op.target = base + static_cast<std::uint64_t>(
            body.size() + 2) * 4;
        sub_pc_ = op.target;
        sub_return_to_ = pc + 4;
        sub_ops_left_ = SUB_LENGTH;
        ++body_index_;
        break;
      case OpClass::FpAdd:
      case OpClass::FpMult:
      case OpClass::FpDiv:
      case OpClass::FpSqrt:
        op.srcA = pickFpSrc();
        op.srcB = pickFpSrc();
        op.dst = allocFpDst();
        noteFpWrite(op.dst);
        ++body_index_;
        break;
      case OpClass::IntMult:
      case OpClass::IntDiv:
      case OpClass::IntAlu:
      default:
        op.srcA = pickIntSrc();
        if (rng_.chance(0.5))
            op.srcB = pickIntSrc();
        op.dst = allocIntDst();
        noteIntWrite(op.dst);
        ++body_index_;
        break;
    }

    return op;
}

void
SyntheticProgram::saveState(std::string &out) const
{
    for (std::uint64_t w : rng_.state())
        serial::appendU64(out, w);
    serial::appendU64(out, instructions_);
    serial::appendI64(out, phase_index_);

    // The phase layout (streams_, region_base_, bodies_) is rebuilt with
    // fresh RNG draws on every enterPhase(), so it must be serialized
    // verbatim: a restore cannot re-enter the phase without consuming
    // different random numbers than the original run did.
    serial::appendU64(out, streams_.size());
    for (const StreamState &s : streams_) {
        serial::appendU64(out, s.base);
        serial::appendU64(out, s.size);
        serial::appendU64(out, s.pos);
        serial::appendI64(out, s.stride);
        serial::appendU64(out, s.chase ? 1 : 0);
        serial::appendU64(out, s.fp ? 1 : 0);
    }
    serial::appendU64(out, region_base_.size());
    for (std::uint64_t b : region_base_)
        serial::appendU64(out, b);
    // Bodies are the bulk of the state (a large-footprint app such as
    // gcc holds thousands of slots), so each slot is varints: class,
    // stream, a flags word, the hammock size, and the taken bias only
    // where it differs from the default (flag 4).
    const double default_bias = StaticOp{}.takenBias;
    serial::appendU64(out, bodies_.size());
    for (const std::vector<StaticOp> &body : bodies_) {
        serial::appendVar(out, body.size());
        for (const StaticOp &sop : body) {
            bool biased = std::bit_cast<std::uint64_t>(sop.takenBias) !=
                          std::bit_cast<std::uint64_t>(default_bias);
            serial::appendVar(out, static_cast<std::uint64_t>(sop.cls));
            serial::appendSVar(out, sop.stream);
            serial::appendVar(out, (sop.noisyBranch ? 1u : 0u) |
                                       (sop.fixedTaken ? 2u : 0u) |
                                       (biased ? 4u : 0u));
            serial::appendSVar(out, sop.skipCount);
            if (biased)
                serial::appendDouble(out, sop.takenBias);
        }
    }
    serial::appendU64(out, region_stride_);

    serial::appendI64(out, region_);
    serial::appendI64(out, body_index_);
    serial::appendU64(out, iterations_left_);
    serial::appendU64(out, iteration_);
    serial::appendU64(out, at_region_jump_ ? 1 : 0);

    serial::appendI64(out, sub_ops_left_);
    serial::appendU64(out, sub_pc_);
    serial::appendU64(out, sub_return_to_);

    serial::appendI64(out, int_reg_rr_);
    serial::appendI64(out, fp_reg_rr_);
    serial::appendU64(out, recent_int_.size());
    for (int r : recent_int_)
        serial::appendI64(out, r);
    serial::appendU64(out, recent_fp_.size());
    for (int r : recent_fp_)
        serial::appendI64(out, r);
    serial::appendI64(out, last_int_dst_);
    serial::appendI64(out, last_chase_dst_);
}

bool
SyntheticProgram::loadState(serial::Reader &in)
{
    std::array<std::uint64_t, 4> rng_state{};
    for (std::uint64_t &w : rng_state)
        w = in.readU64();
    std::uint64_t instructions = in.readU64();
    int phase_index = static_cast<int>(in.readI64());

    std::uint64_t n_streams = in.readU64();
    if (!in.ok() || n_streams > in.remaining())
        return false;
    std::vector<StreamState> streams(n_streams);
    for (StreamState &s : streams) {
        s.base = in.readU64();
        s.size = in.readU64();
        s.pos = in.readU64();
        s.stride = in.readI64();
        s.chase = in.readU64() != 0;
        s.fp = in.readU64() != 0;
    }
    std::uint64_t n_bases = in.readU64();
    if (!in.ok() || n_bases > in.remaining())
        return false;
    std::vector<std::uint64_t> region_base(n_bases);
    for (std::uint64_t &b : region_base)
        b = in.readU64();
    std::uint64_t n_bodies = in.readU64();
    if (!in.ok() || n_bodies > in.remaining())
        return false;
    std::vector<std::vector<StaticOp>> bodies(n_bodies);
    for (std::vector<StaticOp> &body : bodies) {
        std::uint64_t n_ops = in.readVar();
        if (!in.ok() || n_ops > in.remaining())
            return false;
        body.resize(n_ops);
        for (StaticOp &sop : body) {
            std::uint64_t cls = in.readVar();
            if (cls > static_cast<std::uint64_t>(OpClass::Nop))
                return false;
            sop.cls = static_cast<OpClass>(cls);
            sop.stream = static_cast<int>(in.readSVar());
            std::uint64_t flags = in.readVar();
            sop.noisyBranch = (flags & 1) != 0;
            sop.fixedTaken = (flags & 2) != 0;
            sop.skipCount = static_cast<int>(in.readSVar());
            sop.takenBias =
                (flags & 4) != 0 ? in.readDouble() : StaticOp{}.takenBias;
        }
    }
    std::uint64_t region_stride = in.readU64();

    int region = static_cast<int>(in.readI64());
    int body_index = static_cast<int>(in.readI64());
    std::uint64_t iterations_left = in.readU64();
    std::uint64_t iteration = in.readU64();
    bool at_region_jump = in.readU64() != 0;

    int sub_ops_left = static_cast<int>(in.readI64());
    std::uint64_t sub_pc = in.readU64();
    std::uint64_t sub_return_to = in.readU64();

    int int_reg_rr = static_cast<int>(in.readI64());
    int fp_reg_rr = static_cast<int>(in.readI64());
    if (in.readU64() != RECENT_REGS)
        return false;
    std::array<int, RECENT_REGS> recent_int;
    for (int &r : recent_int)
        r = static_cast<int>(in.readI64());
    if (in.readU64() != RECENT_REGS)
        return false;
    std::array<int, RECENT_REGS> recent_fp;
    for (int &r : recent_fp)
        r = static_cast<int>(in.readI64());
    int last_int_dst = static_cast<int>(in.readI64());
    int last_chase_dst = static_cast<int>(in.readI64());

    if (!in.ok())
        return false;
    // Reject every position next() would index out of range: the
    // phase, the region and its body slot, each memory slot's stream,
    // and the register pools sources are drawn from.
    auto int_reg = [](int r) { return r >= 0 && r < NUM_INT_ARCH_REGS; };
    auto fp_reg = [](int r) {
        return r >= NUM_INT_ARCH_REGS && r < NUM_ARCH_REGS;
    };
    if (phase_index < 0 ||
        static_cast<std::size_t>(phase_index) >= spec_.phases.size() ||
        bodies.empty() || region_base.size() != bodies.size() ||
        region < 0 || static_cast<std::size_t>(region) >= bodies.size())
        return false;
    for (const std::vector<StaticOp> &body : bodies) {
        if (body.empty())
            return false;
        for (const StaticOp &sop : body) {
            if (isMemClass(sop.cls) &&
                (sop.stream < 0 ||
                 static_cast<std::size_t>(sop.stream) >= streams.size()))
                return false;
        }
    }
    for (StreamState &st : streams) {
        if (st.size == 0 || st.pos >= st.size)
            return false;
        setFastmodRecip(st.size, st.sizeRecipHi, st.sizeRecipLo);
    }
    if (body_index < 0 ||
        static_cast<std::size_t>(body_index) >=
            bodies[static_cast<std::size_t>(region)].size() ||
        int_reg_rr < 0 || fp_reg_rr < 0 ||
        !std::all_of(recent_int.begin(), recent_int.end(), int_reg) ||
        !std::all_of(recent_fp.begin(), recent_fp.end(), fp_reg) ||
        (last_int_dst != NO_REG && !int_reg(last_int_dst)) ||
        (last_chase_dst != NO_REG && !int_reg(last_chase_dst)))
        return false;

    rng_.setState(rng_state);
    instructions_ = instructions;
    phase_index_ = phase_index;
    streams_ = std::move(streams);
    region_base_ = std::move(region_base);
    bodies_ = std::move(bodies);
    region_stride_ = region_stride;
    region_ = region;
    body_index_ = body_index;
    iterations_left_ = iterations_left;
    iteration_ = iteration;
    at_region_jump_ = at_region_jump;
    sub_ops_left_ = sub_ops_left;
    sub_pc_ = sub_pc;
    sub_return_to_ = sub_return_to;
    int_reg_rr_ = int_reg_rr;
    fp_reg_rr_ = fp_reg_rr;
    serial_prob_ = serialProb(phase());
    recent_int_ = recent_int;
    recent_fp_ = recent_fp;
    last_int_dst_ = last_int_dst;
    last_chase_dst_ = last_chase_dst;
    return true;
}

TraceWorkload::TraceWorkload(std::string name, std::vector<MicroOp> ops)
    : name_(std::move(name)), ops_(std::move(ops))
{
    if (ops_.empty())
        mcd_fatal("trace workload '%s' is empty", name_.c_str());
}

MicroOp
TraceWorkload::next()
{
    MicroOp op = ops_[index_];
    index_ = (index_ + 1) % ops_.size();
    return op;
}

void
TraceWorkload::saveState(std::string &out) const
{
    serial::appendU64(out, index_);
}

bool
TraceWorkload::loadState(serial::Reader &in)
{
    std::uint64_t index = in.readU64();
    if (!in.ok() || index >= ops_.size())
        return false;
    index_ = static_cast<std::size_t>(index);
    return true;
}

} // namespace mcd
