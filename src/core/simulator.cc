#include "core/simulator.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "telemetry/profiler.hh"

namespace mcd
{

namespace
{

using telemetry::Phase;
using telemetry::ScopedTimer;

/** Bumped whenever the checkpoint byte layout changes (2: execution
 *  timing as absolute cycle deadlines instead of countdowns; 3: sparse
 *  varint caches, BTB and predictor tables, and a digested body). */
constexpr std::uint64_t CHECKPOINT_FORMAT = 3;

/** wakeCycle of a scan that found no cycle deadline. */
constexpr std::uint64_t NO_CYCLE =
    std::numeric_limits<std::uint64_t>::max();

/** Quiet edges between checks that some domain can still wake. */
constexpr std::uint64_t LIVENESS_PERIOD = 1ull << 20;

/** Domain indices in MCD edge race tie order: Integer, FloatingPoint,
 *  LoadStore, then the front end. */
constexpr std::array<std::size_t, NUM_CLOCKED_DOMAINS> RACE = {1, 2, 3, 0};

/** Each domain's tie rank, by domain index: its position in RACE. */
constexpr std::array<int, NUM_CLOCKED_DOMAINS> RANK = [] {
    std::array<int, NUM_CLOCKED_DOMAINS> rank{};
    for (std::size_t i = 0; i < RACE.size(); ++i)
        rank[RACE[i]] = static_cast<int>(i);
    return rank;
}();

/** Ordered erase of one sequence number from a queue. */
void
eraseSeq(std::vector<std::uint64_t> &queue, std::uint64_t seq)
{
    std::erase(queue, seq);
}

// Simulator::Slot::flags bits.
constexpr std::uint8_t SLOT_LATCHED = 1 << 0; //!< Inst::enqueued
constexpr std::uint8_t SLOT_STORE = 1 << 1;   //!< Inst::isStore
constexpr std::uint8_t SLOT_LOAD = 1 << 2;    //!< Inst::isLoad
constexpr std::uint8_t SLOT_ADDR = 1 << 3;    //!< Inst::addrKnown
constexpr std::uint8_t SLOT_DATA = 1 << 4;    //!< Inst::dataReady
/** Select has nothing left to do: a store has completed
 *  (Inst::completed), a load or an issue-queue entry has issued
 *  (Inst::memIssued, Inst::issued). */
constexpr std::uint8_t SLOT_DONE = 1 << 5;
constexpr std::uint8_t SLOT_WRITE = 1 << 6;   //!< Inst::writeIssued
/** On its domain's candidate list; the only bit no Inst field
 *  mirrors. */
constexpr std::uint8_t SLOT_LISTED = 1 << 7;

/** The Slot::flags a window entry implies, SLOT_LISTED aside. */
std::uint8_t
slotFlags(const Inst &inst)
{
    std::uint8_t flags = 0;
    flags |= inst.enqueued ? SLOT_LATCHED : 0;
    flags |= inst.isStore ? SLOT_STORE : 0;
    flags |= inst.isLoad ? SLOT_LOAD : 0;
    flags |= inst.addrKnown ? SLOT_ADDR : 0;
    flags |= inst.dataReady ? SLOT_DATA : 0;
    bool done = inst.isStore ? inst.completed
              : inst.isLoad  ? inst.memIssued
                             : inst.issued;
    flags |= done ? SLOT_DONE : 0;
    flags |= inst.writeIssued ? SLOT_WRITE : 0;
    return flags;
}

/**
 * Does select still await operand A (0) or B (1) of a queue entry? An
 * issue-queue entry awaits both until it issues; a store its address
 * (A) and data (B) until each is known; a load its address until it
 * issues.
 */
bool
awaitsOperand(const Inst &inst, int operand)
{
    if (inst.isStore)
        return operand == 0 ? !inst.addrKnown : !inst.dataReady;
    if (inst.isLoad)
        return operand == 0 && !inst.memIssued;
    return true;
}

/** log2 of the per-word store table's bucket count. */
constexpr int STORE_BUCKET_BITS = 8;

} // namespace

DomainId
controlledDomainId(int slot)
{
    switch (slot) {
      case CTL_INT: return DomainId::Integer;
      case CTL_FP:  return DomainId::FloatingPoint;
      case CTL_LS:  return DomainId::LoadStore;
      default: mcd_panic("bad controlled-domain slot %d", slot);
    }
}

Simulator::Simulator(const SimConfig &config, WorkloadGenerator &workload,
                     FrequencyController *controller)
    : config_(config), workload_(&workload), controller_(controller),
      dvfs_(config.dvfs),
      clocks_(dvfs_, config.clocks),
      energy_model_(config.energy,
                    config.clocks.mode == ClockMode::Mcd),
      power_(energy_model_),
      memory_(config.core.memory),
      int_regs_(config.core.intPhysRegs),
      fp_regs_(config.core.fpPhysRegs),
      rename_(int_regs_, fp_regs_),
      state_(config.core.robSize, config.core.lsqSize)
{
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        clock_of_[static_cast<std::size_t>(d)] =
            &clocks_.clock(static_cast<DomainId>(d));
    }
    if (controller_)
        controller_->onStart(clocks_);
    refreshBatchVoltages();
    rebuildScheduler();
}

Simulator::~Simulator()
{
    if (!telemetry::profilingEnabled())
        return;
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto id = static_cast<DomainId>(d);
        edgeCounter(id, false).inc(edges(id));
        edgeCounter(id, true).inc(quietEdges(id));
        skippedEdgeCounter(id).inc(skippedEdges(id));
    }
    quietRunCounter().inc(quiet_runs_);
}

telemetry::Counter &
Simulator::edgeCounter(DomainId domain, bool quiet)
{
    return telemetry::StatRegistry::instance().counter(
        std::string(quiet ? "sim.quiet_edges." : "sim.edges.") +
        domainName(domain));
}

telemetry::Counter &
Simulator::skippedEdgeCounter(DomainId domain)
{
    return telemetry::StatRegistry::instance().counter(
        std::string("sim.skipped_edges.") + domainName(domain));
}

telemetry::Counter &
Simulator::quietRunCounter()
{
    return telemetry::StatRegistry::instance().counter("sim.quiet_runs");
}

std::uint64_t
Simulator::lineOf(std::uint64_t addr) const
{
    return addr & ~static_cast<std::uint64_t>(
        config_.core.memory.l1i.lineBytes - 1);
}

int
Simulator::execLatency(OpClass cls) const
{
    const CoreConfig &c = config_.core;
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Return:
      case OpClass::Nop:
        return c.intAluLatency;
      case OpClass::IntMult: return c.intMultLatency;
      case OpClass::IntDiv:  return c.intDivLatency;
      case OpClass::FpAdd:   return c.fpAddLatency;
      case OpClass::FpMult:  return c.fpMultLatency;
      case OpClass::FpDiv:   return c.fpDivLatency;
      case OpClass::FpSqrt:  return c.fpSqrtLatency;
      default:
        mcd_panic("no execution latency for op class %d",
                  static_cast<int>(cls));
    }
}

// ---------------------------------------------------------------------
// Batched energy accounting
// ---------------------------------------------------------------------

void
Simulator::flushPower() const
{
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto di = static_cast<std::size_t>(d);
        if (batch_.cycles[di]) {
            power_.chargeCycle(static_cast<DomainId>(d), batch_.volt[di],
                               batch_.cycles[di]);
            batch_.cycles[di] = 0;
        }
    }
    // Set bits in ascending order: structures, then charging domains,
    // the order the charges are always applied in.
    for (std::uint64_t bits = batch_.pending; bits; bits &= bits - 1) {
        auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        std::size_t si = bit / NUM_CLOCKED_DOMAINS;
        std::size_t di = bit % NUM_CLOCKED_DOMAINS;
        if (batch_.accesses[si][di]) {
            power_.chargeAccess(static_cast<StructureId>(si),
                                batch_.volt[di], batch_.accesses[si][di]);
            batch_.accesses[si][di] = 0;
        }
    }
    batch_.pending = 0;
    if (batch_.memAccesses) {
        power_.chargeMemoryAccess(batch_.memAccesses);
        batch_.memAccesses = 0;
    }
}

void
Simulator::refreshBatchVoltages() const
{
    // A voltage is a function of the frequency alone.
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto di = static_cast<std::size_t>(d);
        if (clock_of_[di]->frequency() != batch_.freq[di]) {
            batch_.freq[di] = clock_of_[di]->frequency();
            batch_.volt[di] = clock_of_[di]->voltage();
        }
    }
}

bool
Simulator::frequencyMoved() const
{
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto di = static_cast<std::size_t>(d);
        if (clock_of_[di]->frequency() != batch_.freq[di])
            return true;
    }
    return false;
}

void
Simulator::syncBatchVoltages()
{
    if (frequencyMoved()) {
        // Pending charges predate the voltage change; apply them at the
        // voltages they were incurred under, then re-cache.
        flushPower();
        refreshBatchVoltages();
    }
}

void
Simulator::chargeCycleB(DomainId domain)
{
    ++batch_.cycles[static_cast<std::size_t>(domainIndex(domain))];
}

void
Simulator::chargeAccessB(StructureId structure, DomainId domain,
                         std::uint64_t count)
{
    auto si = static_cast<std::size_t>(structure);
    auto di = static_cast<std::size_t>(domainIndex(domain));
    batch_.accesses[si][di] += count;
    batch_.pending |= 1ull << (si * NUM_CLOCKED_DOMAINS + di);
}

void
Simulator::chargeMemB()
{
    ++batch_.memAccesses;
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

void
Simulator::run(std::uint64_t instructions)
{
    runTo(state_.committed + instructions);
}

void
Simulator::runTo(std::uint64_t target)
{
    // Callers may change the machine between runs (memory(), clocks()),
    // which the wake memo cannot see: rescan on every busy domain's
    // next edge. An idle domain sleeps through them, so a frequency
    // set between runs reaches the batch voltages here.
    markAllDirty();
    syncBatchVoltages();
    while (state_.committed < target)
        step();
    // Between runs every clock stands where the eager race leaves it.
    rejoinAll();
}

Tick
Simulator::advance(DomainClock &clock)
{
    // The sync flushes the earlier cycles at the old voltage before
    // this edge's cycle is charged, so every lazy domain first catches
    // up to this edge.
    bool slewing = clock.slewing();
    Tick edge = clock.advance();
    if (slewing && frequencyMoved()) {
        int rank = RANK[static_cast<std::size_t>(domainIndex(clock.id()))];
        for (unsigned bits = lazy_; bits; bits &= bits - 1)
            catchUp(static_cast<std::size_t>(std::countr_zero(bits)), edge,
                    rank);
        flushPower();
        refreshBatchVoltages();
    }
    return edge;
}

void
Simulator::step()
{
    // Quiet edges are taken in a tight loop up to the first edge on
    // which some stage may run (see the file comment). A frequency
    // changes only as a slewing clock advances, in controller calls,
    // which are followed by a sync (handleIntervalBoundary,
    // engageController), or between runs, which runTo syncs. So every
    // edge syncs the batch voltages only after a slewing clock
    // advanced.
    std::array<std::uint64_t, NUM_CLOCKED_DOMAINS> run{}; // per domain

    if (clocks_.mode() == ClockMode::Synchronous) {
        DomainClock &clock = *clock_of_[0];
        auto quiet = [&](const WakeMemo &memo) {
            return memo.quiet(clock.nextEdge(), clock.cycles() + 1);
        };
        std::uint64_t shared = 0;
        for (std::uint64_t spins = 1;
             std::all_of(wake_.begin(), wake_.end(), quiet); ++spins) {
            // At a run's first quiet edge, a calm shared clock skips
            // the edges surely before every domain's quiet bound in one
            // call, charged to each domain.
            if (spins == 1 && clock.calm()) {
                Tick limit = MAX_TICK;
                for (const WakeMemo &memo : wake_)
                    limit = std::min(limit, quietBound(memo, clock));
                std::uint64_t skipped =
                    limit == MAX_TICK ? 0 : clock.edgesBefore(limit);
                if (skipped != 0) {
                    clock.skip(skipped);
                    for (std::size_t di = 0; di < NUM_CLOCKED_DOMAINS;
                         ++di) {
                        batch_.cycles[di] += skipped;
                        skipped_edges_[di] += skipped;
                    }
                    shared += skipped;
                    continue;
                }
            }
            advance(clock);
            for (std::uint64_t &cycles : batch_.cycles)
                ++cycles;
            ++shared;
            if (spins % LIVENESS_PERIOD == 0)
                checkLive();
        }
        for (std::uint64_t &edges : run)
            edges += shared;
        endQuietRun(run);

        Tick edge = advance(clock);
        state_.now = edge;
        // Execution domains tick before the front end so same-edge
        // completion -> commit and dispatch -> next-edge issue orderings
        // match a conventional synchronous pipeline.
        std::uint64_t cycle = clock.cycles();
        tickDomain(DomainId::Integer, edge, cycle);
        tickDomain(DomainId::FloatingPoint, edge, cycle);
        tickDomain(DomainId::LoadStore, edge, cycle);
        tickDomain(DomainId::FrontEnd, edge, cycle);
        return;
    }

    for (std::uint64_t spins = 1;; ++spins) {
        // The earliest pending edge of a domain in the race; ties go to
        // the first in race order. A lazy domain's edge reads as
        // MAX_TICK: a select, where a branch on the lazy bit cost
        // compute-bound runs 3-5%. While no domain is lazy, rejoin_at_
        // is MAX_TICK, above every edge.
        std::size_t di = NUM_CLOCKED_DOMAINS;
        Tick edge = MAX_TICK;
        for (std::size_t d : RACE) {
            Tick t = lazy_ >> d & 1 ? MAX_TICK : clock_of_[d]->nextEdge();
            if (t < edge) {
                di = d;
                edge = t;
            }
        }
        if (rejoin_at_ <= edge) {
            // The race reached the lowest quiet bound, or no domain is
            // left in it: the domains at that bound charge their edges
            // before it and rejoin. With no bound, none can ever wake.
            Tick bound = rejoin_at_;
            if (bound == MAX_TICK)
                checkLive();
            for (unsigned bits = lazy_; bits; bits &= bits - 1) {
                auto d = static_cast<std::size_t>(std::countr_zero(bits));
                if (lazy_bound_[d] != bound)
                    continue;
                if (bound != MAX_TICK)
                    catchUp(d, bound, 0);
                settle(d);
                rejoin(d);
            }
            continue;
        }
        DomainClock &clock = *clock_of_[di];
        const WakeMemo &memo = wake_[di];
        if (!memo.quiet(edge, clock.cycles() + 1)) {
            endQuietRun(run);
            tick_rank_ = RANK[di];
            edge = advance(clock);
            state_.now = edge;
            tickDomain(static_cast<DomainId>(di), edge, clock.cycles());
            return;
        }
        // A calm domain with two or more edges surely before its quiet
        // bound leaves the race; its edges are charged when it catches
        // up.
        if (clock.calm()) {
            Tick bound = quietBound(memo, clock);
            if (clock.twoEdgesBefore(bound)) {
                lazy_ |= 1u << di;
                lazy_bound_[di] = bound;
                lazy_since_[di] = clock.cycles();
                rejoin_at_ = std::min(rejoin_at_, bound);
                continue;
            }
        }
        advance(clock);
        ++batch_.cycles[di];
        ++run[di];
        if (spins % LIVENESS_PERIOD == 0)
            checkLive();
    }
}

Tick
Simulator::quietBound(const WakeMemo &memo, const DomainClock &clock)
{
    // The wake time, or the earliest the wake cycle's edge can fall.
    return memo.wakeCycle == NO_CYCLE
        ? memo.wakeTime
        : std::min(memo.wakeTime, clock.earliestEdge(memo.wakeCycle));
}

void
Simulator::catchUp(std::size_t di, Tick time, int rank)
{
    // Every edge taken here is before the domain's quiet bound. Its
    // cycle energy is due at the next flush; its accumulators are
    // charged by settle().
    DomainClock &clock = *clock_of_[di];
    std::uint64_t skipped = clock.edgesBefore(time);
    clock.skip(skipped);
    std::uint64_t n = skipped;
    for (; clock.nextEdge() < time ||
           (clock.nextEdge() == time && RANK[di] < rank);
         ++n)
        clock.advance();
    batch_.cycles[di] += n;
    skipped_edges_[di] += skipped;
}

void
Simulator::settle(std::size_t di)
{
    // What the accumulators sample has not changed since the domain
    // left the race or last settled: anything that changes it settles
    // the domain first.
    std::uint64_t cycles = clock_of_[di]->cycles();
    std::uint64_t n = cycles - lazy_since_[di];
    lazy_since_[di] = cycles;
    if (n == 0)
        return;
    accountEdges(static_cast<DomainId>(di), n);
    quiet_edges_[di] += n;
    ++quiet_runs_;
}

void
Simulator::rejoin(std::size_t di)
{
    lazy_ &= ~(1u << di);
    rejoin_at_ = MAX_TICK;
    for (unsigned bits = lazy_; bits; bits &= bits - 1)
        rejoin_at_ = std::min(
            rejoin_at_,
            lazy_bound_[static_cast<std::size_t>(std::countr_zero(bits))]);
}

void
Simulator::rejoinAll()
{
    for (unsigned bits = lazy_; bits; bits &= bits - 1) {
        auto di = static_cast<std::size_t>(std::countr_zero(bits));
        catchUp(di, state_.now, tick_rank_);
        settle(di);
    }
    lazy_ = 0;
    rejoin_at_ = MAX_TICK;
}

void
Simulator::checkLive() const
{
    for (const WakeMemo &memo : wake_)
        if (memo.wakeTime != MAX_TICK || memo.wakeCycle != NO_CYCLE)
            return;
    mcd_panic("no clock domain can wake: a wake event was lost");
}

void
Simulator::endQuietRun(
    const std::array<std::uint64_t, NUM_CLOCKED_DOMAINS> &run)
{
    bool any = false;
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto di = static_cast<std::size_t>(d);
        if (run[di] == 0)
            continue;
        accountEdges(static_cast<DomainId>(d), run[di]);
        quiet_edges_[di] += run[di];
        any = true;
    }
    if (any)
        ++quiet_runs_;
}

void
Simulator::accountEdges(DomainId domain, std::uint64_t n)
{
    // Occupancy sums are integer-valued doubles below 2^53, so adding
    // n x occupancy once is exactly n single-edge adds.
    auto count = static_cast<double>(n);
    switch (domain) {
      case DomainId::FrontEnd:
        state_.feCycles += n;
        state_.robOccupancySum +=
            count * static_cast<double>(state_.robCount());
        break;
      case DomainId::Integer:
        state_.ivOccupancySum[CTL_INT] +=
            count * static_cast<double>(state_.intIq.size());
        state_.ivCycles[CTL_INT] += n;
        if (!state_.intIq.empty() || !state_.intExec.empty())
            state_.ivBusyCycles[CTL_INT] += n;
        break;
      case DomainId::FloatingPoint:
        state_.ivOccupancySum[CTL_FP] +=
            count * static_cast<double>(state_.fpIq.size());
        state_.ivCycles[CTL_FP] += n;
        if (!state_.fpIq.empty() || !state_.fpExec.empty())
            state_.ivBusyCycles[CTL_FP] += n;
        break;
      case DomainId::LoadStore:
        state_.ivOccupancySum[CTL_LS] +=
            count * static_cast<double>(state_.lsq.size());
        state_.ivCycles[CTL_LS] += n;
        if (!state_.lsq.empty())
            state_.ivBusyCycles[CTL_LS] += n;
        break;
      default:
        mcd_panic("cannot tick external domain");
    }
    edges_[static_cast<std::size_t>(domainIndex(domain))] += n;
}

bool
Simulator::busy(DomainId domain) const
{
    switch (domain) {
      case DomainId::Integer:
        return !state_.intIq.empty() || !state_.intExec.empty();
      case DomainId::FloatingPoint:
        return !state_.fpIq.empty() || !state_.fpExec.empty();
      case DomainId::LoadStore:
        return !state_.lsq.empty() || !state_.lsExec.empty();
      default:
        return true; // the front end always has work to scan
    }
}

void
Simulator::markDirty(DomainId domain)
{
    // An idle domain sleeps (see the file comment).
    wake_[static_cast<std::size_t>(domainIndex(domain))] = busy(domain)
        ? WakeMemo{}
        : WakeMemo{MAX_TICK, NO_CYCLE, true};
}

void
Simulator::markAllDirty()
{
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d)
        markDirty(static_cast<DomainId>(d));
}

void
Simulator::wakeDomain(DomainId domain, Tick time)
{
    auto di = static_cast<std::size_t>(domainIndex(domain));
    if (lazy_ >> di & 1) {
        catchUp(di, state_.now, tick_rank_);
        settle(di);
        rejoin(di);
    }
    WakeMemo &memo = wake_[di];
    memo.wakeTime = std::min(memo.wakeTime, time);
    memo.asleep = false;
}

void
Simulator::tickDomain(DomainId domain, Tick edge, std::uint64_t cycle)
{
    chargeCycleB(domain);
    accountEdges(domain, 1);

    auto di = static_cast<std::size_t>(domainIndex(domain));
    WakeMemo &memo = wake_[di];
    if (memo.quiet(edge, cycle)) {
        ++quiet_edges_[di];
        return;
    }

    scan_mutated_ = false;
    scan_wake_time_ = MAX_TICK;
    scan_wake_cycle_ = NO_CYCLE;
    switch (domain) {
      case DomainId::FrontEnd:      frontEndTick(edge); break;
      case DomainId::Integer:       integerTick(edge, cycle); break;
      case DomainId::FloatingPoint: fpTick(edge, cycle); break;
      default:                      loadStoreTick(edge, cycle); break;
    }
    // Other domains learned of the scan's changes through wake events.
    if (scan_mutated_)
        markDirty(domain);
    else
        memo = {scan_wake_time_, scan_wake_cycle_, false};
}

// ---------------------------------------------------------------------
// Front end: commit, then fetch + rename + dispatch
// ---------------------------------------------------------------------

void
Simulator::frontEndTick(Tick edge)
{
    commitStage(edge);
    fetchAndDispatch(edge);
}

void
Simulator::commitStage(Tick edge)
{
    // Profiler phases nest (the interval boundary fires inside this
    // loop), so sim.commit's time includes sim.interval's — the
    // breakdown is hierarchical, not a partition.
    ScopedTimer timer(Phase::SimCommit);
    // No run-target ceiling here: a run may overshoot its commit target
    // by the tail of one retire group, which keeps stopping behavior-
    // free (runTo composes exactly, the checkpoint contract relies on
    // it).
    int budget = config_.core.retireWidth;
    while (budget > 0 && state_.robHead != state_.nextSeq) {
        Inst &head = state_.inst(state_.robHead);
        if (!head.completed)
            break;
        Tick visible_at = clocks_.visibleAt(
            head.execDomain, head.completeTime, DomainId::FrontEnd);
        if (edge < visible_at) {
            wakeAt(visible_at);
            break;
        }

        mutated();
        head.committed = true;
        chargeAccessB(StructureId::Rob, DomainId::FrontEnd);

        if (isControlClass(head.op.cls)) {
            bpred_.update(head.op.pc, head.op.taken, head.op.target,
                          head.op.cls == OpClass::Call,
                          head.op.cls == OpClass::Return);
        }
        if (head.hasDst() && head.oldPhysDst >= 0) {
            (head.dstIsFp() ? fp_regs_ : int_regs_).free(head.oldPhysDst);
        }
        if (head.isLoad) {
            // The only queue change that wakes no domain: a lazy
            // load/store domain charges its edges at the old occupancy.
            auto ls = static_cast<std::size_t>(
                domainIndex(DomainId::LoadStore));
            if (lazy_ >> ls & 1) {
                catchUp(ls, edge, tick_rank_);
                settle(ls);
            }
            head.lsqFreed = true;
            eraseSeq(state_.lsq, head.seq);
        }
        if (head.isStore) {
            head.committedStore = true;
            wakeDomain(DomainId::LoadStore, edge); // it may drain now
        }

        ++state_.robHead;
        ++state_.committed;
        --budget;

        if (state_.committed - state_.intervalStartInsts >=
            static_cast<std::uint64_t>(config_.core.intervalInstructions))
            handleIntervalBoundary(edge);
    }
    // The window head moves past retired entries: the ones committed
    // here, and stores whose LSQ slot was freed (see processCompletions).
    if (budget < config_.core.retireWidth)
        state_.retireHead();
}

void
Simulator::handleIntervalBoundary(Tick edge)
{
    ScopedTimer timer(Phase::SimInterval);
    // The boundary reads and resets every domain's accumulators, and
    // the controller may retarget any clock.
    rejoinAll();
    flushPower();

    IntervalStats stats;
    stats.index = state_.intervalIndex++;
    stats.instructions = state_.committed - state_.intervalStartInsts;
    stats.feCycles = state_.feCycles - state_.intervalStartFeCycles;
    stats.ipc = stats.feCycles
        ? static_cast<double>(stats.instructions) /
          static_cast<double>(stats.feCycles)
        : 0.0;
    stats.startTime = state_.intervalStartTime;
    stats.endTime = edge;
    stats.chipEnergy = power_.chipEnergy() - state_.intervalStartEnergy;

    for (int slot = 0; slot < NUM_CONTROLLED; ++slot) {
        auto si = static_cast<std::size_t>(slot);
        DomainIntervalStats &d = stats.domains[si];
        d.queueUtilization = stats.instructions
            ? state_.ivOccupancySum[si] /
              static_cast<double>(stats.instructions)
            : 0.0;
        d.avgOccupancy = state_.ivCycles[si]
            ? state_.ivOccupancySum[si] /
              static_cast<double>(state_.ivCycles[si])
            : 0.0;
        d.issued = state_.ivIssued[si];
        d.cycles = state_.ivCycles[si];
        d.busyCycles = state_.ivBusyCycles[si];
        d.frequency =
            clocks_.clock(controlledDomainId(slot)).targetFrequency();
    }

    stats.robUtilization = stats.instructions
        ? state_.robOccupancySum / static_cast<double>(stats.instructions)
        : 0.0;
    stats.avgRobOccupancy = stats.feCycles
        ? state_.robOccupancySum / static_cast<double>(stats.feCycles)
        : 0.0;
    stats.feFrequency =
        clocks_.clock(DomainId::FrontEnd).targetFrequency();

    if (controller_)
        controller_->onInterval(stats, clocks_);
    if (interval_observer_)
        interval_observer_(stats);
    // The controller may have jumped a frequency with no slew.
    syncBatchVoltages();

    state_.resetIntervalAccum();
    state_.intervalStartInsts = state_.committed;
    state_.intervalStartFeCycles = state_.feCycles;
    state_.intervalStartTime = edge;
    state_.intervalStartEnergy = power_.chipEnergy();
}

bool
Simulator::resourcesAvailable(const MicroOp &op) const
{
    const CoreConfig &c = config_.core;
    if (state_.robCount() >= c.robSize)
        return false;
    if (op.dst > 0) {
        const PhysRegFile &file =
            RenameMap::isFp(op.dst) ? fp_regs_ : int_regs_;
        if (file.freeCount() == 0)
            return false;
    }
    if (isMemClass(op.cls))
        return static_cast<int>(state_.lsq.size()) < c.lsqSize;
    if (isFpClass(op.cls))
        return static_cast<int>(state_.fpIq.size()) < c.fpIqSize;
    return static_cast<int>(state_.intIq.size()) < c.intIqSize;
}

void
Simulator::fetchAndDispatch(Tick edge)
{
    ScopedTimer timer(Phase::SimFetch);
    const CoreConfig &c = config_.core;

    if (state_.stallBranchSeq != NO_SEQ) {
        if (state_.branchResolveTime == MAX_TICK)
            return; // branch still executing
        Tick redirect_at = clocks_.visibleAt(state_.branchResolveDomain,
                                             state_.branchResolveTime,
                                             DomainId::FrontEnd);
        if (edge < redirect_at) {
            // The redirect has not crossed into the front end yet.
            wakeAt(redirect_at);
            return;
        }
        // A redirect cycle charges the I-cache, so it counts as a
        // state change like the end of the stall.
        mutated();
        if (state_.redirectPenaltyLeft > 0) {
            --state_.redirectPenaltyLeft;
            // Wrong-path fetch shadow: the fetch engine keeps running.
            chargeAccessB(StructureId::Icache, DomainId::FrontEnd);
            return;
        }
        state_.stallBranchSeq = NO_SEQ;
        state_.branchResolveTime = MAX_TICK;
    }

    if (state_.icacheStallUntil > edge) {
        wakeAt(state_.icacheStallUntil);
        return;
    }

    bool accessed_line = false;
    for (int budget = c.decodeWidth; budget > 0; --budget) {
        if (!state_.havePendingOp) {
            state_.pendingOp = workload_->next();
            state_.havePendingOp = true;
            mutated();
        }
        const MicroOp &op = state_.pendingOp;
        if (!resourcesAvailable(op))
            break; // released only by another stage's state change

        std::uint64_t line = lineOf(op.pc);
        if (line != state_.lastFetchLine) {
            if (accessed_line)
                break; // one I-cache line per fetch cycle
            accessed_line = true;
            mutated();
            chargeAccessB(StructureId::Icache, DomainId::FrontEnd);
            MemAccessOutcome outcome = memory_.accessInst(op.pc);
            state_.lastFetchLine = line;
            if (outcome.level != MemLevel::L1) {
                chargeAccessB(
                    StructureId::L2Cache, DomainId::LoadStore,
                    static_cast<std::uint64_t>(outcome.l2Accesses));
                Tick ls_period = periodFromFreq(
                    clocks_.clock(DomainId::LoadStore).frequency());
                Tick done = edge +
                    config_.core.memory.l2Latency * ls_period;
                for (int m = 0; m < outcome.memAccesses; ++m) {
                    done = memory_.memory().schedule(done);
                    chargeMemB();
                }
                state_.icacheStallUntil = done + clocks_.syncWindow();
                break;
            }
        }

        if (!dispatchOne(op, edge))
            break;
        mutated();
        state_.havePendingOp = false;

        const Inst &inst = state_.inst(state_.nextSeq - 1);
        if (isControlClass(op.cls)) {
            if (inst.mispredicted) {
                state_.stallBranchSeq = inst.seq;
                state_.redirectPenaltyLeft = c.branchMispredictPenalty;
                state_.branchResolveTime = MAX_TICK;
                break;
            }
            if (op.taken)
                break; // redirect to the predicted target next cycle
        }
    }
}

bool
Simulator::dispatchOne(const MicroOp &op, Tick edge)
{
    std::size_t ring_size = state_.ring.size();
    Inst &inst = state_.allocate();
    if (state_.ring.size() != ring_size)
        rebuildScheduler(); // slots moved; the new entry is not queued
    inst.op = op;
    inst.dispatchTime = edge;
    inst.isLoad = isLoadClass(op.cls);
    inst.isStore = isStoreClass(op.cls);
    inst.execDomain = isMemClass(op.cls) ? DomainId::LoadStore
        : isFpClass(op.cls)              ? DomainId::FloatingPoint
                                         : DomainId::Integer;

    inst.physA = rename_.lookup(op.srcA);
    inst.physB = rename_.lookup(op.srcB);

    if (isControlClass(op.cls)) {
        state_.branches.inc();
        chargeAccessB(StructureId::BranchPredictor, DomainId::FrontEnd);
        BranchPrediction pred = bpred_.predict(
            op.pc, op.cls == OpClass::Call, op.cls == OpClass::Return,
            op.fallthrough());
        bool correct = pred.predictTaken == op.taken &&
            (!op.taken || pred.target == op.target);
        inst.mispredicted = !correct;
        if (!correct)
            state_.mispredicts.inc();
    }

    if (op.dst > 0) {
        PhysRegFile &file =
            RenameMap::isFp(op.dst) ? fp_regs_ : int_regs_;
        int phys = file.alloc();
        if (phys < 0)
            mcd_panic("dispatch without a free physical register");
        inst.physDst = phys;
        inst.oldPhysDst = rename_.rename(op.dst, phys);
    }

    chargeAccessB(StructureId::RenameTable, DomainId::FrontEnd);
    chargeAccessB(StructureId::Rob, DomainId::FrontEnd);
    // ROB membership is implicit: every live seq >= robHead is in it.

    trackEntry(inst);
    wakeDomain(inst.execDomain, slots_[inst.seq & state_.ringMask].latchAt);
    if (isMemClass(op.cls)) {
        state_.lsq.push_back(inst.seq);
        chargeAccessB(StructureId::Lsq, DomainId::LoadStore);
        state_.loads.inc(inst.isLoad ? 1 : 0);
        state_.stores.inc(inst.isStore ? 1 : 0);
    } else if (isFpClass(op.cls)) {
        state_.fpIq.push_back(inst.seq);
        chargeAccessB(StructureId::FpIssueQueue,
                      DomainId::FloatingPoint);
    } else {
        state_.intIq.push_back(inst.seq);
        chargeAccessB(StructureId::IntIssueQueue, DomainId::Integer);
    }
    return true;
}

// ---------------------------------------------------------------------
// Execution domains
// ---------------------------------------------------------------------

Tick
Simulator::regReadyTime(int logical, int phys, DomainId domain) const
{
    if (logical <= 0)
        return 0;
    const PhysRegFile &file =
        RenameMap::isFp(logical) ? fp_regs_ : int_regs_;
    return file.readyTime(phys, domain, clocks_);
}

void
Simulator::latchEnqueue(Slot &slot, std::uint64_t seq, Tick edge)
{
    // Queue-write latency: the entry is latched into the issue queue
    // on the first domain edge that satisfies the sync rule and
    // becomes issue-eligible the following edge.
    if (edge < slot.latchAt) {
        wakeAt(slot.latchAt);
        return;
    }
    slot.flags |= SLOT_LATCHED;
    state_.inst(seq).enqueued = true;
    // Only select reads the latch, and it can act on the entry from
    // the next edge once an operand it awaits is visible.
    wakeAt((slot.flags & SLOT_STORE)
               ? std::min(slot.operandAt[0], slot.operandAt[1])
               : std::max(slot.operandAt[0], slot.operandAt[1]));
}

void
Simulator::completeInst(Inst &inst, DomainId domain, Tick edge)
{
    inst.completed = true;
    inst.completeTime = edge;
    if (inst.physDst >= 0) {
        PhysRegFile &file =
            inst.dstIsFp() ? fp_regs_ : int_regs_;
        file.markWritten(inst.physDst, edge, domain);
        chargeAccessB(inst.dstIsFp() ? StructureId::FpRegFile
                                     : StructureId::IntRegFile,
                      domain);
        chargeAccessB(StructureId::ResultBus, domain);
        // Wake the register's waiters with the tick at which the value
        // becomes visible in each one's domain.
        std::int32_t &head =
            waiter_head_[static_cast<std::size_t>(
                regKey(inst.op.dst, inst.physDst))];
        for (std::int32_t node = head; node >= 0;
             node = waiter_next_[static_cast<std::size_t>(node)]) {
            auto slot = static_cast<std::size_t>(node >> 1);
            Slot &waiter = slots_[slot];
            Tick at = clocks_.visibleAt(domain, edge, waiter.domain);
            waiter.operandAt[static_cast<std::size_t>(node & 1)] = at;
            // An unlatched entry is listed, and its domain wakes for
            // the latch; a latched one that select can now act on
            // wakes its domain when it can.
            if ((waiter.flags & SLOT_LATCHED) && isCandidate(waiter)) {
                if (!(waiter.flags & SLOT_LISTED))
                    listCandidate(slot);
                wakeDomain(waiter.domain,
                           (waiter.flags & SLOT_STORE)
                               ? at
                               : std::max(waiter.operandAt[0],
                                          waiter.operandAt[1]));
            }
        }
        head = -1;
    }
    if (inst.usesMshr && inst.isLoad) {
        --state_.mshrInUse;
        inst.usesMshr = false;
    }
    if (inst.mispredicted && isControlClass(inst.op.cls)) {
        state_.branchResolveTime = edge;
        state_.branchResolveDomain = domain;
        wakeDomain(DomainId::FrontEnd,
                   clocks_.visibleAt(domain, edge, DomainId::FrontEnd));
    }
    wakeIfHead(inst.seq, domain, edge);
}

void
Simulator::wakeIfHead(std::uint64_t seq, DomainId domain, Tick edge)
{
    // The commit stage stops at the first entry it cannot retire, so
    // only the head's completion can change its next scan.
    if (seq == state_.robHead)
        wakeDomain(DomainId::FrontEnd,
                   clocks_.visibleAt(domain, edge, DomainId::FrontEnd));
}

void
Simulator::processCompletions(std::vector<std::uint64_t> &exec_list,
                              DomainId domain, Tick edge,
                              std::uint64_t cycle)
{
    ScopedTimer timer(Phase::SimWakeup);
    for (std::size_t i = 0; i < exec_list.size();) {
        Inst &inst = state_.inst(exec_list[i]);
        // Wake on the cycle deadline first; once it has passed, on the
        // memory return time.
        if (cycle < inst.doneCycle) {
            wakeAtCycle(inst.doneCycle);
            ++i;
            continue;
        }
        if (edge < inst.absDoneTime) {
            wakeAt(inst.absDoneTime);
            ++i;
            continue;
        }
        mutated();
        if (inst.isStore && inst.writeIssued) {
            // A committed store write finishing: free the LSQ slot.
            inst.lsqFreed = true;
            if (inst.usesMshr) {
                --state_.mshrInUse;
                inst.usesMshr = false;
            }
            removeStore(inst.seq & state_.ringMask);
            eraseSeq(state_.lsq, inst.seq);
            state_.retireHead();
            wakeDomain(DomainId::FrontEnd, edge); // a free LSQ entry
        } else {
            completeInst(inst, domain, edge);
        }
        exec_list[i] = exec_list.back();
        exec_list.pop_back();
    }
}

void
Simulator::integerTick(Tick edge, std::uint64_t cycle)
{
    processCompletions(state_.intExec, DomainId::Integer, edge, cycle);
    issueQueue(DomainId::Integer, edge, cycle);
}

void
Simulator::fpTick(Tick edge, std::uint64_t cycle)
{
    processCompletions(state_.fpExec, DomainId::FloatingPoint, edge,
                       cycle);
    issueQueue(DomainId::FloatingPoint, edge, cycle);
}

void
Simulator::issueQueue(DomainId domain, Tick edge, std::uint64_t cycle)
{
    bool fp = domain == DomainId::FloatingPoint;
    ScopedTimer timer(fp ? Phase::SimIssueFp : Phase::SimIssueInt);
    const CoreConfig &c = config_.core;
    std::vector<std::uint64_t> &list = candidates(domain);
    std::uint64_t &div_free_cycle =
        fp ? state_.fpDivFreeCycle : state_.intDivFreeCycle;
    int budget = fp ? c.fpIssueWidth : c.intIssueWidth;
    int alu_slots = fp ? c.fpAluCount : c.intAluCount;
    int mult_slots = cycle >= div_free_cycle ? 1 : 0;

    std::size_t kept = 0;
    std::size_t i = 0;
    for (; i < list.size() && budget > 0; ++i) {
        std::uint64_t seq = list[i];
        Slot &slot = slots_[seq & state_.ringMask];
        Tick ready_at = std::max(slot.operandAt[0], slot.operandAt[1]);
        if (!(slot.flags & SLOT_LATCHED)) {
            latchEnqueue(slot, seq, edge);
        } else if (edge < ready_at) {
            wakeAt(ready_at);
        } else {
            OpClass cls = slot.cls;
            bool divide = cls == OpClass::IntDiv || cls == OpClass::FpDiv ||
                          cls == OpClass::FpSqrt;
            if (divide || cls == OpClass::IntMult ||
                cls == OpClass::FpMult) {
                // The mult unit also divides, unpipelined.
                if (mult_slots == 0) {
                    wakeAtCycle(div_free_cycle);
                    list[kept++] = seq;
                    continue;
                }
                if (divide) {
                    mult_slots = 0;
                    div_free_cycle = cycle +
                        static_cast<std::uint64_t>(execLatency(cls));
                } else {
                    --mult_slots;
                }
                chargeAccessB(fp ? StructureId::FpMult
                                 : StructureId::IntMult,
                              domain);
            } else {
                if (alu_slots == 0) {
                    list[kept++] = seq;
                    continue;
                }
                --alu_slots;
                chargeAccessB(fp ? StructureId::FpAlu : StructureId::IntAlu,
                              domain);
            }

            mutated();
            slot.flags |= SLOT_DONE;
            Inst &inst = state_.inst(seq);
            inst.issued = true;
            inst.doneCycle =
                cycle + static_cast<std::uint64_t>(execLatency(cls));
            (fp ? state_.fpExec : state_.intExec).push_back(seq);
            std::vector<std::uint64_t> &q = fp ? state_.fpIq : state_.intIq;
            q.erase(std::lower_bound(q.begin(), q.end(), seq));
            wakeDomain(DomainId::FrontEnd, edge); // a free queue entry
            chargeAccessB(fp ? StructureId::FpIssueQueue
                             : StructureId::IntIssueQueue,
                          domain);
            int reads = (inst.op.srcA > 0 ? 1 : 0) +
                        (inst.op.srcB > 0 ? 1 : 0);
            chargeAccessB(fp ? StructureId::FpRegFile
                             : StructureId::IntRegFile,
                          domain, static_cast<std::uint64_t>(reads));
            ++state_.ivIssued[fp ? CTL_FP : CTL_INT];
            --budget;
        }
        keepCandidate(list, kept, seq);
    }
    list.erase(list.begin() + static_cast<std::ptrdiff_t>(kept),
               list.begin() + static_cast<std::ptrdiff_t>(i));
}

// ---------------------------------------------------------------------
// Load/store domain
// ---------------------------------------------------------------------

bool
Simulator::olderStoreBlocks(std::uint64_t load_seq, std::uint64_t word,
                            bool &forward) const
{
    // Conservative disambiguation: any older store with an unknown
    // address blocks the load.
    forward = false;
    if (!unknown_stores_.empty() && unknown_stores_.front() < load_seq)
        return true;
    for (std::int32_t s = store_head_[storeBucket(word)]; s >= 0;) {
        const StoreLink &store = store_link_[static_cast<std::size_t>(s)];
        if (store.word == word && store.seq < load_seq) {
            if (!(slots_[static_cast<std::size_t>(s)].flags & SLOT_DATA))
                return true; // matching store, data not yet ready
            forward = true;  // the newest matching store forwards
        }
        s = store.next;
    }
    return false;
}

void
Simulator::startDataAccess(Inst &inst, Tick edge, std::uint64_t cycle,
                           bool is_write)
{
    const CoreConfig &c = config_.core;
    mutated();

    MemAccessOutcome outcome =
        memory_.accessData(inst.op.memAddr, is_write);
    chargeAccessB(StructureId::Dcache, DomainId::LoadStore);
    chargeAccessB(StructureId::L2Cache, DomainId::LoadStore,
                  static_cast<std::uint64_t>(outcome.l2Accesses));

    int cycles = c.memory.l1Latency;
    Tick abs_done = 0;
    if (outcome.level != MemLevel::L1) {
        cycles += c.memory.l2Latency;
        ++state_.mshrInUse;
        inst.usesMshr = true;
    }
    if (outcome.level == MemLevel::Memory) {
        Tick ls_period = periodFromFreq(
            clocks_.clock(DomainId::LoadStore).frequency());
        Tick request = edge + cycles * ls_period;
        for (int m = 0; m < outcome.memAccesses; ++m) {
            abs_done = memory_.memory().schedule(request);
            chargeMemB();
        }
        // Main memory is its own clock domain: crossing back into the
        // load/store domain pays the synchronization window.
        abs_done += clocks_.syncWindow();
    }

    inst.issued = true;
    inst.doneCycle = cycle + static_cast<std::uint64_t>(cycles);
    inst.absDoneTime = abs_done;
    if (is_write)
        inst.writeIssued = true;
    else
        inst.memIssued = true;
    state_.lsExec.push_back(inst.seq);
}

void
Simulator::issueStore(Slot &slot, std::uint64_t seq, Tick edge,
                      int &budget)
{
    std::uint8_t flags = slot.flags;
    if (!(flags & SLOT_ADDR)) {
        if (edge >= slot.operandAt[0]) {
            mutated();
            flags |= SLOT_ADDR;
            Inst &inst = state_.inst(seq);
            inst.addrKnown = true; // AGU operation
            unknown_stores_.erase(std::lower_bound(
                unknown_stores_.begin(), unknown_stores_.end(), seq));
            insertStore(seq & state_.ringMask, seq, inst.op.memAddr >> 3);
            chargeAccessB(StructureId::Lsq, DomainId::LoadStore);
            --budget;
        } else {
            wakeAt(slot.operandAt[0]);
        }
    }
    if (!(flags & SLOT_DATA)) {
        if (edge >= slot.operandAt[1]) {
            mutated();
            flags |= SLOT_DATA;
            state_.inst(seq).dataReady = true;
        } else {
            wakeAt(slot.operandAt[1]);
        }
    }
    if ((flags & (SLOT_ADDR | SLOT_DATA)) == (SLOT_ADDR | SLOT_DATA)) {
        mutated();
        flags |= SLOT_DONE;
        Inst &inst = state_.inst(seq);
        inst.completed = true;
        inst.completeTime = edge;
        inst.execDomain = DomainId::LoadStore;
        ++state_.ivIssued[CTL_LS];
        wakeIfHead(seq, DomainId::LoadStore, edge);
    }
    slot.flags = flags;
}

void
Simulator::issueLoad(Slot &slot, std::uint64_t seq, Tick edge,
                     std::uint64_t cycle, int &budget)
{
    if (edge < slot.operandAt[0]) {
        wakeAt(slot.operandAt[0]);
        return;
    }

    // Blocks from here on (an older store, no free MSHR) are released
    // only by another scan's state change.
    Inst &inst = state_.inst(seq);
    bool forward = false;
    if (olderStoreBlocks(seq, inst.op.memAddr >> 3, forward))
        return;

    if (forward) {
        mutated();
        slot.flags |= SLOT_DONE;
        inst.memIssued = true;
        inst.forwarded = true;
        inst.doneCycle = cycle + 1;
        state_.lsExec.push_back(seq);
        chargeAccessB(StructureId::Lsq, DomainId::LoadStore);
        ++state_.ivIssued[CTL_LS];
        --budget;
        return;
    }

    bool hit = memory_.l1d().probe(inst.op.memAddr);
    if (!hit && state_.mshrInUse >= config_.core.mshrCount)
        return; // no MSHR free; retry next cycle
    chargeAccessB(StructureId::Lsq, DomainId::LoadStore);
    slot.flags |= SLOT_DONE;
    startDataAccess(inst, edge, cycle, false);
    ++state_.ivIssued[CTL_LS];
    --budget;
}

void
Simulator::issueLoadStore(Tick edge, std::uint64_t cycle)
{
    ScopedTimer timer(Phase::SimIssueLs);
    const CoreConfig &c = config_.core;
    int budget = c.memIssueWidth;

    // The candidates are uncommitted: a committed entry has completed.
    std::vector<std::uint64_t> &list = candidates(DomainId::LoadStore);
    std::size_t kept = 0;
    std::size_t i = 0;
    for (; i < list.size() && budget > 0; ++i) {
        std::uint64_t seq = list[i];
        Slot &slot = slots_[seq & state_.ringMask];
        if (!(slot.flags & SLOT_LATCHED))
            latchEnqueue(slot, seq, edge);
        else if (slot.flags & SLOT_STORE)
            issueStore(slot, seq, edge, budget);
        else
            issueLoad(slot, seq, edge, cycle, budget);
        keepCandidate(list, kept, seq);
    }
    list.erase(list.begin() + static_cast<std::ptrdiff_t>(kept),
               list.begin() + static_cast<std::ptrdiff_t>(i));

    // Drain committed stores into the cache with leftover bandwidth.
    // Loads leave the LSQ at commit, so the entries older than the ROB
    // head are exactly the committed stores.
    const std::vector<std::uint64_t> &lsq = state_.lsq;
    auto committed_stores = static_cast<std::size_t>(
        std::lower_bound(lsq.begin(), lsq.end(), state_.robHead) -
        lsq.begin());
    for (std::size_t j = 0; j < committed_stores && budget > 0; ++j) {
        std::uint64_t seq = lsq[j];
        Slot &slot = slots_[seq & state_.ringMask];
        if (slot.flags & SLOT_WRITE)
            continue;
        Inst &inst = state_.inst(seq);
        bool hit = memory_.l1d().probe(inst.op.memAddr);
        if (!hit && state_.mshrInUse >= c.mshrCount)
            break; // stores drain in order
        chargeAccessB(StructureId::Lsq, DomainId::LoadStore);
        slot.flags |= SLOT_WRITE;
        startDataAccess(inst, edge, cycle, true);
        --budget;
    }
}

void
Simulator::loadStoreTick(Tick edge, std::uint64_t cycle)
{
    processCompletions(state_.lsExec, DomainId::LoadStore, edge, cycle);
    issueLoadStore(edge, cycle);
}

// ---------------------------------------------------------------------
// Issue-select state
// ---------------------------------------------------------------------

int
Simulator::regKey(int logical, int phys) const
{
    return RenameMap::isFp(logical) ? int_regs_.size() + phys : phys;
}

std::size_t
Simulator::storeBucket(std::uint64_t word) const
{
    return static_cast<std::size_t>((word * 0x9e3779b97f4a7c15ull) >>
                                    (64 - STORE_BUCKET_BITS));
}

void
Simulator::insertStore(std::size_t slot, std::uint64_t seq,
                       std::uint64_t word)
{
    std::int32_t &head = store_head_[storeBucket(word)];
    store_link_[slot] = {seq, word, head};
    head = static_cast<std::int32_t>(slot);
}

void
Simulator::removeStore(std::size_t slot)
{
    std::int32_t *link = &store_head_[storeBucket(store_link_[slot].word)];
    while (*link != static_cast<std::int32_t>(slot))
        link = &store_link_[static_cast<std::size_t>(*link)].next;
    *link = store_link_[slot].next;
}

void
Simulator::awaitOperand(std::size_t slot, int operand, int logical,
                        int phys)
{
    Slot &entry = slots_[slot];
    Tick &at = entry.operandAt[static_cast<std::size_t>(operand)];
    at = regReadyTime(logical, phys, entry.domain);
    if (at != MAX_TICK)
        return;
    // Unwritten: wait on the register until completeInst stamps it.
    auto node = static_cast<std::int32_t>(slot * 2) + operand;
    std::int32_t &head =
        waiter_head_[static_cast<std::size_t>(regKey(logical, phys))];
    waiter_next_[static_cast<std::size_t>(node)] = head;
    head = node;
}

bool
Simulator::isCandidate(const Slot &slot)
{
    std::uint8_t flags = slot.flags;
    if (!(flags & SLOT_LATCHED))
        return true; // the latch is pending
    if (flags & SLOT_DONE)
        return false;
    bool a = slot.operandAt[0] != MAX_TICK;
    bool b = slot.operandAt[1] != MAX_TICK;
    if (flags & SLOT_STORE)
        return (!(flags & SLOT_ADDR) && a) || (!(flags & SLOT_DATA) && b);
    return a && b;
}

std::vector<std::uint64_t> &
Simulator::candidates(DomainId domain)
{
    return candidates_[static_cast<std::size_t>(domainIndex(domain) - 1)];
}

void
Simulator::listCandidate(std::size_t slot)
{
    Slot &entry = slots_[slot];
    entry.flags |= SLOT_LISTED;
    // Every live seq lies within one ring length of the window head.
    std::uint64_t seq = state_.windowHead +
        ((slot - state_.windowHead) & state_.ringMask);
    std::vector<std::uint64_t> &list = candidates(entry.domain);
    list.insert(std::upper_bound(list.begin(), list.end(), seq), seq);
}

void
Simulator::keepCandidate(std::vector<std::uint64_t> &list,
                         std::size_t &kept, std::uint64_t seq)
{
    Slot &slot = slots_[seq & state_.ringMask];
    if (isCandidate(slot))
        list[kept++] = seq;
    else
        slot.flags &= static_cast<std::uint8_t>(~SLOT_LISTED);
}

void
Simulator::trackEntry(const Inst &inst)
{
    std::size_t slot = inst.seq & state_.ringMask;
    Slot &entry = slots_[slot];
    entry = Slot{};
    entry.flags = slotFlags(inst);
    entry.cls = inst.op.cls;
    entry.domain = inst.execDomain;
    entry.latchAt = clocks_.visibleAt(DomainId::FrontEnd,
                                      inst.dispatchTime, inst.execDomain);
    if (awaitsOperand(inst, 0))
        awaitOperand(slot, 0, inst.op.srcA, inst.physA);
    if (awaitsOperand(inst, 1))
        awaitOperand(slot, 1, inst.op.srcB, inst.physB);
    if (inst.isStore && inst.addrKnown)
        insertStore(slot, inst.seq, inst.op.memAddr >> 3);
    // Entries are tracked oldest first, per queue, so appending keeps
    // these lists in age order.
    if (inst.isStore && !inst.addrKnown)
        unknown_stores_.push_back(inst.seq);
    if (isCandidate(entry)) {
        entry.flags |= SLOT_LISTED;
        candidates(inst.execDomain).push_back(inst.seq);
    }
}

void
Simulator::rebuildScheduler()
{
    std::size_t ring = state_.ring.size();
    slots_.assign(ring, Slot{});
    waiter_head_.assign(
        static_cast<std::size_t>(int_regs_.size() + fp_regs_.size()), -1);
    waiter_next_.assign(2 * ring, -1);
    store_head_.assign(std::size_t{1} << STORE_BUCKET_BITS, -1);
    store_link_.assign(ring, StoreLink{});
    for (std::vector<std::uint64_t> &list : candidates_)
        list.clear();
    unknown_stores_.clear();
    for (const auto *queue : {&state_.intIq, &state_.fpIq, &state_.lsq})
        for (std::uint64_t seq : *queue)
            trackEntry(state_.inst(seq));
}

std::string
Simulator::checkScheduler() const
{
    auto fail = [](std::uint64_t seq, const char *what) {
        return "seq " + std::to_string(seq) + ": " + what;
    };
    std::size_t ring = state_.ring.size();
    if (slots_.size() != ring || waiter_next_.size() != 2 * ring ||
        store_link_.size() != ring)
        return "issue-select tables do not match the ring size";

    // Waiter nodes, known-address stores, unknown-address stores and
    // candidates the window implies.
    std::vector<std::int32_t> expected_reg(2 * ring, -1);
    std::vector<bool> expected_store(ring, false);
    std::vector<std::uint64_t> unknown_stores;
    std::array<std::vector<std::uint64_t>, NUM_CONTROLLED> expected_lists;
    std::size_t waiters = 0;
    std::size_t stores = 0;
    const std::vector<std::uint64_t> *queues[] = {
        &state_.intIq, &state_.fpIq, &state_.lsq};
    for (int q = 0; q < NUM_CONTROLLED; ++q) {
        const std::vector<std::uint64_t> &queue = *queues[q];
        for (std::size_t i = 0; i < queue.size(); ++i) {
            std::uint64_t seq = queue[i];
            const Inst &inst = state_.inst(seq);
            std::size_t slot = seq & state_.ringMask;
            const Slot &entry = slots_[slot];
            if (inst.seq != seq || (i > 0 && queue[i - 1] >= seq))
                return fail(seq, "queue is not in age order");
            if ((entry.flags & ~SLOT_LISTED) != slotFlags(inst) ||
                entry.cls != inst.op.cls ||
                entry.domain != inst.execDomain ||
                domainIndex(inst.execDomain) - 1 != q)
                return fail(seq, "slot does not mirror the entry");
            if (entry.latchAt !=
                clocks_.visibleAt(DomainId::FrontEnd, inst.dispatchTime,
                                  inst.execDomain))
                return fail(seq, "stale queue latch tick");
            if (q == CTL_LS && seq < state_.robHead &&
                !(inst.isStore && inst.committedStore))
                return fail(seq, "LSQ entry older than the ROB head is "
                                 "not a committed store");
            const std::pair<int, int> operands[] = {
                {inst.op.srcA, inst.physA}, {inst.op.srcB, inst.physB}};
            for (int op = 0; op < 2; ++op) {
                if (!awaitsOperand(inst, op))
                    continue;
                auto [logical, phys] = operands[op];
                Tick fresh = regReadyTime(logical, phys, inst.execDomain);
                if (entry.operandAt[static_cast<std::size_t>(op)] != fresh)
                    return fail(seq, "cached operand tick differs from "
                                     "the register file");
                if (fresh == MAX_TICK) {
                    expected_reg[slot * 2 + static_cast<std::size_t>(op)] =
                        regKey(logical, phys);
                    ++waiters;
                }
            }
            if (inst.isStore && inst.addrKnown) {
                expected_store[slot] = true;
                ++stores;
            }
            if (inst.isStore && !inst.addrKnown)
                unknown_stores.push_back(seq);
            if (isCandidate(entry))
                expected_lists[static_cast<std::size_t>(q)].push_back(seq);
            if (isCandidate(entry) != bool(entry.flags & SLOT_LISTED))
                return fail(seq, "candidate flag is stale");
        }
    }
    if (expected_lists != candidates_)
        return "a candidate list differs from its queue's candidates";
    if (unknown_stores != unknown_stores_)
        return "unknown-address store list differs from the LSQ";

    std::size_t linked = 0;
    for (std::size_t reg = 0; reg < waiter_head_.size(); ++reg) {
        for (std::int32_t node = waiter_head_[reg]; node >= 0;
             node = waiter_next_[static_cast<std::size_t>(node)]) {
            if (static_cast<std::size_t>(node) >= 2 * ring ||
                ++linked > waiters ||
                expected_reg[static_cast<std::size_t>(node)] !=
                    static_cast<std::int32_t>(reg))
                return "waiter list of register " + std::to_string(reg) +
                       " holds an entry that does not await it";
        }
    }
    if (linked != waiters)
        return "an entry awaiting an unwritten register is on no "
               "waiter list";

    linked = 0;
    for (std::size_t bucket = 0; bucket < store_head_.size(); ++bucket) {
        for (std::int32_t s = store_head_[bucket]; s >= 0;) {
            auto slot = static_cast<std::size_t>(s);
            if (slot >= ring || ++linked > stores || !expected_store[slot])
                return "store table holds a stale entry in bucket " +
                       std::to_string(bucket);
            const StoreLink &store = store_link_[slot];
            const Inst &inst = state_.inst(store.seq);
            if (inst.seq != store.seq || (store.seq & state_.ringMask) !=
                    slot || store.word != inst.op.memAddr >> 3 ||
                storeBucket(store.word) != bucket)
                return fail(store.seq, "store table entry is stale");
            s = store.next;
        }
    }
    if (linked != stores)
        return "a known-address store is missing from the store table";

    return checkWakeMemos();
}

std::string
Simulator::checkWakeMemos() const
{
    // Each memo is asleep only while its domain is idle, and quiet on
    // no edge at which something its scan acts on falls due.
    std::string late;
    auto expect = [&](DomainId id, Tick time, const char *what) {
        auto d = static_cast<std::size_t>(domainIndex(id));
        const DomainClock &clock = *clock_of_[d];
        bool ok = time == MAX_TICK ||
            (time >= clock.nextEdge()
                 ? wake_[d].wakeTime <= time
                 : !wake_[d].quiet(clock.nextEdge(), clock.cycles() + 1));
        if (!ok && late.empty())
            late = std::string("domain ") + domainName(id) +
                   " sleeps through " + what;
    };
    auto expectCycle = [&](DomainId id, std::uint64_t cycle,
                           const char *what) {
        auto d = static_cast<std::size_t>(domainIndex(id));
        if (wake_[d].wakeCycle > cycle && late.empty())
            late = std::string("domain ") + domainName(id) +
                   " sleeps through " + what;
    };

    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto id = static_cast<DomainId>(d);
        if (wake_[static_cast<std::size_t>(d)].asleep && busy(id))
            return std::string("domain ") + domainName(id) +
                   " sleeps with work queued";
    }

    for (int q = 0; q < NUM_CONTROLLED; ++q) {
        DomainId id = controlledDomainId(q);
        const DomainClock &clock = *clock_of_[static_cast<std::size_t>(
            domainIndex(id))];
        std::uint64_t div_free = id == DomainId::FloatingPoint
            ? state_.fpDivFreeCycle
            : state_.intDivFreeCycle;
        for (std::uint64_t seq : candidates_[static_cast<std::size_t>(q)]) {
            const Slot &slot = slots_[seq & state_.ringMask];
            Tick ready_at = std::max(slot.operandAt[0], slot.operandAt[1]);
            bool mult_unit = slot.cls == OpClass::IntMult ||
                slot.cls == OpClass::IntDiv || slot.cls == OpClass::FpMult ||
                slot.cls == OpClass::FpDiv || slot.cls == OpClass::FpSqrt;
            if (!(slot.flags & SLOT_LATCHED)) {
                expect(id, slot.latchAt, "a queue latch");
            } else if (slot.flags & SLOT_STORE) {
                if (!(slot.flags & SLOT_ADDR))
                    expect(id, slot.operandAt[0], "a store address");
                if (!(slot.flags & SLOT_DATA))
                    expect(id, slot.operandAt[1], "store data");
            } else if (slot.flags & SLOT_LOAD) {
                // A due load may wait on an older store or an MSHR.
                if (slot.operandAt[0] >= clock.nextEdge())
                    expect(id, slot.operandAt[0], "a load address");
            } else if (mult_unit && ready_at < clock.nextEdge() &&
                       clock.cycles() + 1 < div_free) {
                expectCycle(id, div_free, "a free mult unit");
            } else {
                expect(id, ready_at, "ready operands");
            }
        }
    }

    const std::pair<const std::vector<std::uint64_t> *, DomainId> exec[] = {
        {&state_.intExec, DomainId::Integer},
        {&state_.fpExec, DomainId::FloatingPoint},
        {&state_.lsExec, DomainId::LoadStore}};
    for (auto [list, id] : exec) {
        const DomainClock &clock = *clock_of_[static_cast<std::size_t>(
            domainIndex(id))];
        // A scan waits on the cycle deadline first, then on the time.
        bool scans_next = wake_[static_cast<std::size_t>(domainIndex(id))]
                              .wakeCycle <= clock.cycles() + 1;
        for (std::uint64_t seq : *list) {
            const Inst &inst = state_.inst(seq);
            if (clock.cycles() + 1 < inst.doneCycle)
                expectCycle(id, inst.doneCycle, "an execution deadline");
            else if (!scans_next)
                expect(id, inst.absDoneTime, "a memory return");
        }
    }

    // The first committed store not yet written drains unless it
    // misses with every MSHR taken.
    for (std::uint64_t seq : state_.lsq) {
        if (seq >= state_.robHead)
            break;
        const Inst &store = state_.inst(seq);
        if (store.writeIssued)
            continue;
        if (memory_.l1d().probe(store.op.memAddr) ||
            state_.mshrInUse < config_.core.mshrCount)
            expect(DomainId::LoadStore, 0, "a store drain");
        break;
    }

    if (state_.robHead != state_.nextSeq) {
        const Inst &head = state_.inst(state_.robHead);
        if (head.completed)
            expect(DomainId::FrontEnd,
                   clocks_.visibleAt(head.execDomain, head.completeTime,
                                     DomainId::FrontEnd),
                   "a commit");
    }
    if (state_.stallBranchSeq != NO_SEQ) {
        if (state_.branchResolveTime != MAX_TICK)
            expect(DomainId::FrontEnd,
                   clocks_.visibleAt(state_.branchResolveDomain,
                                     state_.branchResolveTime,
                                     DomainId::FrontEnd),
                   "a branch redirect");
    } else if (state_.icacheStallUntil >=
               clock_of_[static_cast<std::size_t>(
                   domainIndex(DomainId::FrontEnd))]->nextEdge()) {
        expect(DomainId::FrontEnd, state_.icacheStallUntil,
               "an I-cache refill");
    }
    return late;
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

void
Simulator::engageController(FrequencyController *controller)
{
    flushPower();
    controller_ = controller;
    if (controller_)
        controller_->onStart(clocks_);
    syncBatchVoltages();
}

void
Simulator::resetMeasurement()
{
    // Pending batched charges predate the reset; drop them along with
    // the accumulators (identical to per-op accounting, where they
    // would already have been added and then zeroed here).
    batch_.cycles.fill(0);
    for (auto &per_domain : batch_.accesses)
        per_domain.fill(0);
    batch_.pending = 0;
    batch_.memAccesses = 0;
    power_.reset();

    state_.measCommittedBase = state_.committed;
    state_.measFeCyclesBase = state_.feCycles;
    state_.measTimeBase = state_.now;
    state_.branches.reset();
    state_.mispredicts.reset();
    state_.loads.reset();
    state_.stores.reset();
    state_.resetIntervalAccum();
    state_.intervalIndex = 0;
    state_.intervalStartInsts = state_.committed;
    state_.intervalStartFeCycles = state_.feCycles;
    state_.intervalStartTime = state_.now;
    state_.intervalStartEnergy = 0.0; // power_ was just reset
}

// ---------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------

void
Simulator::saveCheckpoint(std::string &out) const
{
    ScopedTimer timer(Phase::CkptSave);
    std::string body;
    state_.saveState(body);
    clocks_.saveState(body);
    memory_.saveState(body);
    bpred_.saveState(body);
    int_regs_.saveState(body);
    fp_regs_.saveState(body);
    rename_.saveState(body);
    power_.saveState(body);
    // Pending charge batch: serialized rather than flushed, so the
    // resumed run flushes at the same points (and therefore sums the
    // same floating-point terms in the same order) as an unbroken run.
    for (std::uint64_t cycles : batch_.cycles)
        serial::appendU64(body, cycles);
    for (const auto &per_domain : batch_.accesses)
        for (std::uint64_t count : per_domain)
            serial::appendU64(body, count);
    serial::appendU64(body, batch_.memAccesses);
    workload_->saveState(body);

    serial::appendU64(out, CHECKPOINT_FORMAT);
    serial::appendU64(out, serial::fnv1a(body));
    serial::appendString(out, body);
}

bool
Simulator::restoreCheckpoint(serial::Reader &outer)
{
    ScopedTimer timer(Phase::CkptRestore);
    if (outer.readU64() != CHECKPOINT_FORMAT)
        return false;
    // The digest rejects corrupted bytes as a whole; behind it, every
    // decoder also bounds the indices and counts it reads.
    std::uint64_t digest = outer.readU64();
    std::string body = outer.readString();
    if (!outer.ok() || serial::fnv1a(body) != digest)
        return false;
    serial::Reader in(body);
    if (!state_.loadState(in))
        return false;
    if (!clocks_.loadState(in))
        return false;
    if (!memory_.loadState(in))
        return false;
    if (!bpred_.loadState(in))
        return false;
    if (!int_regs_.loadState(in))
        return false;
    if (!fp_regs_.loadState(in))
        return false;
    if (!rename_.loadState(in))
        return false;
    // Each window entry's physical registers must index the file its
    // architectural register lives in (NO_REG where it has none).
    auto fits = [&](int logical, int phys) {
        return phys == NO_REG ||
               phys < (RenameMap::isFp(logical) ? fp_regs_ : int_regs_)
                          .size();
    };
    for (std::uint64_t s = state_.windowHead; s != state_.nextSeq; ++s) {
        const Inst &inst = state_.inst(s);
        if (!fits(inst.op.srcA, inst.physA) ||
            !fits(inst.op.srcB, inst.physB) ||
            !fits(inst.op.dst, inst.physDst) ||
            !fits(inst.op.dst, inst.oldPhysDst))
            return false;
    }
    if (!power_.loadState(in))
        return false;
    for (std::uint64_t &cycles : batch_.cycles)
        cycles = in.readU64();
    batch_.pending = ~0ull; // recomputed by the next flush
    for (auto &per_domain : batch_.accesses)
        for (std::uint64_t &count : per_domain)
            count = in.readU64();
    batch_.memAccesses = in.readU64();
    if (!workload_->loadState(in) || !in.atEnd())
        return false;
    // Voltage caches, the issue-select state and the wake memo are
    // derived state: recompute the first from the restored clocks
    // (cur_freq round-trips bit-exactly, so these match too), the
    // second from the window and register files, and rescan on every
    // busy domain's next edge.
    refreshBatchVoltages();
    rebuildScheduler();
    markAllDirty();
    return true;
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

SimStats
Simulator::stats() const
{
    flushPower();
    SimStats s;
    s.instructions = state_.committed - state_.measCommittedBase;
    s.feCycles = state_.feCycles - state_.measFeCyclesBase;
    s.time = state_.now - state_.measTimeBase;
    s.chipEnergy = power_.chipEnergy();
    s.cpi = s.instructions
        ? static_cast<double>(s.feCycles) /
          static_cast<double>(s.instructions)
        : 0.0;
    s.epi = s.instructions
        ? s.chipEnergy / static_cast<double>(s.instructions)
        : 0.0;
    s.branches = state_.branches.value();
    s.mispredicts = state_.mispredicts.value();
    s.loads = state_.loads.value();
    s.stores = state_.stores.value();
    s.l1dMisses = memory_.l1d().misses().value();
    s.l2Misses = memory_.l2().misses().value();
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        s.domainEnergy[static_cast<std::size_t>(d)] =
            power_.domainEnergy(static_cast<DomainId>(d));
    }
    return s;
}

} // namespace mcd
