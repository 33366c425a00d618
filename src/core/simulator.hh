/**
 * @file
 * The cycle-level MCD out-of-order processor simulator.
 *
 * Structure follows Figure 1: a front-end domain (fetch, L1I, branch
 * prediction, rename, ROB, retire), integer and floating-point execution
 * domains (issue queue + FUs + register file each), and a load/store
 * domain (LSQ, L1D, unified L2), with main memory externally clocked.
 * Each domain runs on its own jittered clock; the main loop always
 * advances whichever clock has the earliest pending edge (a domain with
 * nothing to do may stand aside and catch up later; see below), so the
 * relationship among all clock edges is tracked cycle by cycle and every
 * cross-domain transfer (dispatch into an issue queue, register result
 * consumption, branch-resolution redirect, cache-fill return) pays the
 * synchronization-window penalty when edges fall too close (Section 4).
 *
 * The model is trace-driven on the correct path: fetch consults the real
 * predictor hierarchy and, on a wrong prediction, stalls at the branch
 * until it resolves plus the 7-cycle redirect penalty (wrong-path
 * instructions are not executed; fetch energy is still charged during
 * the redirect shadow). All Table 4 structures are modeled: 80-entry
 * ROB, 20/15-entry issue queues, 64-entry LSQ with store-to-load
 * forwarding and conservative disambiguation, 72+72 physical registers,
 * MSHR-limited non-blocking caches.
 *
 * All mutable machine state lives in a SimState aggregate (see
 * sim_state.hh), so a run can be checkpointed at any stopping point and
 * resumed bit-identically: runTo(X) followed by runTo(Y) executes the
 * exact same step sequence as a single runTo(Y). To keep stopping
 * behavior-free, the commit stage never caps commits at a run target —
 * a run may overshoot its target by up to retireWidth-1 instructions.
 *
 * Execution timing is kept as absolute deadlines, never as per-edge
 * countdowns: an executing instruction finishes at the first edge of
 * its domain whose `clock.cycles()` reaches `Inst::doneCycle` (issue
 * cycle + latency) and whose time reaches `Inst::absDoneTime` (memory
 * returns); a busy divide unit frees at `SimState::{int,fp}DivFreeCycle`.
 * So an edge on which nothing happens owes no bookkeeping to any
 * in-flight instruction.
 *
 * That is what lets the loop skip quiescent edges. After a domain's
 * stages scan the machine and change nothing, the outcome of the next
 * scan depends only on time, and only through thresholds the scan can
 * name: the earliest edge time at which a blocked entry becomes
 * visible (queue latch, operand, commit, redirect, I-cache refill) and
 * the earliest cycle deadline. The per-domain wake memo records them.
 * Until that time or cycle the domain's edges are *quiet*: they draw
 * their clock edge (and jitter sample), charge cycle energy and update
 * the per-edge occupancy accumulators, but run no stage. Blocks on a
 * resource (full ROB/queue/LSQ, MSHRs, an older store, no free
 * register) need no wake time: only a state change elsewhere can
 * release them.
 *
 * State changes reach other domains as wake events rather than as a
 * blanket rescan. A scan that changes what it reads itself marks its
 * own domain dirty (it rescans on its next edge); latching a queue
 * entry instead records when select can act on it. Every input a scan
 * reads from another domain has one event that lowers the reader's
 * wake time:
 *   - a dispatch wakes the entry's domain at its queue latch;
 *   - a completion wakes each waiter's domain when the waiter becomes
 *     selectable, and the front end when the completed entry is the
 *     ROB head or a mispredicted branch;
 *   - an issue or a freed LSQ entry wakes the front end (queue space);
 *   - committing a store wakes the load/store domain (it may drain).
 * A busy domain, marked dirty, rescans on its next edge; an idle one,
 * with nothing queued or executing, sleeps (wake time MAX_TICK) until a
 * dispatch wakes it. runTo and restoreCheckpoint mark every domain so:
 * callers may change memory() or clocks() between runs. The memo is
 * derived state, never serialized; skipping is exact, so results are
 * byte-identical to scanning every edge. checkScheduler() checks that
 * no memo is later than an event its domain acts on, and the quiet loop
 * panics if no domain can ever wake. `quietEdges()` reports how many
 * edges were skipped.
 *
 * Quiet edges are taken in bulk. step() advances clocks in a tight
 * loop while the earliest pending edge is quiet (in Synchronous mode:
 * while the shared edge is quiet for all four domains), charging each
 * edge's cycle energy and drawing its jitter sample, and stops at the
 * first edge on which some stage may run. No quiet edge changes
 * machine state, so the occupancies the per-edge accumulators sample
 * are constant across the run: accountEdges() charges the whole run
 * per domain as count x occupancy, which is exact because those sums
 * are integer-valued doubles below 2^53.
 *
 * In MCD mode a domain need not even stay in that race. A calm clock
 * (DomainClock::calm(): not slewing, and jitter too small for the
 * monotonic clamp to bind) has a quiet bound: its memo's wake time or,
 * for a cycle deadline, the earliest the wakeCycle edge can fall
 * (DomainClock::earliestEdge()); every one of its edges before the
 * bound is quiet. When the race's earliest edge is quiet, its clock is
 * calm and two or more of its edges fall surely before the bound, the
 * domain leaves the race *lazy* at that pending edge: the race takes
 * only the other domains' edges, and the lazy clock stands still. It
 * rejoins when the earliest edge in the race reaches its bound (or
 * when no domain is left in the race and its bound is the lowest),
 * after first charging its edges before the bound, and when
 * wakeDomain() names it. With every domain lazy and no bound, no
 * domain can wake and the liveness check panics.
 *
 * A lazy domain's edges are consumed by one catch-up routine: one
 * DomainClock::skip() call for the edges that surely fall before a
 * point of the race, then edge by edge the few near it, in the race's
 * tie order (time first, then Integer, FloatingPoint, LoadStore,
 * FrontEnd). It batches their cycle energy; settle() then charges the
 * accumulators and edge counts for every edge consumed since the
 * domain left the race or last settled. Catch-ups run before anything
 * reads those counts or changes what they sample:
 *   - a slewing clock's energy flush (advance());
 *   - an interval boundary, which also settles and rejoins every
 *     domain, because the controller may retarget a clock;
 *   - a committed load leaving the LSQ, the one queue change that
 *     wakes no domain (the load/store domain settles, and stays lazy);
 *   - wakeDomain(), which settles and rejoins the domain;
 *   - the end of runTo, which settles and rejoins every domain, so
 *     checkpoints, stats() and checkScheduler() see the machine the
 *     eager race would have left.
 * The result is exact. Each lazy edge falls before the domain's bound,
 * so it is quiet; its domain's occupancies have not changed since it
 * last settled; and every per-edge effect is an integer count, while
 * the floating-point energy sums are formed only at flushes, by which
 * time every lazy domain has caught up. The clocks' RNG streams are
 * independent, so drawing one clock's edges late draws the same
 * samples. `quietRuns()` counts the charges of quiet edges in bulk:
 * each step's run of quiet edges taken in the race, and each settle.
 * `skippedEdges()` counts the edges consumed by DomainClock::skip()
 * calls, that is in bulk by catch-ups and rejoins.
 *
 * The Synchronous chip has one clock and no race. There, at a run's
 * first quiet edge, a calm shared clock skips in one call the edges
 * surely before the lowest of the four domains' quiet bounds, charged
 * to each domain.
 *
 * On every edge, quiet or not, the batch voltages are synced only
 * after a slewing clock advanced. Otherwise a frequency changes only
 * in controller calls, which are followed by a sync, or between runs;
 * because a sleeping domain may take a run's first edges quietly,
 * runTo syncs before its first edge.
 *
 * Issue select is driven by events too. At dispatch each queue entry
 * registers on the physical registers it still waits for;
 * completeInst drains the written register's waiter list and stamps
 * each waiter's operand tick with the edge at which the value becomes
 * visible in the waiter's domain. That is exact because the
 * synchronization window is fixed per DvfsModel. Select walks, in age
 * order, only its domain's candidates: entries whose visit could
 * change something (unlatched, or with every awaited operand written).
 * It reads compact per-slot flags and ticks, and touches an Inst only
 * when the entry can issue or changes state. Every LSQ entry older
 * than the ROB head is a committed store, since loads leave at commit,
 * so the store drain walks just that prefix. A load is disambiguated
 * against the oldest store with an unknown address and a per-word
 * table of known-address stores. All of this is derived state:
 * never serialized, rebuilt after a restore or a ring growth, and
 * checked on demand by checkScheduler().
 *
 * Energy accounting is batched: per-edge cycle charges and per-access
 * structure charges accumulate in integer counters and are applied to
 * the PowerAccountant only when a domain voltage changes, at interval
 * boundaries, at measurement resets, and when stats are read. A flush
 * visits only the counters a bit mask marks as touched, in the fixed
 * order, so the sums are the same.
 */

#ifndef MCD_CORE_SIMULATOR_HH
#define MCD_CORE_SIMULATOR_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "clock/clock_system.hh"
#include "common/serial.hh"
#include "common/stats.hh"
#include "core/core_config.hh"
#include "core/inst.hh"
#include "core/interval.hh"
#include "core/regfile.hh"
#include "core/sim_state.hh"
#include "memory/memory_hierarchy.hh"
#include "power/power_accountant.hh"
#include "predictor/branch_predictor.hh"
#include "workload/workload.hh"

namespace mcd
{

namespace telemetry
{
class Counter;
}

/** Everything needed to instantiate one simulated machine. */
struct SimConfig
{
    CoreConfig core{};
    DvfsConfig dvfs{};
    ClockSystemConfig clocks{};
    EnergyConfig energy{};
};

/** Aggregate results of a run, in absolute units. */
struct SimStats
{
    std::uint64_t instructions = 0;
    std::uint64_t feCycles = 0;
    Tick time = 0;               //!< simulated wall-clock (ps)
    NanoJoule chipEnergy = 0.0;
    double cpi = 0.0;            //!< front-end cycles per instruction
    double epi = 0.0;            //!< nJ per instruction
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::array<NanoJoule, NUM_CLOCKED_DOMAINS> domainEnergy{};
};

/** The MCD processor simulator. */
class Simulator
{
  public:
    /**
     * @param config      machine configuration
     * @param workload    correct-path micro-op stream (not owned)
     * @param controller  frequency controller, may be null (constant
     *                    maximum frequencies)
     */
    Simulator(const SimConfig &config, WorkloadGenerator &workload,
              FrequencyController *controller = nullptr);
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Run until at least `instructions` more have committed. The run may
     * overshoot by up to retireWidth-1 commits; stopping is behavior-
     * free, so run(a); run(b) is identical to run(a + b).
     */
    void run(std::uint64_t instructions);

    /** Run until the absolute commit count reaches `target`. */
    void runTo(std::uint64_t target);

    /**
     * Install (or replace) the frequency controller mid-run; its
     * onStart hook fires immediately. Used to run warm-up uncontrolled
     * so warm-up checkpoints are shared across controllers.
     */
    void engageController(FrequencyController *controller);

    /**
     * Reset measurement state (energy, cycle/instruction counters,
     * interval numbering and accumulators) without flushing micro-
     * architectural state; used to exclude warm-up from measurements.
     */
    void resetMeasurement();

    /** Per-interval observer (figures 2/3 traces), called after the
     *  controller. */
    void
    setIntervalObserver(std::function<void(const IntervalStats &)> cb)
    {
        interval_observer_ = std::move(cb);
    }

    /** Results so far. */
    SimStats stats() const;

    /**
     * Serialize the entire machine — SimState, clocks, caches,
     * predictor, register files, energy accumulators (pending charge
     * batch included, so flush points replay identically), and the
     * workload position. Side-effect free: saving does not perturb the
     * run. A simulator built from the identical SimConfig + workload
     * spec that restores this blob continues bit-identically to the
     * run that saved it. Layout: format version, FNV-1a digest of the
     * body, length-prefixed body; caches, BTB and predictor tables
     * write only their valid or changed entries, as varints.
     */
    void saveCheckpoint(std::string &out) const;

    /**
     * Inverse of saveCheckpoint. Rejects another format version, a
     * body that fails its digest or leaves trailing bytes, and any
     * count, class, domain or register, queue or table index out of
     * range. It does not check that a restored machine is
     * self-consistent (a well-indexed but corrupt body may stall).
     * False leaves no guarantees about partial state, so callers must
     * treat failure as fatal for this instance (checkpoint artifacts
     * re-simulate on failure).
     */
    bool restoreCheckpoint(serial::Reader &in);

    /**
     * Domain edges this instance has stepped, and how many of them were
     * quiet (no stage ran; see the file comment). Diagnostics only: not
     * part of SimStats, artifacts or checkpoints. When the
     * profiler is on, the destructor adds both into edgeCounter().
     */
    std::uint64_t
    edges(DomainId domain) const
    {
        return edges_[static_cast<std::size_t>(domainIndex(domain))];
    }
    std::uint64_t
    quietEdges(DomainId domain) const
    {
        return quiet_edges_[static_cast<std::size_t>(
            domainIndex(domain))];
    }

    /**
     * Charges of quiet edges in bulk: each step's run of quiet edges
     * taken in the edge race, and each settle of a lazy domain (see
     * the file comment); diagnostics only, like edges().
     */
    std::uint64_t quietRuns() const { return quiet_runs_; }

    /**
     * Quiet edges of `domain` consumed in bulk by DomainClock::skip
     * calls rather than edge by edge: by catch-ups and rejoins of a
     * lazy domain, or by the Synchronous chip's shared-clock skip (see
     * the file comment); diagnostics only, like edges().
     */
    std::uint64_t
    skippedEdges(DomainId domain) const
    {
        return skipped_edges_[static_cast<std::size_t>(
            domainIndex(domain))];
    }

    /** The StatRegistry counter `sim.edges.<domain>`, or with `quiet`
     *  `sim.quiet_edges.<domain>`, that profiled simulators add into. */
    static telemetry::Counter &edgeCounter(DomainId domain, bool quiet);

    /** The StatRegistry counter `sim.quiet_runs`, likewise. */
    static telemetry::Counter &quietRunCounter();

    /** The StatRegistry counter `sim.skipped_edges.<domain>`,
     *  likewise. */
    static telemetry::Counter &skippedEdgeCounter(DomainId domain);

    /**
     * Check the derived issue-select state against the machine state
     * it caches: every awaited operand tick equals a fresh register
     * lookup, the waiter lists hold exactly the entries that await an
     * unwritten register, the per-word store table holds exactly the
     * known-address stores, a sleeping domain has empty queues, and
     * no wake memo is later than an event its domain's scan acts on.
     * Returns the first violation, or an empty string.
     */
    std::string checkScheduler() const;

    ClockSystem &clocks() { return clocks_; }
    const PowerAccountant &power() const { return power_; }
    MemoryHierarchy &memory() { return memory_; }
    std::uint64_t committed() const { return state_.committed; }
    Tick now() const { return state_.now; }
    const SimConfig &config() const { return config_; }

  private:
    SimConfig config_;
    WorkloadGenerator *workload_;
    FrequencyController *controller_;

    DvfsModel dvfs_;
    ClockSystem clocks_;
    EnergyModel energy_model_;
    mutable PowerAccountant power_;
    MemoryHierarchy memory_;
    BranchPredictor bpred_;

    PhysRegFile int_regs_;
    PhysRegFile fp_regs_;
    RenameMap rename_;

    /** All mutable machine state (window ring, queues, counters). */
    SimState state_;

    /**
     * Pending energy charges, accumulated as integer counts and applied
     * at the cached per-domain voltages on flush. Structure accesses
     * are keyed by (structure, charging domain) because a few charges
     * (result writeback) bill a structure at the producing domain's
     * voltage rather than the structure's own.
     */
    struct PowerBatch
    {
        std::array<Hertz, NUM_CLOCKED_DOMAINS> freq{};
        std::array<Volt, NUM_CLOCKED_DOMAINS> volt{};
        std::array<std::uint64_t, NUM_CLOCKED_DOMAINS> cycles{};
        std::array<std::array<std::uint64_t, NUM_CLOCKED_DOMAINS>,
                   NUM_STRUCTURES>
            accesses{};
        /** Bit `structure * NUM_CLOCKED_DOMAINS + domain` is set once
         *  that access count may be nonzero, so a flush visits only
         *  those. */
        std::uint64_t pending = 0;
        std::uint64_t memAccesses = 0;
    };
    static_assert(NUM_STRUCTURES * NUM_CLOCKED_DOMAINS <= 64);
    mutable PowerBatch batch_;

    /** Each domain's clock (the shared one in Synchronous mode). */
    std::array<DomainClock *, NUM_CLOCKED_DOMAINS> clock_of_{};

    /** Per-domain wake memo (see the file comment). The default, a
     *  wake time of 0, rescans on the next edge. */
    struct WakeMemo
    {
        Tick wakeTime = 0;
        std::uint64_t wakeCycle = 0;
        bool asleep = false; //!< idle: no queued or executing entry

        /** Is the domain edge at `edge`, the clock's `cycle`-th, quiet? */
        bool
        quiet(Tick edge, std::uint64_t cycle) const
        {
            return edge < wakeTime && cycle < wakeCycle;
        }
    };
    std::array<WakeMemo, NUM_CLOCKED_DOMAINS> wake_{};

    // Lazy clocks (MCD mode; see the file comment): a bit per domain
    // out of the edge race, each one's quiet bound and the clock cycle
    // its accumulators are charged up to, the lowest bound, and the tie
    // rank of the domain whose edge is being ticked.
    unsigned lazy_ = 0;
    std::array<Tick, NUM_CLOCKED_DOMAINS> lazy_bound_{};
    std::array<std::uint64_t, NUM_CLOCKED_DOMAINS> lazy_since_{};
    Tick rejoin_at_ = MAX_TICK;
    int tick_rank_ = 0;

    // The scan in progress: did it change machine state, and if not,
    // from when could a later scan?
    bool scan_mutated_ = false;
    Tick scan_wake_time_ = MAX_TICK;
    std::uint64_t scan_wake_cycle_ = 0;

    /**
     * Issue-select state of one ring slot (`seq & ringMask`), derived
     * from the window entry it mirrors (see the file comment).
     */
    struct Slot
    {
        /** When each awaited operand (A, B) becomes visible in the
         *  entry's domain: MAX_TICK while unwritten, 0 when not awaited
         *  or absent. */
        std::array<Tick, 2> operandAt{};
        Tick latchAt = 0;        //!< first edge the queue latches it
        std::uint8_t flags = 0;  //!< SLOT_* bits mirroring the Inst
        OpClass cls = OpClass::Nop;
        DomainId domain = DomainId::Integer;
    };
    std::vector<Slot> slots_;

    /** Waiter lists: per physical register (integer file, then FP),
     *  the first waiter node (`slot * 2 + operand`), -1 for none;
     *  per node, the next one. */
    std::vector<std::int32_t> waiter_head_;
    std::vector<std::int32_t> waiter_next_;

    /** Per-word table of the LSQ's known-address stores: buckets of
     *  slots chained through `StoreLink::next`. */
    struct StoreLink
    {
        std::uint64_t seq = 0;
        std::uint64_t word = 0;
        std::int32_t next = -1;
    };
    std::vector<std::int32_t> store_head_;
    std::vector<StoreLink> store_link_;

    /** The LSQ's stores with unknown addresses, oldest first. */
    std::vector<std::uint64_t> unknown_stores_;

    /** Per execution domain (CTL_* order), oldest first: the queue
     *  entries select visits. An entry latched and still awaiting an
     *  unwritten register, or one select has finished with, is off
     *  the list, since its visit could change nothing. */
    std::array<std::vector<std::uint64_t>, NUM_CONTROLLED> candidates_;

    std::array<std::uint64_t, NUM_CLOCKED_DOMAINS> edges_{};
    std::array<std::uint64_t, NUM_CLOCKED_DOMAINS> quiet_edges_{};
    std::uint64_t quiet_runs_ = 0;
    std::array<std::uint64_t, NUM_CLOCKED_DOMAINS> skipped_edges_{};

    std::function<void(const IntervalStats &)> interval_observer_;

    // --- energy batching ---
    void flushPower() const;
    void refreshBatchVoltages() const;
    /** Has a frequency changed since the batch voltages were cached? */
    bool frequencyMoved() const;
    void syncBatchVoltages();
    void chargeCycleB(DomainId domain);
    void chargeAccessB(StructureId structure, DomainId domain,
                       std::uint64_t count = 1);
    void chargeMemB();

    // --- main loop ---
    void step();
    /** Advance `clock` one edge, syncing the batch voltages if it was
     *  slewing; returns the edge. */
    Tick advance(DomainClock &clock);
    /** The time before which every edge of a calm `clock` is quiet
     *  under `memo` (see the file comment). */
    static Tick quietBound(const WakeMemo &memo, const DomainClock &clock);
    /** Consume the lazy domain `di`'s edges that precede, in race
     *  order, the edge at `time` of the domain of tie rank `rank`,
     *  skipping the ones surely before `time`, and batch their cycle
     *  energy (see the file comment). */
    void catchUp(std::size_t di, Tick time, int rank);
    /** Charge the accumulators of the lazy domain `di` for the edges it
     *  consumed since it left the race or last settled. */
    void settle(std::size_t di);
    /** Put the lazy domain `di` back into the edge race. */
    void rejoin(std::size_t di);
    /** Catch up every lazy domain to the edge being ticked and put it
     *  back into the race. */
    void rejoinAll();
    /** Panic if every wake memo says never: the loop would spin
     *  forever. */
    void checkLive() const;
    void tickDomain(DomainId domain, Tick edge, std::uint64_t cycle);
    /** Per-edge accumulators for `n` edges of `domain` at the current
     *  occupancies. */
    void accountEdges(DomainId domain, std::uint64_t n);
    /** Charge a run of quiet edges, counted per domain. */
    void endQuietRun(
        const std::array<std::uint64_t, NUM_CLOCKED_DOMAINS> &run);

    // --- wake memo: called by the stages during a scan ---
    void mutated() { scan_mutated_ = true; }
    void
    wakeAt(Tick time)
    {
        scan_wake_time_ = std::min(scan_wake_time_, time);
    }
    void
    wakeAtCycle(std::uint64_t cycle)
    {
        scan_wake_cycle_ = std::min(scan_wake_cycle_, cycle);
    }
    /** Has `domain` a queued or executing entry? */
    bool busy(DomainId domain) const;
    /** Rescan `domain` on its next edge, or put it to sleep if idle. */
    void markDirty(DomainId domain);
    void markAllDirty();
    /** An event makes `domain`'s scan from `time` on differ. */
    void wakeDomain(DomainId domain, Tick time);

    // --- per-domain stages (`cycle` is the domain clock's cycles()) ---
    void frontEndTick(Tick edge);
    void integerTick(Tick edge, std::uint64_t cycle);
    void fpTick(Tick edge, std::uint64_t cycle);
    void loadStoreTick(Tick edge, std::uint64_t cycle);

    // Front-end helpers.
    void commitStage(Tick edge);
    void fetchAndDispatch(Tick edge);
    bool dispatchOne(const MicroOp &op, Tick edge);
    bool resourcesAvailable(const MicroOp &op) const;
    void handleIntervalBoundary(Tick edge);

    // Execution helpers.
    void processCompletions(std::vector<std::uint64_t> &exec_list,
                            DomainId domain, Tick edge,
                            std::uint64_t cycle);
    void completeInst(Inst &inst, DomainId domain, Tick edge);
    /** Wake the front end if `seq`, completed at `edge` in `domain`,
     *  is the ROB head. */
    void wakeIfHead(std::uint64_t seq, DomainId domain, Tick edge);
    void issueQueue(DomainId domain, Tick edge, std::uint64_t cycle);
    void issueLoadStore(Tick edge, std::uint64_t cycle);
    void latchEnqueue(Slot &slot, std::uint64_t seq, Tick edge);
    Tick regReadyTime(int logical, int phys, DomainId domain) const;
    int execLatency(OpClass cls) const;

    // Load/store helpers.
    void issueStore(Slot &slot, std::uint64_t seq, Tick edge, int &budget);
    void issueLoad(Slot &slot, std::uint64_t seq, Tick edge,
                   std::uint64_t cycle, int &budget);
    bool olderStoreBlocks(std::uint64_t load_seq, std::uint64_t word,
                          bool &forward) const;
    void startDataAccess(Inst &inst, Tick edge, std::uint64_t cycle,
                         bool is_write);

    // --- issue-select state (derived; see the file comment) ---
    void rebuildScheduler();
    /** checkScheduler()'s wake-memo half. */
    std::string checkWakeMemos() const;
    /** Set up the slot of a queue entry, the youngest tracked so far
     *  in its queue. */
    void trackEntry(const Inst &inst);
    /** Could a visit by select change anything (see the file
     *  comment)? */
    static bool isCandidate(const Slot &slot);
    std::vector<std::uint64_t> &candidates(DomainId domain);
    /** Put the entry in `slot`, a new candidate, on its domain's
     *  list. */
    void listCandidate(std::size_t slot);
    /** After select visited `seq` at list[kept..]: keep it listed at
     *  `kept` if it is still a candidate, else unlist it. */
    void keepCandidate(std::vector<std::uint64_t> &list,
                       std::size_t &kept, std::uint64_t seq);
    void awaitOperand(std::size_t slot, int operand, int logical,
                      int phys);
    int regKey(int logical, int phys) const;
    std::size_t storeBucket(std::uint64_t word) const;
    void insertStore(std::size_t slot, std::uint64_t seq,
                     std::uint64_t word);
    void removeStore(std::size_t slot);

    std::uint64_t lineOf(std::uint64_t addr) const;
};

} // namespace mcd

#endif // MCD_CORE_SIMULATOR_HH
