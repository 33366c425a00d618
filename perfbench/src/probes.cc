#include "probes.hh"

#include <algorithm>

#include "clock/domain_clock.hh"
#include "clock/dvfs_model.hh"
#include "control/controller_registry.hh"
#include "core/simulator.hh"
#include "harness/artifact.hh"
#include "memory/memory_hierarchy.hh"
#include "predictor/branch_predictor.hh"
#include "workload/benchmark_factory.hh"

namespace perfbench
{

using namespace mcd;

namespace
{

/** Keeps probe results observable so the kernels are not elided. */
volatile std::uint64_t g_sink = 0;

/** Slices per run phase: enough spans to see the cost shift between
 *  warm-up and measurement, few enough to keep timer reads rare. */
constexpr std::uint64_t SLICES = 8;

} // namespace

SimStats
simulateDirect(const ExperimentSpec &spec, const Advance &advance)
{
    // Runner::runWithOptionalController's sequence.
    const RunnerConfig &cfg = spec.config;
    auto controller = ControllerRegistry::instance().create(spec.controller);
    auto workload = BenchmarkFactory::create(spec.benchmark,
                                             cfg.instructions + cfg.warmup);
    Simulator sim(makeSimConfig(cfg, spec.mode, spec.resolvedStartFreq()),
                  *workload, nullptr);
    auto step = [&](std::uint64_t length) {
        if (advance)
            advance(sim, length);
        else
            sim.runTo(sim.committed() + length);
    };
    if (cfg.warmup > 0) {
        step(cfg.warmup);
        sim.resetMeasurement();
    }
    sim.engageController(controller.get());
    step(cfg.instructions);
    return sim.stats();
}

CoreProbe
probeCore(const std::vector<ExperimentSpec> &specs, SpanLog &log,
          std::uint64_t parent)
{
    CoreProbe probe;
    ArtifactCache &cache = ArtifactCache::instance();
    for (const ExperimentSpec &spec : specs) {
        SimStats resolved;
        auto resolve = [&] {
            cache.clear();
            std::uint64_t t0 = nowNs();
            {
                ScopedSpan span(log, "probe.runExperiments", parent);
                resolved = runExperiments({spec}, 1).front();
            }
            probe.resolveNs += static_cast<double>(nowNs() - t0);
        };

        // Stepped in timed runTo slices. Stopping is behaviour-free,
        // so the slices cannot change the result.
        SimStats direct;
        auto runSliced = [&](Simulator &sim, std::uint64_t length) {
            const DomainClock &fe = sim.clocks().clock(DomainId::FrontEnd);
            std::uint64_t target = sim.committed() + length;
            std::uint64_t step = std::max<std::uint64_t>(1, length / SLICES);
            while (sim.committed() < target) {
                std::uint64_t edges = fe.cycles();
                std::uint64_t insns = sim.committed();
                std::uint64_t s0 = nowNs();
                {
                    ScopedSpan span(log, "probe.Simulator::run", parent);
                    sim.runTo(std::min(target, sim.committed() + step));
                }
                probe.directNs += static_cast<double>(nowNs() - s0);
                probe.feEdges += fe.cycles() - edges;
                probe.committed += sim.committed() - insns;
            }
        };
        auto runDirect = [&] { direct = simulateDirect(spec, runSliced); };

        // Each path twice, in ABBA order, so drift in machine speed
        // and warm-cache effects fall on both sides equally.
        resolve();
        runDirect();
        runDirect();
        resolve();

        if (encodeArtifact(direct) != encodeArtifact(resolved))
            ++probe.mismatches;
        ++probe.units;
        probe.measured.instructions += direct.instructions;
        probe.measured.feCycles += direct.feCycles;
        probe.measured.l1dMisses += direct.l1dMisses;
        probe.measured.l2Misses += direct.l2Misses;
        probe.measured.branches += direct.branches;
        probe.measured.mispredicts += direct.mispredicts;
    }
    cache.clear();
    return probe;
}

double
probeClockNsPerEdge(std::uint64_t seed, std::uint64_t edges)
{
    DvfsModel dvfs;
    const DvfsConfig &dc = dvfs.config();
    DomainClock clock(DomainId::Integer, dvfs, dc.freqMax, seed);
    std::uint64_t sum = 0;
    std::uint64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < edges; ++i) {
        // Retarget every 4096 edges, alternating ends of the range, so
        // a share of the edges step the XScale slew.
        if ((i & 4095) == 0)
            clock.setTargetFrequency((i >> 12) & 1 ? dc.freqMin
                                                    : dc.freqMax);
        sum += static_cast<std::uint64_t>(clock.advance());
    }
    double ns = static_cast<double>(nowNs() - t0);
    g_sink = g_sink + sum;
    return ns / static_cast<double>(edges);
}

StreamProbe
probeStreams(const std::vector<std::string> &apps, std::uint64_t horizon)
{
    StreamProbe probe;
    std::uint64_t sink = 0;
    std::vector<MicroOp> ops(horizon);
    for (const std::string &app : apps) {
        auto workload = BenchmarkFactory::create(app, horizon);
        std::uint64_t t0 = nowNs();
        for (MicroOp &op : ops)
            op = workload->next();
        probe.genNs += static_cast<double>(nowNs() - t0);
        probe.uops += ops.size();

        MemoryHierarchy memory;
        t0 = nowNs();
        for (const MicroOp &op : ops) {
            if (!isMemClass(op.cls))
                continue;
            MemAccessOutcome out =
                memory.accessData(op.memAddr, isStoreClass(op.cls));
            sink += static_cast<std::uint64_t>(out.l2Accesses);
            ++probe.accesses;
        }
        probe.memNs += static_cast<double>(nowNs() - t0);

        BranchPredictor predictor;
        t0 = nowNs();
        for (const MicroOp &op : ops) {
            if (!isControlClass(op.cls))
                continue;
            bool call = op.cls == OpClass::Call;
            bool ret = op.cls == OpClass::Return;
            BranchPrediction p =
                predictor.predict(op.pc, call, ret, op.fallthrough());
            predictor.update(op.pc, op.taken, op.target, call, ret);
            sink += p.predictTaken ? 1 : 0;
            ++probe.lookups;
        }
        probe.predNs += static_cast<double>(nowNs() - t0);
    }
    g_sink = g_sink + sink;
    return probe;
}

} // namespace perfbench
