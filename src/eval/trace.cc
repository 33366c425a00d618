#include "eval/trace.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mcd
{

using serial::appendDouble;
using serial::appendU64;
using serial::Reader;

void
ArtifactTraits<EvalTrace>::encodePayload(std::string &out,
                                         const EvalTrace &t)
{
    ArtifactTraits<SimStats>::encodePayload(out, t.stats);
    appendU64(out, t.points.size());
    for (const TracePoint &p : t.points) {
        appendU64(out, p.instructions);
        appendDouble(out, p.ipc);
        serial::appendI64(out, p.endTime);
        appendDouble(out, p.chipEnergy);
        for (const TraceDomainPoint &d : p.domains) {
            appendDouble(out, d.frequency);
            appendDouble(out, d.queueUtilization);
            appendDouble(out, d.oracleFrequency);
        }
    }
}

bool
ArtifactTraits<EvalTrace>::decodePayload(Reader &in, EvalTrace &t)
{
    if (!ArtifactTraits<SimStats>::decodePayload(in, t.stats))
        return false;
    std::uint64_t count = in.readU64();
    if (!in.ok())
        return false;
    t.points.clear();
    // No reserve(count): the count field of a corrupt blob can be
    // arbitrary, and a giant reserve would throw instead of letting
    // the loop fail cleanly (the store heals decode failures; it
    // cannot heal std::terminate).
    for (std::uint64_t k = 0; k < count && in.ok(); ++k) {
        TracePoint p;
        p.instructions = in.readU64();
        p.ipc = in.readDouble();
        p.endTime = in.readI64();
        p.chipEnergy = in.readDouble();
        for (TraceDomainPoint &d : p.domains) {
            d.frequency = in.readDouble();
            d.queueUtilization = in.readDouble();
            d.oracleFrequency = in.readDouble();
        }
        t.points.push_back(p);
    }
    return in.ok();
}

std::string
TraceSpec::cacheKey() const
{
    std::string key;
    serial::appendString(key, "eval_trace/2");
    serial::appendString(key, benchmark);
    controller.appendTo(key);
    std::string sched;
    for (const FrequencyVector &freqs : oracle)
        for (Hertz f : freqs)
            appendDouble(sched, f);
    appendU64(key, serial::fnv1a(sched));
    appendU64(key, sched.size());
    config.appendTo(key);
    return key;
}

std::string
TraceSpec::describe() const
{
    return logging_detail::format(
        "type=eval_trace benchmark=%s controller=%s "
        "oracle_intervals=%zu %s",
        benchmark.c_str(), controller.name.c_str(), oracle.size(),
        config.describe().c_str());
}

EvalTrace
TraceSpec::build(ArtifactCache &cache) const
{
    ExperimentSpec run;
    run.benchmark = benchmark;
    run.controller = controller;
    run.config = config;
    auto instance = ControllerRegistry::instance().create(controller);
    EvalTrace trace;
    trace.stats = runWithController(
        run, instance.get(), cache, [&](const IntervalStats &stats) {
            TracePoint point;
            point.instructions = stats.instructions;
            point.ipc = stats.ipc;
            point.endTime = stats.endTime;
            point.chipEnergy = stats.chipEnergy;
            for (int slot = 0; slot < NUM_CONTROLLED; ++slot) {
                auto s = static_cast<std::size_t>(slot);
                point.domains[s].frequency =
                    stats.domains[s].frequency;
                point.domains[s].queueUtilization =
                    stats.domains[s].queueUtilization;
            }
            trace.points.push_back(point);
        });
    cache.noteSimulation();
    // Annotate with the oracle's per-interval choices; past the end of
    // the schedule the oracle holds its last entry (the schedule
    // replayer's own convention).
    for (std::size_t i = 0; i < trace.points.size(); ++i) {
        if (oracle.empty())
            break;
        const FrequencyVector &freqs =
            oracle[std::min(i, oracle.size() - 1)];
        for (int slot = 0; slot < NUM_CONTROLLED; ++slot) {
            auto s = static_cast<std::size_t>(slot);
            trace.points[i].domains[s].oracleFrequency = freqs[s];
        }
    }
    return trace;
}

} // namespace mcd
