#include "harness/checkpoint.hh"

#include "common/logging.hh"

namespace mcd
{

using serial::appendString;
using serial::appendU64;

void
ArtifactTraits<SimCheckpoint>::encodePayload(std::string &out,
                                             const SimCheckpoint &c)
{
    appendU64(out, c.atInstructions);
    appendString(out, c.state);
}

bool
ArtifactTraits<SimCheckpoint>::decodePayload(serial::Reader &in,
                                             SimCheckpoint &c)
{
    c.atInstructions = in.readU64();
    c.state = in.readString();
    return in.ok();
}

std::string
CheckpointSpec::cacheKey() const
{
    // "checkpoint/2": format-3 machine snapshots. The bump retires
    // every format-2 entry as a plain miss instead of a failed restore.
    std::string key;
    appendString(key, "checkpoint/2");
    appendString(key, benchmark);
    serial::appendI64(key, static_cast<std::int64_t>(mode));
    serial::appendDouble(key, resolvedStartFreq());
    appendU64(key, at);
    config.appendTo(key);
    return key;
}

std::string
CheckpointSpec::describe() const
{
    return logging_detail::format(
        "type=checkpoint benchmark=%s mode=%s start_freq=%g at=%llu "
        "%s",
        benchmark.c_str(), mode == ClockMode::Mcd ? "mcd" : "sync",
        resolvedStartFreq(), static_cast<unsigned long long>(at),
        config.describe().c_str());
}

SimCheckpoint
SimCheckpoint::capture(const Simulator &sim)
{
    SimCheckpoint out;
    out.atInstructions = sim.committed();
    sim.saveCheckpoint(out.state);
    return out;
}

SimCheckpoint
CheckpointSpec::build(ArtifactCache &cache) const
{
    // The workload horizon must match the runner's exactly: scenario
    // construction may derive layout from it, and the config (hence
    // the horizon) is part of this spec's key.
    auto workload = BenchmarkFactory::create(
        benchmark, config.instructions + config.warmup);
    Simulator sim(makeSimConfig(config, mode, resolvedStartFreq()),
                  *workload, nullptr);
    sim.runTo(at);
    cache.noteSimulation();
    cache.noteInstructions(sim.committed());
    return SimCheckpoint::capture(sim);
}

} // namespace mcd
