#include "clock/clock_system.hh"

#include "common/logging.hh"

namespace mcd
{

ClockSystem::ClockSystem(const DvfsModel &dvfs,
                         const ClockSystemConfig &config)
    : dvfs_(&dvfs), config_(config)
{
    if (config_.mode == ClockMode::Synchronous) {
        clocks_[0] = std::make_unique<DomainClock>(
            DomainId::FrontEnd, dvfs, config_.startFreq, config_.seed,
            config_.jittered);
    } else {
        for (int i = 0; i < NUM_CLOCKED_DOMAINS; ++i) {
            clocks_[static_cast<std::size_t>(i)] =
                std::make_unique<DomainClock>(
                    static_cast<DomainId>(i), dvfs, config_.startFreq,
                    config_.seed + static_cast<std::uint64_t>(i) * 7919,
                    config_.jittered);
        }
    }
}

void
ClockSystem::externalClock()
{
    mcd_panic("the external domain has no controllable clock");
}

void
ClockSystem::saveState(std::string &out) const
{
    int physical =
        config_.mode == ClockMode::Synchronous ? 1 : NUM_CLOCKED_DOMAINS;
    serial::appendI64(out, physical);
    for (int i = 0; i < physical; ++i)
        clocks_[static_cast<std::size_t>(i)]->saveState(out);
}

bool
ClockSystem::loadState(serial::Reader &in)
{
    int physical =
        config_.mode == ClockMode::Synchronous ? 1 : NUM_CLOCKED_DOMAINS;
    if (in.readI64() != physical)
        return false;
    for (int i = 0; i < physical; ++i) {
        if (!clocks_[static_cast<std::size_t>(i)]->loadState(in))
            return false;
    }
    return in.ok();
}

} // namespace mcd
