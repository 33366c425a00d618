/**
 * @file
 * Per-domain energy bookkeeping during a simulation run.
 *
 * The core calls chargeCycle() once per domain clock edge with the
 * instantaneous voltage, and chargeAccess() for every structure access.
 * Totals separate on-chip energy (what the paper's EPI / energy-savings
 * numbers use) from external main-memory energy.
 */

#ifndef MCD_POWER_POWER_ACCOUNTANT_HH
#define MCD_POWER_POWER_ACCOUNTANT_HH

#include <array>
#include <cstdint>

#include "common/serial.hh"
#include "power/energy_model.hh"

namespace mcd
{

/** Accumulates nanojoules per domain and per structure. */
class PowerAccountant
{
  public:
    explicit PowerAccountant(const EnergyModel &model);

    /** Charge `count` cycles of domain base energy at voltage v. */
    void
    chargeCycle(DomainId domain, Volt v, std::uint64_t count = 1)
    {
        if (count == 0)
            return;
        double scale = model_->voltageScale(v);
        domain_base_[static_cast<std::size_t>(domainIndex(domain))] +=
            model_->domainCycleBase(domain) * scale *
            static_cast<double>(count);
    }

    /** Charge `count` accesses of the structure at voltage v. */
    void
    chargeAccess(StructureId structure, Volt v, std::uint64_t count = 1)
    {
        if (count == 0)
            return;
        double scale = model_->voltageScale(v);
        NanoJoule e = model_->accessIncrement(structure) * scale *
                      static_cast<double>(count);
        structure_[static_cast<std::size_t>(structure)] += e;
        DomainId domain = structureDomain(structure);
        domain_access_[static_cast<std::size_t>(domainIndex(domain))] += e;
    }

    /** Charge `count` off-chip main-memory accesses. */
    void
    chargeMemoryAccess(std::uint64_t count = 1)
    {
        external_ += model_->config().mainMemoryAccess *
                     static_cast<double>(count);
    }

    /** Total on-chip energy (all clocked domains). */
    NanoJoule chipEnergy() const;

    /** Energy attributed to one domain. */
    NanoJoule domainEnergy(DomainId domain) const;

    /** Energy attributed to one structure (access energy only). */
    NanoJoule structureEnergy(StructureId structure) const;

    /** Clock-tree + idle-residual share of a domain. */
    NanoJoule domainBaseEnergy(DomainId domain) const;

    /** Off-chip main-memory energy (not part of chipEnergy). */
    NanoJoule externalEnergy() const { return external_; }

    const EnergyModel &model() const { return *model_; }

    void reset();

    /** Serialize accumulators as raw IEEE-754 bits (checkpointing). */
    void saveState(std::string &out) const;

    /** Inverse of saveState; false on short data. */
    bool loadState(serial::Reader &in);

  private:
    const EnergyModel *model_;
    std::array<NanoJoule, NUM_CLOCKED_DOMAINS> domain_access_{};
    std::array<NanoJoule, NUM_CLOCKED_DOMAINS> domain_base_{};
    std::array<NanoJoule, NUM_STRUCTURES> structure_{};
    NanoJoule external_ = 0.0;
};

} // namespace mcd

#endif // MCD_POWER_POWER_ACCOUNTANT_HH
