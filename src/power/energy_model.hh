/**
 * @file
 * Wattch-style architectural energy model.
 *
 * Each microarchitectural structure has an effective per-access energy at
 * the reference voltage (1.2 V); dynamic energy scales with (V/Vref)^2.
 * Structures are conditionally clocked ("all circuits are clock gated
 * when not in use", Section 4): an idle structure still burns a small
 * residual fraction of its active energy each cycle. Accounting is split
 * so it is cheap to apply per cycle:
 *
 *   E(domain cycle) = clockTreeEnergy(domain)
 *                     + sum over structures in domain of idleFrac * E(s)
 *   E(access)       = (1 - idleFrac) * E(s) per access
 *
 * both scaled by (V/Vref)^2 at the instant of the charge.
 *
 * Absolute joules are a calibration, not a claim: the per-access numbers
 * below are chosen so the steady-state breakdown of a typical run matches
 * the published Wattch 21264-class distribution (clock ~30 %, caches and
 * LSQ ~22 %, integer window+execute ~20 %, front end ~17 %, FP ~11 %),
 * which is what the paper's relative energy results depend on. In MCD
 * mode the clock-tree energy is increased by 10 % (separate PLLs and
 * grids), which the paper equates to +2.9 % total energy.
 */

#ifndef MCD_POWER_ENERGY_MODEL_HH
#define MCD_POWER_ENERGY_MODEL_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace mcd
{

/** Energy-bearing microarchitectural structures. */
enum class StructureId : std::uint8_t
{
    Icache = 0,
    BranchPredictor,
    RenameTable,
    Rob,
    IntIssueQueue,
    IntRegFile,
    IntAlu,
    IntMult,
    FpIssueQueue,
    FpRegFile,
    FpAlu,
    FpMult,
    Lsq,
    Dcache,
    L2Cache,
    ResultBus,
    NumStructures,
};

constexpr int NUM_STRUCTURES =
    static_cast<int>(StructureId::NumStructures);

namespace energy_detail
{
/** Panic on a structure id with no domain. */
[[noreturn, gnu::cold]] void badStructure(StructureId id);
} // namespace energy_detail

/** The clock domain a structure belongs to (Figure 1). */
inline DomainId
structureDomain(StructureId id)
{
    switch (id) {
      case StructureId::Icache:
      case StructureId::BranchPredictor:
      case StructureId::RenameTable:
      case StructureId::Rob:
        return DomainId::FrontEnd;
      case StructureId::IntIssueQueue:
      case StructureId::IntRegFile:
      case StructureId::IntAlu:
      case StructureId::IntMult:
        return DomainId::Integer;
      case StructureId::FpIssueQueue:
      case StructureId::FpRegFile:
      case StructureId::FpAlu:
      case StructureId::FpMult:
        return DomainId::FloatingPoint;
      case StructureId::Lsq:
      case StructureId::Dcache:
      case StructureId::L2Cache:
        return DomainId::LoadStore;
      case StructureId::ResultBus:
        return DomainId::Integer;
      case StructureId::NumStructures:
        break;
    }
    energy_detail::badStructure(id);
}

/** Tunable parameters of the energy model. */
struct EnergyConfig
{
    Volt referenceVoltage = 1.20;
    /** Residual fraction of active energy burned by a gated structure. */
    double idleFraction = 0.05;
    /** MCD clock subsystem energy adder (Section 4: +10 %). */
    double mcdClockOverhead = 0.10;
    /** Per-access energy charged to the external domain per main-memory
     *  access (off-chip; excluded from chip energy totals). */
    NanoJoule mainMemoryAccess = 8.0;
};

/** Immutable per-structure energy table with V^2 scaling helpers. */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyConfig &config = EnergyConfig{},
                         bool mcd_clock = true);

    const EnergyConfig &config() const { return config_; }

    /** Per-access active energy of a structure at reference voltage. */
    NanoJoule
    accessEnergy(StructureId id) const
    {
        return access_energy_[static_cast<std::size_t>(id)];
    }

    /** Incremental (non-idle) part of one access at reference voltage. */
    NanoJoule
    accessIncrement(StructureId id) const
    {
        return (1.0 - config_.idleFraction) * accessEnergy(id);
    }

    /** Per-cycle base energy of a whole domain at reference voltage:
     *  clock tree plus the idle residual of the domain's structures.
     *  Includes the MCD clock overhead when configured. */
    NanoJoule
    domainCycleBase(DomainId id) const
    {
        return id == DomainId::External
                   ? 0.0
                   : cycle_base_[static_cast<std::size_t>(domainIndex(id))];
    }

    /** Clock-tree-only share of domainCycleBase (for breakdown stats). */
    NanoJoule
    clockTreeEnergy(DomainId id) const
    {
        return id == DomainId::External
                   ? 0.0
                   : clock_tree_[static_cast<std::size_t>(domainIndex(id))];
    }

    /** Quadratic voltage scale factor (V/Vref)^2. */
    double
    voltageScale(Volt v) const
    {
        double r = v / config_.referenceVoltage;
        return r * r;
    }

  private:
    EnergyConfig config_;
    bool mcd_clock_;
    std::array<NanoJoule, NUM_STRUCTURES> access_energy_;
    std::array<NanoJoule, NUM_CLOCKED_DOMAINS> clock_tree_;
    std::array<NanoJoule, NUM_CLOCKED_DOMAINS> cycle_base_;
};

} // namespace mcd

#endif // MCD_POWER_ENERGY_MODEL_HH
