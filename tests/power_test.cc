/**
 * @file
 * Unit tests for the Wattch-style energy model and the per-domain power
 * accountant, including the paper's +10% MCD clock adder and quadratic
 * voltage scaling.
 */

#include <gtest/gtest.h>

#include "power/energy_model.hh"
#include "power/power_accountant.hh"

namespace mcd
{
namespace
{

TEST(EnergyModel, StructureDomainsFollowFigure1)
{
    EXPECT_EQ(structureDomain(StructureId::Icache),
              DomainId::FrontEnd);
    EXPECT_EQ(structureDomain(StructureId::BranchPredictor),
              DomainId::FrontEnd);
    EXPECT_EQ(structureDomain(StructureId::RenameTable),
              DomainId::FrontEnd);
    EXPECT_EQ(structureDomain(StructureId::Rob), DomainId::FrontEnd);
    EXPECT_EQ(structureDomain(StructureId::IntIssueQueue),
              DomainId::Integer);
    EXPECT_EQ(structureDomain(StructureId::IntAlu), DomainId::Integer);
    EXPECT_EQ(structureDomain(StructureId::FpIssueQueue),
              DomainId::FloatingPoint);
    EXPECT_EQ(structureDomain(StructureId::FpMult),
              DomainId::FloatingPoint);
    EXPECT_EQ(structureDomain(StructureId::Lsq), DomainId::LoadStore);
    EXPECT_EQ(structureDomain(StructureId::Dcache),
              DomainId::LoadStore);
    EXPECT_EQ(structureDomain(StructureId::L2Cache),
              DomainId::LoadStore);
}

TEST(EnergyModel, StructureDomainOfTheSentinelPanics)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    EXPECT_DEATH(structureDomain(StructureId::NumStructures),
                 "bad structure id 16");
}

TEST(EnergyModel, VoltageScaleIsQuadratic)
{
    EnergyModel model;
    EXPECT_DOUBLE_EQ(model.voltageScale(1.20), 1.0);
    EXPECT_NEAR(model.voltageScale(0.60), 0.25, 1e-12);
    EXPECT_NEAR(model.voltageScale(0.65), (0.65 / 1.2) * (0.65 / 1.2),
                1e-12);
}

TEST(EnergyModel, McdClockOverheadAppliesToTreesOnly)
{
    EnergyModel sync_model(EnergyConfig{}, false);
    EnergyModel mcd_model(EnergyConfig{}, true);
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto id = static_cast<DomainId>(d);
        EXPECT_NEAR(mcd_model.clockTreeEnergy(id),
                    1.10 * sync_model.clockTreeEnergy(id), 1e-12);
        // The idle residual is identical; only the tree grows.
        double sync_idle = sync_model.domainCycleBase(id) -
                           sync_model.clockTreeEnergy(id);
        double mcd_idle = mcd_model.domainCycleBase(id) -
                          mcd_model.clockTreeEnergy(id);
        EXPECT_NEAR(sync_idle, mcd_idle, 1e-12);
    }
    // Access energies are untouched.
    for (int s = 0; s < NUM_STRUCTURES; ++s) {
        auto id = static_cast<StructureId>(s);
        EXPECT_DOUBLE_EQ(sync_model.accessEnergy(id),
                         mcd_model.accessEnergy(id));
    }
}

TEST(EnergyModel, CycleBaseIsTreePlusIdleResidual)
{
    EnergyConfig config;
    config.idleFraction = 0.05;
    EnergyModel model(config, false);
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto id = static_cast<DomainId>(d);
        double idle = 0.0;
        for (int s = 0; s < NUM_STRUCTURES; ++s) {
            auto sid = static_cast<StructureId>(s);
            if (structureDomain(sid) == id)
                idle += config.idleFraction * model.accessEnergy(sid);
        }
        EXPECT_NEAR(model.domainCycleBase(id),
                    model.clockTreeEnergy(id) + idle, 1e-12);
    }
}

TEST(EnergyModel, AccessIncrementExcludesIdleShare)
{
    EnergyConfig config;
    config.idleFraction = 0.05;
    EnergyModel model(config);
    EXPECT_NEAR(model.accessIncrement(StructureId::Dcache),
                0.95 * model.accessEnergy(StructureId::Dcache), 1e-12);
}

TEST(EnergyModel, ExternalDomainHasNoCycleBase)
{
    EnergyModel model;
    EXPECT_DOUBLE_EQ(model.domainCycleBase(DomainId::External), 0.0);
    EXPECT_DOUBLE_EQ(model.clockTreeEnergy(DomainId::External), 0.0);
}

TEST(PowerAccountant, CycleChargesGoToDomainBase)
{
    EnergyModel model;
    PowerAccountant power(model);
    power.chargeCycle(DomainId::Integer, 1.20);
    EXPECT_DOUBLE_EQ(power.domainBaseEnergy(DomainId::Integer),
                     model.domainCycleBase(DomainId::Integer));
    EXPECT_DOUBLE_EQ(power.domainEnergy(DomainId::Integer),
                     model.domainCycleBase(DomainId::Integer));
    EXPECT_DOUBLE_EQ(power.domainEnergy(DomainId::FrontEnd), 0.0);
}

TEST(PowerAccountant, AccessChargesScaleWithVoltageSquared)
{
    EnergyModel model;
    PowerAccountant power(model);
    power.chargeAccess(StructureId::IntAlu, 0.60); // quarter energy
    EXPECT_NEAR(power.structureEnergy(StructureId::IntAlu),
                0.25 * model.accessIncrement(StructureId::IntAlu),
                1e-12);
}

TEST(PowerAccountant, AccessCountMultiplies)
{
    EnergyModel model;
    PowerAccountant power(model);
    power.chargeAccess(StructureId::Dcache, 1.20, 7);
    EXPECT_NEAR(power.structureEnergy(StructureId::Dcache),
                7.0 * model.accessIncrement(StructureId::Dcache),
                1e-12);
}

TEST(PowerAccountant, ZeroCountChargesNothing)
{
    EnergyModel model;
    PowerAccountant power(model);
    power.chargeAccess(StructureId::Dcache, 1.20, 0);
    EXPECT_DOUBLE_EQ(power.chipEnergy(), 0.0);
}

TEST(PowerAccountant, ChipEnergySumsAllDomains)
{
    EnergyModel model;
    PowerAccountant power(model);
    power.chargeCycle(DomainId::FrontEnd, 1.20);
    power.chargeCycle(DomainId::LoadStore, 1.20);
    power.chargeAccess(StructureId::FpAlu, 1.20);
    double expected = model.domainCycleBase(DomainId::FrontEnd) +
                      model.domainCycleBase(DomainId::LoadStore) +
                      model.accessIncrement(StructureId::FpAlu);
    EXPECT_NEAR(power.chipEnergy(), expected, 1e-12);
}

TEST(PowerAccountant, ExternalEnergyExcludedFromChip)
{
    EnergyModel model;
    PowerAccountant power(model);
    power.chargeMemoryAccess();
    power.chargeMemoryAccess();
    EXPECT_DOUBLE_EQ(power.chipEnergy(), 0.0);
    EXPECT_DOUBLE_EQ(power.externalEnergy(),
                     2.0 * model.config().mainMemoryAccess);
    EXPECT_DOUBLE_EQ(power.domainEnergy(DomainId::External),
                     power.externalEnergy());
}

TEST(PowerAccountant, ResetClearsEverything)
{
    EnergyModel model;
    PowerAccountant power(model);
    power.chargeCycle(DomainId::Integer, 1.20);
    power.chargeAccess(StructureId::IntAlu, 1.20);
    power.chargeMemoryAccess();
    power.reset();
    EXPECT_DOUBLE_EQ(power.chipEnergy(), 0.0);
    EXPECT_DOUBLE_EQ(power.externalEnergy(), 0.0);
    EXPECT_DOUBLE_EQ(power.structureEnergy(StructureId::IntAlu), 0.0);
}

TEST(PowerAccountant, LowVoltageCycleCostsLess)
{
    EnergyModel model;
    PowerAccountant high(model), low(model);
    high.chargeCycle(DomainId::FloatingPoint, 1.20);
    low.chargeCycle(DomainId::FloatingPoint, 0.65);
    EXPECT_LT(low.chipEnergy(), high.chipEnergy() * 0.30);
}

/**
 * The paper's Section 4 identity: +10% clock energy equals about +2.9%
 * total energy, i.e. the clock subsystem is roughly 29% of chip energy
 * under a representative activity mix.
 */
TEST(PowerAccountant, ClockShareNearThirtyPercent)
{
    EnergyModel model(EnergyConfig{}, false);
    PowerAccountant power(model);
    // Representative per-instruction activity at CPI ~1, mirroring
    // what the simulator actually charges: one cycle per domain, one
    // I-cache line per ~3 instructions, rename+ROB+queue+issue+commit
    // port uses, and a ~30% load/store mix.
    for (int i = 0; i < 3000; ++i) {
        for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d)
            power.chargeCycle(static_cast<DomainId>(d), 1.20);
        if (i % 3 == 0)
            power.chargeAccess(StructureId::Icache, 1.20);
        power.chargeAccess(StructureId::RenameTable, 1.20);
        power.chargeAccess(StructureId::Rob, 1.20, 2);
        power.chargeAccess(StructureId::IntIssueQueue, 1.20, 2);
        power.chargeAccess(StructureId::IntRegFile, 1.20, 2);
        power.chargeAccess(StructureId::IntAlu, 1.20);
        power.chargeAccess(StructureId::ResultBus, 1.20);
        if (i % 6 == 0)
            power.chargeAccess(StructureId::BranchPredictor, 1.20);
        if (i % 3 == 0) {
            power.chargeAccess(StructureId::Lsq, 1.20);
            power.chargeAccess(StructureId::Dcache, 1.20);
        }
        if (i % 50 == 0)
            power.chargeAccess(StructureId::L2Cache, 1.20);
    }
    double clock = 0.0;
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d)
        clock += model.clockTreeEnergy(static_cast<DomainId>(d));
    clock *= 3000.0;
    double share = clock / power.chipEnergy();
    EXPECT_GT(share, 0.20);
    EXPECT_LT(share, 0.40);
}

} // namespace
} // namespace mcd
