/**
 * @file
 * The collection of domain clocks plus the inter-domain synchronization
 * rule of Sjogren & Myers as adopted by the paper: a source-generated
 * signal can be latched at a destination edge only if that edge falls at
 * least one synchronization window (300 ps) after the source edge;
 * otherwise the destination must wait for its next edge.
 *
 * The same class also models the fully synchronous comparison processor:
 * in Synchronous mode all four domains share one physical clock, no
 * synchronization penalties apply, and a global frequency change scales
 * the whole chip (classic DVS).
 */

#ifndef MCD_CLOCK_CLOCK_SYSTEM_HH
#define MCD_CLOCK_CLOCK_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>

#include "clock/domain_clock.hh"
#include "clock/dvfs_model.hh"
#include "common/types.hh"

namespace mcd
{

/** Whether the chip is an MCD (GALS) design or fully synchronous. */
enum class ClockMode
{
    Mcd,         //!< four independent clocks, sync windows apply
    Synchronous, //!< one global clock, no sync penalties
};

/** Per-chip clock configuration. */
struct ClockSystemConfig
{
    ClockMode mode = ClockMode::Mcd;
    Hertz startFreq = 1.0e9;
    std::uint64_t seed = 1;
    bool jittered = true;
};

/** Owns the domain clocks and answers cross-domain visibility queries. */
class ClockSystem
{
  public:
    ClockSystem(const DvfsModel &dvfs, const ClockSystemConfig &config);

    ClockMode mode() const { return config_.mode; }
    const DvfsModel &dvfs() const { return *dvfs_; }

    /** The clock driving the given domain (shared in Synchronous mode). */
    DomainClock &
    clock(DomainId id)
    {
        return *clocks_[static_cast<std::size_t>(clockIndex(id))];
    }
    const DomainClock &
    clock(DomainId id) const
    {
        return *clocks_[static_cast<std::size_t>(clockIndex(id))];
    }

    /** True if the two domains are driven by the same physical clock. */
    bool
    sameClock(DomainId a, DomainId b) const
    {
        return config_.mode == ClockMode::Synchronous || a == b;
    }

    /**
     * The earliest `dst` edge time that may latch a value written at
     * source edge `write_edge` in domain `src`: `write_edge` itself for
     * a same-clock pair, one synchronization window later across
     * clocks.
     */
    Tick
    visibleAt(DomainId src, Tick write_edge, DomainId dst) const
    {
        return sameClock(src, dst) ? write_edge
                                   : write_edge + dvfs_->syncWindow();
    }

    /**
     * Synchronization predicate: may a value written at source edge
     * `write_edge` in domain `src` be latched at destination edge
     * `read_edge` in domain `dst`? Same-clock pairs only require
     * read_edge >= write_edge; cross-clock pairs additionally require
     * the edges to be separated by the synchronization window.
     */
    bool
    visible(DomainId src, Tick write_edge, DomainId dst,
            Tick read_edge) const
    {
        return read_edge >= visibleAt(src, write_edge, dst);
    }

    /** The synchronization window in ticks (0 when synchronous). */
    Tick
    syncWindow() const
    {
        return config_.mode == ClockMode::Synchronous ? 0
                                                      : dvfs_->syncWindow();
    }

    /** Serialize every physical clock (checkpointing). */
    void saveState(std::string &out) const;

    /** Inverse of saveState; false on mode mismatch or short data. */
    bool loadState(serial::Reader &in);

  private:
    const DvfsModel *dvfs_;
    ClockSystemConfig config_;
    /** In MCD mode: one clock per clocked domain. In Synchronous mode:
     *  only element 0 exists and all domains map to it. */
    std::array<std::unique_ptr<DomainClock>, NUM_CLOCKED_DOMAINS> clocks_;

    int
    clockIndex(DomainId id) const
    {
        if (id == DomainId::External)
            externalClock();
        return config_.mode == ClockMode::Synchronous ? 0 : domainIndex(id);
    }

    /** Panic on asking for the external domain's clock. */
    [[noreturn, gnu::cold]] static void externalClock();
};

} // namespace mcd

#endif // MCD_CLOCK_CLOCK_SYSTEM_HH
