#include "gauge.hh"

#include "refsim.hh"
#include "spans.hh"

namespace perfbench
{

namespace
{

/** The reference simulations of one slice, each from reset, with a
 *  fixed nominal time. A compute-bound and a memory-bound app, so a
 *  slice weighs core and memory alike. The nominal times only set the
 *  scale: on the busy 4-vCPU Xeon (Sapphire Rapids) VM the gauge was
 *  tuned on, a slice's slowdown against them ran from 1.2 to 2.2. */
struct Part
{
    const char *bench;
    std::uint64_t instructions;
    double nominalNs;
};

constexpr Part PARTS[] = {
    {"gsm", 1500, 0.95e6},
    {"mcf", 150, 0.9e6},
};

/** Keeps the slices' results observable. */
std::atomic<std::uint64_t> g_sink{0};

double
nominalSliceNs()
{
    double ns = 0.0;
    for (const Part &part : PARTS)
        ns += part.nominalNs;
    return ns;
}

} // namespace

std::uint64_t
HostGauge::slice()
{
    std::uint64_t total = 0;
    std::uint64_t committed = 0;
    for (const Part &part : PARTS) {
        std::uint64_t t0 = nowNs();
        committed += referenceSimulation(part.bench, part.instructions);
        total += nowNs() - t0;
    }
    g_sink.fetch_add(committed, std::memory_order_relaxed);
    ns_.fetch_add(total);
    slices_.fetch_add(1);
    return total;
}

double
HostGauge::slowdown() const
{
    std::uint64_t n = slices_.load();
    if (n == 0)
        return 1.0;
    return static_cast<double>(ns_.load()) /
           (static_cast<double>(n) * nominalSliceNs());
}

void
HostGauge::reset()
{
    ns_.store(0);
    slices_.store(0);
}

} // namespace perfbench
