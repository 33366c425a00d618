#include "figures.hh"

#include "common/logging.hh"

namespace mcd::bench
{

const std::vector<Figure> &
figures()
{
    // A plain table rather than self-registering statics: registrars
    // in a static library are dropped by the linker when nothing
    // references their object file.
    static const std::vector<Figure> table = {
        {"fig2", "Figure 2: load/store queue and frequency, epic", fig2},
        {"fig3", "Figure 3: FP issue queue and frequency, epic", fig3},
        {"fig4", "Figure 4: per-application results vs synchronous", fig4},
        {"fig5", "Figure 5: achieved vs target degradation", fig5},
        {"fig6", "Figure 6: EDP sensitivity to A/D parameters", fig6},
        {"fig7", "Figure 7: power/perf sensitivity to A/D parameters", fig7},
        {"table3", "Table 3: Attack/Decay gate estimates", table3},
        {"table6", "Table 6: algorithm comparison vs baseline MCD", table6},
        {"endstop", "Ablation: EndstopCount sensitivity", ablationEndstop},
        {"frontend", "Ablation: front-end frequency scaling",
         ablationFrontend},
        {"global", "Ablation: global-DVFS matching", ablationGlobal},
        {"interval", "Ablation: control interval length", ablationInterval},
        {"listing", "Ablation: Listing 1 guard semantics", ablationListing},
        {"mcd_overhead", "Ablation: inherent MCD overheads",
         ablationMcdOverhead},
    };
    return table;
}

const Figure &
findFigure(const std::string &name)
{
    std::string valid;
    for (const Figure &figure : figures()) {
        if (name == figure.name)
            return figure;
        valid += valid.empty() ? "" : ", ";
        valid += figure.name;
    }
    mcd_fatal("unknown figure '%s' (valid: %s)", name.c_str(),
              valid.c_str());
}

} // namespace mcd::bench
