/**
 * @file
 * Regenerates Table 3 of the paper: gate-count estimates for the
 * hardware needed to implement the Attack/Decay algorithm, plus the
 * derived per-domain total (476 gates) and the "fewer than 2,500 gates
 * for a four-domain MCD processor" claim.
 */

#include <cstdio>

#include "figures.hh"
#include "control/gate_estimator.hh"
#include "harness/table.hh"

void
mcd::bench::table3()
{
    mcd::GateEstimator estimator;

    mcd::TextTable table(
        "Table 3: hardware resources for the Attack/Decay algorithm");
    table.setHeader({"Component", "Estimation", "Equivalent Gates"});
    for (const auto &row : estimator.rows()) {
        table.addRow({row.component, row.estimation,
                      std::to_string(row.gates)});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("per controlled domain: %d gates (paper: 476)\n",
                estimator.gatesPerDomain());
    std::printf("shared interval counter: %d gates (paper: 112)\n",
                estimator.sharedGates());
    std::printf("three controlled domains + shared: %d gates\n",
                estimator.totalGates(3));
    std::printf("four domains + shared: %d gates "
                "(paper: fewer than 2,500)\n",
                estimator.totalGates(4));
}
