/**
 * @file
 * The paper's figures, tables and ablations as one static table: a
 * name (`mcd_cli figure NAME`, and the fleet's target names), a
 * one-line description (`mcd_cli list`) and the function that prints
 * the figure. Each function writes its text to stdout and progress to
 * stderr, reading the methodology from the MCD_* environment
 * (bench_util.hh); its runs resolve through the process-wide
 * ArtifactCache, so a warm MCD_STORE replays it byte for byte with
 * zero simulations. The caller prints the `store:` line afterwards.
 */

#ifndef MCD_BENCH_FIGURES_HH
#define MCD_BENCH_FIGURES_HH

#include <string>
#include <vector>

namespace mcd::bench
{

/** One figure, table or ablation. */
struct Figure
{
    const char *name;
    const char *description;
    void (*run)();
};

/** Every figure, in listing order. */
const std::vector<Figure> &figures();

/** The figure called `name`; fatal, listing the valid names, if none. */
const Figure &findFigure(const std::string &name);

// The figures, one or two per file: bench/fig*.cc, table*.cc,
// ablation_*.cc.
void fig2();
void fig3();
void fig4();
void fig5();
void fig6();
void fig7();
void table3();
void table6();
void ablationEndstop();
void ablationFrontend();
void ablationGlobal();
void ablationInterval();
void ablationListing();
void ablationMcdOverhead();

} // namespace mcd::bench

#endif // MCD_BENCH_FIGURES_HH
