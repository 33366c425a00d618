/**
 * @file
 * The oracle-regret tournament of the controller stress lab: run a
 * cross-product of workload scenarios x online controllers, score
 * every cell against the offline Dynamic-X% oracle (frequency-
 * tracking regret, reaction latency, outcome gaps; src/eval/regret.hh)
 * and rank the controllers in a deterministic league table.
 *
 * Every product resolves through the caller's ArtifactCache (the
 * process-wide instance by default, a serve daemon's own cache when
 * it runs the tournament) — the profiling pass and baseline per
 * scenario, the whole offline search, and one EvalTrace per cell — so
 * a warm store replays an entire tournament with zero simulations and
 * byte-identical output. Scenario columns fan out over
 * `config.jobs` workers of the shared pool like every other batch,
 * and the collation order is fixed, so the output is byte-identical
 * for any width.
 *
 * The standing adversarial corpus (`adversarialCorpus()`) is the
 * controller-regression suite: regime-switching `synthetic:` inputs
 * (markov/square/drift/burst/phases) built to defeat a pure
 * attack/decay law harder than any of the paper's 30 applications.
 */

#ifndef MCD_EVAL_TOURNAMENT_HH
#define MCD_EVAL_TOURNAMENT_HH

#include <string>
#include <vector>

#include "eval/regret.hh"

namespace mcd
{

/** One competing controller: display label + declarative spec. */
struct TournamentEntry
{
    std::string label; //!< as parsed from the CLI, or a builtin name
    ControllerSpec spec;
};

/** How to run a tournament. */
struct TournamentOptions
{
    std::vector<std::string> scenarios;      //!< any registered names
    std::vector<TournamentEntry> controllers;

    /** Degradation cap the offline oracle is tuned to. */
    double targetDeg = 0.05;

    /** Methodology + machine; `jobs` is the fan-out width and
     *  `store` enables cross-process reuse. */
    RunnerConfig config;

    /** Flip/tolerance thresholds; `skipIntervals` is derived from the
     *  warm-up window, not taken from here. */
    RegretOptions regret;
};

/** One (scenario, controller) cell, fully scored. */
struct TournamentCell
{
    std::string scenario;
    std::string controller; //!< entry label
    RegretReport regret;
    SimStats online;        //!< the online controller's run
    OfflineResult oracle;   //!< the memoized offline search result
};

/** One controller's aggregate line in the league table. */
struct TournamentStanding
{
    std::string controller;
    std::size_t cells = 0;
    double meanFreqError = 0.0;  //!< mean over scenarios
    double worstFreqError = 0.0; //!< max over scenarios
    double meanEdpGap = 0.0;     //!< mean over scenarios
    double worstEdpGap = 0.0;    //!< max over scenarios
    /** Flip-weighted mean reaction latency over all cells. */
    double meanReactionIntervals = 0.0;
    std::size_t flips = 0;
    std::size_t flipsTracked = 0;
};

/** A whole tournament: cells scenario-major, standings ranked. */
struct TournamentResult
{
    std::vector<TournamentCell> cells;
    std::vector<TournamentStanding> standings; //!< best regret first
};

/** The standing adversarial scenario corpus (the `corpus` alias):
 *  regime-switching synthetic: inputs for controller regression. */
std::vector<std::string> adversarialCorpus();

/** The default competitors: the paper's scaled Attack/Decay, a
 *  sluggish Attack/Decay variant, and the uncontrolled baseline. */
std::vector<TournamentEntry> defaultTournamentEntries();

/** Run the full cross-product through `cache`; deterministic for any
 *  worker count. Fatal on unknown scenario or controller names. */
TournamentResult runTournament(
    const TournamentOptions &options,
    ArtifactCache &cache = ArtifactCache::instance());

/** Render the per-cell table + league table as text (mcd_cli's
 *  non-JSON output; byte-stable across runs and worker counts). */
std::string renderTournament(const TournamentResult &result);

/**
 * Render the full `{"tournament": ...}` JSON document — the single
 * renderer behind `mcd_cli tournament --json` and the serve daemon's
 * `tournament` verb, so a served tournament reply is byte-identical
 * to the direct CLI's stdout. Deliberately carries no cache counters:
 * the document stays byte-stable between cold, warm, and served runs.
 */
std::string renderTournamentJson(const TournamentOptions &options,
                                 const TournamentResult &result);

} // namespace mcd

#endif // MCD_EVAL_TOURNAMENT_HH
