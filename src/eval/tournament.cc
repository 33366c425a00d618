#include "eval/tournament.hh"

#include <algorithm>
#include <cmath>

#include "common/json.hh"
#include "common/logging.hh"
#include "control/basic_controllers.hh"
#include "harness/parallel_sweep.hh"
#include "harness/table.hh"
#include "workload/scenario_registry.hh"

namespace mcd
{

namespace
{

/** One scenario's column: profile, oracle, one trace per entry. */
std::vector<TournamentCell>
scoreScenario(const std::string &scenario,
              const TournamentOptions &options, ArtifactCache &cache)
{
    const RunnerConfig &config = options.config;
    Runner runner(config, cache);

    std::vector<IntervalProfile> profile;
    SimStats base = runner.runMcdBaseline(scenario, &profile);
    OfflineResult oracle = runner.runOfflineDynamic(
        scenario, options.targetDeg, base, profile);

    // The oracle's per-interval choices, re-derived from its tuned
    // margin. (The search's per-domain refinement can land on a
    // slightly more aggressive schedule than the shared margin alone;
    // the shared-margin schedule is the conservative upper envelope
    // and keeps the reference reproducible from the memoized result.)
    DvfsModel dvfs(config.dvfs);
    std::array<double, NUM_CONTROLLED> margins;
    margins.fill(oracle.margin);
    std::vector<FrequencyVector> schedule =
        deriveSchedule(profile, dvfs, margins, config.core);

    // Methodology v2: traces, profiles, and oracle schedules all start
    // at the measurement boundary, so their indices align from 0 and
    // regret skips nothing.
    RegretOptions regret = options.regret;
    regret.skipIntervals = 0;

    std::vector<TournamentCell> cells;
    for (const TournamentEntry &entry : options.controllers) {
        TraceSpec spec;
        spec.benchmark = scenario;
        spec.controller = entry.spec;
        spec.oracle = schedule;
        spec.config = config;
        EvalTrace trace = cache.getOrRun(spec);

        TournamentCell cell;
        cell.scenario = scenario;
        cell.controller = entry.label;
        cell.online = trace.stats;
        cell.oracle = oracle;
        cell.regret = computeRegret(trace, oracle.stats,
                                    config.dvfs.freqMax, regret);
        cells.push_back(std::move(cell));
    }
    return cells;
}

std::vector<TournamentStanding>
rankStandings(const TournamentOptions &options,
              const std::vector<TournamentCell> &cells)
{
    std::vector<TournamentStanding> standings;
    for (const TournamentEntry &entry : options.controllers) {
        TournamentStanding standing;
        standing.controller = entry.label;
        double reaction_sum = 0.0;
        bool first_cell = true;
        for (const TournamentCell &cell : cells) {
            if (cell.controller != entry.label)
                continue;
            ++standing.cells;
            standing.meanFreqError += cell.regret.meanFreqError;
            standing.worstFreqError = std::max(
                standing.worstFreqError, cell.regret.worstFreqError);
            standing.meanEdpGap += cell.regret.edpGap;
            // EDP gaps can be negative (an online run can beat the
            // shared-margin oracle replay); seed the maximum from the
            // first cell so an all-negative controller reports its
            // actual worst gap, not the 0.0 initializer.
            standing.worstEdpGap = first_cell
                ? cell.regret.edpGap
                : std::max(standing.worstEdpGap, cell.regret.edpGap);
            first_cell = false;
            standing.flips += cell.regret.flips;
            standing.flipsTracked += cell.regret.flipsTracked;
            reaction_sum += cell.regret.meanReactionIntervals *
                static_cast<double>(cell.regret.flipsTracked);
        }
        if (standing.cells > 0) {
            standing.meanFreqError /=
                static_cast<double>(standing.cells);
            standing.meanEdpGap /= static_cast<double>(standing.cells);
        }
        if (standing.flipsTracked > 0)
            standing.meanReactionIntervals = reaction_sum /
                static_cast<double>(standing.flipsTracked);
        standings.push_back(std::move(standing));
    }
    // Best tracker first; ties broken on worst-case error, then label,
    // so the league table is deterministic.
    std::sort(standings.begin(), standings.end(),
              [](const TournamentStanding &a,
                 const TournamentStanding &b) {
                  if (a.meanFreqError != b.meanFreqError)
                      return a.meanFreqError < b.meanFreqError;
                  if (a.worstFreqError != b.worstFreqError)
                      return a.worstFreqError < b.worstFreqError;
                  return a.controller < b.controller;
              });
    return standings;
}

} // namespace

std::vector<std::string>
adversarialCorpus()
{
    return {
        "synthetic:square=4000,mem=0.5",
        "synthetic:square=16000,mem=0.5",
        "synthetic:markov=24,mem=0.5",
        "synthetic:markov=48,mem=0.5,ilp=16",
        "synthetic:drift=0.8,mem=0.5",
        "synthetic:burst=0.5,phases=8,mem=0.6",
        "synthetic:phases=12,mem=0.5",
    };
}

std::vector<TournamentEntry>
defaultTournamentEntries()
{
    std::vector<TournamentEntry> entries;
    entries.push_back(
        {"attack_decay", attackDecaySpec(scaledAttackDecayConfig())});
    AttackDecayConfig sluggish = scaledAttackDecayConfig();
    sluggish.reactionChange = 0.015; // 4x slower attack steps
    entries.push_back(
        {"attack_decay:slow", attackDecaySpec(sluggish)});
    entries.push_back({"none", ControllerSpec{}});
    return entries;
}

TournamentResult
runTournament(const TournamentOptions &options, ArtifactCache &cache)
{
    if (options.scenarios.empty())
        mcd_fatal("tournament needs at least one scenario");
    if (options.controllers.empty())
        mcd_fatal("tournament needs at least one controller");
    for (const auto &scenario : options.scenarios)
        if (!ScenarioRegistry::instance().contains(scenario))
            mcd_fatal("unknown scenario '%s' (try: mcd_cli list)",
                      scenario.c_str());
    for (const auto &entry : options.controllers)
        if (!ControllerRegistry::instance().contains(entry.spec.name))
            mcd_fatal("unknown controller '%s' (try: mcd_cli list)",
                      entry.spec.name.c_str());

    // Scenario columns fan out across the shared pool; each column's
    // offline search nests its probe batch on the same pool.
    // Collation is in scenario order, controllers in entry order
    // within a column, so the cell list is deterministic for any
    // worker count.
    ParallelSweep sweep(options.config.jobs);
    auto columns = sweep.map<std::vector<TournamentCell>>(
        options.scenarios.size(), [&](std::size_t i) {
            return scoreScenario(options.scenarios[i], options, cache);
        });

    TournamentResult result;
    for (auto &column : columns)
        for (auto &cell : column)
            result.cells.push_back(std::move(cell));
    result.standings = rankStandings(options, result.cells);
    return result;
}

std::string
renderTournament(const TournamentResult &result)
{
    TextTable cells("tournament cells (online vs offline oracle)");
    cells.setHeader({"scenario", "controller", "freq regret",
                     "worst regret", "reaction", "flips", "EDP gap",
                     "energy gap", "time gap", "margin"});
    for (const TournamentCell &cell : result.cells) {
        cells.addRow(
            {cell.scenario, cell.controller,
             pct(cell.regret.meanFreqError, 2),
             pct(cell.regret.worstFreqError, 1),
             cell.regret.flipsTracked > 0
                 ? num(cell.regret.meanReactionIntervals, 1)
                 : "-",
             std::to_string(cell.regret.flipsTracked) + "/" +
                 std::to_string(cell.regret.flips),
             pct(cell.regret.edpGap, 2), pct(cell.regret.energyGap, 2),
             pct(cell.regret.timeGap, 2),
             num(cell.oracle.margin, 3)});
    }

    TextTable league("league table (mean regret, best first)");
    league.setHeader({"rank", "controller", "freq regret",
                      "worst regret", "reaction", "EDP gap",
                      "worst EDP gap", "flips"});
    int rank = 1;
    for (const TournamentStanding &s : result.standings) {
        league.addRow(
            {std::to_string(rank++), s.controller,
             pct(s.meanFreqError, 2), pct(s.worstFreqError, 1),
             s.flipsTracked > 0 ? num(s.meanReactionIntervals, 1)
                                : "-",
             pct(s.meanEdpGap, 2), pct(s.worstEdpGap, 2),
             std::to_string(s.flipsTracked) + "/" +
                 std::to_string(s.flips)});
    }

    return cells.render() + "\n" + league.render();
}

namespace
{

std::string
tournamentCellJson(const TournamentCell &cell)
{
    std::string out = "      {";
    out += "\"scenario\": " + json::str(cell.scenario);
    out += ", \"controller\": " + json::str(cell.controller);
    out += ", \"mean_freq_error\": " +
           json::num(cell.regret.meanFreqError);
    out += ", \"worst_freq_error\": " +
           json::num(cell.regret.worstFreqError);
    out += ", \"edp_gap\": " + json::num(cell.regret.edpGap);
    out += ", \"energy_gap\": " + json::num(cell.regret.energyGap);
    out += ", \"time_gap\": " + json::num(cell.regret.timeGap);
    out += ", \"flips\": " +
           json::u64(static_cast<std::uint64_t>(cell.regret.flips));
    out += ", \"flips_tracked\": " +
           json::u64(static_cast<std::uint64_t>(
               cell.regret.flipsTracked));
    out += ", \"mean_reaction_intervals\": " +
           json::num(cell.regret.meanReactionIntervals);
    out += ", \"worst_reaction_intervals\": " +
           json::num(cell.regret.worstReactionIntervals);
    out += ", \"oracle_margin\": " + json::num(cell.oracle.margin);
    out += ", \"online_time_ps\": " +
           json::u64(static_cast<std::uint64_t>(cell.online.time));
    out += ", \"oracle_time_ps\": " +
           json::u64(static_cast<std::uint64_t>(cell.oracle.stats.time));
    out += ", \"online_energy_nj\": " + json::num(cell.online.chipEnergy);
    out += ", \"oracle_energy_nj\": " +
           json::num(cell.oracle.stats.chipEnergy);
    out += "}";
    return out;
}

std::string
tournamentStandingJson(const TournamentStanding &s, int rank)
{
    std::string out = "      {";
    out += "\"rank\": " + std::to_string(rank);
    out += ", \"controller\": " + json::str(s.controller);
    out += ", \"cells\": " +
           json::u64(static_cast<std::uint64_t>(s.cells));
    out += ", \"mean_freq_error\": " + json::num(s.meanFreqError);
    out += ", \"worst_freq_error\": " + json::num(s.worstFreqError);
    out += ", \"mean_edp_gap\": " + json::num(s.meanEdpGap);
    out += ", \"worst_edp_gap\": " + json::num(s.worstEdpGap);
    out += ", \"mean_reaction_intervals\": " +
           json::num(s.meanReactionIntervals);
    out += ", \"flips\": " +
           json::u64(static_cast<std::uint64_t>(s.flips));
    out += ", \"flips_tracked\": " +
           json::u64(static_cast<std::uint64_t>(s.flipsTracked));
    out += "}";
    return out;
}

} // namespace

std::string
renderTournamentJson(const TournamentOptions &options,
                     const TournamentResult &result)
{
    std::string out = "{\n  \"tournament\": {\n";
    out += "    \"target_deg\": " + json::num(options.targetDeg) +
           ",\n";
    out += "    \"scenarios\": [";
    bool first = true;
    for (const auto &scenario : options.scenarios) {
        out += first ? "" : ", ";
        first = false;
        out += json::str(scenario);
    }
    out += "],\n    \"controllers\": [";
    first = true;
    for (const auto &entry : options.controllers) {
        out += first ? "" : ", ";
        first = false;
        out += json::str(entry.label);
    }
    out += "],\n    \"cells\": [\n";
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        out += tournamentCellJson(result.cells[i]);
        out += i + 1 < result.cells.size() ? ",\n" : "\n";
    }
    out += "    ],\n    \"standings\": [\n";
    for (std::size_t i = 0; i < result.standings.size(); ++i) {
        out += tournamentStandingJson(result.standings[i],
                                      static_cast<int>(i) + 1);
        out += i + 1 < result.standings.size() ? ",\n" : "\n";
    }
    // No cache counters: tournament stdout stays byte-identical
    // between cold, warm, and served runs at any width (CI diffs it);
    // the counters travel separately (stderr / the daemon's stats reply).
    out += "    ]\n  }\n}\n";
    return out;
}

} // namespace mcd
