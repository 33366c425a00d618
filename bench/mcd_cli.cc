/**
 * @file
 * The unified experiment CLI over the declarative layer: enumerates
 * the scenario and controller registries, and runs any ExperimentSpec
 * — any registered scenario (the paper's 30 applications or a
 * parametric `synthetic:` instance) under any registered controller —
 * with human-readable or `--json` machine-readable output.
 *
 *   mcd_cli list [--json]
 *   mcd_cli figure <name>
 *   mcd_cli run --bench <name>[,<name>...]
 *               [--controller <name>[:<k=v>,...]]
 *               [--mode mcd|sync] [--freq <hz>] [--seed <n>]
 *               [--store <dir>] [--json]
 *   mcd_cli cache [--store <dir>] [--json]
 *   mcd_cli cache prune [--store <dir>] [--max-bytes <b>]
 *               [--max-age <s>] [--tmp-age <s>] [--json]
 *   mcd_cli fleet <figure>[,<figure>...] [--procs <n>]
 *               [--retries <n>] [--store <dir>] [--json]
 *   mcd_cli serve --socket <path> [--store <dir>] [--workers <n>]
 *               [--max-inflight <m>]
 *   mcd_cli request --socket <path> (--ping | --stats | --shutdown |
 *               --tournament [...] | --bench <name>[,...] [run flags])
 *
 * The usual environment knobs (MCD_INSNS, MCD_WARMUP, MCD_INTERVAL,
 * MCD_JOBS, MCD_STORE) set the methodology. Runs resolve through the
 * process-wide ArtifactCache: repeated benchmarks in one invocation
 * simulate once, and with a persistent store (--store or MCD_STORE)
 * once across invocations. `cache` prints the store statistics;
 * `cache prune` garbage-collects the store (size/age budgets, stale
 * temp files). `figure` prints one of the paper's figures, tables or
 * ablations (bench/figures.hh). `fleet` shards figures across N
 * concurrent `mcd_cli figure` worker processes sharing one store,
 * collating per-target stdout in submission order (byte-identical for
 * any --procs).
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <climits>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "figures.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "eval/tournament.hh"
#include "harness/artifact_store.hh"
#include "harness/experiment.hh"
#include "harness/fleet.hh"
#include "harness/table.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "telemetry/profiler.hh"
#include "telemetry/stat_registry.hh"
#include "workload/scenario_registry.hh"

using namespace mcd;
using namespace mcd::bench;

namespace
{

// JSON emission lives in common/json.hh (shared with the serve
// daemon, whose replies must be byte-identical to this tool's
// output); the per-experiment and cache-stats documents live in
// serve/protocol.hh for the same reason.

// ------------------------------------------------------------- list

void
listRegistries(bool json)
{
    ScenarioRegistry &scenarios = ScenarioRegistry::instance();
    ControllerRegistry &controllers = ControllerRegistry::instance();

    // Fixed scenarios grouped by family: the paper's applications by
    // suite (registration order kept within each group), then the
    // parametric template families with their full knob sets.
    std::vector<std::string> suites;
    for (const auto &name : scenarios.scenarioNames()) {
        std::string suite = scenarios.spec(name).suite;
        if (std::find(suites.begin(), suites.end(), suite) ==
            suites.end())
            suites.push_back(suite);
    }

    if (json) {
        std::string out = "{\n  \"scenarios\": [";
        bool first = true;
        for (const auto &suite : suites) {
            for (const auto &name : scenarios.scenarioNames()) {
                if (scenarios.spec(name).suite != suite)
                    continue;
                out += first ? "\n" : ",\n";
                first = false;
                out += "    {\"name\": " + json::str(name) +
                       ", \"suite\": " + json::str(suite) + "}";
            }
        }
        out += "\n  ],\n  \"families\": [";
        first = true;
        for (const auto &family : scenarios.families()) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "    {\"prefix\": " + json::str(family.prefix) +
                   ", \"description\": " + json::str(family.description) +
                   ", \"knobs\": [";
            bool first_knob = true;
            for (const auto &knob : family.knobs) {
                out += first_knob ? "" : ", ";
                first_knob = false;
                out += "{\"name\": " + json::str(knob.name) +
                       ", \"doc\": " + json::str(knob.doc) + "}";
            }
            out += "]}";
        }
        out += "\n  ],\n  \"controllers\": [";
        first = true;
        for (const auto &info : controllers.list()) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "    {\"name\": " + json::str(info.name) +
                   ", \"description\": " + json::str(info.description) +
                   "}";
        }
        out += "\n  ],\n  \"figures\": [";
        first = true;
        for (const Figure &figure : figures()) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "    {\"name\": " + json::str(figure.name) +
                   ", \"description\": " +
                   json::str(figure.description) + "}";
        }
        out += "\n  ]\n}\n";
        std::fputs(out.c_str(), stdout);
        return;
    }

    for (const auto &suite : suites) {
        TextTable suite_table("paper applications — " + suite);
        suite_table.setHeader({"name"});
        for (const auto &name : scenarios.scenarioNames())
            if (scenarios.spec(name).suite == suite)
                suite_table.addRow({name});
        std::printf("%s\n", suite_table.render().c_str());
    }

    for (const auto &family : scenarios.families()) {
        TextTable family_table("scenario template — " + family.prefix +
                               "<k=v,...>  (" + family.description +
                               ")");
        family_table.setHeader({"knob", "doc"});
        for (const auto &knob : family.knobs)
            family_table.addRow({knob.name, knob.doc});
        std::printf("%s\n", family_table.render().c_str());
    }

    TextTable controller_table("controllers");
    controller_table.setHeader({"name", "description"});
    for (const auto &info : controllers.list())
        controller_table.addRow({info.name, info.description});
    std::printf("%s\n", controller_table.render().c_str());

    TextTable figure_table("figures (mcd_cli figure <name>)");
    figure_table.setHeader({"name", "description"});
    for (const Figure &figure : figures())
        figure_table.addRow({figure.name, figure.description});
    std::printf("%s", figure_table.render().c_str());
}

// ------------------------------------------------------------ cache

std::uint64_t
parseU64Flag(const std::string &flag, const std::string &text)
{
    // strtoull would silently wrap "-100" to a huge value; require a
    // plain digit string so negatives and signs fail loudly instead.
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || !std::isdigit(
            static_cast<unsigned char>(text[0])) ||
        errno != 0 || end == text.c_str() || *end != '\0')
        mcd_fatal("%s needs a non-negative integer, not '%s'",
                  flag.c_str(), text.c_str());
    return v;
}

/** parseU64Flag for an int-typed count: a value past INT_MAX fails
 *  with the flag's own error instead of wrapping. */
int
parseIntFlag(const std::string &flag, const std::string &text)
{
    std::uint64_t v = parseU64Flag(flag, text);
    if (v > static_cast<std::uint64_t>(INT_MAX))
        mcd_fatal("%s needs an integer no greater than %d, not '%s'",
                  flag.c_str(), INT_MAX, text.c_str());
    return static_cast<int>(v);
}

/** A real-valued flag in [lo, hi], read with a full-string strtod:
 *  "2GHz" or "abc" fails with the flag's own error instead of reading
 *  as 2 or 0. */
double
parseRealFlag(const std::string &flag, const std::string &text,
              double lo, double hi, const char *want)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text.c_str(), &end);
    if (text.empty() || errno != 0 || end != text.c_str() + text.size() ||
        !(v >= lo && v <= hi))
        mcd_fatal("%s needs %s, not '%s'", flag.c_str(), want,
                  text.c_str());
    return v;
}

/** `--freq`: a positive, finite frequency in Hz. */
Hertz
parseFreqFlag(const std::string &text)
{
    return parseRealFlag("--freq", text, DBL_MIN, DBL_MAX,
                         "a positive frequency in Hz");
}

/** `--target-deg`: the oracle's degradation cap, a fraction. */
double
parseTargetDegFlag(const std::string &text)
{
    return parseRealFlag("--target-deg", text, 0.0, 1.0,
                         "a fraction in [0, 1]");
}

/** One `--controllers` value: ';'-separated controller specs (commas
 *  belong to the specs' own parameters); empty items are dropped. */
std::vector<std::string>
splitControllerList(const std::string &text)
{
    std::vector<std::string> items;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t semi = text.find(';', pos);
        if (semi == std::string::npos)
            semi = text.size();
        if (semi > pos)
            items.push_back(text.substr(pos, semi - pos));
        pos = semi + 1;
    }
    return items;
}

int
pruneCli(const std::string &root, std::uint64_t max_bytes,
         std::int64_t max_age, std::int64_t tmp_age, bool json)
{
    if (root.empty())
        mcd_fatal("cache prune needs a store root "
                  "(--store or MCD_STORE)");
    DiskStore store(root);
    DiskStore::PruneOptions options;
    options.maxBytes = max_bytes;
    options.maxAgeSeconds = max_age;
    options.tmpAgeSeconds = tmp_age;
    DiskStore::PruneReport report = store.prune(options);

    if (json) {
        std::string out = "{\n  \"prune\": {";
        out += "\"store_root\": " + json::str(root);
        out += ", \"entries_removed\": " +
               json::u64(report.entriesRemoved);
        out += ", \"bytes_removed\": " + json::u64(report.bytesRemoved);
        out += ", \"tmps_removed\": " + json::u64(report.tmpsRemoved);
        out += ", \"sidecars_removed\": " +
               json::u64(report.sidecarsRemoved);
        out += ", \"entries_kept\": " + json::u64(report.entriesKept);
        out += ", \"bytes_kept\": " + json::u64(report.bytesKept);
        out += "}\n}\n";
        std::fputs(out.c_str(), stdout);
        return 0;
    }

    TextTable table("cache prune");
    table.setHeader({"statistic", "value"});
    table.addRow({"store root", root});
    table.addRow({"entries removed",
                  std::to_string(report.entriesRemoved)});
    table.addRow({"bytes removed",
                  std::to_string(report.bytesRemoved)});
    table.addRow({"stale temp files removed",
                  std::to_string(report.tmpsRemoved)});
    table.addRow({"sidecars removed",
                  std::to_string(report.sidecarsRemoved)});
    table.addRow({"entries kept", std::to_string(report.entriesKept)});
    table.addRow({"bytes kept", std::to_string(report.bytesKept)});
    std::printf("%s", table.render().c_str());
    return 0;
}

// ------------------------------------------------------------- fleet

int
fleetCli(const std::vector<std::string> &names, int procs, int retries,
         const std::string &store, bool json)
{
    std::vector<FleetTarget> targets;
    for (const auto &name : names) {
        FleetTarget target;
        target.name = name;
        // A figure runs as `mcd_cli figure NAME`; a path (one
        // containing '/') runs as an explicit command.
        if (name.find('/') != std::string::npos)
            target.argv = {name};
        else
            target.argv = {"/proc/self/exe", "figure",
                           findFigure(name).name};
        targets.push_back(std::move(target));
    }

    FleetOptions options;
    options.procs = procs;
    options.retries = retries;
    options.store = store;
    FleetReport report = runFleet(targets, options);

    if (json) {
        std::string out = "{\n  \"fleet\": {\n    \"procs\": " +
                          std::to_string(std::max(1, procs));
        out += ",\n    \"store\": " +
               (store.empty() ? std::string("null") : json::str(store));
        out += ",\n    \"failed\": " +
               json::u64(static_cast<std::uint64_t>(report.failed));
        out += ",\n    \"retried\": " +
               json::u64(static_cast<std::uint64_t>(report.retried));
        out += ",\n    \"targets\": [";
        bool first = true;
        for (const auto &t : report.targets) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "      {\"name\": " + json::str(t.name) +
                   ", \"succeeded\": " +
                   (t.succeeded ? "true" : "false") +
                   ", \"exit\": " + std::to_string(t.exitCode) +
                   ", \"attempts\": " + std::to_string(t.attempts) +
                   ", \"simulations\": " + json::u64(t.store.simulations) +
                   ", \"lookups\": " + json::u64(t.store.lookups) + "}";
        }
        out += "\n    ],\n    \"merged\": {";
        out += "\"lookups\": " + json::u64(report.merged.lookups);
        out += ", \"hits\": " + json::u64(report.merged.hits);
        out += ", \"disk_hits\": " + json::u64(report.merged.diskHits);
        out += ", \"simulations\": " +
               json::u64(report.merged.simulations);
        out += "}\n  }\n}\n";
        std::fputs(out.c_str(), stdout);
        return report.failed == 0 ? 0 : 1;
    }

    // Deterministic collation: each target's stdout, verbatim, in
    // submission order — byte-identical for any --procs, and for a
    // single target identical to `mcd_cli figure NAME`. All
    // fleet bookkeeping goes to stderr.
    for (const auto &t : report.targets) {
        std::fwrite(t.stdoutText.data(), 1, t.stdoutText.size(),
                    stdout);
        if (!t.succeeded) {
            std::fprintf(stderr,
                         "fleet: ---- %s failed (exit %d); its stderr "
                         "follows ----\n",
                         t.name.c_str(), t.exitCode);
            std::fwrite(t.stderrText.data(), 1, t.stderrText.size(),
                        stderr);
        }
    }
    std::fprintf(stderr,
                 "fleet store: lookups=%llu hits=%llu disk_hits=%llu "
                 "simulations=%llu failed=%zu retried=%zu\n",
                 static_cast<unsigned long long>(report.merged.lookups),
                 static_cast<unsigned long long>(report.merged.hits),
                 static_cast<unsigned long long>(
                     report.merged.diskHits),
                 static_cast<unsigned long long>(
                     report.merged.simulations),
                 report.failed, report.retried);
    return report.failed == 0 ? 0 : 1;
}

// ------------------------------------------------------- tournament

int
tournamentCli(const std::vector<std::string> &scenario_args,
              const std::vector<std::string> &controller_args,
              double target_deg, const std::string &store, bool json)
{
    TournamentOptions options;
    options.config = standardConfig();
    if (!store.empty())
        options.config.store = store; // --store overrides MCD_STORE
    options.targetDeg = target_deg;

    // Scenarios: explicit names (scenario-aware comma splitting), with
    // the "corpus" alias expanding to the standing adversarial corpus.
    std::vector<std::string> scenario_lists = scenario_args;
    if (scenario_lists.empty())
        scenario_lists.push_back("corpus");
    for (const auto &arg : scenario_lists) {
        for (const auto &name : splitScenarioList(arg)) {
            if (name == "corpus") {
                for (const auto &c : adversarialCorpus())
                    options.scenarios.push_back(c);
            } else {
                options.scenarios.push_back(name);
            }
        }
    }

    for (const auto &arg : controller_args) {
        for (const auto &item : splitControllerList(arg)) {
            TournamentEntry entry;
            entry.label = item;
            entry.spec = parseControllerSpec(item);
            options.controllers.push_back(std::move(entry));
        }
    }
    if (options.controllers.empty())
        options.controllers = defaultTournamentEntries();

    TournamentResult result = runTournament(options);
    if (json) {
        // The shared renderer (also behind the daemon's `tournament`
        // verb) carries no cache counters, so stdout stays
        // byte-identical between cold, warm, and served runs (CI
        // diffs it); the counters go to stderr below.
        std::fputs(renderTournamentJson(options, result).c_str(),
                   stdout);
        reportStoreStats();
        return 0;
    }

    printMethodology(options.config);
    std::printf("oracle: offline Dynamic-%g%% (degradation cap %s)\n\n",
                options.targetDeg * 100.0,
                pct(options.targetDeg, 1).c_str());
    std::printf("%s", renderTournament(result).c_str());
    reportStoreStats();
    return 0;
}

int
cacheStatsCli(const std::string &store, bool json)
{
    ArtifactCache &cache = ArtifactCache::instance();
    if (!store.empty())
        cache.attachDiskStore(store);

    if (json) {
        std::string out =
            "{\n  \"cache\": " + serve::cacheStatsJson(cache) +
            "\n}\n";
        std::fputs(out.c_str(), stdout);
        return 0;
    }

    TextTable table("artifact store");
    table.setHeader({"statistic", "value"});
    table.addRow({"lookups", std::to_string(cache.lookups())});
    table.addRow({"hits", std::to_string(cache.hits())});
    table.addRow({"disk hits", std::to_string(cache.diskHits())});
    table.addRow({"in-flight joins",
                  std::to_string(cache.inflightJoins())});
    table.addRow({"simulations run",
                  std::to_string(cache.simulationsRun())});
    table.addRow({"memory entries", std::to_string(cache.size())});
    std::string root = cache.storeRoot();
    table.addRow({"store root", root.empty() ? "(memory only)" : root});
    if (!root.empty()) {
        table.addRow({"disk entries",
                      std::to_string(cache.diskEntries())});
        table.addRow({"disk bytes", std::to_string(cache.diskBytes())});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

// -------------------------------------------------------------- run

int
runExperimentsCli(const std::vector<std::string> &benches,
                  const ControllerSpec &controller, ClockMode mode,
                  Hertz freq, std::uint64_t seed, bool have_seed,
                  const std::string &store, bool json)
{
    RunnerConfig config = standardConfig();
    if (have_seed)
        config.clockSeed = seed;
    if (!store.empty())
        config.store = store; // --store overrides MCD_STORE

    std::vector<ExperimentSpec> specs;
    for (const auto &bench : benches) {
        if (!ScenarioRegistry::instance().contains(bench))
            mcd_fatal("unknown scenario '%s' (try: mcd_cli list)",
                      bench.c_str());
        specs.push_back(makeSpec(config, bench, controller, mode,
                                 freq));
    }

    auto results = runExperiments(specs, config.jobs);
    ArtifactCache &cache = ArtifactCache::instance();

    if (json) {
        std::string out = "{\n  \"experiments\": [\n";
        for (std::size_t i = 0; i < specs.size(); ++i) {
            out += serve::experimentResultJson(specs[i], results[i]);
            out += i + 1 < specs.size() ? ",\n" : "\n";
        }
        out += "  ],\n  \"cache\": " + serve::cacheStatsJson(cache) +
               "\n}\n";
        std::fputs(out.c_str(), stdout);
        return 0;
    }

    printMethodology(config);
    TextTable table("results");
    table.setHeader({"benchmark", "controller", "mode", "time (ps)",
                     "energy (nJ)", "CPI", "EPI (nJ)"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        table.addRow({specs[i].benchmark, controller.name,
                      mode == ClockMode::Mcd ? "mcd" : "sync",
                      std::to_string(results[i].time),
                      num(results[i].chipEnergy, 1),
                      num(results[i].cpi, 3), num(results[i].epi, 3)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\ncache: %llu lookups, %llu hits (%llu from disk), "
                "%llu simulations%s%s\n",
                static_cast<unsigned long long>(cache.lookups()),
                static_cast<unsigned long long>(cache.hits()),
                static_cast<unsigned long long>(cache.diskHits()),
                static_cast<unsigned long long>(
                    cache.simulationsRun()),
                cache.storeRoot().empty() ? "" : ", store ",
                cache.storeRoot().c_str());
    return 0;
}

// ----------------------------------------------------------- profile

/**
 * `mcd_cli profile <scenario>`: run one experiment with the phase
 * profiler enabled and report where the wall-clock time went. Phases
 * nest (sim.commit includes sim.interval, and the issue/wakeup stages
 * run inside the per-cycle loop the commit timer brackets), so the
 * shares are a hierarchy, not a partition — they need not sum to 100%.
 * A second table gives each clock domain's edge count and the share
 * of those edges that were quiet (skipped by the wake memo; see
 * core/simulator.hh), followed by the number of bulk charges the quiet
 * edges were taken in (Simulator::quietRuns(): runs stepped in the
 * edge race, and charges of a lazy domain's edges as it settles), their
 * mean length, and the share of quiet edges consumed by
 * DomainClock::skip calls (Simulator::skippedEdges()). The store is
 * deliberately detached: profiling a cache hit would measure
 * deserialization, not the simulator.
 */
int
profileCli(const std::vector<std::string> &args)
{
    std::string bench;
    ControllerSpec controller; // "none"
    bool json = false;

    auto value = [&](std::size_t &i) -> std::string {
        if (i + 1 >= args.size())
            mcd_fatal("option '%s' needs a value", args[i].c_str());
        return args[++i];
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--controller") {
            controller = parseControllerSpec(value(i));
        } else if (arg == "--json") {
            json = true;
        } else if (!arg.empty() && arg[0] != '-') {
            if (!bench.empty())
                mcd_fatal("profile takes one scenario, got '%s' and "
                          "'%s'", bench.c_str(), arg.c_str());
            bench = arg;
        } else {
            mcd_fatal("profile: unknown argument '%s'", arg.c_str());
        }
    }
    if (bench.empty())
        mcd_fatal("profile needs a scenario "
                  "(e.g. mcd_cli profile gsm)");
    if (!ScenarioRegistry::instance().contains(bench))
        mcd_fatal("unknown scenario '%s' (try: mcd_cli list)",
                  bench.c_str());

    RunnerConfig config = standardConfig();
    config.store.clear(); // always simulate; never profile a disk hit

    telemetry::setProfiling(true);
    telemetry::resetPhaseHistograms();
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        Simulator::edgeCounter(static_cast<DomainId>(d), false).reset();
        Simulator::edgeCounter(static_cast<DomainId>(d), true).reset();
        Simulator::skippedEdgeCounter(static_cast<DomainId>(d)).reset();
    }
    Simulator::quietRunCounter().reset();

    ExperimentSpec spec = makeSpec(config, bench, controller);
    auto wall_start = std::chrono::steady_clock::now();
    SimStats stats = ArtifactCache::instance().getOrRun(spec);
    auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());

    struct PhaseRow
    {
        const char *name;
        telemetry::HistogramData data;
    };
    std::vector<PhaseRow> rows;
    for (int p = 0; p < telemetry::NUM_PHASES; ++p) {
        auto phase = static_cast<telemetry::Phase>(p);
        telemetry::HistogramData data =
            telemetry::phaseHistogram(phase).read();
        if (data.count == 0)
            continue;
        rows.push_back({telemetry::phaseName(phase), data});
    }
    // Hot-first: the biggest total at the top.
    std::sort(rows.begin(), rows.end(),
              [](const PhaseRow &a, const PhaseRow &b) {
                  return a.data.sum > b.data.sum;
              });

    struct DomainRow
    {
        const char *name;
        std::uint64_t edges;
        std::uint64_t quiet;
        double quietShare() const
        {
            return edges == 0 ? 0.0
                              : static_cast<double>(quiet) /
                                    static_cast<double>(edges);
        }
    };
    std::vector<DomainRow> domains;
    std::uint64_t quiet_edges = 0;
    std::uint64_t skipped_edges = 0;
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto id = static_cast<DomainId>(d);
        domains.push_back({domainName(id),
                           Simulator::edgeCounter(id, false).value(),
                           Simulator::edgeCounter(id, true).value()});
        quiet_edges += domains.back().quiet;
        skipped_edges += Simulator::skippedEdgeCounter(id).value();
    }
    // Quiet domain edges per bulk charge: a step's run of quiet edges
    // in the edge race, or one settle of a domain out of the race. In
    // Synchronous mode a run's shared edge counts once per domain, as do
    // the quiet domains of an edge on which another domain ran.
    std::uint64_t quiet_runs = Simulator::quietRunCounter().value();
    double mean_run = quiet_runs == 0
        ? 0.0
        : static_cast<double>(quiet_edges) /
              static_cast<double>(quiet_runs);
    // The share of quiet edges consumed by DomainClock::skip calls (in
    // catch-ups and rejoins of calm domains out of the race, or by the
    // synchronous shared-clock skip) rather than taken edge by edge.
    double skipped_share = quiet_edges == 0
        ? 0.0
        : static_cast<double>(skipped_edges) /
              static_cast<double>(quiet_edges);

    if (json) {
        std::string out = "{\n  \"profile\": {\n";
        out += "    \"scenario\": " + json::str(bench) + ",\n";
        out += "    \"controller\": " + json::str(controller.name) +
               ",\n";
        out += "    \"instructions\": " + json::u64(stats.instructions) +
               ",\n";
        out += "    \"wall_ns\": " + json::u64(wall_ns) + ",\n";
        out += "    \"phases\": [";
        bool first = true;
        for (const auto &row : rows) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "      {\"name\": " + json::str(row.name);
            out += ", \"count\": " + json::u64(row.data.count);
            out += ", \"p50_ns\": " +
                   json::u64(static_cast<std::uint64_t>(
                       row.data.quantile(0.50)));
            out += ", \"p95_ns\": " +
                   json::u64(static_cast<std::uint64_t>(
                       row.data.quantile(0.95)));
            out += ", \"max_ns\": " + json::u64(row.data.max);
            out += ", \"total_ns\": " + json::u64(row.data.sum);
            out += ", \"share_of_wall\": " +
                   json::num(wall_ns == 0
                                 ? 0.0
                                 : static_cast<double>(row.data.sum) /
                                       static_cast<double>(wall_ns));
            out += "}";
        }
        out += "\n    ],\n    \"domains\": [";
        first = true;
        for (const auto &row : domains) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "      {\"name\": " + json::str(row.name);
            out += ", \"edges\": " + json::u64(row.edges);
            out += ", \"quiet_edges\": " + json::u64(row.quiet);
            out += ", \"quiet_share\": " + json::num(row.quietShare());
            out += "}";
        }
        out += "\n    ],\n    \"quiet_runs\": " + json::u64(quiet_runs);
        out += ",\n    \"mean_quiet_run\": " + json::num(mean_run);
        out += ",\n    \"skipped_share\": " + json::num(skipped_share);
        out += "\n  }\n}\n";
        std::fputs(out.c_str(), stdout);
        return 0;
    }

    std::printf("profiled %s under %s: %llu instructions in %.1f ms "
                "wall\n",
                bench.c_str(), controller.name.c_str(),
                static_cast<unsigned long long>(stats.instructions),
                static_cast<double>(wall_ns) / 1e6);
    TextTable table("phase profile (nested: shares need not sum "
                    "to 100%)");
    table.setHeader({"phase", "count", "p50 (ns)", "p95 (ns)",
                     "max (ns)", "total (ms)", "share of wall"});
    for (const auto &row : rows) {
        double share =
            wall_ns == 0 ? 0.0
                         : static_cast<double>(row.data.sum) /
                               static_cast<double>(wall_ns);
        table.addRow(
            {row.name, std::to_string(row.data.count),
             std::to_string(static_cast<std::uint64_t>(
                 row.data.quantile(0.50))),
             std::to_string(static_cast<std::uint64_t>(
                 row.data.quantile(0.95))),
             std::to_string(row.data.max),
             num(static_cast<double>(row.data.sum) / 1e6, 2),
             pct(share, 1)});
    }
    std::printf("%s", table.render().c_str());

    TextTable edges("domain edges (quiet: no stage ran)");
    edges.setHeader({"domain", "edges", "quiet", "quiet share"});
    for (const auto &row : domains) {
        edges.addRow({row.name, std::to_string(row.edges),
                      std::to_string(row.quiet),
                      pct(row.quietShare(), 1)});
    }
    std::printf("\n%s", edges.render().c_str());
    std::printf("quiet runs (race runs and settles): %llu, mean "
                "length %s edges, %s of quiet edges skipped in bulk\n",
                static_cast<unsigned long long>(quiet_runs),
                num(mean_run, 1).c_str(), pct(skipped_share, 1).c_str());
    return 0;
}

// ------------------------------------------------------------- serve

serve::Server *g_server = nullptr;

void
stopSignalHandler(int)
{
    // requestStop only writes one byte to a pipe: async-signal-safe.
    if (g_server)
        g_server->requestStop();
}

int
serveCli(const std::vector<std::string> &args)
{
    serve::ServeOptions options;
    options.config = standardConfig();

    auto value = [&](std::size_t &i) -> std::string {
        if (i + 1 >= args.size())
            mcd_fatal("option '%s' needs a value", args[i].c_str());
        return args[++i];
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--socket") {
            options.socketPath = value(i);
        } else if (arg == "--store") {
            options.config.store = value(i);
        } else if (arg == "--workers") {
            options.workers = parseIntFlag("--workers", value(i));
        } else if (arg == "--max-inflight") {
            options.maxInflight =
                parseIntFlag("--max-inflight", value(i));
        } else if (arg == "--events") {
            options.eventsPath = value(i);
        } else {
            mcd_fatal("serve: unknown argument '%s'", arg.c_str());
        }
    }
    if (options.socketPath.empty())
        mcd_fatal("serve needs --socket <path>");
    if (options.eventsPath.empty())
        options.eventsPath = envString("MCD_EVENTS");

    serve::Server server(options);
    g_server = &server;
    std::signal(SIGINT, stopSignalHandler);
    std::signal(SIGTERM, stopSignalHandler);
    server.run();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_server = nullptr;
    return 0;
}

// ----------------------------------------------------------- request

/** Build the `run` request object for one scenario list. */
std::string
runRequestJson(const std::vector<std::string> &benches,
               const std::string &controller, const std::string &mode,
               Hertz freq, std::uint64_t seed, bool have_seed)
{
    std::string out = "{\"op\": \"run\", \"benches\": [";
    bool first = true;
    for (const auto &bench : benches) {
        out += first ? "" : ", ";
        first = false;
        out += json::str(bench);
    }
    out += "]";
    if (!controller.empty())
        out += ", \"controller\": " + json::str(controller);
    if (mode != "mcd")
        out += ", \"mode\": " + json::str(mode);
    if (freq > 0.0)
        out += ", \"freq\": " + json::num(freq);
    if (have_seed)
        out += ", \"seed\": " + json::u64(seed);
    out += "}";
    return out;
}

int
requestCli(const std::vector<std::string> &args)
{
    std::string socket;
    // "", "ping", "stats", "metrics", "shutdown", "tournament"
    std::string op;
    std::vector<std::string> benches;
    std::string controller;
    std::string mode = "mcd";
    Hertz freq = 0.0;
    std::uint64_t seed = 0;
    bool have_seed = false;
    std::vector<std::string> tournament_scenarios;
    std::vector<std::string> tournament_controllers;
    double target_deg = 0.05;
    bool have_target_deg = false;

    auto value = [&](std::size_t &i) -> std::string {
        if (i + 1 >= args.size())
            mcd_fatal("option '%s' needs a value", args[i].c_str());
        return args[++i];
    };
    auto set_op = [&](const std::string &what) {
        if (!op.empty())
            mcd_fatal("request: --%s conflicts with --%s",
                      what.c_str(), op.c_str());
        op = what;
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--socket") {
            socket = value(i);
        } else if (arg == "--ping" || arg == "--stats" ||
                   arg == "--metrics" || arg == "--shutdown" ||
                   arg == "--tournament") {
            set_op(arg.substr(2));
        } else if (arg == "--bench") {
            for (const auto &name : splitScenarioList(value(i)))
                benches.push_back(name);
        } else if (arg == "--controller") {
            controller = value(i);
        } else if (arg == "--mode") {
            mode = value(i);
            if (mode != "mcd" && mode != "sync")
                mcd_fatal("--mode must be 'mcd' or 'sync', not '%s'",
                          mode.c_str());
        } else if (arg == "--freq") {
            freq = parseFreqFlag(value(i));
        } else if (arg == "--seed") {
            seed = parseU64Flag("--seed", value(i));
            have_seed = true;
        } else if (arg == "--scenarios") {
            for (const auto &name : splitScenarioList(value(i)))
                tournament_scenarios.push_back(name);
        } else if (arg == "--controllers") {
            for (const auto &item : splitControllerList(value(i)))
                tournament_controllers.push_back(item);
        } else if (arg == "--target-deg") {
            target_deg = parseTargetDegFlag(value(i));
            have_target_deg = true;
        } else if (arg == "--json") {
            // accepted for symmetry; request output is always JSON
        } else {
            mcd_fatal("request: unknown argument '%s'", arg.c_str());
        }
    }
    if (socket.empty())
        mcd_fatal("request needs --socket <path>");
    if (op.empty() && benches.empty())
        mcd_fatal("request needs --ping, --stats, --metrics, "
                  "--shutdown, --tournament, or --bench <name>[,...]");

    serve::ServeClient client;
    std::string error;
    if (!client.connect(socket, &error))
        mcd_fatal("%s", error.c_str());

    if (op == "ping" || op == "stats" || op == "metrics" ||
        op == "shutdown") {
        std::string request = op == "ping" ? "{\"op\": \"ping\"}"
                              : op == "stats"
                                  ? "{\"op\": \"cache-stats\"}"
                              : op == "metrics"
                                  ? "{\"op\": \"metrics\"}"
                                  : "{\"op\": \"shutdown\"}";
        json::Value terminal;
        std::string raw;
        if (!client.send(request, &error) ||
            client.recv(raw) != serve::FrameStatus::Ok)
            mcd_fatal("request failed: %s", error.c_str());
        std::printf("%s\n", raw.c_str());
        return 0;
    }

    std::string request;
    if (op == "tournament") {
        request = "{\"op\": \"tournament\"";
        if (!tournament_scenarios.empty()) {
            request += ", \"scenarios\": [";
            bool first = true;
            for (const auto &name : tournament_scenarios) {
                request += first ? "" : ", ";
                first = false;
                request += json::str(name);
            }
            request += "]";
        }
        if (!tournament_controllers.empty()) {
            request += ", \"controllers\": [";
            bool first = true;
            for (const auto &spec : tournament_controllers) {
                request += first ? "" : ", ";
                first = false;
                request += json::str(spec);
            }
            request += "]";
        }
        if (have_target_deg)
            request += ", \"target_deg\": " + json::num(target_deg);
        request += "}";
    } else {
        request = runRequestJson(benches, controller, mode, freq, seed,
                                 have_seed);
    }

    // Both verbs stream `result` frames tagged with their submission
    // index (a tournament sends one) and end with `done`. A `run` is
    // one all-or-nothing unit batch, collated back into submission
    // order here.
    std::map<std::uint64_t, std::string> by_index;
    json::Value terminal;
    if (!client.call(
            request,
            [&](const json::Value &event) {
                if (event.getString("event") == "result")
                    by_index[event.getU64("index", 0)] =
                        event.getString("payload");
            },
            terminal, &error))
        mcd_fatal("request failed: %s", error.c_str());
    if (terminal.getString("event") != "done")
        mcd_fatal("daemon: %s",
                  terminal.getString("error", "request failed").c_str());
    if (op == "tournament") {
        // The payload is the exact `mcd_cli tournament --json` stdout.
        std::fputs(by_index[0].c_str(), stdout);
        return 0;
    }
    if (by_index.size() != benches.size())
        mcd_fatal("daemon: incomplete result stream");

    // The "experiments" block is byte-identical to `mcd_cli run
    // --json`'s for the same specs (the payloads are the exact
    // per-experiment entries); the trailer is daemon-side bookkeeping
    // instead of process-local cache counters.
    std::string out = "{\n  \"experiments\": [\n";
    std::size_t left = by_index.size();
    for (const auto &entry : by_index) {
        out += entry.second;
        out += --left > 0 ? ",\n" : "\n";
    }
    out += "  ],\n  \"serve\": {\"results\": " +
           json::u64(static_cast<std::uint64_t>(by_index.size())) +
           ", \"cold_units\": " +
           json::u64(terminal.getU64("cold_units", 0)) +
           ", \"warm_units\": " +
           json::u64(terminal.getU64("warm_units", 0)) + "}\n}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}

void
usage()
{
    std::printf(
        "usage:\n"
        "  mcd_cli list [--json]            enumerate scenarios, "
        "scenario\n"
        "                                   families, controllers and\n"
        "                                   figures\n"
        "  mcd_cli figure <name>            print one paper figure, "
        "table\n"
        "                                   or ablation (names: "
        "mcd_cli list)\n"
        "  mcd_cli run --bench <name>[,<name>...]\n"
        "              [--controller <name>[:<k=v>,...]]\n"
        "              [--mode mcd|sync] [--freq <hz>] [--seed <n>]\n"
        "              [--store <dir>] [--json]\n"
        "                                   run experiments; each "
        "warm-up\n"
        "                                   resolves through one "
        "stored\n"
        "                                   machine snapshot\n"
        "  mcd_cli cache [--store <dir>] [--json]\n"
        "                                   print artifact-store "
        "statistics\n"
        "  mcd_cli cache prune [--store <dir>] [--max-bytes <b>]\n"
        "              [--max-age <seconds>] [--tmp-age <seconds>] "
        "[--json]\n"
        "                                   garbage-collect the store\n"
        "  mcd_cli fleet <figure>[,<figure>...] [--procs <n>]\n"
        "              [--retries <n>] [--store <dir>] [--json]\n"
        "                                   shard figures across "
        "worker\n"
        "                                   processes "
        "sharing\n"
        "                                   one store\n"
        "  mcd_cli profile <scenario> [--controller <spec>] [--json]\n"
        "                                   run one experiment with "
        "the\n"
        "                                   phase profiler on and "
        "report\n"
        "                                   p50/p95/max and share of "
        "wall\n"
        "                                   per simulator phase\n"
        "  mcd_cli serve --socket <path> [--store <dir>] "
        "[--workers <n>]\n"
        "              [--max-inflight <m>] [--events <path>]\n"
        "                                   long-lived daemon: one "
        "warm\n"
        "                                   artifact cache + worker "
        "pool\n"
        "                                   serving concurrent "
        "clients over\n"
        "                                   a Unix socket (run / "
        "tournament /\n"
        "                                   cache-stats / metrics / "
        "ping /\n"
        "                                   shutdown); --events "
        "appends a\n"
        "                                   JSONL lifecycle trace per "
        "request\n"
        "  mcd_cli request --socket <path> (--ping | --stats | "
        "--metrics |\n"
        "              --shutdown |\n"
        "              --tournament [--scenarios ...] "
        "[--controllers ...]\n"
        "              [--target-deg <frac>] |\n"
        "              --bench <name>[,...] [--controller <spec>]\n"
        "              [--mode mcd|sync] [--freq <hz>] [--seed <n>])\n"
        "                                   one request against a "
        "running\n"
        "                                   daemon; run results are\n"
        "                                   byte-identical to "
        "`mcd_cli run`\n"
        "                                   (one all-or-nothing batch,\n"
        "                                   bounded by --max-inflight)\n"
        "  mcd_cli tournament [--scenarios <name>[,...]|corpus]...\n"
        "              [--controllers <spec>[;<spec>...]]...\n"
        "              [--target-deg <frac>] [--store <dir>] [--json]\n"
        "                                   oracle-regret tournament: "
        "score\n"
        "                                   controllers x scenarios "
        "against\n"
        "                                   the offline Dynamic-X%% "
        "oracle\n"
        "                                   (default: the adversarial "
        "corpus\n"
        "                                   x attack_decay / "
        "attack_decay:slow\n"
        "                                   / none)\n"
        "\n"
        "examples:\n"
        "  mcd_cli list\n"
        "  mcd_cli figure fig4\n"
        "  mcd_cli run --bench gsm --controller "
        "attack_decay:decay=0.0125,perf_deg_threshold=0.015 --json\n"
        "  mcd_cli run --bench synthetic:mem=0.8,ilp=4,phases=6\n"
        "  mcd_cli run --bench gsm --store /tmp/mcd-store   # warm it\n"
        "  mcd_cli cache --store /tmp/mcd-store --json\n"
        "  mcd_cli fleet fig5,table6 --procs 4 --store /tmp/mcd-store\n"
        "  mcd_cli cache prune --store /tmp/mcd-store "
        "--max-bytes 100000000\n"
        "  mcd_cli tournament --store /tmp/mcd-store --json\n"
        "  mcd_cli tournament --scenarios "
        "synthetic:square=4000,mem=0.5,gsm \\\n"
        "      --controllers \"attack_decay;"
        "attack_decay:reaction_change=0.12\"\n"
        "  mcd_cli profile gsm --controller attack_decay --json\n"
        "  mcd_cli serve --socket /tmp/mcd.sock --store "
        "/tmp/mcd-store &\n"
        "  mcd_cli request --socket /tmp/mcd.sock --bench gsm,mcf\n"
        "  mcd_cli request --socket /tmp/mcd.sock --shutdown\n"
        "\n"
        "environment: MCD_INSNS, MCD_WARMUP, MCD_INTERVAL, MCD_JOBS,\n"
        "             MCD_STORE (persistent artifact store root;\n"
        "             --store overrides), MCD_PROF=1 (phase\n"
        "             profiler on for any tool), MCD_EVENTS (serve\n"
        "             request-trace path; --events overrides),\n"
        "             MCD_LOG_JSON=1 (structured JSON log lines)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        usage();
        return 2;
    }

    // The serving subcommands own their flag grammar (a socket
    // daemon/client has nothing in common with the batch flags), so
    // they dispatch before the shared parse loop.
    if (args[0] == "serve")
        return serveCli({args.begin() + 1, args.end()});
    if (args[0] == "request")
        return requestCli({args.begin() + 1, args.end()});
    if (args[0] == "profile")
        return profileCli({args.begin() + 1, args.end()});
    if (args[0] == "figure") {
        if (args.size() != 2)
            mcd_fatal("usage: mcd_cli figure <name>");
        findFigure(args[1]).run();
        reportStoreStats();
        return 0;
    }

    bool json = false;
    bool do_list = false;
    bool do_run = false;
    bool do_cache = false;
    bool do_prune = false;
    bool do_fleet = false;
    bool do_tournament = false;
    std::vector<std::string> benches;
    std::vector<std::string> fleet_targets;
    std::vector<std::string> tournament_scenarios;
    std::vector<std::string> tournament_controllers;
    double target_deg = 0.05;
    ControllerSpec controller; // "none"
    ClockMode mode = ClockMode::Mcd;
    Hertz freq = 0.0;
    std::uint64_t seed = 0;
    bool have_seed = false;
    std::string store; // --store; "" defers to MCD_STORE
    // Fleet worker processes. Deliberately defaults to serial: each
    // worker is itself fully multithreaded (MCD_JOBS), so fanning out
    // processes is an explicit --procs opt-in, not an ambient default.
    int procs = 1;
    int retries = 1;
    std::uint64_t max_bytes = 0;
    std::int64_t max_age = -1;
    std::int64_t tmp_age = 3600;

    auto value = [&](std::size_t &i) -> std::string {
        if (i + 1 >= args.size())
            mcd_fatal("option '%s' needs a value", args[i].c_str());
        return args[++i];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "list" || arg == "--list") {
            do_list = true;
        } else if (arg == "run") {
            do_run = true;
        } else if (arg == "cache") {
            do_cache = true;
        } else if (arg == "prune" && do_cache) {
            do_prune = true;
        } else if (arg == "fleet") {
            do_fleet = true;
        } else if (arg == "tournament") {
            do_tournament = true;
        } else if (arg == "--scenarios") {
            tournament_scenarios.push_back(value(i));
        } else if (arg == "--controllers") {
            tournament_controllers.push_back(value(i));
        } else if (arg == "--target-deg") {
            target_deg = parseTargetDegFlag(value(i));
        } else if (do_fleet && arg == "--procs") {
            // Worker processes are fleet's alone; every in-process
            // batch (run, figure, tournament) is as wide as MCD_JOBS.
            procs = parseIntFlag("--procs", value(i));
            if (procs < 1)
                mcd_fatal("--procs needs a positive worker count");
        } else if (do_fleet && arg == "--retries") {
            retries = parseIntFlag("--retries", value(i));
        } else if (arg == "--max-bytes") {
            max_bytes = parseU64Flag("--max-bytes", value(i));
        } else if (arg == "--max-age") {
            max_age = static_cast<std::int64_t>(
                parseU64Flag("--max-age", value(i)));
        } else if (arg == "--tmp-age") {
            tmp_age = static_cast<std::int64_t>(
                parseU64Flag("--tmp-age", value(i)));
        } else if (do_fleet && !arg.empty() && arg[0] != '-') {
            for (const auto &name : splitList(arg))
                fleet_targets.push_back(name);
        } else if (arg == "--store") {
            store = value(i);
            if (store.empty())
                mcd_fatal("--store needs a non-empty directory");
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--bench") {
            // Scenario-aware splitting: a family name keeps its own
            // comma-separated knobs, so
            // "gsm,synthetic:mem=0.8,ilp=4,mcf" is three scenarios.
            for (const auto &name : splitScenarioList(value(i)))
                benches.push_back(name);
        } else if (arg == "--controller") {
            controller = parseControllerSpec(value(i));
        } else if (arg == "--mode") {
            std::string v = value(i);
            if (v == "mcd")
                mode = ClockMode::Mcd;
            else if (v == "sync")
                mode = ClockMode::Synchronous;
            else
                mcd_fatal("--mode must be 'mcd' or 'sync', not '%s'",
                          v.c_str());
        } else if (arg == "--freq") {
            freq = parseFreqFlag(value(i));
        } else if (arg == "--seed") {
            seed = parseU64Flag("--seed", value(i));
            have_seed = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            mcd_fatal("unknown argument '%s'", arg.c_str());
        }
    }

    if (do_list)
        listRegistries(json);
    if (do_run) {
        if (benches.empty())
            mcd_fatal("run needs --bench <name>[,<name>...]");
        return runExperimentsCli(benches, controller, mode, freq, seed,
                                 have_seed, store, json);
    }
    if (do_tournament)
        return tournamentCli(tournament_scenarios,
                             tournament_controllers, target_deg, store,
                             json);
    if (do_fleet) {
        if (fleet_targets.empty())
            mcd_fatal("fleet needs at least one target "
                      "(e.g. fleet fig5,table6)");
        // Workers inherit MCD_STORE unless --store overrides; resolve
        // here so the merged report and the children agree on the root.
        std::string root =
            store.empty() ? standardConfig().store : store;
        return fleetCli(fleet_targets, procs, retries, root, json);
    }
    if (do_cache) {
        // Standalone `cache` reports on the persistent layer (--store
        // or MCD_STORE); after `run` in the same process it would also
        // reflect that run's counters, but subcommands are exclusive.
        std::string root =
            store.empty() ? standardConfig().store : store;
        if (do_prune)
            return pruneCli(root, max_bytes, max_age, tmp_age, json);
        return cacheStatsCli(root, json);
    }
    if (!do_list) {
        usage();
        return 2;
    }
    return 0;
}
