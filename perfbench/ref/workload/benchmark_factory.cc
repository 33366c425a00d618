#include "workload/benchmark_factory.hh"

#include <map>

#include "common/logging.hh"
#include "workload/scenario_registry.hh"

namespace mcd
{

namespace
{

constexpr std::uint64_t KB = 1024;
constexpr std::uint64_t MB = 1024 * 1024;

/**
 * Spec table. Mixes and footprints follow the published character of
 * each application:
 *  - MediaBench: small kernels, tiny-to-moderate working sets, highly
 *    predictable branches, little FP except epic/mesa/mpeg2.
 *  - Olden: pointer codes; the memory-bound ones (em3d, health, mst,
 *    treeadd) chase through multi-megabyte heaps; power/bh carry FP.
 *  - SPECint: mixed; mcf is the extreme memory-bound pointer chaser,
 *    gcc has a huge instruction footprint with near-perfect branch
 *    prediction (Section 5's 99 % figure).
 *  - SPECfp: long predictable vector loops with wide ILP and streaming
 *    working sets larger than L2.
 */
std::map<std::string, BenchmarkSpec>
buildTable()
{
    std::map<std::string, BenchmarkSpec> table;

    auto add = [&table](const std::string &name, const std::string &suite,
                        std::vector<PhaseSpec> phases,
                        std::uint64_t seed) {
        BenchmarkSpec spec;
        spec.name = name;
        spec.suite = suite;
        spec.phases = std::move(phases);
        spec.seed = seed;
        table[name] = std::move(spec);
    };

    // ------------------------------------------------------------------
    // MediaBench
    // ------------------------------------------------------------------
    add("adpcm", "MediaBench",
        {PhaseSpec{.loadFrac = 0.14, .storeFrac = 0.07,
                   .branchFrac = 0.18, .fpFrac = 0.0,
                   .loopLength = 16, .loopIterations = 2000,
                   .branchBias = 0.8, .branchNoise = 0.10, .codeLoops = 2,
                   .dataFootprint = 8 * KB, .depWindow = 4}},
        11);

    // epic decode: FP silent except two distinct phases (Figures 2/3).
    add("epic", "MediaBench",
        {PhaseSpec{.weight = 0.21, .loadFrac = 0.24, .storeFrac = 0.10,
                   .branchFrac = 0.16, .fpFrac = 0.0,
                   .loopLength = 28, .loopIterations = 120,
                   .branchNoise = 0.15, .codeLoops = 4,
                   .dataFootprint = 256 * KB, .depWindow = 8},
         PhaseSpec{.weight = 0.19, .loadFrac = 0.26, .storeFrac = 0.08,
                   .branchFrac = 0.08, .fpFrac = 0.34, .fpMultShare = 0.45,
                   .loopLength = 48, .loopIterations = 300,
                   .branchNoise = 0.05, .codeLoops = 3,
                   .dataFootprint = 384 * KB, .depWindow = 12},
         PhaseSpec{.weight = 0.40, .loadFrac = 0.22, .storeFrac = 0.12,
                   .branchFrac = 0.17, .fpFrac = 0.0,
                   .loopLength = 24, .loopIterations = 90,
                   .branchNoise = 0.22, .codeLoops = 5,
                   .dataFootprint = 192 * KB, .depWindow = 7},
         PhaseSpec{.weight = 0.13, .loadFrac = 0.26, .storeFrac = 0.08,
                   .branchFrac = 0.08, .fpFrac = 0.34, .fpMultShare = 0.45,
                   .loopLength = 48, .loopIterations = 300,
                   .branchNoise = 0.05, .codeLoops = 3,
                   .dataFootprint = 384 * KB, .depWindow = 12},
         PhaseSpec{.weight = 0.07, .loadFrac = 0.20, .storeFrac = 0.14,
                   .branchFrac = 0.18, .fpFrac = 0.0,
                   .loopLength = 20, .loopIterations = 60,
                   .branchNoise = 0.20, .codeLoops = 3,
                   .dataFootprint = 128 * KB, .depWindow = 6}},
        13);

    add("jpeg", "MediaBench",
        {PhaseSpec{.loadFrac = 0.22, .storeFrac = 0.11,
                   .branchFrac = 0.13, .fpFrac = 0.0, .intMultFrac = 0.06,
                   .loopLength = 40, .loopIterations = 64,
                   .branchNoise = 0.12, .codeLoops = 6,
                   .dataFootprint = 128 * KB, .depWindow = 10}},
        17);

    add("g721", "MediaBench",
        {PhaseSpec{.loadFrac = 0.18, .storeFrac = 0.08,
                   .branchFrac = 0.20, .fpFrac = 0.0, .intMultFrac = 0.04,
                   .loopLength = 18, .loopIterations = 800,
                   .branchBias = 0.75, .branchNoise = 0.18, .codeLoops = 3,
                   .dataFootprint = 16 * KB, .depWindow = 3}},
        19);

    add("gsm", "MediaBench",
        {PhaseSpec{.loadFrac = 0.20, .storeFrac = 0.09,
                   .branchFrac = 0.14, .fpFrac = 0.0, .intMultFrac = 0.08,
                   .loopLength = 32, .loopIterations = 160,
                   .branchNoise = 0.08, .codeLoops = 4,
                   .dataFootprint = 32 * KB, .depWindow = 9}},
        23);

    add("ghostscript", "MediaBench",
        {PhaseSpec{.loadFrac = 0.25, .storeFrac = 0.12,
                   .branchFrac = 0.17, .fpFrac = 0.03, .callFrac = 0.012,
                   .loopLength = 48, .loopIterations = 24,
                   .branchNoise = 0.25, .codeLoops = 24,
                   .dataFootprint = 2 * MB, .depWindow = 6}},
        29);

    add("mesa", "MediaBench",
        {PhaseSpec{.weight = 0.6, .loadFrac = 0.24, .storeFrac = 0.12,
                   .branchFrac = 0.10, .fpFrac = 0.22, .fpMultShare = 0.4,
                   .loopLength = 56, .loopIterations = 96,
                   .branchNoise = 0.10, .codeLoops = 8,
                   .dataFootprint = 1 * MB, .depWindow = 12},
         PhaseSpec{.weight = 0.4, .loadFrac = 0.20, .storeFrac = 0.16,
                   .branchFrac = 0.14, .fpFrac = 0.10,
                   .loopLength = 30, .loopIterations = 48,
                   .branchNoise = 0.18, .codeLoops = 6,
                   .dataFootprint = 512 * KB, .depWindow = 8}},
        31);

    add("mpeg2", "MediaBench",
        {PhaseSpec{.weight = 0.7, .loadFrac = 0.26, .storeFrac = 0.10,
                   .branchFrac = 0.11, .fpFrac = 0.08, .intMultFrac = 0.07,
                   .loopLength = 44, .loopIterations = 128,
                   .branchNoise = 0.10, .codeLoops = 5,
                   .dataFootprint = 768 * KB, .depWindow = 11},
         PhaseSpec{.weight = 0.3, .loadFrac = 0.22, .storeFrac = 0.14,
                   .branchFrac = 0.15, .fpFrac = 0.0, .intMultFrac = 0.04,
                   .loopLength = 26, .loopIterations = 64,
                   .branchNoise = 0.16, .codeLoops = 4,
                   .dataFootprint = 384 * KB, .depWindow = 8}},
        37);

    add("pegwit", "MediaBench",
        {PhaseSpec{.loadFrac = 0.16, .storeFrac = 0.07,
                   .branchFrac = 0.12, .fpFrac = 0.0, .intMultFrac = 0.12,
                   .loopLength = 36, .loopIterations = 400,
                   .branchBias = 0.85, .branchNoise = 0.05, .codeLoops = 3,
                   .dataFootprint = 24 * KB, .depWindow = 4}},
        41);

    // ------------------------------------------------------------------
    // Olden
    // ------------------------------------------------------------------
    add("bh", "Olden",
        {PhaseSpec{.loadFrac = 0.28, .storeFrac = 0.08,
                   .branchFrac = 0.13, .fpFrac = 0.18, .fpMultShare = 0.5,
                   .callFrac = 0.010,
                   .loopLength = 40, .loopIterations = 40,
                   .branchNoise = 0.20, .codeLoops = 8,
                   .dataFootprint = 4 * MB, .chaseFrac = 0.35,
                   .depWindow = 7}},
        43);

    add("bisort", "Olden",
        {PhaseSpec{.loadFrac = 0.27, .storeFrac = 0.12,
                   .branchFrac = 0.19, .fpFrac = 0.0, .callFrac = 0.015,
                   .loopLength = 22, .loopIterations = 32,
                   .branchNoise = 0.35, .codeLoops = 4,
                   .dataFootprint = 1 * MB, .chaseFrac = 0.5,
                   .depWindow = 4}},
        47);

    add("em3d", "Olden",
        {PhaseSpec{.loadFrac = 0.36, .storeFrac = 0.09,
                   .branchFrac = 0.12, .fpFrac = 0.06,
                   .loopLength = 26, .loopIterations = 200,
                   .branchNoise = 0.08, .codeLoops = 3,
                   .dataFootprint = 10 * MB, .chaseFrac = 0.45,
                   .depWindow = 4}},
        53);

    add("health", "Olden",
        {PhaseSpec{.loadFrac = 0.33, .storeFrac = 0.13,
                   .branchFrac = 0.17, .fpFrac = 0.0, .callFrac = 0.012,
                   .loopLength = 28, .loopIterations = 48,
                   .branchNoise = 0.25, .codeLoops = 5,
                   .dataFootprint = 8 * MB, .chaseFrac = 0.5,
                   .depWindow = 4}},
        59);

    add("mst", "Olden",
        {PhaseSpec{.loadFrac = 0.34, .storeFrac = 0.08,
                   .branchFrac = 0.15, .fpFrac = 0.0,
                   .loopLength = 24, .loopIterations = 300,
                   .branchNoise = 0.15, .codeLoops = 3,
                   .dataFootprint = 8 * MB, .chaseFrac = 0.5,
                   .depWindow = 5}},
        61);

    add("perimeter", "Olden",
        {PhaseSpec{.loadFrac = 0.29, .storeFrac = 0.07,
                   .branchFrac = 0.21, .fpFrac = 0.0, .callFrac = 0.03,
                   .loopLength = 20, .loopIterations = 12,
                   .branchNoise = 0.30, .codeLoops = 6,
                   .dataFootprint = 2 * MB, .chaseFrac = 0.6,
                   .depWindow = 5}},
        67);

    add("power", "Olden",
        {PhaseSpec{.loadFrac = 0.20, .storeFrac = 0.08,
                   .branchFrac = 0.10, .fpFrac = 0.28, .fpMultShare = 0.5,
                   .callFrac = 0.008,
                   .loopLength = 52, .loopIterations = 220,
                   .branchNoise = 0.06, .codeLoops = 4,
                   .dataFootprint = 96 * KB, .depWindow = 12}},
        71);

    add("treeadd", "Olden",
        {PhaseSpec{.loadFrac = 0.30, .storeFrac = 0.05,
                   .branchFrac = 0.16, .fpFrac = 0.0, .callFrac = 0.05,
                   .loopLength = 14, .loopIterations = 16,
                   .branchBias = 0.7, .branchNoise = 0.12, .codeLoops = 2,
                   .dataFootprint = 8 * MB, .chaseFrac = 0.45,
                   .depWindow = 5}},
        73);

    add("tsp", "Olden",
        {PhaseSpec{.loadFrac = 0.27, .storeFrac = 0.09,
                   .branchFrac = 0.15, .fpFrac = 0.16, .fpMultShare = 0.45,
                   .loopLength = 34, .loopIterations = 64,
                   .branchNoise = 0.22, .codeLoops = 5,
                   .dataFootprint = 3 * MB, .chaseFrac = 0.45,
                   .depWindow = 7}},
        79);

    add("voronoi", "Olden",
        {PhaseSpec{.loadFrac = 0.26, .storeFrac = 0.11,
                   .branchFrac = 0.16, .fpFrac = 0.20, .fpMultShare = 0.5,
                   .callFrac = 0.015,
                   .loopLength = 38, .loopIterations = 28,
                   .branchNoise = 0.25, .codeLoops = 7,
                   .dataFootprint = 3 * MB, .chaseFrac = 0.4,
                   .depWindow = 7}},
        83);

    // ------------------------------------------------------------------
    // SPEC2000 integer
    // ------------------------------------------------------------------
    add("bzip2", "Spec2000",
        {PhaseSpec{.weight = 0.55, .loadFrac = 0.26, .storeFrac = 0.10,
                   .branchFrac = 0.15, .fpFrac = 0.0,
                   .loopLength = 30, .loopIterations = 90,
                   .branchNoise = 0.30, .codeLoops = 5,
                   .dataFootprint = 4 * MB, .depWindow = 7},
         PhaseSpec{.weight = 0.45, .loadFrac = 0.22, .storeFrac = 0.14,
                   .branchFrac = 0.17, .fpFrac = 0.0,
                   .loopLength = 22, .loopIterations = 140,
                   .branchNoise = 0.22, .codeLoops = 4,
                   .dataFootprint = 2 * MB, .depWindow = 6}},
        89);

    // gcc 2.0-2.1B window: large I-footprint, 99 % branch accuracy.
    add("gcc", "Spec2000",
        {PhaseSpec{.loadFrac = 0.30, .storeFrac = 0.13,
                   .branchFrac = 0.18, .fpFrac = 0.0, .callFrac = 0.015,
                   .loopLength = 120, .loopIterations = 10,
                   .branchBias = 0.8, .branchNoise = 0.02, .codeLoops = 40,
                   .dataFootprint = 8 * MB, .chaseFrac = 0.3,
                   .depWindow = 7}},
        97);

    add("gzip", "Spec2000",
        {PhaseSpec{.loadFrac = 0.24, .storeFrac = 0.10,
                   .branchFrac = 0.16, .fpFrac = 0.0,
                   .loopLength = 26, .loopIterations = 180,
                   .branchNoise = 0.20, .codeLoops = 4,
                   .dataFootprint = 1 * MB, .depWindow = 7}},
        101);

    // mcf: the extreme memory-bound pointer chaser; 84 % branch accuracy.
    add("mcf", "Spec2000",
        {PhaseSpec{.loadFrac = 0.34, .storeFrac = 0.09,
                   .branchFrac = 0.17, .fpFrac = 0.0,
                   .loopLength = 24, .loopIterations = 260,
                   .branchNoise = 0.45, .codeLoops = 3,
                   .dataFootprint = 16 * MB, .chaseFrac = 0.55,
                   .depWindow = 5}},
        103);

    add("parser", "Spec2000",
        {PhaseSpec{.loadFrac = 0.28, .storeFrac = 0.12,
                   .branchFrac = 0.19, .fpFrac = 0.0, .callFrac = 0.02,
                   .loopLength = 34, .loopIterations = 20,
                   .branchNoise = 0.30, .codeLoops = 14,
                   .dataFootprint = 6 * MB, .chaseFrac = 0.45,
                   .depWindow = 5}},
        107);

    add("vortex", "Spec2000",
        {PhaseSpec{.loadFrac = 0.29, .storeFrac = 0.16,
                   .branchFrac = 0.16, .fpFrac = 0.0, .callFrac = 0.025,
                   .loopLength = 64, .loopIterations = 14,
                   .branchBias = 0.8, .branchNoise = 0.08, .codeLoops = 24,
                   .dataFootprint = 4 * MB, .chaseFrac = 0.3,
                   .depWindow = 7}},
        109);

    add("vpr", "Spec2000",
        {PhaseSpec{.loadFrac = 0.26, .storeFrac = 0.10,
                   .branchFrac = 0.16, .fpFrac = 0.06,
                   .loopLength = 30, .loopIterations = 44,
                   .branchNoise = 0.28, .codeLoops = 7,
                   .dataFootprint = 2 * MB, .chaseFrac = 0.35,
                   .depWindow = 6}},
        113);

    // ------------------------------------------------------------------
    // SPEC2000 floating point
    // ------------------------------------------------------------------
    add("art", "Spec2000",
        {PhaseSpec{.loadFrac = 0.30, .storeFrac = 0.07,
                   .branchFrac = 0.08, .fpFrac = 0.30, .fpMultShare = 0.5,
                   .loopLength = 64, .loopIterations = 400,
                   .branchNoise = 0.04, .codeLoops = 3,
                   .dataFootprint = 16 * MB, .strideBytes = 8,
                   .depWindow = 14}},
        127);

    add("equake", "Spec2000",
        {PhaseSpec{.loadFrac = 0.32, .storeFrac = 0.09,
                   .branchFrac = 0.08, .fpFrac = 0.33, .fpMultShare = 0.55,
                   .loopLength = 72, .loopIterations = 250,
                   .branchNoise = 0.05, .codeLoops = 4,
                   .dataFootprint = 20 * MB, .chaseFrac = 0.25,
                   .depWindow = 12}},
        131);

    add("mesa_spec", "Spec2000",
        {PhaseSpec{.loadFrac = 0.25, .storeFrac = 0.12,
                   .branchFrac = 0.10, .fpFrac = 0.26, .fpMultShare = 0.45,
                   .loopLength = 58, .loopIterations = 110,
                   .branchNoise = 0.08, .codeLoops = 8,
                   .dataFootprint = 2 * MB, .depWindow = 12}},
        137);

    add("swim", "Spec2000",
        {PhaseSpec{.loadFrac = 0.33, .storeFrac = 0.11,
                   .branchFrac = 0.03, .fpFrac = 0.42, .fpMultShare = 0.5,
                   .loopLength = 160, .loopIterations = 500,
                   .branchNoise = 0.01, .codeLoops = 3,
                   .dataFootprint = 32 * MB, .strideBytes = 8,
                   .depWindow = 18}},
        139);

    return table;
}

const std::map<std::string, BenchmarkSpec> &
table()
{
    static const std::map<std::string, BenchmarkSpec> t = buildTable();
    return t;
}

} // namespace

const std::vector<std::string> &
BenchmarkFactory::allNames()
{
    // Figure 4 x-axis order.
    static const std::vector<std::string> names = {
        "adpcm", "epic", "jpeg", "g721", "gsm", "ghostscript", "mesa",
        "mpeg2", "pegwit",
        "bh", "bisort", "em3d", "health", "mst", "perimeter", "power",
        "treeadd", "tsp", "voronoi",
        "art", "bzip2", "equake", "gcc", "gzip", "mcf", "mesa_spec",
        "parser", "swim", "vortex", "vpr",
    };
    return names;
}

std::vector<std::string>
BenchmarkFactory::suiteNames(const std::string &suite)
{
    std::vector<std::string> names;
    ScenarioRegistry &registry = ScenarioRegistry::instance();
    for (const auto &name : registry.scenarioNames()) {
        if (registry.spec(name).suite == suite)
            names.push_back(name);
    }
    return names;
}

BenchmarkSpec
BenchmarkFactory::spec(const std::string &name)
{
    return ScenarioRegistry::instance().spec(name);
}

BenchmarkSpec
BenchmarkFactory::paperSpec(const std::string &name)
{
    auto it = table().find(name);
    if (it == table().end())
        mcd_fatal("unknown benchmark '%s'", name.c_str());
    return it->second;
}

std::unique_ptr<WorkloadGenerator>
BenchmarkFactory::create(const std::string &name, std::uint64_t horizon)
{
    return std::make_unique<SyntheticProgram>(spec(name), horizon);
}

} // namespace mcd
