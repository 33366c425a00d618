#include "workload/scenario_registry.hh"

#include <cmath>
#include <cstdlib>
#include <mutex>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/serial.hh"
#include "workload/benchmark_factory.hh"

namespace mcd
{

namespace
{

std::mutex registry_mutex;

double
knobOr(const std::map<std::string, double> &knobs, const char *key,
       double fallback)
{
    auto it = knobs.find(key);
    return it == knobs.end() ? fallback : it->second;
}

double
requireRange(const std::string &name, const char *key, double v,
             double lo, double hi)
{
    if (v < lo || v > hi)
        mcd_fatal("%s: knob '%s'=%g outside [%g, %g]", name.c_str(),
                  key, v, lo, hi);
    return v;
}

std::map<std::string, double>
parseKnobs(const std::string &name, const std::string &text,
           const std::vector<std::string> &allowed)
{
    std::map<std::string, double> knobs;
    std::size_t pos = 0;
    while (pos < text.size()) {
        auto comma = text.find(',', pos);
        std::string item = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? text.size() : comma + 1;
        if (item.empty())
            continue;
        auto eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            mcd_fatal("%s: knob '%s' is not key=value", name.c_str(),
                      item.c_str());
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);
        bool known = false;
        for (const auto &a : allowed)
            known = known || a == key;
        if (!known) {
            std::string valid;
            for (const auto &a : allowed)
                valid += (valid.empty() ? "" : ", ") + a;
            mcd_fatal("%s: unknown knob '%s' (valid knobs: %s)",
                      name.c_str(), key.c_str(), valid.c_str());
        }
        char *end = nullptr;
        double v = std::strtod(value.c_str(), &end);
        if (value.empty() || end != value.c_str() + value.size())
            mcd_fatal("%s: knob '%s'='%s' is not a number",
                      name.c_str(), key.c_str(), value.c_str());
        knobs[key] = v;
    }
    return knobs;
}

/**
 * The parametric synthetic family (see the header comment for knob
 * semantics). With phases=N the program alternates N phases around the
 * requested memory-boundedness (+/- 0.3, clamped), giving the
 * controller a genuine phase structure to track; the phase period is
 * horizon/N. With burst=B > 0 the program instead alternates N
 * busy/idle pairs: each period spends share B in an io-like idle
 * phase — serial pointer-chasing over a footprint far beyond L2, so
 * the core mostly waits — before the busy mix (at the requested `mem`)
 * resumes, the abrupt activity swings that stress a controller's
 * attack and decay paths.
 *
 * The adversarial knobs are regime-switching stressors for the
 * controller stress lab (src/eval/):
 *  - markov=N: a seeded Markov chain over three regimes (compute,
 *    mixed at `mem`, memory-bound), N segments per run. Sticky
 *    transitions reward a controller that settles, abrupt regime
 *    switches punish one that only decays.
 *  - square=P: a two-regime square wave with an *absolute* flip
 *    period of P instructions (spec.periodInstructions), so the flip
 *    rate can be pinned near the Attack/Decay reaction window
 *    independent of the measured window size.
 *  - drift=D: a monotonic memory-boundedness ramp spanning D around
 *    `mem` in 48 equal steps over the whole run; each step is small
 *    enough that the relative utilization change stays below the
 *    deviation threshold, starving the attack path.
 */
BenchmarkSpec
buildSynthetic(const std::string &name)
{
    const std::string prefix = "synthetic:";
    std::string text = name.substr(prefix.size());
    auto knobs = parseKnobs(
        name, text,
        {"mem", "ilp", "phases", "burst", "markov", "square", "drift",
         "fp", "branch", "seed"});

    double mem =
        requireRange(name, "mem", knobOr(knobs, "mem", 0.3), 0.0, 1.0);
    int ilp = static_cast<int>(requireRange(
        name, "ilp", knobOr(knobs, "ilp", 8.0), 1.0, 64.0));
    int phases = static_cast<int>(requireRange(
        name, "phases", knobOr(knobs, "phases", 1.0), 1.0, 64.0));
    double burst = requireRange(name, "burst",
                                knobOr(knobs, "burst", 0.0), 0.0, 1.0);
    // The adversarial count/period knobs are integers; a fractional
    // value would truncate — markov=0.5 to 0, silently disabling the
    // stressor — so reject it instead.
    auto requireWhole = [&](const char *key, double v) {
        if (v != std::floor(v))
            mcd_fatal("%s: knob '%s'=%g must be a whole number",
                      name.c_str(), key, v);
        return v;
    };
    int markov = static_cast<int>(requireWhole(
        "markov", requireRange(name, "markov",
                               knobOr(knobs, "markov", 0.0), 0.0,
                               256.0)));
    if (markov == 1)
        mcd_fatal("%s: knob 'markov' needs at least 2 segments",
                  name.c_str());
    double square_v = requireRange(
        name, "square", knobOr(knobs, "square", 0.0), 0.0, 1.0e7);
    if (square_v > 0.0 && square_v < 500.0)
        mcd_fatal("%s: knob 'square'=%g below the 500-instruction "
                  "minimum half-period", name.c_str(), square_v);
    std::uint64_t square =
        static_cast<std::uint64_t>(requireWhole("square", square_v));
    double drift = requireRange(name, "drift",
                                knobOr(knobs, "drift", 0.0), 0.0, 1.0);
    double fp =
        requireRange(name, "fp", knobOr(knobs, "fp", 0.0), 0.0, 1.0);
    double branch = requireRange(name, "branch",
                                 knobOr(knobs, "branch", 0.25), 0.0,
                                 1.0);
    std::uint64_t seed = static_cast<std::uint64_t>(
        knobOr(knobs, "seed",
               static_cast<double>(serial::fnv1a(name) % 100000)));

    int adversarial = (markov > 0) + (square > 0) + (drift > 0.0);
    if (adversarial > 1 ||
        (adversarial == 1 && (burst > 0.0 || phases > 1)))
        mcd_fatal("%s: knobs markov/square/drift are mutually "
                  "exclusive, and exclusive with burst and phases",
                  name.c_str());

    auto makePhase = [&](double m, int dep) {
        PhaseSpec phase;
        phase.loadFrac = 0.16 + 0.20 * m;
        phase.storeFrac = 0.08;
        phase.branchFrac = 0.14;
        phase.fpFrac = fp * 0.4;
        phase.branchNoise = branch;
        phase.depWindow = dep;
        phase.chaseFrac = 0.6 * m;
        // Geometric footprint sweep, 16 KB (cache-resident) to 24 MB
        // (far beyond L2): the knob moves the scenario from compute-
        // bound to memory-bound.
        phase.dataFootprint = static_cast<std::uint64_t>(
            16.0 * 1024.0 * std::pow(24.0 * 1024.0 / 16.0, m));
        phase.loopLength = 24 + dep;
        phase.loopIterations = 64;
        phase.codeLoops = 4;
        return phase;
    };

    // The io-like idle phase burst > 0 interleaves: every load is a
    // serial pointer chase over a footprint far beyond L2, with no
    // exploitable ILP, so the core sits nearly idle waiting on main
    // memory — the synthetic stand-in for a thread blocked on io.
    auto makeIdlePhase = [&] {
        PhaseSpec idle;
        idle.loadFrac = 0.50;
        idle.storeFrac = 0.02;
        idle.branchFrac = 0.06;
        idle.fpFrac = 0.0;
        idle.branchNoise = 0.1;
        idle.depWindow = 1;
        idle.chaseFrac = 1.0;
        idle.dataFootprint = 24 * 1024 * 1024;
        idle.loopLength = 16;
        idle.loopIterations = 128;
        idle.codeLoops = 1;
        return idle;
    };

    BenchmarkSpec spec;
    spec.name = name;
    spec.suite = "synthetic";
    spec.seed = seed;
    if (markov > 0) {
        // Seeded Markov chain over three regimes: compute-bound (low
        // mem, deep ILP), the requested mix, and memory-bound (high
        // mem, serial). Sticky self-transitions (p = 0.55) make
        // regimes dwell a few segments; switches jump anywhere.
        struct Regime { double m; int dep; };
        const Regime regimes[3] = {
            {std::max(0.0, mem - 0.45), std::min(64, ilp * 4)},
            {mem, ilp},
            {std::min(1.0, mem + 0.45), std::max(1, ilp / 4)},
        };
        Rng rng(seed ^ 0x6d61726b6f766bull); // decoupled from the
                                             // instruction stream RNG
        int state = 1;
        for (int i = 0; i < markov; ++i) {
            PhaseSpec phase = makePhase(regimes[state].m,
                                        regimes[state].dep);
            phase.weight = 1.0 / markov;
            spec.phases.push_back(phase);
            if (!rng.chance(0.55)) {
                int other = static_cast<int>(rng.range(2));
                state = other >= state ? other + 1 : other;
            }
        }
    } else if (square > 0) {
        // Two-regime square wave with an absolute half-period of
        // `square` instructions: the flip rate stays pinned to the
        // controller's reaction window at any measured window size.
        // Short loop visits (phase switches only happen at region
        // jumps) keep the realized flips within a fraction of the
        // requested period instead of quantizing to multi-thousand-
        // instruction loop visits.
        PhaseSpec lo = makePhase(std::max(0.0, mem - 0.45),
                                 std::min(64, ilp * 4));
        lo.weight = 0.5;
        lo.loopIterations = 8;
        PhaseSpec hi = makePhase(std::min(1.0, mem + 0.45),
                                 std::max(1, ilp / 4));
        hi.weight = 0.5;
        hi.loopIterations = 8;
        spec.phases.push_back(lo);
        spec.phases.push_back(hi);
        spec.periodInstructions = 2 * square;
    } else if (drift > 0.0) {
        // Monotonic ramp in 48 equal steps spanning `drift` around
        // `mem`: adjacent steps move memory-boundedness by drift/47,
        // a relative utilization change small enough to stay under
        // the Attack/Decay deviation threshold.
        constexpr int STEPS = 48;
        double lo = std::max(0.0, mem - drift / 2.0);
        double hi = std::min(1.0, mem + drift / 2.0);
        for (int i = 0; i < STEPS; ++i) {
            double m = lo + (hi - lo) * static_cast<double>(i) /
                                static_cast<double>(STEPS - 1);
            PhaseSpec phase = makePhase(m, ilp);
            phase.weight = 1.0 / STEPS;
            spec.phases.push_back(phase);
        }
    } else if (burst > 0.0) {
        // N busy/idle pairs; each period is horizon/phases with share
        // `burst` of it idle. Zero busy weight (burst = 1) is legal:
        // the generator skips zero-length phases.
        for (int i = 0; i < phases; ++i) {
            PhaseSpec busy = makePhase(mem, ilp);
            busy.weight = (1.0 - burst) / phases;
            spec.phases.push_back(busy);
            PhaseSpec idle = makeIdlePhase();
            idle.weight = burst / phases;
            spec.phases.push_back(idle);
        }
    } else if (phases == 1) {
        spec.phases.push_back(makePhase(mem, ilp));
    } else {
        for (int i = 0; i < phases; ++i) {
            double m = i % 2 == 0 ? std::min(1.0, mem + 0.3)
                                  : std::max(0.0, mem - 0.3);
            PhaseSpec phase = makePhase(m, ilp);
            phase.weight = 1.0 / phases;
            spec.phases.push_back(phase);
        }
    }
    return spec;
}

} // namespace

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry *registry = [] {
        auto *r = new ScenarioRegistry();
        // The paper's 30 applications, in Figure 4 order.
        for (const auto &name : BenchmarkFactory::allNames())
            r->add(BenchmarkFactory::paperSpec(name));
        r->addFamily(
            "synthetic:",
            "parametric workload; adversarial regime-switching knobs "
            "(markov/square/drift) stress the online controller",
            buildSynthetic,
            {{"mem", "[0..1] memory-boundedness: load fraction, "
                     "footprint (16 KB..24 MB), pointer-chase share "
                     "(default 0.3)"},
             {"ilp", "[1..64] dependence window; bigger = more ILP "
                     "(default 8)"},
             {"phases", "[1..64] alternating busy/memory phases over "
                        "the run (default 1)"},
             {"burst", "[0..1] share of each phase period spent in an "
                       "io-like idle phase (default 0)"},
             {"markov", "[2..256] adversarial: seeded Markov chain "
                        "over compute/mixed/memory regimes, that many "
                        "segments (default off)"},
             {"square", "[500..1e7] adversarial: compute<->memory "
                        "square wave, flipping every `square` "
                        "instructions (default off)"},
             {"drift", "(0..1] adversarial: slow monotonic memory-"
                       "boundedness ramp spanning `drift` around "
                       "`mem` (default off)"},
             {"fp", "[0..1] floating-point fraction (default 0)"},
             {"branch", "[0..1] data-branch unpredictability "
                        "(default 0.25)"},
             {"seed", "integer workload RNG seed (default: hashed "
                      "from the scenario name)"}});
        return r;
    }();
    return *registry;
}

void
ScenarioRegistry::add(BenchmarkSpec spec)
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    if (fixed_.count(spec.name))
        mcd_fatal("scenario '%s' registered twice", spec.name.c_str());
    order_.push_back(spec.name);
    fixed_[spec.name] = std::move(spec);
}

void
ScenarioRegistry::addFamily(const std::string &prefix,
                            const std::string &description, FamilyFn fn,
                            std::vector<KnobInfo> knobs)
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    for (const auto &family : families_)
        if (family.info.prefix == prefix)
            mcd_fatal("scenario family '%s' registered twice",
                      prefix.c_str());
    families_.push_back(Family{
        FamilyInfo{prefix, description, std::move(knobs)},
        std::move(fn)});
}

bool
ScenarioRegistry::contains(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    if (fixed_.count(name))
        return true;
    for (const auto &family : families_)
        if (name.rfind(family.info.prefix, 0) == 0)
            return true;
    return false;
}

BenchmarkSpec
ScenarioRegistry::spec(const std::string &name) const
{
    FamilyFn fn;
    {
        std::lock_guard<std::mutex> lock(registry_mutex);
        auto it = fixed_.find(name);
        if (it != fixed_.end())
            return it->second;
        for (const auto &family : families_) {
            if (name.rfind(family.info.prefix, 0) == 0) {
                fn = family.fn;
                break;
            }
        }
    }
    if (!fn)
        mcd_fatal("unknown scenario '%s' (mcd_cli list shows "
                  "registered names)", name.c_str());
    return fn(name);
}

std::vector<std::string>
ScenarioRegistry::scenarioNames() const
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    return order_;
}

std::vector<ScenarioRegistry::FamilyInfo>
ScenarioRegistry::families() const
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    std::vector<FamilyInfo> infos;
    for (const auto &family : families_)
        infos.push_back(family.info);
    return infos;
}

} // namespace mcd
