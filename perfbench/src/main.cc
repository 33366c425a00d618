/**
 * @file
 * mcd_perfbench: the repository benchmark's measuring program. It
 * links libmcd, runs one workload for a time budget as repeated rounds
 * of fixed work (each round on a cleared cache), checks every result,
 * and writes one JSON document to `--out`. `perfbench/run.py` builds
 * it, launches it, compares digests and prints the benchmark's result
 * line; nothing is read from this program's stdout, which the library
 * logs to.
 *
 *   mcd_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --out FILE [--spans FILE] [--setup-only]
 *                 [--probe-refusal]
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   sim_membound   health, mst, treeadd, mcf, em3d; uncontrolled and
 *                  under attack_decay; serial runExperiments calls
 *   sim_compute    adpcm, g721, gsm, jpeg, pegwit, power; same shape
 *   figure_table6  Table 6 rows (bench::computeOne) fanned across half
 *                  the cores, as bench::computeAll does
 *
 * Times are reported at nominal host speed: host-gauge slices (see
 * gauge.hh) run between a round's units and give the host's slowdown
 * over the round, and the round's host time is divided by it.
 *
 * `--trace 1` splits the budget: untraced rounds, then rounds with the
 * phase profiler on and spans recorded, then layer probes, among them
 * a serve probe that serves the workload's specs through an in-process
 * daemon. `--probe-refusal` adds one request to the serve probe that
 * the daemon must refuse (a self-test that refusals count as failed).
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "gauge.hh"
#include "common/json.hh"
#include "common/serial.hh"
#include "control/attack_decay.hh"
#include "harness/artifact.hh"
#include "harness/parallel_sweep.hh"
#include "probes.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "spans.hh"
#include "telemetry/profiler.hh"
#include "workload/benchmark_factory.hh"

namespace perfbench
{
namespace
{

using namespace mcd;
namespace fs = std::filesystem;

/** Process start as the program sees it: taken before the library's
 *  static registries are built, so set-up time includes them. */
std::uint64_t g_start = 0;

__attribute__((constructor(101))) void
markStart()
{
    g_start = nowNs();
}

// ------------------------------------------------------------ helpers

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One field of /proc/self/status, in its own unit (kB, count). */
std::uint64_t
procStatus(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    std::size_t len = std::strlen(field);
    while (std::getline(in, line))
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':')
            return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    return 0;
}

/** The benchmark seed's clock-seed base; every unit derives its own
 *  clock seed from it, so a new seed changes inputs, not work. */
std::uint64_t
clockBase(std::uint64_t seed)
{
    return deriveJobSeed(RunnerConfig{}.clockSeed, seed);
}

std::string
statsDigest(const SimStats &s)
{
    return hex(serial::fnv1a(encodeArtifact(s)));
}

RunnerConfig
window(std::uint64_t insns, std::uint64_t warmup, int interval)
{
    RunnerConfig c;
    c.instructions = insns;
    c.warmup = warmup;
    c.intervalInstructions = interval;
    return c;
}

// ------------------------------------------------------------ rounds

/** Everything one round of fixed work produced. */
struct Round
{
    double wallS = 0.0;               //!< at nominal host speed
    double hostWallS = 0.0;           //!< as the host ran it
    double slowdown = 1.0;            //!< the gauge's, over the round
    std::uint64_t gaugeNs = 0;        //!< gauge time on the critical path
    std::vector<std::string> digests; //!< one per checked unit
    std::uint64_t ops = 0;            //!< top-level operations
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::uint64_t simInsns = 0;       //!< simulator-stepped insns
    std::uint64_t feCycles = 0;       //!< reported measured windows
    std::vector<double> latMs;        //!< per served request
    std::uint64_t lookups = 0, hits = 0, sims = 0, joins = 0;
    std::uint64_t coldUnits = 0, warmUnits = 0, rejected = 0;
    std::uint64_t diskBytes = 0;
    std::uint64_t root = 0;           //!< root span id (traced)
    int workers = 1;
};

void
fail(Round &r, const std::string &why)
{
    ++r.failed;
    if (r.failures.size() < 8)
        r.failures.push_back(why);
}

void
takeCacheCounters(Round &r, const ArtifactCache &cache)
{
    r.lookups = cache.lookups();
    r.hits = cache.hits();
    r.sims = cache.simulationsRun();
}

/** Counts a failure in `r` unless `got` matches `want` bit for bit. */
void
expectSame(Round &r, const SimStats &got, const SimStats &want,
           const std::string &what)
{
    if (encodeArtifact(got) != encodeArtifact(want))
        fail(r, what + " differs from a direct Simulator run");
}

/** A workload: per-round preparation (untimed), the timed fixed work,
 *  and the spec list the traced run's core probe replays. The timed
 *  work runs host-gauge slices between its units, on the threads that
 *  run them, and adds the ones on its critical path to `gaugeNs`. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Fresh state for one round. */
    virtual void prepare() = 0;
    /** The timed fixed work. */
    virtual void run(Round &r, SpanLog &log, HostGauge &gauge) = 0;
    /** Untimed counter collection. */
    virtual void finish(Round &r) = 0;
    /** Checks the last round's results against direct simulator runs,
     *  which bypass the harness, for any seed; failures land in
     *  `checks`. Returns the checks attempted. (run.py checks that
     *  every round repeats the others digest for digest.) */
    virtual std::uint64_t verify(Round &checks) = 0;
    virtual std::vector<ExperimentSpec> probeSpecs() const = 0;
    virtual std::vector<std::string> apps() const = 0;
    virtual std::uint64_t horizon() const = 0;
};

// ---- sim_membound / sim_compute: serial harness resolutions.

class SimWorkload : public Workload
{
  public:
    SimWorkload(std::vector<std::string> apps, RunnerConfig config,
                std::uint64_t seed)
        : apps_(std::move(apps)), config_(config)
    {
        ControllerSpec ad = attackDecaySpec(scaledAttackDecayConfig());
        for (std::size_t i = 0; i < apps_.size(); ++i) {
            RunnerConfig c = config_;
            c.clockSeed = deriveJobSeed(clockBase(seed), i);
            c.jobs = 1;
            for (const ControllerSpec &ctl : {ControllerSpec{}, ad}) {
                ExperimentSpec spec;
                spec.benchmark = apps_[i];
                spec.controller = ctl;
                spec.config = c;
                specs_.push_back(spec);
            }
        }
    }

    void prepare() override { ArtifactCache::instance().clear(); }

    void run(Round &r, SpanLog &log, HostGauge &gauge) override
    {
        results_.clear();
        for (const ExperimentSpec &spec : specs_) {
            r.gaugeNs += gauge.slice();
            ScopedSpan span(log, "harness.runExperiments", r.root);
            SimStats s = runExperiments({spec}, 1).front();
            r.digests.push_back(statsDigest(s));
            r.feCycles += s.feCycles;
            ++r.ops;
            results_.push_back(s);
        }
        r.gaugeNs += gauge.slice();
    }

    void finish(Round &r) override
    {
        const ArtifactCache &cache = ArtifactCache::instance();
        r.simInsns = cache.simulatedInstructions();
        takeCacheCounters(r, cache);
    }

    std::uint64_t verify(Round &checks) override
    {
        for (std::size_t i = 0; i < specs_.size(); ++i)
            expectSame(checks, results_[i], simulateDirect(specs_[i]),
                       specs_[i].benchmark + "/" +
                           specs_[i].controller.name);
        return specs_.size();
    }

    std::vector<ExperimentSpec> probeSpecs() const override
    {
        std::vector<ExperimentSpec> out;
        for (const ExperimentSpec &s : specs_)
            if (s.controller.name == ControllerSpec{}.name)
                out.push_back(s);
        return out;
    }
    std::vector<std::string> apps() const override { return apps_; }
    std::uint64_t horizon() const override
    {
        return config_.instructions + config_.warmup;
    }

  private:
    std::vector<std::string> apps_;
    RunnerConfig config_;
    std::vector<ExperimentSpec> specs_;
    std::vector<SimStats> results_; //!< the last round's, per spec
};

// ---- figure_table6: the Table 6 rows across one worker per core.

class Table6Workload : public Workload
{
  public:
    Table6Workload(std::vector<std::string> apps, RunnerConfig config,
                   std::uint64_t seed, int jobs)
        : apps_(std::move(apps)), config_(config)
    {
        config_.clockSeed = clockBase(seed);
        config_.jobs = jobs;
    }

    void prepare() override { ArtifactCache::instance().clear(); }

    void run(Round &r, SpanLog &log, HostGauge &gauge) override
    {
        // bench::computeAll's fan-out, repeated here because computeAll
        // has no hook around a row: the span per row is what shows
        // worker busy time and the straggler tail, and the gauge slices
        // around each row sample the speed of the workers' own cores.
        // The slices stay in the round's time (about 1% of it).
        ParallelSweep sweep(config_.jobs);
        r.workers = sweep.workers();
        rows_ = sweep.map<bench::BenchResults>(
            apps_.size(), [&](std::size_t i) {
                gauge.slice();
                bench::BenchResults row;
                {
                    ScopedSpan span(log, "table6.computeOne", r.root);
                    Runner local(rowConfig(i));
                    row = bench::computeOne(local, apps_[i],
                                            bench::ComputeOptions{});
                }
                gauge.slice();
                return row;
            });
        for (const bench::BenchResults &row : rows_) {
            std::string blob = encodeArtifact(row.sync) +
                               encodeArtifact(row.mcdBase) +
                               encodeArtifact(row.attackDecay) +
                               encodeArtifact(row.dynamic1) +
                               encodeArtifact(row.dynamic5);
            std::uint64_t fe = row.sync.feCycles + row.mcdBase.feCycles +
                               row.attackDecay.feCycles +
                               row.dynamic1.stats.feCycles +
                               row.dynamic5.stats.feCycles;
            for (const auto *g :
                 {&row.globalAd, &row.globalDyn1, &row.globalDyn5}) {
                if (!g->has_value()) {
                    fail(r, row.name + ": missing global row");
                    continue;
                }
                blob += encodeArtifact(**g);
                fe += (*g)->stats.feCycles;
            }
            r.digests.push_back(hex(serial::fnv1a(blob)));
            r.feCycles += fe;
            ++r.ops;
        }
    }

    void finish(Round &r) override
    {
        const ArtifactCache &cache = ArtifactCache::instance();
        r.simInsns = cache.simulatedInstructions();
        takeCacheCounters(r, cache);
    }

    /** The rows' plain runs (MCD baseline, synchronous, Attack/Decay)
     *  against direct runs of the specs bench::computeOne resolves. */
    std::uint64_t verify(Round &checks) override
    {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const bench::BenchResults &row = rows_[i];
            RunnerConfig c = rowConfig(i);
            ProfileSpec base;
            base.benchmark = apps_[i];
            base.config = c;
            expectSame(checks, row.mcdBase,
                       simulateDirect(base.experimentSpec()),
                       row.name + " baseline");
            expectSame(checks, row.sync,
                       simulateDirect(bench::makeSpec(
                           c, apps_[i], ControllerSpec{},
                           ClockMode::Synchronous, c.dvfs.freqMax)),
                       row.name + " synchronous");
            expectSame(checks, row.attackDecay,
                       simulateDirect(bench::makeSpec(
                           c, apps_[i],
                           attackDecaySpec(bench::scaledAttackDecay()))),
                       row.name + " attack_decay");
            n += 3;
        }
        return n;
    }

    std::vector<ExperimentSpec> probeSpecs() const override
    {
        std::vector<ExperimentSpec> out;
        for (std::size_t i = 0; i < apps_.size(); ++i) {
            ExperimentSpec spec;
            spec.benchmark = apps_[i];
            spec.config = rowConfig(i);
            out.push_back(spec);
        }
        return out;
    }
    std::vector<std::string> apps() const override { return apps_; }
    std::uint64_t horizon() const override
    {
        return config_.instructions + config_.warmup;
    }

  private:
    /** Row `i`'s runner config, as bench::computeAll derives it. */
    RunnerConfig rowConfig(std::size_t i) const
    {
        RunnerConfig c = bench::benchmarkConfig(config_, i);
        c.jobs = 1;
        return c;
    }

    std::vector<std::string> apps_;
    RunnerConfig config_;
    std::vector<bench::BenchResults> rows_; //!< the last round's
};

// ---- the serve probe: a private daemon, two closed-loop clients.

/** One `run` request: units sharing a controller and clock seed. */
struct ServeRequest
{
    std::vector<std::string> benches;
    std::uint64_t clockSeed = 0;
    bool expectRefusal = false;
    std::string text;             //!< the request frame
};

constexpr int SERVE_WORKERS = 2;

/** The protocol carries numbers as JSON doubles, so a served clock
 *  seed must stay below 2^53 to arrive exact. */
std::uint64_t
servedSeed(std::uint64_t seed)
{
    return seed >> 16;
}

/**
 * The serve probe's stream: every spec once cold, then seven times
 * warm, so even five specs give 40 requests and a p75 latency tail
 * with ten samples beyond it. With `refusal`, one request wider than
 * the admission bound (4 units per worker) that the daemon must refuse
 * as `overloaded`.
 */
std::vector<ServeRequest>
probeRequests(const std::vector<ExperimentSpec> &specs, bool refusal)
{
    std::vector<ServeRequest> requests;
    for (int pass = 0; pass < 8; ++pass) {
        for (const ExperimentSpec &spec : specs) {
            ServeRequest req;
            req.benches = {spec.benchmark};
            req.clockSeed = servedSeed(spec.config.clockSeed);
            requests.push_back(std::move(req));
        }
    }
    if (refusal) {
        ServeRequest wide;
        for (int i = 0; i < 4 * SERVE_WORKERS + 1; ++i)
            wide.benches.push_back(specs[i % specs.size()].benchmark);
        wide.clockSeed = requests.front().clockSeed;
        wide.expectRefusal = true;
        requests.push_back(std::move(wide));
    }
    for (ServeRequest &req : requests) {
        req.text = "{\"op\": \"run\", \"benches\": [";
        for (std::size_t i = 0; i < req.benches.size(); ++i)
            req.text += (i ? ", " : "") + json::str(req.benches[i]);
        req.text += "], \"seed\": " + json::u64(req.clockSeed) + "}";
    }
    return requests;
}

/**
 * Serves the workload's specs through an in-process serve::Server on a
 * private ArtifactCache with a DiskStore in a fresh directory, driven
 * by two ServeClient connections in a closed loop. Error frames and
 * refusals count as failed, and a sample of served payloads must equal
 * the same specs resolved in-process on a cache of their own.
 */
class ServeProbe
{
  public:
    static constexpr int CLIENTS = 2;
    static constexpr int SAMPLE_CHECKS = 8;

    ServeProbe(RunnerConfig config, std::uint64_t seed,
               std::vector<ServeRequest> requests)
        : config_(config), seed_(seed), requests_(std::move(requests))
    {
    }

    ~ServeProbe() { stopDaemon(); }

    /** One pass over the stream; counters and checks land in `r`. */
    void serve(Round &r, SpanLog &log)
    {
        start();
        run(r, log);
        collect(r);
        stopDaemon();
        verify(r);
    }

  private:
    void start()
    {
        store_ = "serve_store";
        fs::remove_all(store_);
        cache_ = std::make_unique<ArtifactCache>();
        serve::ServeOptions options;
        options.socketPath = "serve.sock";
        options.workers = SERVE_WORKERS;
        options.config = config_;
        options.config.store = store_;
        options.cache = cache_.get();
        server_ = std::make_unique<serve::Server>(options);
        daemon_ = std::thread([this] { server_->run(); });
        for (int c = 0; c < CLIENTS; ++c) {
            auto client = std::make_unique<serve::ServeClient>();
            std::string error;
            if (!client->connect(options.socketPath, &error))
                mcd_fatal("perfbench: cannot connect: %s",
                          error.c_str());
            json::Value pong;
            if (!client->call("{\"op\": \"ping\"}", nullptr, pong,
                              &error))
                mcd_fatal("perfbench: ping failed: %s", error.c_str());
            clients_.push_back(std::move(client));
        }
    }

    void run(Round &r, SpanLog &log)
    {
        r.workers = CLIENTS;
        payloads_.assign(requests_.size(), {});
        std::vector<double> lat(requests_.size(), -1.0);
        std::vector<std::string> errors(requests_.size());
        std::atomic<std::size_t> next{0};
        auto loop = [&](serve::ServeClient &client) {
            for (std::size_t i = next.fetch_add(1); i < requests_.size();
                 i = next.fetch_add(1)) {
                const ServeRequest &req = requests_[i];
                std::vector<std::string> &out = payloads_[i];
                out.assign(req.benches.size(), {});
                json::Value terminal;
                std::string error;
                std::uint64_t t0 = nowNs();
                bool ok;
                {
                    ScopedSpan span(log, "serve.ServeClient::call",
                                    r.root);
                    ok = client.call(
                        req.text,
                        [&](const json::Value &event) {
                            std::uint64_t idx =
                                event.getU64("index", out.size());
                            if (event.getString("event") == "result" &&
                                idx < out.size())
                                out[idx] = event.getString("payload");
                        },
                        terminal, &error);
                }
                lat[i] = static_cast<double>(nowNs() - t0) / 1e6;
                std::string event = terminal.getString("event");
                if (!ok)
                    errors[i] = "transport: " + error;
                else if (event != "done")
                    errors[i] = event + " " + terminal.getString("code");
                else if (req.expectRefusal)
                    errors[i] = "refusal probe was admitted";
            }
        };
        std::vector<std::thread> threads;
        for (auto &client : clients_)
            threads.emplace_back(loop, std::ref(*client));
        for (auto &t : threads)
            t.join();

        for (std::size_t i = 0; i < requests_.size(); ++i) {
            ++r.ops;
            if (!errors[i].empty())
                fail(r, "request " + std::to_string(i) + ": " +
                            errors[i]);
            if (!requests_[i].expectRefusal)
                r.latMs.push_back(lat[i]);
        }
    }

    void collect(Round &r)
    {
        serve::ServeStats s = server_->stats();
        r.coldUnits = s.coldUnits;
        r.warmUnits = s.warmUnits;
        r.rejected = s.rejected;
        takeCacheCounters(r, *cache_);
        r.joins = cache_->inflightJoins();
        r.diskBytes = cache_->diskBytes();
    }

    void verify(Round &r)
    {
        std::mt19937_64 rng(seed_ ^ 0x5eedu);
        ArtifactCache local;
        for (int k = 0; k < SAMPLE_CHECKS; ++k) {
            std::size_t i = rng() % requests_.size();
            const ServeRequest &req = requests_[i];
            if (req.expectRefusal)
                continue;
            std::size_t u = rng() % req.benches.size();
            ExperimentSpec spec;
            spec.benchmark = req.benches[u];
            spec.config = config_;
            spec.config.clockSeed = req.clockSeed;
            std::string expect =
                serve::experimentResultJson(spec, local.getOrRun(spec));
            ++r.ops;
            if (payloads_[i][u] != expect)
                fail(r, "served payload differs from in-process: " +
                            spec.benchmark);
        }
    }

    void stopDaemon()
    {
        if (!server_)
            return;
        server_->requestStop();
        daemon_.join();
        clients_.clear();
        server_.reset();
        cache_.reset();
        fs::remove_all(store_);
    }

    RunnerConfig config_;
    std::uint64_t seed_;
    std::vector<ServeRequest> requests_;
    std::vector<std::vector<std::string>> payloads_;
    std::string store_;
    std::unique_ptr<ArtifactCache> cache_;
    std::unique_ptr<serve::Server> server_;
    std::vector<std::unique_ptr<serve::ServeClient>> clients_;
    std::thread daemon_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "sim_membound")
        return std::make_unique<SimWorkload>(
            std::vector<std::string>{"health", "mst", "treeadd", "mcf",
                                     "em3d"},
            window(30000, 7500, 1000), seed);
    if (name == "sim_compute")
        return std::make_unique<SimWorkload>(
            std::vector<std::string>{"adpcm", "g721", "gsm", "jpeg",
                                     "pegwit", "power"},
            window(80000, 20000, 1000), seed);
    if (name == "figure_table6") {
        // Longest rows first: the pool hands rows out in this order, so
        // the makespan is the longest row's time rather than whichever
        // near-tie of short rows happened to finish first. Half the
        // cores: at one worker per core a slow neighbour on any core
        // held up the straggler, and the 10-seed wall_s spread reached
        // 25-28% on a shared 4-core VM.
        int jobs = static_cast<int>(std::thread::hardware_concurrency());
        return std::make_unique<Table6Workload>(
            std::vector<std::string>{"mcf", "em3d", "treeadd", "jpeg",
                                     "adpcm", "gsm"},
            window(5000, 1250, 500), seed, std::max(1, jobs / 2));
    }
    return nullptr;
}

// ------------------------------------------------------------ output

struct Metric
{
    double value = 0.0;
    const char *unit = "";
    std::uint64_t n = 0; //!< samples behind the value
};

using Metrics = std::map<std::string, Metric>;

void
writeMetrics(std::FILE *f, const Metrics &m)
{
    std::fprintf(f, "{");
    bool first = true;
    for (const auto &[name, metric] : m) {
        std::fprintf(f, "%s\n    \"%s\": {\"value\": %.9g, \"unit\": "
                        "\"%s\", \"n\": %llu}",
                     first ? "" : ",", name.c_str(), metric.value,
                     metric.unit,
                     static_cast<unsigned long long>(metric.n));
        first = false;
    }
    std::fprintf(f, "\n  }");
}

/** Round-level end-to-end metrics over `rounds`: times and rates at
 *  nominal host speed, plus the host's own time and slowdown, which
 *  are reported but not gated. */
Metrics
endToEnd(const std::vector<Round> &rounds)
{
    std::vector<double> wall, insn, fe, host, slow;
    for (const Round &r : rounds) {
        wall.push_back(r.wallS);
        insn.push_back(static_cast<double>(r.simInsns) / r.wallS);
        fe.push_back(static_cast<double>(r.feCycles) / r.wallS);
        host.push_back(r.hostWallS);
        slow.push_back(r.slowdown);
    }
    auto n = static_cast<std::uint64_t>(rounds.size());
    Metrics m;
    m["wall_s"] = {median(wall), "s", n};
    m["sim_insns_per_s"] = {median(insn), "insn/s", n};
    m["fe_cycles_per_s"] = {median(fe), "cycle/s", n};
    m["host_wall_s"] = {median(host), "s", n};
    m["host_slowdown"] = {median(slow), "ratio", n};
    return m;
}

std::map<std::string, telemetry::HistogramData>
readHistograms()
{
    std::map<std::string, telemetry::HistogramData> out;
    for (const auto &s : telemetry::StatRegistry::instance().snapshot())
        if (s.kind == telemetry::StatValue::Kind::Histogram)
            out[s.path] = s.hist;
    return out;
}

/** Histogram samples recorded between two registry snapshots. The
 *  window's min/max are the later snapshot's (an upper envelope). */
struct HistWindow
{
    std::map<std::string, telemetry::HistogramData> before, after;

    telemetry::HistogramData operator()(const std::string &path) const
    {
        telemetry::HistogramData d;
        auto a = after.find(path);
        if (a == after.end())
            return d;
        d = a->second;
        auto b = before.find(path);
        if (b == before.end())
            return d;
        d.count -= b->second.count;
        d.sum -= b->second.sum;
        for (int i = 0; i < telemetry::HistogramData::BUCKETS; ++i)
            d.buckets[i] -= b->second.buckets[i];
        return d;
    }
};

// ------------------------------------------------------------ main loop

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string spans;
    bool setupOnly = false;
    bool probeRefusal = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                mcd_fatal("option '%s' needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            a.trace = value() == "1";
        else if (arg == "--out")
            a.out = value();
        else if (arg == "--spans")
            a.spans = value();
        else if (arg == "--setup-only")
            a.setupOnly = true;
        else if (arg == "--probe-refusal")
            a.probeRefusal = true;
        else
            mcd_fatal("unknown argument '%s'", arg.c_str());
    }
    if (a.out.empty())
        mcd_fatal("--out is required");
    return a;
}

/**
 * Rounds until `budget` seconds have passed: a new round starts only
 * if the median round so far still fits, and at least `min_rounds`
 * run whatever the budget. Each round's host time, less the gauge
 * slices on its critical path, is divided by the host's slowdown over
 * the round, for its time at nominal host speed.
 */
std::vector<Round>
runRounds(Workload &w, SpanLog &log, double budget, int min_rounds,
          double *setup_s)
{
    HostGauge gauge;
    std::vector<Round> rounds;
    std::vector<double> walls;
    std::uint64_t start = nowNs();
    for (;;) {
        double elapsed = static_cast<double>(nowNs() - start) / 1e9;
        if (static_cast<int>(rounds.size()) >= min_rounds &&
            elapsed + median(walls) > budget)
            break;
        w.prepare();
        if (setup_s && *setup_s < 0.0)
            *setup_s = static_cast<double>(nowNs() - g_start) / 1e9;
        Round r;
        ScopedSpan root(log, "round");
        r.root = root.id();
        gauge.reset();
        std::uint64_t r0 = nowNs();
        w.run(r, log, gauge);
        std::uint64_t ns = nowNs() - r0;
        r.hostWallS = static_cast<double>(ns - r.gaugeNs) / 1e9;
        r.slowdown = gauge.slowdown();
        r.wallS = r.hostWallS / r.slowdown;
        w.finish(r);
        walls.push_back(static_cast<double>(ns) / 1e9);
        rounds.push_back(std::move(r));
    }
    return rounds;
}

/** The store and serve rows from one serve-probe pass: counters from
 *  `r`, disk, queue and execution times from `hist`, and request
 *  latency as the median and the highest percentile with at least ten
 *  samples beyond it (nearest rank). */
void
serveRows(Metrics &m, const Round &r, const HistWindow &hist)
{
    telemetry::HistogramData dw = hist("prof.disk.write");
    telemetry::HistogramData dr = hist("prof.disk.read");
    m["store.disk_write_ms"] = {dw.mean() / 1e6, "ms", dw.count};
    m["store.disk_read_ms"] = {dr.mean() / 1e6, "ms", dr.count};
    m["store.disk_bytes"] = {static_cast<double>(r.diskBytes), "B", 1};
    telemetry::HistogramData q = hist("serve.request.queue_ns");
    telemetry::HistogramData e = hist("serve.request.exec_ns");
    m["serve.queue_ms_p50"] = {q.quantile(0.5) / 1e6, "ms", q.count};
    m["serve.exec_ms_p50"] = {e.quantile(0.5) / 1e6, "ms", e.count};
    m["serve.cold_units"] = {static_cast<double>(r.coldUnits), "count", 1};
    m["serve.warm_units"] = {static_cast<double>(r.warmUnits), "count", 1};
    m["serve.inflight_joins"] = {static_cast<double>(r.joins), "count", 1};
    m["serve.rejected"] = {static_cast<double>(r.rejected), "count", 1};

    std::vector<double> lat = r.latMs;
    std::sort(lat.begin(), lat.end());
    auto n = static_cast<std::uint64_t>(lat.size());
    // Rank k (1-based) leaves n - k samples beyond it; keep >= 10.
    std::uint64_t k = n > 10 ? n - 10 : 1;
    m["serve.req_p50_ms"] = {median(lat), "ms", n};
    m["serve.req_tail_ms"] = {n ? lat[k - 1] : 0.0, "ms", n};
    m["serve.req_tail_pct"] = {
        n ? 100.0 * static_cast<double>(k) / static_cast<double>(n) : 0.0,
        "%", n};
}

/** Per-layer metrics from the traced rounds, the untraced rounds
 *  before them, and the layer probes; the probes' own checks land in
 *  `checks`. */
Metrics
layerMetrics(Workload &w, SpanLog &log, const std::vector<Round> &plain,
             const std::vector<Round> &traced, const HistWindow &hist,
             std::uint64_t peak_threads, const Args &args, Round &checks)
{
    Metrics m;
    auto tn = static_cast<std::uint64_t>(traced.size());

    // ---- telemetry: traced wall over untraced wall.
    std::vector<double> pw, tw;
    for (const Round &r : plain)
        pw.push_back(r.wallS);
    for (const Round &r : traced)
        tw.push_back(r.wallS);
    m["telemetry.trace_overhead"] = {median(tw) / median(pw) - 1.0,
                                     "ratio", tn};

    // ---- span self times over every traced round.
    std::map<std::string, double> self;
    double busy_ns = 0.0, wall_ns = 0.0, straggler_ns = 0.0;
    std::vector<Span> spans = log.spans();
    for (const Round &r : traced) {
        for (const auto &[name, ns] : log.selfTimes(r.root))
            self[name] += ns;
        const Span &root = spans[r.root - 1];
        wall_ns += static_cast<double>(root.endNs - root.startNs);
        // Workers: the threads that ran the round's child spans. The
        // first one to run dry starts the straggler tail.
        std::map<int, std::uint64_t> last_end;
        for (const Span &s : spans) {
            if (s.parent != r.root)
                continue;
            busy_ns += static_cast<double>(s.endNs - s.startNs);
            last_end[s.thread] = std::max(last_end[s.thread], s.endNs);
        }
        std::uint64_t first_idle = root.startNs;
        if (static_cast<int>(last_end.size()) >= r.workers) {
            first_idle = root.endNs;
            for (const auto &[t, end] : last_end)
                first_idle = std::min(first_idle, end);
        }
        straggler_ns += static_cast<double>(root.endNs - first_idle);
    }
    double self_total = 0.0;
    for (const auto &[name, ns] : self)
        self_total += ns;
    auto share = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() || self_total <= 0.0
            ? 0.0 : it->second / self_total;
    };
    m["trace.harness.self_share"] = {
        share("harness.runExperiments") + share("table6.computeOne"),
        "ratio", tn};
    m["trace.other.self_share"] = {share("other"), "ratio", tn};

    // ---- core phases (prof.sim.*) over simulator-thread busy time:
    // every workload simulates inside the round's child spans.
    int workers = traced.empty() ? 1 : traced.front().workers;
    double sim_ns = busy_ns;
    double interval = static_cast<double>(hist("prof.sim.interval").sum);
    // The interval boundary runs inside the commit stage.
    double commit = static_cast<double>(hist("prof.sim.commit").sum) -
                    interval;
    std::vector<std::pair<const char *, double>> phases = {
        {"core.commit.self_share", commit},
        {"core.fetch.self_share",
         static_cast<double>(hist("prof.sim.fetch").sum)},
        {"core.issue_int.self_share",
         static_cast<double>(hist("prof.sim.issue.int").sum)},
        {"core.issue_fp.self_share",
         static_cast<double>(hist("prof.sim.issue.fp").sum)},
        {"core.issue_ls.self_share",
         static_cast<double>(hist("prof.sim.issue.ls").sum)},
        {"core.wakeup.self_share",
         static_cast<double>(hist("prof.sim.wakeup").sum)},
        {"control.interval.self_share", interval},
    };
    double probed = 0.0;
    for (const auto &[name, ns] : phases) {
        m[name] = {sim_ns > 0 ? ns / sim_ns : 0.0, "ratio", tn};
        probed += ns;
    }
    m["core.other.self_share"] = {sim_ns > 0 ? 1.0 - probed / sim_ns : 0.0,
                                  "ratio", tn};

    // ---- harness counters (traced rounds summed) and worker use.
    double lookups = 0, hits = 0, sims = 0, insns = 0;
    for (const Round &r : traced) {
        lookups += static_cast<double>(r.lookups);
        hits += static_cast<double>(r.hits);
        sims += static_cast<double>(r.sims);
        insns += static_cast<double>(r.simInsns);
    }
    double per = tn ? 1.0 / static_cast<double>(tn) : 0.0;
    m["harness.lookups"] = {lookups * per, "count", tn};
    m["harness.hits"] = {hits * per, "count", tn};
    m["harness.hit_ratio"] = {lookups > 0 ? hits / lookups : 0.0, "ratio",
                              tn};
    m["harness.simulations"] = {sims * per, "count", tn};
    m["harness.simulated_insns"] = {insns * per, "insn", tn};
    m["harness.worker_busy_share"] = {
        wall_ns > 0 ? busy_ns / (wall_ns * workers) : 0.0, "ratio", tn};
    m["harness.straggler_s"] = {straggler_ns * per / 1e9, "s", tn};
    m["harness.peak_threads"] = {static_cast<double>(peak_threads),
                                 "count", tn};

    // ---- store and serve: the workloads do not serve, so a probe
    // serves their own specs (one cold pass, seven warm) through an
    // in-process daemon with a disk store (profiler on, for the disk,
    // queue and execution timings).
    telemetry::setProfiling(false);
    ScopedSpan probe_root(log, "probes");
    {
        std::vector<ExperimentSpec> specs = w.probeSpecs();
        ServeProbe probe(specs.front().config, args.seed,
                         probeRequests(specs, args.probeRefusal));
        HistWindow ph;
        ph.before = readHistograms();
        telemetry::setProfiling(true);
        Round pr;
        pr.root = probe_root.id();
        probe.serve(pr, log);
        telemetry::setProfiling(false);
        ph.after = readHistograms();
        checks.ops += pr.ops;
        checks.failed += pr.failed;
        checks.failures.insert(checks.failures.end(), pr.failures.begin(),
                               pr.failures.end());
        serveRows(m, pr, ph);
    }

    // ---- layer probes (profiler off).
    CoreProbe core = probeCore(w.probeSpecs(), log, probe_root.id());
    checks.ops += core.units;
    for (std::uint64_t i = 0; i < core.mismatches; ++i)
        fail(checks, "core probe: a direct run differs from the harness");
    auto un = core.units;
    m["core.ns_per_fe_cycle"] = {
        core.feEdges ? core.directNs / static_cast<double>(core.feEdges)
                     : 0.0, "ns", core.feEdges};
    m["core.ns_per_insn"] = {
        core.committed ? core.directNs /
                             static_cast<double>(core.committed) : 0.0,
        "ns", core.committed};
    m["harness.overhead_share"] = {
        core.resolveNs > 0 ? 1.0 - core.directNs / core.resolveNs : 0.0,
        "ratio", un};
    double mi = static_cast<double>(core.measured.instructions);
    auto pki = [&](std::uint64_t c) {
        return mi > 0 ? 1000.0 * static_cast<double>(c) / mi : 0.0;
    };
    m["model.fe_cycles"] = {static_cast<double>(core.measured.feCycles),
                            "cycle", un};
    m["model.cpi"] = {mi > 0 ? static_cast<double>(core.measured.feCycles) / mi
                             : 0.0, "cycle/insn", un};
    m["memory.l1d_mpki"] = {pki(core.measured.l1dMisses), "1/kinsn", un};
    m["memory.l2_mpki"] = {pki(core.measured.l2Misses), "1/kinsn", un};
    m["predictor.mispredict_pki"] = {pki(core.measured.mispredicts),
                                     "1/kinsn", un};

    const std::uint64_t EDGES = 4u << 20;
    m["clock.ns_per_edge"] = {probeClockNsPerEdge(clockBase(args.seed), EDGES),
                              "ns", EDGES};
    StreamProbe st = probeStreams(w.apps(), w.horizon());
    auto per_op = [](double ns, std::uint64_t n) {
        return n ? ns / static_cast<double>(n) : 0.0;
    };
    m["workload.ns_per_uop"] = {per_op(st.genNs, st.uops), "ns", st.uops};
    m["memory.ns_per_access"] = {per_op(st.memNs, st.accesses), "ns",
                                 st.accesses};
    m["predictor.ns_per_lookup"] = {per_op(st.predNs, st.lookups), "ns",
                                    st.lookups};
    return m;
}

/** Sample /proc/self/status Threads while alive. */
class ThreadSampler
{
  public:
    ThreadSampler()
        : thread_([this] {
              while (!stop_.load()) {
                  std::uint64_t t = procStatus("Threads");
                  std::uint64_t cur = peak_.load();
                  if (t > cur)
                      peak_.store(t);
                  std::this_thread::sleep_for(
                      std::chrono::milliseconds(2));
              }
          })
    {
    }
    ~ThreadSampler()
    {
        stop_.store(true);
        thread_.join();
    }
    ThreadSampler(const ThreadSampler &) = delete;
    ThreadSampler &operator=(const ThreadSampler &) = delete;

    std::uint64_t peak() const { return peak_.load(); }

  private:
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> peak_{0};
    std::thread thread_; // last: starts after the atomics exist
};

int
run(const Args &args)
{
    std::unique_ptr<Workload> w =
        makeWorkload(args.workload, args.seed);
    if (!w)
        mcd_fatal("unknown workload '%s'", args.workload.c_str());

    std::FILE *f = std::fopen(args.out.c_str(), "w");
    if (!f)
        mcd_fatal("cannot write '%s'", args.out.c_str());

    if (args.setupOnly) {
        // Set-up time at nominal host speed, as for rounds: a few gauge
        // slices right after it give the host's slowdown.
        w->prepare();
        double setup = static_cast<double>(nowNs() - g_start) / 1e9;
        HostGauge gauge;
        for (int i = 0; i < 4; ++i)
            gauge.slice();
        std::fprintf(f, "{\"setup_s\": %.9g, \"host_setup_s\": %.9g}\n",
                     setup / gauge.slowdown(), setup);
        return std::fclose(f) == 0 ? 0 : 1;
    }

    SpanLog log;
    double setup_s = -1.0;
    std::vector<Round> plain, traced;
    HistWindow hist;
    std::uint64_t peak_threads = 0;
    if (!args.trace) {
        plain = runRounds(*w, log, args.seconds, 3, &setup_s);
    } else {
        plain = runRounds(*w, log, 0.35 * args.seconds, 1, &setup_s);
        log.enable(true);
        telemetry::setProfiling(true);
        hist.before = readHistograms();
        {
            ThreadSampler sampler;
            traced = runRounds(*w, log, 0.35 * args.seconds, 1, nullptr);
            peak_threads = sampler.peak() - 1; // not the sampler
        }
        telemetry::setProfiling(false);
        hist.after = readHistograms();
    }
    double rss_mb = static_cast<double>(procStatus("VmHWM")) / 1024.0;

    std::vector<Round> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    Round checks;
    checks.ops = w->verify(checks);

    Metrics layers;
    if (args.trace)
        layers = layerMetrics(*w, log, plain, traced, hist, peak_threads,
                              args, checks);
    if (!args.spans.empty() && args.trace && !log.write(args.spans))
        mcd_warn("cannot write spans to '%s'", args.spans.c_str());

    Metrics e2e = endToEnd(plain);
    e2e["setup_s"] = {setup_s / plain.front().slowdown, "s", 1};
    e2e["host_setup_s"] = {setup_s, "s", 1};
    e2e["peak_rss_mb"] = {rss_mb, "MB", 1};

    std::uint64_t attempted = checks.ops;
    std::uint64_t failed = checks.failed;
    std::vector<std::string> failures = checks.failures;
    for (const Round &r : all) {
        attempted += r.ops;
        failed += r.failed;
        failures.insert(failures.end(), r.failures.begin(),
                        r.failures.end());
    }

    std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed));
    std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    std::fprintf(f, "  \"failures\": [");
    for (std::size_t i = 0; i < failures.size() && i < 8; ++i)
        std::fprintf(f, "%s%s", i ? ", " : "",
                     json::str(failures[i]).c_str());
    std::fprintf(f, "],\n  \"rounds\": [");
    for (std::size_t i = 0; i < all.size(); ++i) {
        std::fprintf(f, "%s\n    {\"traced\": %s, \"wall_s\": %.9g, "
                        "\"host_wall_s\": %.9g, \"slowdown\": %.9g, "
                        "\"digests\": [",
                     i ? "," : "", i < plain.size() ? "false" : "true",
                     all[i].wallS, all[i].hostWallS, all[i].slowdown);
        for (std::size_t d = 0; d < all[i].digests.size(); ++d)
            std::fprintf(f, "%s\"%s\"", d ? ", " : "",
                         all[i].digests[d].c_str());
        std::fprintf(f, "]}");
    }
    std::fprintf(f, "\n  ],\n  \"metrics\": ");
    writeMetrics(f, e2e);
    std::fprintf(f, ",\n  \"layers\": ");
    writeMetrics(f, layers);
    std::fprintf(f, "\n}\n");
    return std::fclose(f) == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
