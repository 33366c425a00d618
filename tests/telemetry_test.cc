/**
 * @file
 * The telemetry subsystem under test: registry round-trips and
 * renderers, log2 histogram bucket edges, concurrent increments, the
 * serve request-trace schema, the metrics verb's consistency with the
 * daemon's own counters — and the subsystem's hard guarantee, that a
 * profiled run's simulation results are byte-identical to an
 * unprofiled run's.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "core/simulator.hh"
#include "harness/experiment.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "telemetry/events.hh"
#include "telemetry/profiler.hh"
#include "telemetry/stat_registry.hh"

using namespace mcd;
using namespace mcd::telemetry;

namespace
{

/** Find one stat in a snapshot by path; nullptr when absent. */
const StatValue *
find(const std::vector<StatValue> &stats, const std::string &path)
{
    for (const auto &s : stats)
        if (s.path == path)
            return &s;
    return nullptr;
}

RunnerConfig
testConfig()
{
    RunnerConfig config;
    config.instructions = 20000;
    config.warmup = 5000;
    config.intervalInstructions = 500;
    return config;
}

std::string
socketPath(const std::string &tag)
{
    return "/tmp/mcd_telemetry_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
}

/** Connect once: the daemon listens from construction on, so the
 *  connect must succeed even before run() starts accepting. */
void
connectTo(serve::ServeClient &client, const std::string &path)
{
    std::string error;
    ASSERT_TRUE(client.connect(path, &error))
        << "could not connect to " << path << ": " << error;
}

json::Value
callOne(serve::ServeClient &client, const std::string &request)
{
    std::string error;
    EXPECT_TRUE(client.send(request, &error)) << error;
    std::string raw;
    EXPECT_EQ(serve::FrameStatus::Ok, client.recv(raw));
    json::Value reply;
    EXPECT_TRUE(json::parse(raw, reply, &error)) << error;
    return reply;
}

/** Drive one `run` request to its terminal frame. */
void
drainRun(serve::ServeClient &client, const std::string &request)
{
    std::string error;
    json::Value terminal;
    ASSERT_TRUE(client.call(request, nullptr, terminal, &error))
        << error;
    ASSERT_EQ("done", terminal.getString("event"))
        << terminal.getString("error");
}

} // namespace

// --------------------------------------------------------- registry

TEST(StatRegistry, OwnedStatsRoundTrip)
{
    StatRegistry &reg = StatRegistry::instance();
    telemetry::Counter &c = reg.counter("test.owned.counter");
    c.reset();
    c.inc();
    c.inc(41);
    // Create-or-get: the same path is the same stat.
    EXPECT_EQ(&c, &reg.counter("test.owned.counter"));
    EXPECT_EQ(42u, c.value());

    telemetry::Histogram &h = reg.histogram("test.owned.hist");
    h.reset();
    h.record(7);
    EXPECT_EQ(&h, &reg.histogram("test.owned.hist"));

    auto stats = reg.snapshot("test.owned.");
    ASSERT_EQ(2u, stats.size());
    const StatValue *sc = find(stats, "test.owned.counter");
    ASSERT_NE(nullptr, sc);
    EXPECT_EQ(StatValue::Kind::Counter, sc->kind);
    EXPECT_EQ(42u, sc->counter);
    const StatValue *sh = find(stats, "test.owned.hist");
    ASSERT_NE(nullptr, sh);
    EXPECT_EQ(StatValue::Kind::Histogram, sh->kind);
    EXPECT_EQ(1u, sh->hist.count);
    EXPECT_EQ(7u, sh->hist.max);
}

TEST(StatRegistry, BoundViewsAreLatestWinsAndUnbindable)
{
    StatRegistry &reg = StatRegistry::instance();
    telemetry::Counter first;
    telemetry::Counter second;
    first.inc(10);
    second.inc(20);

    reg.bindCounter("test.bound.counter", &first);
    auto stats = reg.snapshot("test.bound.");
    ASSERT_NE(nullptr, find(stats, "test.bound.counter"));
    EXPECT_EQ(10u, find(stats, "test.bound.counter")->counter);

    // Latest binding wins (sequentially constructed servers in tests).
    reg.bindCounter("test.bound.counter", &second);
    stats = reg.snapshot("test.bound.");
    EXPECT_EQ(20u, find(stats, "test.bound.counter")->counter);

    reg.unbind("test.bound.counter");
    stats = reg.snapshot("test.bound.");
    EXPECT_EQ(nullptr, find(stats, "test.bound.counter"));
}

TEST(StatRegistry, BindFnComputesAtSnapshotTime)
{
    StatRegistry &reg = StatRegistry::instance();
    std::uint64_t source = 5;
    reg.bindFn("test.fn.derived", [&source] { return source * 2; });
    EXPECT_EQ(10u,
              find(reg.snapshot("test.fn."), "test.fn.derived")
                  ->counter);
    source = 21;
    EXPECT_EQ(42u,
              find(reg.snapshot("test.fn."), "test.fn.derived")
                  ->counter);
    reg.unbind("test.fn.derived");
}

TEST(StatRegistry, HistogramBucketEdges)
{
    telemetry::Histogram h;
    // Bucket b holds values with bit_width == b: 0 -> 0, 1 -> 1,
    // {2,3} -> 2, {4..7} -> 3, 2^63 -> 64 (the last bucket).
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(4);
    h.record(7);
    h.record(1ull << 63);
    telemetry::HistogramData d = h.read();
    EXPECT_EQ(7u, d.count);
    EXPECT_EQ(0u, d.min);
    EXPECT_EQ(1ull << 63, d.max);
    EXPECT_EQ(17u + (1ull << 63), d.sum);
    EXPECT_EQ(1u, d.buckets[0]);
    EXPECT_EQ(1u, d.buckets[1]);
    EXPECT_EQ(2u, d.buckets[2]);
    EXPECT_EQ(2u, d.buckets[3]);
    EXPECT_EQ(1u, d.buckets[64]);

    // Quantiles are clamped to the exact observed range.
    EXPECT_GE(d.quantile(0.0), static_cast<double>(d.min));
    EXPECT_LE(d.quantile(1.0), static_cast<double>(d.max));

    // A single sample is its own quantile at every q.
    telemetry::Histogram one;
    one.record(100);
    EXPECT_DOUBLE_EQ(100.0, one.read().quantile(0.5));
    EXPECT_DOUBLE_EQ(100.0, one.read().quantile(0.99));

    one.reset();
    EXPECT_EQ(0u, one.read().count);
}

TEST(StatRegistry, ConcurrentIncrementsAreExact)
{
    StatRegistry &reg = StatRegistry::instance();
    telemetry::Counter &c = reg.counter("test.concurrent.counter");
    c.reset();
    telemetry::Histogram &h = reg.histogram("test.concurrent.hist");
    h.reset();

    constexpr int THREADS = 8;
    constexpr int PER_THREAD = 100000;
    std::vector<std::thread> workers;
    for (int t = 0; t < THREADS; ++t) {
        workers.emplace_back([&c, &h, t] {
            for (int i = 0; i < PER_THREAD; ++i) {
                c.inc();
                h.record(static_cast<std::uint64_t>(t + 1));
            }
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(static_cast<std::uint64_t>(THREADS) * PER_THREAD,
              c.value());
    telemetry::HistogramData d = h.read();
    EXPECT_EQ(static_cast<std::uint64_t>(THREADS) * PER_THREAD,
              d.count);
    EXPECT_EQ(1u, d.min);
    EXPECT_EQ(THREADS, static_cast<int>(d.max));
}

TEST(StatRegistry, JsonRendersEveryStatKind)
{
    StatRegistry &reg = StatRegistry::instance();
    reg.counter("test.render.counter").reset();
    reg.counter("test.render.counter").inc(3);
    // A level (a queue depth, say) is a value computed at snapshot time.
    reg.bindFn("test.render.level", [] { return std::uint64_t{5}; });
    telemetry::Histogram &h = reg.histogram("test.render.hist");
    h.reset();
    h.record(10);
    h.record(1000);
    auto stats = reg.snapshot("test.render.");

    // JSON: parseable, flat, histograms expanded to summaries.
    std::string json_text = StatRegistry::renderJson(stats);
    json::Value parsed;
    std::string error;
    ASSERT_TRUE(json::parse(json_text, parsed, &error))
        << error << "\n" << json_text;
    EXPECT_EQ(3u, parsed.getU64("test.render.counter", 0));
    EXPECT_EQ(5u, parsed.getU64("test.render.level", 0));
    const json::Value *hist = parsed.get("test.render.hist");
    ASSERT_NE(nullptr, hist);
    EXPECT_EQ(2u, hist->getU64("count", 0));
    EXPECT_EQ(10u, hist->getU64("min", 0));
    EXPECT_EQ(1000u, hist->getU64("max", 0));
    EXPECT_NE(nullptr, hist->get("p50"));
    reg.unbind("test.render.level");
}

// --------------------------------------------------------- profiler

TEST(Profiler, OnOffLeavesResultsByteIdentical)
{
    // The subsystem's hard guarantee: probes observe wall-clock
    // reality only, never simulated state, so the rendered result
    // document — every field, every digit — is identical with the
    // profiler on and off. Three specs: a paper application under the
    // paper's controller, a parametric synthetic scenario, and a
    // memory-bound app whose stalled edges the wake memo skips.
    std::vector<ExperimentSpec> specs;
    {
        ExperimentSpec spec;
        spec.benchmark = "gsm";
        spec.controller = parseControllerSpec("attack_decay");
        spec.config = testConfig();
        specs.push_back(spec);
    }
    {
        ExperimentSpec spec;
        spec.benchmark = "synthetic:mem=0.8,ilp=4,phases=3";
        spec.config = testConfig();
        specs.push_back(spec);
    }
    {
        ExperimentSpec spec;
        spec.benchmark = "mcf";
        spec.config = testConfig();
        specs.push_back(spec);
    }

    for (const ExperimentSpec &spec : specs) {
        setProfiling(false);
        // Each run on a fresh cache: both simulate straight through.
        ArtifactCache off_cache, on_cache;
        std::string off = serve::experimentResultJson(
            spec, runExperiment(spec, off_cache));

        setProfiling(true);
        resetPhaseHistograms();
        for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
            Simulator::edgeCounter(static_cast<DomainId>(d), false)
                .reset();
            Simulator::edgeCounter(static_cast<DomainId>(d), true)
                .reset();
        }
        Simulator::quietRunCounter().reset();
        std::string on = serve::experimentResultJson(
            spec, runExperiment(spec, on_cache));

        // Not vacuous: the profiled run actually recorded samples.
        EXPECT_GT(phaseHistogram(Phase::SimCommit).read().count, 0u)
            << spec.benchmark;
        setProfiling(false);

        EXPECT_EQ(off, on) << spec.benchmark;

        std::uint64_t edges = 0;
        std::uint64_t quiet = 0;
        for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
            auto id = static_cast<DomainId>(d);
            edges += Simulator::edgeCounter(id, false).value();
            quiet += Simulator::edgeCounter(id, true).value();
        }
        EXPECT_GT(edges, 0u) << spec.benchmark;
        EXPECT_LE(quiet, edges) << spec.benchmark;
        if (spec.benchmark == "mcf") {
            // Stalled on memory most of the time: a share of its
            // edges must have been skipped, in bulk runs.
            EXPECT_GT(quiet, 0u);
            EXPECT_GT(Simulator::quietRunCounter().value(), 0u);
        }
        EXPECT_LE(Simulator::quietRunCounter().value(), quiet)
            << spec.benchmark;
    }
    resetPhaseHistograms();
}

TEST(Profiler, DisabledProbeRecordsNothing)
{
    setProfiling(false);
    resetPhaseHistograms();
    {
        ScopedTimer timer(Phase::CkptSave);
    }
    EXPECT_EQ(0u, phaseHistogram(Phase::CkptSave).read().count);
    setProfiling(true);
    {
        ScopedTimer timer(Phase::CkptSave);
    }
    setProfiling(false);
    EXPECT_EQ(1u, phaseHistogram(Phase::CkptSave).read().count);
    resetPhaseHistograms();
}

// ---------------------------------------------------- serve tracing

TEST(ServeTracing, EventLogSchemaAndDistinctIds)
{
    std::string events_path = "/tmp/mcd_telemetry_events_" +
                              std::to_string(::getpid()) + ".jsonl";
    std::remove(events_path.c_str());

    ArtifactCache cache;
    {
        serve::ServeOptions options;
        options.socketPath = socketPath("events");
        options.workers = 2;
        options.config = testConfig();
        options.cache = &cache;
        options.eventsPath = events_path;
        serve::Server server(options);
        std::thread daemon([&server] { server.run(); });

        serve::ServeClient client;
        connectTo(client, server.socketPath());
        // Two runs of the same spec: one cold, one warm — two distinct
        // request ids tracing the same lifecycle.
        drainRun(client,
                 "{\"op\": \"run\", \"benches\": [\"gsm\"]}");
        drainRun(client,
                 "{\"op\": \"run\", \"benches\": [\"gsm\"]}");
        json::Value ack = callOne(client, "{\"op\": \"shutdown\"}");
        EXPECT_EQ("shutdown", ack.getString("event"));
        daemon.join(); // full drain: every trace line is flushed
    }

    std::ifstream in(events_path);
    ASSERT_TRUE(in.is_open()) << events_path;
    std::map<std::uint64_t, std::vector<std::string>> by_id;
    std::uint64_t last_ts = 0;
    std::string line;
    while (std::getline(in, line)) {
        json::Value event;
        std::string error;
        ASSERT_TRUE(json::parse(line, event, &error))
            << error << "\n" << line;
        // Schema: every line has ts, id, event.
        std::uint64_t ts = event.getU64("ts", 0);
        EXPECT_GT(ts, 0u) << line;
        EXPECT_GE(ts, last_ts) << "timestamps went backwards";
        last_ts = ts;
        ASSERT_GT(event.getU64("id", 0), 0u) << line;
        ASSERT_FALSE(event.getString("event").empty()) << line;
        by_id[event.getU64("id", 0)].push_back(
            event.getString("event"));
        if (event.getString("event") == "executing")
            EXPECT_NE(nullptr, event.get("queue_wait_ns")) << line;
        if (event.getString("event") == "done" &&
            event.get("exec_ns") != nullptr) {
            EXPECT_NE(nullptr, event.get("bytes_streamed")) << line;
            EXPECT_NE(nullptr, event.get("cold_units")) << line;
        }
    }

    // Three requests traced (run, run, shutdown), distinct ids.
    ASSERT_EQ(3u, by_id.size());
    int runs = 0;
    for (const auto &[id, sequence] : by_id) {
        if (sequence.size() == 1) {
            EXPECT_EQ("accepted", sequence[0]);
            continue; // shutdown traces accepted only (+ done below)
        }
        if (sequence.front() == "accepted" && sequence.size() >= 6) {
            ++runs;
            const std::vector<std::string> expected = {
                "accepted", "validated", "queued",
                "executing", "streaming", "done"};
            EXPECT_EQ(expected, sequence) << "id " << id;
        }
    }
    EXPECT_EQ(2, runs);
    std::remove(events_path.c_str());
}

TEST(ServeTracing, MetricsVerbMatchesDaemonCounters)
{
    ArtifactCache cache;
    serve::ServeOptions options;
    options.socketPath = socketPath("metrics");
    options.workers = 2;
    options.config = testConfig();
    options.cache = &cache;
    serve::Server server(options);
    std::thread daemon([&server] { server.run(); });

    serve::ServeClient client;
    connectTo(client, server.socketPath());
    drainRun(client, "{\"op\": \"run\", \"benches\": [\"gsm\"]}");

    json::Value reply = callOne(client, "{\"op\": \"metrics\"}");
    EXPECT_EQ("metrics", reply.getString("event"));
    const json::Value *stats = reply.get("stats");
    ASSERT_NE(nullptr, stats);

    // The registry snapshot and the daemon's own counters agree.
    serve::ServeStats direct = server.stats();
    EXPECT_EQ(direct.requests, stats->getU64("serve.requests", 99));
    EXPECT_EQ(direct.runRequests,
              stats->getU64("serve.run_requests", 99));
    EXPECT_EQ(direct.unitsExecuted,
              stats->getU64("serve.units_executed", 99));
    EXPECT_EQ(direct.coldUnits, stats->getU64("serve.cold_units", 99));
    EXPECT_EQ(direct.badRequests,
              stats->getU64("serve.bad_requests", 99));

    // The snapshot spans the subsystems, not just serve.*: the
    // request latency histograms and the pool/sim counters are there.
    // The sim/store counters are the process-wide cache's, which binds
    // them on first use; this daemon's private cache never touches it.
    ArtifactCache::instance();
    reply = callOne(client, "{\"op\": \"metrics\"}");
    stats = reply.get("stats");
    ASSERT_NE(nullptr, stats);
    EXPECT_NE(nullptr, stats->get("serve.request.exec_ns"));
    EXPECT_NE(nullptr, stats->get("serve.request.queue_ns"));
    EXPECT_NE(nullptr, stats->get("pool.tasks"));
    EXPECT_NE(nullptr, stats->get("sim.runs"));
    EXPECT_NE(nullptr, stats->get("store.lookups"));

    server.requestStop();
    daemon.join();
}
