#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "eval/tournament.hh"
#include "harness/parallel_sweep.hh"
#include "serve/protocol.hh"
#include "workload/scenario_registry.hh"

namespace mcd::serve
{

namespace
{

/** One "event":"error" reply payload. */
std::string
errorJson(const std::string &code, const std::string &message)
{
    return "{\"event\": \"error\", \"code\": " + json::str(code) +
           ", \"error\": " + json::str(message) + "}";
}

/**
 * Probe whether a daemon is actually listening on `path`. A leftover
 * socket file from a crashed daemon refuses connections; a live one
 * accepts. Distinguishing the two lets restart-after-crash work
 * without ever stealing a running daemon's socket.
 */
bool
socketIsLive(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    bool live = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0;
    ::close(fd);
    return live;
}

} // namespace

Server::Connection::~Connection()
{
    if (fd >= 0)
        ::close(fd);
}

Server::Server(ServeOptions options)
    : options_(std::move(options)), events_(options_.eventsPath)
{
    if (options_.socketPath.empty())
        mcd_fatal("serve needs a socket path (--socket)");

    // Publish the daemon counters under serve.* (latest server wins;
    // tests construct servers sequentially) and grab the request
    // latency histograms once.
    telemetry::StatRegistry &reg = telemetry::StatRegistry::instance();
    reg.bindCounter("serve.requests", &requests_);
    reg.bindCounter("serve.run_requests", &runRequests_);
    reg.bindCounter("serve.units_executed", &unitsExecuted_);
    reg.bindCounter("serve.cold_units", &coldUnits_);
    reg.bindCounter("serve.warm_units", &warmUnits_);
    reg.bindCounter("serve.rejected", &rejected_);
    reg.bindCounter("serve.bad_requests", &badRequests_);
    queueNs_ = &reg.histogram("serve.request.queue_ns");
    execNs_ = &reg.histogram("serve.request.exec_ns");

    sockaddr_un addr{};
    if (options_.socketPath.size() >= sizeof(addr.sun_path))
        mcd_fatal("socket path '%s' exceeds the %zu-byte AF_UNIX "
                  "limit", options_.socketPath.c_str(),
                  sizeof(addr.sun_path) - 1);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        mcd_fatal("socket(AF_UNIX): %s", std::strerror(errno));

    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (errno != EADDRINUSE)
            mcd_fatal("bind(%s): %s", options_.socketPath.c_str(),
                      std::strerror(errno));
        if (socketIsLive(options_.socketPath))
            mcd_fatal("another daemon is already serving on '%s'",
                      options_.socketPath.c_str());
        // A stale file from a crashed daemon: reclaim it.
        ::unlink(options_.socketPath.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0)
            mcd_fatal("bind(%s): %s", options_.socketPath.c_str(),
                      std::strerror(errno));
    }
    if (::listen(listenFd_, 64) != 0)
        mcd_fatal("listen(%s): %s", options_.socketPath.c_str(),
                  std::strerror(errno));

    if (::pipe2(stopPipe_, O_CLOEXEC) != 0)
        mcd_fatal("pipe2: %s", std::strerror(errno));

    // A unit's nested searches fan out at config.jobs: never wider
    // than the pool --workers asks for.
    if (options_.workers <= 0)
        options_.workers = ParallelSweep::defaultWorkers();
    options_.config.jobs = options_.workers;
    ThreadPool::shared().reserve(options_.workers);
    if (options_.maxInflight < 0)
        options_.maxInflight = 4 * options_.workers;

    if (!options_.config.store.empty())
        cache().attachDiskStore(options_.config.store);
}

Server::~Server()
{
    telemetry::StatRegistry &reg = telemetry::StatRegistry::instance();
    for (const char *path :
         {"serve.requests", "serve.run_requests",
          "serve.units_executed", "serve.cold_units",
          "serve.warm_units", "serve.rejected", "serve.bad_requests"})
        reg.unbind(path);
    if (stopPipe_[0] >= 0)
        ::close(stopPipe_[0]);
    if (stopPipe_[1] >= 0)
        ::close(stopPipe_[1]);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(options_.socketPath.c_str());
    }
}

ArtifactCache &
Server::cache() const
{
    return options_.cache ? *options_.cache
                          : ArtifactCache::instance();
}

ServeStats
Server::stats() const
{
    ServeStats s;
    s.requests = requests_.value();
    s.runRequests = runRequests_.value();
    s.unitsExecuted = unitsExecuted_.value();
    s.coldUnits = coldUnits_.value();
    s.warmUnits = warmUnits_.value();
    s.rejected = rejected_.value();
    s.badRequests = badRequests_.value();
    return s;
}

void
Server::traceEvent(std::uint64_t id, const char *event,
                   const std::string &extra)
{
    if (!events_.enabled())
        return;
    events_.append("{\"ts\": " +
                   json::u64(telemetry::wallClockNs()) +
                   ", \"id\": " + json::u64(id) + ", \"event\": \"" +
                   event + "\"" + extra + "}");
}

void
Server::requestStop()
{
    // Only async-signal-safe operations: SIGINT/SIGTERM handlers call
    // this directly.
    stopping_.store(true);
    char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(stopPipe_[1], &byte, 1);
}

void
Server::run()
{
    mcd_inform("serving on %s (%d workers, max %d units in flight%s%s)",
               options_.socketPath.c_str(), options_.workers,
               options_.maxInflight,
               options_.config.store.empty() ? "" : ", store ",
               options_.config.store.c_str());

    while (!stopping_.load()) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {stopPipe_[0], POLLIN, 0}};
        int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            mcd_warn("poll: %s", std::strerror(errno));
            break;
        }
        if (fds[1].revents & POLLIN)
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            mcd_warn("accept: %s", std::strerror(errno));
            continue;
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        std::lock_guard<std::mutex> lock(mutex_);
        connections_.push_back(conn);
        threads_.emplace_back(
            [this, conn] { serveConnection(conn); });
    }

    // Drain: stop accepting, wake every blocked reader (SHUT_RD lets
    // pending result streams finish writing), and join. A reader
    // returns only once its admitted units have all replied, so the
    // joins also wait out every unit.
    ::close(listenFd_);
    listenFd_ = -1;
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        conns = connections_;
    }
    for (const auto &conn : conns)
        ::shutdown(conn->fd, SHUT_RD);
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        threads.swap(threads_);
    }
    for (auto &thread : threads)
        thread.join();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        connections_.clear();
    }
    ::unlink(options_.socketPath.c_str());
    mcd_inform("serve: drained, socket removed");
}

void
Server::reply(const std::shared_ptr<Connection> &conn,
              const std::string &payload)
{
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    if (!conn->alive.load())
        return;
    if (!writeFrame(conn->fd, payload))
        conn->alive.store(false); // client went away; keep serving
}

void
Server::replyError(const std::shared_ptr<Connection> &conn,
                   const std::string &code, const std::string &message)
{
    reply(conn, errorJson(code, message));
}

void
Server::serveConnection(const std::shared_ptr<Connection> &conn)
{
    // Fatal-as-throw on this thread: a client's bad input costs it an
    // error reply, never the daemon.
    FatalErrorScope scope;

    bool keep = true;
    while (keep) {
        std::string payload;
        FrameStatus status = readFrame(conn->fd, payload);
        if (status == FrameStatus::TooLarge) {
            // The unread payload leaves the stream unsynchronized;
            // reject and hang up.
            badRequests_.inc();
            replyError(conn, "too-large",
                       "frame exceeds the " +
                           std::to_string(kMaxFrameBytes) +
                           "-byte protocol limit");
            break;
        }
        if (status != FrameStatus::Ok) {
            if (status == FrameStatus::Truncated)
                mcd_warn("serve: connection dropped mid-frame");
            break; // Eof / IoError: the peer is gone
        }

        json::Value request;
        std::string parse_error;
        if (!json::parse(payload, request, &parse_error) ||
            !request.isObject()) {
            badRequests_.inc();
            // An intact frame with bad JSON is the client's bug, not
            // a framing failure: reply and keep the connection.
            replyError(conn, "bad-request",
                       parse_error.empty() ? "request is not a JSON "
                                             "object"
                                           : parse_error);
            continue;
        }

        try {
            keep = handleRequest(conn, request);
        } catch (const FatalError &e) {
            badRequests_.inc();
            replyError(conn, "bad-request", e.what());
        } catch (const std::exception &e) {
            replyError(conn, "internal", e.what());
        }
    }

    conn->alive.store(false);
    std::lock_guard<std::mutex> lock(mutex_);
    connections_.erase(std::remove(connections_.begin(),
                                   connections_.end(), conn),
                       connections_.end());
    // The fd closes when the last holder (possibly a worker still
    // finishing this client's unit) drops its reference.
}

bool
Server::handleRequest(const std::shared_ptr<Connection> &conn,
                      const json::Value &request)
{
    requests_.inc();
    std::uint64_t id = nextRequestId_.fetch_add(1) + 1;

    std::string op = request.getString("op");
    traceEvent(id, "accepted", ", \"op\": " + json::str(op));

    if (op == "ping") {
        reply(conn, "{\"event\": \"pong\", \"protocol\": " +
                        json::u64(kProtocolVersion) + "}");
        traceEvent(id, "done");
        return true;
    }
    if (op == "metrics") {
        // The full registry snapshot: sim/store counters from the
        // ArtifactCache bindings, pool.tasks, serve.* from this
        // server, prof.* histograms when profiling ran.
        std::string stats = telemetry::StatRegistry::renderJson(
            telemetry::StatRegistry::instance().snapshot());
        reply(conn, "{\"event\": \"metrics\", \"stats\": " + stats +
                        "}");
        traceEvent(id, "done");
        return true;
    }
    if (op == "cache-stats") {
        ServeStats s = stats();
        std::string serve = "{";
        serve += "\"requests\": " + json::u64(s.requests);
        serve += ", \"run_requests\": " + json::u64(s.runRequests);
        serve += ", \"units_executed\": " + json::u64(s.unitsExecuted);
        serve += ", \"cold_units\": " + json::u64(s.coldUnits);
        serve += ", \"warm_units\": " + json::u64(s.warmUnits);
        serve += ", \"rejected\": " + json::u64(s.rejected);
        serve += ", \"bad_requests\": " + json::u64(s.badRequests);
        serve += ", \"inflight_dedups\": " +
                 json::u64(cache().inflightJoins());
        serve += ", \"inflight_units\": " +
                 json::u64(static_cast<std::uint64_t>(
                     std::max(0, inflightUnits_.load())));
        serve += ", \"workers\": " +
                 json::u64(static_cast<std::uint64_t>(
                     options_.workers));
        serve += ", \"max_inflight\": " +
                 json::u64(static_cast<std::uint64_t>(
                     options_.maxInflight));
        serve += "}";
        reply(conn, "{\"event\": \"stats\", \"cache\": " +
                        cacheStatsJson(cache()) +
                        ", \"serve\": " + serve + "}");
        traceEvent(id, "done");
        return true;
    }
    if (op == "shutdown") {
        reply(conn, "{\"event\": \"shutdown\"}");
        traceEvent(id, "done");
        requestStop();
        return false;
    }
    if (op == "run")
        return handleRun(conn, request, id);
    if (op == "tournament")
        return handleTournament(conn, request, id);

    badRequests_.inc();
    traceEvent(id, "error", ", \"code\": \"bad-request\"");
    replyError(conn, "bad-request", "unknown op '" + op + "'");
    return true;
}

bool
Server::handleRun(const std::shared_ptr<Connection> &conn,
                  const json::Value &request, std::uint64_t id)
{
    auto failRequest = [&](const std::string &message) {
        badRequests_.inc();
        traceEvent(id, "error", ", \"code\": \"bad-request\"");
        replyError(conn, "bad-request", message);
        return true;
    };

    // ---- validate everything before admitting anything. Registry
    // lookups that are fatal on bad input run here, on the scoped
    // connection thread, where fatal throws (caught by our caller into
    // a bad-request reply) — never on a pool worker mid-stream.
    const json::Value *benches = request.get("benches");
    if (!benches || !benches->isArray() || benches->array.empty())
        return failRequest("run needs a non-empty \"benches\" array");

    RunnerConfig config = options_.config;
    config.instructions =
        request.getU64("instructions", config.instructions);
    config.warmup = request.getU64("warmup", config.warmup);
    config.intervalInstructions = static_cast<int>(request.getU64(
        "interval",
        static_cast<std::uint64_t>(config.intervalInstructions)));
    config.clockSeed = request.getU64("seed", config.clockSeed);
    if (config.instructions == 0 || config.intervalInstructions <= 0)
        return failRequest("\"instructions\" and \"interval\" must be "
                           "positive");

    ClockMode mode = ClockMode::Mcd;
    std::string mode_text = request.getString("mode", "mcd");
    if (mode_text == "sync")
        mode = ClockMode::Synchronous;
    else if (mode_text != "mcd")
        return failRequest(
            "\"mode\" must be \"mcd\" or \"sync\", not \"" +
            mode_text + "\"");

    Hertz freq = request.getNumber("freq", 0.0);
    if (freq < 0.0)
        return failRequest("\"freq\" must be non-negative");

    // parseControllerSpec and create() are fatal on malformed text /
    // unknown names / bad params; under the connection thread's scope
    // that surfaces as a bad-request reply.
    ControllerSpec controller;
    std::string controller_text = request.getString("controller");
    if (!controller_text.empty())
        controller = parseControllerSpec(controller_text);
    ControllerRegistry::instance().create(controller);

    std::vector<ExperimentSpec> specs;
    for (const json::Value &entry : benches->array) {
        if (!entry.isString())
            return failRequest(
                "\"benches\" entries must be scenario names");
        if (!ScenarioRegistry::instance().contains(entry.string))
            return failRequest("unknown scenario '" + entry.string +
                               "'");
        // Family instances parse their knobs here — eagerly, so a bad
        // knob is a bad-request now rather than a fatal inside a
        // worker (or a nested sweep thread) later.
        ScenarioRegistry::instance().spec(entry.string);

        ExperimentSpec spec;
        spec.benchmark = entry.string;
        spec.mode = mode;
        spec.startFreq = freq;
        spec.controller = controller;
        spec.config = config;
        specs.push_back(std::move(spec));
    }

    traceEvent(id, "validated",
               ", \"units\": " + json::u64(specs.size()));

    // ---- admission: all-or-nothing against the in-flight bound, so
    // a rejected run never interleaves an `overloaded` error into a
    // partially admitted result stream.
    int units = static_cast<int>(specs.size());
    int current = inflightUnits_.load();
    do {
        if (current + units > options_.maxInflight) {
            rejected_.inc();
            traceEvent(id, "error",
                       ", \"code\": \"overloaded\"");
            replyError(conn, "overloaded",
                       std::to_string(units) + " units would exceed "
                       "the in-flight bound of " +
                       std::to_string(options_.maxInflight) +
                       " (retry later, or raise --max-inflight)");
            return true;
        }
    } while (!inflightUnits_.compare_exchange_weak(current,
                                                   current + units));
    runRequests_.inc();

    struct RunState
    {
        std::mutex m;
        std::condition_variable cv;
        std::size_t done = 0;
        std::size_t ok = 0;
        std::uint64_t cold = 0;
        std::uint64_t warm = 0;
        std::uint64_t bytes = 0;    //!< result-frame payload bytes
        bool executing = false;     //!< first unit started
        bool streaming = false;     //!< first result frame written
    };
    auto state = std::make_shared<RunState>();
    std::size_t total = specs.size();
    auto queued_at = std::chrono::steady_clock::now();
    traceEvent(id, "queued");

    for (std::size_t i = 0; i < specs.size(); ++i) {
        ThreadPool::shared().submit([this, conn, state, queued_at,
                                     id, spec = specs[i], i] {
            FatalErrorScope worker_scope;
            {
                std::lock_guard<std::mutex> lock(state->m);
                if (!state->executing) {
                    state->executing = true;
                    auto wait_ns = static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() -
                            queued_at)
                            .count());
                    queueNs_->record(wait_ns);
                    traceEvent(id, "executing",
                               ", \"queue_wait_ns\": " +
                                   json::u64(wait_ns));
                }
            }
            bool cold = !cache().cachedHint(spec.cacheKey());
            bool ok = false;
            std::string out;
            try {
                SimStats stats = cache().getOrRun(spec);
                out = "{\"event\": \"result\", \"index\": " +
                      json::u64(i) + ", \"benchmark\": " +
                      json::str(spec.benchmark) + ", \"cold\": " +
                      (cold ? "true" : "false") + ", \"payload\": " +
                      json::str(experimentResultJson(spec, stats)) +
                      "}";
                ok = true;
            } catch (const std::exception &e) {
                out = errorJson("internal", spec.benchmark +
                                                ": " + e.what());
            }
            reply(conn, out);
            inflightUnits_.fetch_sub(1);
            unitsExecuted_.inc();
            if (cold)
                coldUnits_.inc();
            else
                warmUnits_.inc();
            std::lock_guard<std::mutex> lock(state->m);
            state->bytes += out.size();
            if (!state->streaming) {
                state->streaming = true;
                traceEvent(id, "streaming");
            }
            ++state->done;
            if (ok)
                ++state->ok;
            if (cold)
                ++state->cold;
            else
                ++state->warm;
            state->cv.notify_all();
        });
    }

    // The reader blocks here (not in the pool — no starvation) until
    // every unit has streamed, then seals the stream with `done`.
    std::unique_lock<std::mutex> lock(state->m);
    state->cv.wait(lock, [&] { return state->done == total; });
    reply(conn, "{\"event\": \"done\", \"results\": " +
                    json::u64(state->ok) + ", \"cold_units\": " +
                    json::u64(state->cold) + ", \"warm_units\": " +
                    json::u64(state->warm) + "}");
    auto exec_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - queued_at)
            .count());
    execNs_->record(exec_ns);
    traceEvent(id, "done",
               ", \"exec_ns\": " + json::u64(exec_ns) +
                   ", \"results\": " + json::u64(state->ok) +
                   ", \"cold_units\": " + json::u64(state->cold) +
                   ", \"warm_units\": " + json::u64(state->warm) +
                   ", \"bytes_streamed\": " +
                   json::u64(state->bytes));
    return true;
}

bool
Server::handleTournament(const std::shared_ptr<Connection> &conn,
                         const json::Value &request, std::uint64_t id)
{
    auto failRequest = [&](const std::string &message) {
        badRequests_.inc();
        traceEvent(id, "error", ", \"code\": \"bad-request\"");
        replyError(conn, "bad-request", message);
        return true;
    };

    TournamentOptions opts;
    opts.config = options_.config;
    opts.targetDeg = request.getNumber("target_deg", 0.05);
    if (opts.targetDeg < 0.0 || opts.targetDeg > 1.0)
        return failRequest(
            "\"target_deg\" must be a fraction in [0, 1]");

    const json::Value *scenarios = request.get("scenarios");
    if (scenarios) {
        if (!scenarios->isArray())
            return failRequest(
                "\"scenarios\" must be an array of names");
        for (const json::Value &entry : scenarios->array) {
            if (!entry.isString() ||
                !ScenarioRegistry::instance().contains(entry.string))
                return failRequest(
                    "unknown scenario in \"scenarios\"");
            ScenarioRegistry::instance().spec(entry.string); // knobs
            opts.scenarios.push_back(entry.string);
        }
    }
    if (opts.scenarios.empty())
        opts.scenarios = adversarialCorpus();

    const json::Value *controllers = request.get("controllers");
    if (controllers) {
        if (!controllers->isArray())
            return failRequest(
                "\"controllers\" must be an array of specs");
        for (const json::Value &entry : controllers->array) {
            if (!entry.isString())
                return failRequest("\"controllers\" entries must be "
                                   "controller spec strings");
            TournamentEntry te;
            te.label = entry.string;
            te.spec = parseControllerSpec(entry.string); // may throw
            ControllerRegistry::instance().create(te.spec); // params
            opts.controllers.push_back(std::move(te));
        }
    }
    if (opts.controllers.empty())
        opts.controllers = defaultTournamentEntries();

    int units = static_cast<int>(opts.scenarios.size() *
                                 opts.controllers.size());
    traceEvent(id, "validated",
               ", \"units\": " +
                   json::u64(static_cast<std::uint64_t>(units)));
    int current = inflightUnits_.load();
    do {
        if (current + units > options_.maxInflight) {
            rejected_.inc();
            traceEvent(id, "error", ", \"code\": \"overloaded\"");
            replyError(conn, "overloaded",
                       std::to_string(units) + " tournament cells "
                       "would exceed the in-flight bound of " +
                       std::to_string(options_.maxInflight));
            return true;
        }
    } while (!inflightUnits_.compare_exchange_weak(current,
                                                   current + units));
    runRequests_.inc();
    auto queued_at = std::chrono::steady_clock::now();
    traceEvent(id, "queued");
    traceEvent(id, "executing", ", \"queue_wait_ns\": 0");

    // The tournament runs on this connection thread: it is a batch
    // product with its own internal parallelism (nested sweeps via
    // config.jobs), not a streamable unit list.
    std::string out;
    try {
        std::uint64_t sims_before = cache().simulationsRun();
        TournamentResult result = runTournament(opts, cache());
        bool cold = cache().simulationsRun() > sims_before;
        out = "{\"event\": \"result\", \"index\": 0, \"benchmark\": "
              "\"tournament\", \"cold\": " +
              std::string(cold ? "true" : "false") +
              ", \"payload\": " +
              json::str(renderTournamentJson(opts, result)) + "}";
        reply(conn, out);
        traceEvent(id, "streaming");
        inflightUnits_.fetch_sub(units);
        unitsExecuted_.inc(static_cast<std::uint64_t>(units));
        if (cold)
            coldUnits_.inc();
        else
            warmUnits_.inc();
        reply(conn, std::string("{\"event\": \"done\", \"results\": "
                                "1, \"cold_units\": ") +
                        (cold ? "1" : "0") + ", \"warm_units\": " +
                        (cold ? "0" : "1") + "}");
        auto exec_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - queued_at)
                .count());
        execNs_->record(exec_ns);
        traceEvent(id, "done",
                   ", \"exec_ns\": " + json::u64(exec_ns) +
                       ", \"results\": 1, \"cold_units\": " +
                       (cold ? "1" : "0") + ", \"warm_units\": " +
                       (cold ? "0" : "1") + ", \"bytes_streamed\": " +
                       json::u64(out.size()));
    } catch (const std::exception &e) {
        inflightUnits_.fetch_sub(units);
        badRequests_.inc();
        traceEvent(id, "error", ", \"code\": \"bad-request\"");
        replyError(conn, "bad-request", e.what());
    }
    return true;
}

} // namespace mcd::serve
