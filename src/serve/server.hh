/**
 * @file
 * The simulation-as-a-service daemon behind `mcd_cli serve`: one
 * long-lived process holding a warm memory-over-disk ArtifactCache
 * and the process-wide worker pool, serving concurrent clients over a
 * Unix-domain socket speaking the length-framed JSON protocol of
 * serve/protocol.hh.
 *
 * Why a daemon: the batch tools pay the cold-cache cost on every
 * invocation — process start, disk-store reads, and any simulations
 * the store cannot satisfy. A fleet of callers (CI shards, sweep
 * drivers, notebooks) hitting the same spec population does that work
 * N times. The daemon pays it once: the memory layer stays warm
 * across requests, and requests resolve through the exact same
 * `ExperimentSpec -> ArtifactCache::getOrRun` path as `mcd_cli run`,
 * so a served result is byte-identical to the direct CLI's.
 *
 * Concurrency model:
 *  - The accept loop runs on the thread that calls `run()`, polling
 *    the listening socket and a self-pipe (`requestStop()` writes to
 *    it — async-signal-safe, so SIGINT/SIGTERM handlers may call it).
 *  - Each connection gets a reader thread: it parses frames, answers
 *    the cheap verbs inline, and for `run` fans the experiments out
 *    to the shared worker pool, streaming one `result` frame per
 *    experiment as it completes (a per-connection write mutex keeps
 *    frames whole).
 *  - Two clients requesting the same uncached spec concurrently are
 *    deduplicated by the cache's in-flight table: one simulation,
 *    both replies served from it (`ArtifactCache::inflightJoins()`
 *    counts the joins).
 *  - Admission control: at most `maxInflight` experiment units may be
 *    queued or executing across all clients; a `run` that would
 *    exceed the bound is rejected whole with an `overloaded` error
 *    (all-or-nothing — partial admission would interleave rejects
 *    into a result stream).
 *
 * Error containment: request handling and unit execution run under a
 * FatalErrorScope (common/logging.hh), so user errors that exit the
 * batch CLIs (unknown controller params, bad scenario knobs) become
 * structured `error` replies here and the daemon survives. mcd_panic
 * still aborts — an invariant violation means the process state
 * cannot be trusted. Residual risk: a fatal first raised on a thread
 * outside any scope (e.g. in a pool helper of a batch nested inside
 * a unit or a tournament) still exits; validation is therefore
 * eager — scenario specs and controllers are instantiated once on the
 * scoped connection thread before any work is admitted.
 */

#ifndef MCD_SERVE_SERVER_HH
#define MCD_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "harness/experiment.hh"
#include "telemetry/events.hh"
#include "telemetry/stat_registry.hh"

namespace mcd::serve
{

/** How to run a daemon. */
struct ServeOptions
{
    std::string socketPath; //!< Unix-domain socket to bind (required)

    /**
     * Pool threads reserved for units; 0 = ParallelSweep::
     * defaultWorkers(). `config.jobs` is set to it too, so a unit's
     * nested search fans out no wider.
     */
    int workers = 0;

    /**
     * Admission bound: experiment units queued or executing across
     * all clients. Negative derives 4x the worker count — enough
     * queue to keep the pool busy, small enough that a stalled client
     * cannot buffer unbounded work. 0 is honored literally (every run
     * rejected — degenerate, but it makes the admission path
     * testable without load).
     */
    int maxInflight = -1;

    /** Methodology + machine for served runs; `config.store` attaches
     *  the persistent layer (the `--store` flag funnels in here). */
    RunnerConfig config;

    /** Cache every verb serves from (runs and tournaments alike);
     *  nullptr = ArtifactCache::instance(). Tests inject private
     *  instances. */
    ArtifactCache *cache = nullptr;

    /** JSONL request-trace path (`--events` / MCD_EVENTS). Every
     *  request id appends its lifecycle events (accepted → validated
     *  → queued → executing → streaming → done/error) here; empty
     *  disables tracing. */
    std::string eventsPath;
};

/** Daemon-level counters, reported in the `stats` reply's "serve"
 *  block (the cache's own counters travel in the "cache" block). */
struct ServeStats
{
    std::uint64_t requests = 0;     //!< frames parsed and dispatched
    std::uint64_t runRequests = 0;  //!< `run` verbs admitted
    std::uint64_t unitsExecuted = 0; //!< experiment units completed
    std::uint64_t coldUnits = 0;    //!< units not resident at dispatch
    std::uint64_t warmUnits = 0;    //!< units already resident
    std::uint64_t rejected = 0;     //!< admission-control rejections
    std::uint64_t badRequests = 0;  //!< malformed/invalid requests
};

/**
 * The daemon. Construction binds and listens (fatal on failure —
 * there is no daemon without a socket), so a client may connect once
 * the constructor has returned: the kernel queues the connection
 * until `run()` accepts it, and no readiness poll is needed. `run()`
 * serves until a client sends `shutdown` or `requestStop()` is
 * called, then drains, joins, and removes the socket file.
 */
class Server
{
  public:
    explicit Server(ServeOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Serve until shutdown; returns after a clean drain. */
    void run();

    /**
     * Ask the accept loop to exit (idempotent). Async-signal-safe:
     * only writes one byte to the self-pipe, so SIGINT/SIGTERM
     * handlers may call it directly.
     */
    void requestStop();

    const std::string &socketPath() const { return options_.socketPath; }

    /** Snapshot of the daemon counters (test seam). */
    ServeStats stats() const;

  private:
    struct Connection
    {
        ~Connection(); //!< closes fd when the last holder lets go

        int fd = -1;
        std::mutex writeMutex;  //!< one reply frame at a time
        std::atomic<bool> alive{true}; //!< cleared on write failure
    };

    ArtifactCache &cache() const;

    void serveConnection(const std::shared_ptr<Connection> &conn);

    /** Dispatch one parsed request; false closes the connection. */
    bool handleRequest(const std::shared_ptr<Connection> &conn,
                       const json::Value &request);

    bool handleRun(const std::shared_ptr<Connection> &conn,
                   const json::Value &request, std::uint64_t id);
    bool handleTournament(const std::shared_ptr<Connection> &conn,
                          const json::Value &request,
                          std::uint64_t id);

    /** Append one lifecycle event line for request `id`; `extra` is
     *  either empty or `, "key": value` JSON tail text. No-op when
     *  tracing is disabled. */
    void traceEvent(std::uint64_t id, const char *event,
                    const std::string &extra = "");

    /** Write one reply frame; clears `alive` on failure. */
    void reply(const std::shared_ptr<Connection> &conn,
               const std::string &payload);

    void replyError(const std::shared_ptr<Connection> &conn,
                    const std::string &code, const std::string &message);

    ServeOptions options_;
    int listenFd_ = -1;
    int stopPipe_[2] = {-1, -1};
    std::atomic<bool> stopping_{false};

    mutable std::mutex mutex_; //!< guards connections_, threads_
    // Daemon counters as atomics, bound into the StatRegistry under
    // serve.* by the constructor (latest server wins; the destructor
    // unbinds). stats() assembles the legacy ServeStats copy.
    telemetry::Counter requests_;
    telemetry::Counter runRequests_;
    telemetry::Counter unitsExecuted_;
    telemetry::Counter coldUnits_;
    telemetry::Counter warmUnits_;
    telemetry::Counter rejected_;
    telemetry::Counter badRequests_;
    telemetry::Histogram *queueNs_ = nullptr; //!< serve.request.queue_ns
    telemetry::Histogram *execNs_ = nullptr;  //!< serve.request.exec_ns
    telemetry::EventLog events_;
    std::atomic<std::uint64_t> nextRequestId_{0};
    std::atomic<int> inflightUnits_{0};
    std::vector<std::shared_ptr<Connection>> connections_;
    std::vector<std::thread> threads_;
};

} // namespace mcd::serve

#endif // MCD_SERVE_SERVER_HH
