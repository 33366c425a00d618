/**
 * @file
 * Append-only JSONL event log for structured lifecycle tracing.
 *
 * The serve daemon writes one line per request-lifecycle event
 * (accepted → validated → queued → executing → streaming →
 * done/error) so a day of daemon traffic is greppable and
 * machine-parseable. The log is line-buffered under a mutex: events
 * from concurrent worker threads never interleave within a line, and
 * every line is flushed before append() returns so a crashed daemon
 * loses at most the event being written.
 *
 * The writer is generic — any subsystem can append any one-line JSON
 * object — but disabled (path empty / unopenable) it is a null
 * object: `enabled()` is false and `append()` is a no-op, so call
 * sites need no gating.
 */

#ifndef MCD_TELEMETRY_EVENTS_HH
#define MCD_TELEMETRY_EVENTS_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace mcd
{
namespace telemetry
{

/** Wall-clock nanoseconds since the Unix epoch, for event `ts`
 *  fields. Uses system_clock (not steady) so log lines from
 *  different processes are comparable. */
std::uint64_t wallClockNs();

class EventLog
{
  public:
    /** Opens `path` for append; an empty path (or open failure, which
     *  warns once) leaves the log disabled. */
    explicit EventLog(const std::string &path = "");
    ~EventLog();

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    bool enabled() const { return file_ != nullptr; }

    /** Append one JSON object as a single line. `json` must be a
     *  complete object without a trailing newline. */
    void append(const std::string &json);

  private:
    std::mutex mutex_;
    std::FILE *file_ = nullptr;
};

} // namespace telemetry
} // namespace mcd

#endif // MCD_TELEMETRY_EVENTS_HH
