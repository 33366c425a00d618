#include "common/logging.hh"

#include <cstdarg>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "telemetry/events.hh"
#include "telemetry/stat_registry.hh"

namespace mcd
{

namespace
{

// Depth of active FatalErrorScopes on this thread. A scope must be
// entered on the thread that hits the fatal — the serve layer enters
// one on each connection and worker thread it owns.
thread_local int fatal_scope_depth = 0;

// MCD_LOG_JSON=1 switches warn/inform to one-line JSON records so
// daemon and fleet stderr is machine-parseable. Checked live (not
// cached): log calls are never hot, and tests flip the variable.
bool
logJson()
{
    const char *v = std::getenv("MCD_LOG_JSON");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
emitLog(std::FILE *stream, const char *level, const std::string &msg)
{
    if (!logJson()) {
        std::fprintf(stream, "%s: %s\n", level, msg.c_str());
        return;
    }
    std::fprintf(
        stream,
        "{\"ts\": %llu, \"level\": \"%s\", \"thread\": %llu, "
        "\"msg\": \"%s\"}\n",
        static_cast<unsigned long long>(telemetry::wallClockNs()),
        level,
        static_cast<unsigned long long>(
            std::hash<std::thread::id>{}(std::this_thread::get_id())),
        jsonEscape(msg).c_str());
}

} // namespace

FatalErrorScope::FatalErrorScope() { ++fatal_scope_depth; }

FatalErrorScope::~FatalErrorScope() { --fatal_scope_depth; }

namespace logging_detail
{

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (len < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<std::size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<std::size_t>(len));
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (fatal_scope_depth > 0)
        throw FatalError(msg);
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    static telemetry::Counter &count =
        telemetry::StatRegistry::instance().counter("log.warn");
    count.inc();
    emitLog(stderr, "warn", msg);
}

void
informImpl(const std::string &msg)
{
    static telemetry::Counter &count =
        telemetry::StatRegistry::instance().counter("log.inform");
    count.inc();
    emitLog(stdout, "info", msg);
}

} // namespace logging_detail
} // namespace mcd
