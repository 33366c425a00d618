#include "telemetry/events.hh"

#include <chrono>

#include "common/logging.hh"

namespace mcd
{
namespace telemetry
{

std::uint64_t
wallClockNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

EventLog::EventLog(const std::string &path)
{
    if (path.empty())
        return;
    file_ = std::fopen(path.c_str(), "a");
    if (file_ == nullptr)
        mcd_warn("cannot open event log '%s'; tracing disabled",
                 path.c_str());
}

EventLog::~EventLog()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void
EventLog::append(const std::string &json)
{
    if (file_ == nullptr)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::fwrite(json.data(), 1, json.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
}

} // namespace telemetry
} // namespace mcd
