#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace mcd
{

std::int64_t
envInt64(const char *name, std::int64_t fallback, std::int64_t min)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return fallback;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0')
        return fallback;
    if (v < min)
        return fallback;
    return static_cast<std::int64_t>(v);
}

int
envInt(const char *name, int fallback, int min)
{
    std::int64_t v = envInt64(name, fallback, min);
    // Out-of-int-range counts as malformed, like any other bad value:
    // silently wrapping a typo into a tiny interval would be worse
    // than keeping the default.
    if (v > std::numeric_limits<int>::max())
        return fallback;
    return static_cast<int>(v);
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback, std::uint64_t min)
{
    std::int64_t v = envInt64(name, -1, static_cast<std::int64_t>(min));
    if (v < 0)
        return fallback;
    return static_cast<std::uint64_t>(v);
}

std::string
envString(const char *name, const std::string &fallback)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return fallback;
    bool blank = true;
    for (const char *p = s; *p; ++p)
        blank = blank && std::isspace(static_cast<unsigned char>(*p));
    if (blank)
        return fallback;
    return s;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

std::vector<std::string>
splitScenarioList(const std::string &text)
{
    std::vector<std::string> items;
    for (const std::string &item : splitList(text)) {
        bool knob = item.find('=') != std::string::npos &&
                    item.find(':') == std::string::npos;
        if (knob && !items.empty() &&
            items.back().find(':') != std::string::npos) {
            items.back() += "," + item;
        } else {
            items.push_back(item);
        }
    }
    return items;
}

std::vector<std::string>
envScenarioList(const char *name)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return {};
    return splitScenarioList(s);
}

} // namespace mcd
