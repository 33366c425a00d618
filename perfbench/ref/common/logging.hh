/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * panic() is for internal invariant violations (simulator bugs): it
 * aborts. fatal() is for user errors (bad configuration): it exits with a
 * nonzero status. warn()/inform() report conditions without stopping the
 * simulation.
 */

#ifndef MCD_COMMON_LOGGING_HH
#define MCD_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace mcd
{

/**
 * What mcd_fatal raises instead of exiting while a FatalErrorScope is
 * active on the calling thread. Carries the formatted message.
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII guard turning mcd_fatal into a thrown FatalError on this
 * thread. User errors (bad configuration text, unknown registry
 * names, out-of-range knobs) exit the process in batch tools — the
 * right behavior for a CLI — but a long-lived daemon serving many
 * clients must survive one client's typo. The serve layer wraps
 * request validation and execution in a scope, catches FatalError,
 * and turns it into a structured error reply. Scopes nest; mcd_panic
 * (invariant violations) still aborts regardless.
 */
class FatalErrorScope
{
  public:
    FatalErrorScope();
    ~FatalErrorScope();

    FatalErrorScope(const FatalErrorScope &) = delete;
    FatalErrorScope &operator=(const FatalErrorScope &) = delete;
};

namespace logging_detail
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Minimal printf-style formatter returning a std::string. */
std::string format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace logging_detail

/** Abort on an internal invariant violation (a simulator bug). */
#define mcd_panic(...)                                                       \
    ::mcd::logging_detail::panicImpl(                                        \
        __FILE__, __LINE__, ::mcd::logging_detail::format(__VA_ARGS__))

/** Exit on a user/configuration error. */
#define mcd_fatal(...)                                                       \
    ::mcd::logging_detail::fatalImpl(                                        \
        __FILE__, __LINE__, ::mcd::logging_detail::format(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define mcd_warn(...)                                                        \
    ::mcd::logging_detail::warnImpl(::mcd::logging_detail::format(__VA_ARGS__))

/** Report normal status. */
#define mcd_inform(...)                                                      \
    ::mcd::logging_detail::informImpl(                                       \
        ::mcd::logging_detail::format(__VA_ARGS__))

} // namespace mcd

#endif // MCD_COMMON_LOGGING_HH
