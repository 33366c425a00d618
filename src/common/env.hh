/**
 * @file
 * One place for `MCD_*` environment-variable parsing. Every consumer
 * (RunnerConfig, the bench binaries, mcd_cli) goes through these
 * helpers, so the edge-case rules are uniform: malformed, zero-when-
 * positive-required, or negative values are ignored and the caller's
 * default kept, while explicitly-permitted zeros (e.g. MCD_WARMUP=0)
 * are honored.
 */

#ifndef MCD_COMMON_ENV_HH
#define MCD_COMMON_ENV_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mcd
{

/**
 * Parse environment variable `name` as a decimal integer. Returns
 * `fallback` when the variable is unset, not a number (leading junk or
 * trailing junk both disqualify), or below `min`.
 */
std::int64_t envInt64(const char *name, std::int64_t fallback,
                      std::int64_t min = 1);

/** envInt64 narrowed to int. */
int envInt(const char *name, int fallback, int min = 1);

/** envInt64 for unsigned quantities (counts of instructions). */
std::uint64_t envU64(const char *name, std::uint64_t fallback,
                     std::uint64_t min = 1);

/**
 * Read environment variable `name` as a non-empty string (e.g. the
 * MCD_STORE artifact-store root). Returns `fallback` when the
 * variable is unset, empty, or all whitespace — a blank path is a
 * typo, not a request for a store rooted at "" — and the value
 * verbatim otherwise.
 */
std::string envString(const char *name,
                      const std::string &fallback = "");

/** Split an arbitrary string on commas, dropping empty items. */
std::vector<std::string> splitList(const std::string &text);

/**
 * Split a comma-separated scenario list, keeping parametric family
 * names whole: a fragment that looks like a bare knob ("ilp=4" — has
 * '=' but no ':') is re-joined onto the preceding family item
 * ("synthetic:mem=0.8"), so "gsm,synthetic:mem=0.8,ilp=4,mcf" yields
 * {"gsm", "synthetic:mem=0.8,ilp=4", "mcf"}.
 */
std::vector<std::string> splitScenarioList(const std::string &text);

/** splitScenarioList over environment variable `name` ({} if unset). */
std::vector<std::string> envScenarioList(const char *name);

} // namespace mcd

#endif // MCD_COMMON_ENV_HH
