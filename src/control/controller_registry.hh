/**
 * @file
 * Declarative controller layer: a `ControllerSpec` names a registered
 * controller family plus its numeric parameters, and the
 * `ControllerRegistry` turns specs into `FrequencyController`
 * instances. Adding a controller to the experiment stack is one
 * registration — every spec-driven consumer (ExperimentSpec and the
 * specs built on it, the figure benches, mcd_cli) picks it up with no
 * new plumbing.
 *
 * Built-in registrations:
 *   none                   uncontrolled (domains stay at the start
 *                          frequency; the synchronous reference and
 *                          baseline machines)
 *   constant               all controlled domains pinned to `freq`
 *   profiling              domains at maximum, per-interval activity
 *                          recorded (the off-line profiling pass)
 *   schedule               replays ControllerSpec::schedule
 *   attack_decay           the paper's Listing 1 controller
 *   frontend_attack_decay  Section 7 future-work extension: Listing 1
 *                          applied to the front end too
 */

#ifndef MCD_CONTROL_CONTROLLER_REGISTRY_HH
#define MCD_CONTROL_CONTROLLER_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "control/attack_decay.hh"
#include "control/basic_controllers.hh"

namespace mcd
{

/** A controller, declaratively: registry name + parameters. */
struct ControllerSpec
{
    std::string name = "none";

    /**
     * Numeric knobs, interpreted by the named factory. Unknown keys
     * are fatal (they are typos, not extensions). Booleans are 0/1.
     */
    std::map<std::string, double> params;

    /** Payload for the "schedule" controller (ignored by others). */
    std::vector<FrequencyVector> schedule;

    /**
     * Append an exact, unambiguous serialization (length-prefixed
     * strings, raw IEEE-754 bytes for doubles) to `out`; the
     * artifact cache key builders use this, so equal serializations
     * must imply bit-identical controller behavior.
     */
    void appendTo(std::string &out) const;
};

/** Parse "name" or "name:k=v,k=v" into a spec (fatal on bad input). */
ControllerSpec parseControllerSpec(const std::string &text);

/** The spec equivalent of an AttackDecayConfig (exact round-trip). */
ControllerSpec attackDecaySpec(const AttackDecayConfig &config,
                               const std::string &name = "attack_decay");

/** Rebuild an AttackDecayConfig from spec params (exact round-trip). */
AttackDecayConfig attackDecayConfigFromSpec(const ControllerSpec &spec);

/** Name + params -> FrequencyController factories. */
class ControllerRegistry
{
  public:
    /**
     * A factory may return nullptr to mean "run uncontrolled" (the
     * built-in "none" does); the simulator treats a null controller as
     * constant maximum frequencies.
     */
    using Factory = std::function<std::unique_ptr<FrequencyController>(
        const ControllerSpec &)>;

    struct Info
    {
        std::string name;
        std::string description;
    };

    /** The process-wide registry, with built-ins pre-registered. */
    static ControllerRegistry &instance();

    /** Register a controller family; fatal on duplicate names. */
    void add(const std::string &name, const std::string &description,
             Factory factory);

    bool contains(const std::string &name) const;

    /** Instantiate a spec; fatal on unknown names or bad params. */
    std::unique_ptr<FrequencyController>
    create(const ControllerSpec &spec) const;

    /** All registered families, sorted by name. */
    std::vector<Info> list() const;

    /**
     * Fatal unless every key of `spec.params` appears in `allowed`;
     * factories call this so parameter typos fail loudly instead of
     * silently running defaults.
     */
    static void checkParams(const ControllerSpec &spec,
                            const std::vector<std::string> &allowed);

  private:
    ControllerRegistry() = default;

    std::map<std::string, Info> infos_;
    std::map<std::string, Factory> factories_;
};

} // namespace mcd

#endif // MCD_CONTROL_CONTROLLER_REGISTRY_HH
