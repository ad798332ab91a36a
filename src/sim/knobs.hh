/**
 * @file
 * The knob table: one entry per experiment knob. Spec files, the
 * command line, --help, the scope checks, sweep expansion, the
 * results-cache key and repro specs all loop over it, so a knob is
 * declared in exactly one place.
 *
 * Every knob is a spec-file key (`key = value`) and a flag (`--key
 * value`, with '-' for '_'). Axis knobs take comma-separated lists
 * and expand a sweep's cross product.
 */

#ifndef CLOUDMC_SIM_KNOBS_HH
#define CLOUDMC_SIM_KNOBS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "experiment.hh"
#include "sim_config.hh"

namespace mcsim {

struct ExperimentSpec;

/** Where a knob has an effect. Outside its scope a knob is dormant:
 *  left out of the results-cache key and of repro specs. */
enum class KnobScope
{
    Any,
    /** Multi-group parts. Legal but a no-op on single-group ones,
     *  where both bank-group placements are the same layout. */
    Grouped,
    /** Stacked parts; setting it for a flat part is a named error. */
    Stacked,
    /** `tier = on`; setting it otherwise is a named error. */
    Tiered,
};

/** Parse a decimal unsigned integer that fits 64 bits; false on
 *  anything else (signs, blanks, trailing text, overflow). */
bool parseUint(const std::string &text, std::uint64_t &out);

/** @p s without leading and trailing ASCII whitespace. */
std::string trimSpace(const std::string &s);

/** Does @p scope hold for @p cfg? */
bool knobInScope(KnobScope scope, const SimConfig &cfg);

/** One experiment knob: its names, help text and behaviour. */
struct Knob
{
    Knob(const char *key, const char *plural, const char *syntax,
         const char *help, KnobScope scope = KnobScope::Any)
        : key(key), plural(plural), syntax(syntax), help(help),
          scope(scope)
    {
    }

    const char *key;
    const char *plural; ///< Plural spec alias, or nullptr.
    const char *syntax; ///< Value syntax shown by --help.
    const char *help;   ///< One-line meaning shown by --help.
    KnobScope scope;
    bool axis = false;
    /** Changes how a point runs, never what it computes
     *  (kernel_threads): in repro specs but not in the cache key. */
    bool execOnly = false;
    /** The value a bare flag means (`--fairness`), or nullptr when
     *  the flag takes the next argument. */
    const char *bareFlag = nullptr;

    /** Range-check @p value and store it; returns "" or an error. */
    std::function<std::string(const std::string &value,
                              ExperimentSpec &spec)>
        parse;
    /** The knob's value in a point, as spec text. Empty for knobs
     *  that are not part of a point (fairness). */
    std::function<std::string(const ExperimentRunner::Point &p)> format;
    /** Axis knobs: how many values the spec sweeps (0 = unset), and
     *  applying value @p i to a point. */
    std::function<std::size_t(const ExperimentSpec &spec)> count;
    std::function<void(const ExperimentSpec &spec, std::size_t i,
                       ExperimentRunner::Point &p)>
        pick;

    /** Part of the results-cache key (when in scope). */
    bool keyed() const { return format && !execOnly; }
};

/** Every knob. Axis knobs come first, in sweep order (device-major,
 *  workload-minor). */
const std::vector<Knob> &knobTable();

/** The knob whose key or plural alias is @p name, or nullptr. */
const Knob *findKnob(const std::string &name);

/**
 * Canonical text of what a point simulates: every keyed, in-scope
 * knob as `key=value;`, then the code-only tunables no knob exposes
 * (scheduler parameters, controller, crossbar, geometry, caches,
 * cores, remap tuning). ExperimentRunner::configKey hashes it.
 */
std::string canonicalPointText(const ExperimentRunner::Point &p);

/** @p p as a runnable spec: one `key = value` line per in-scope knob
 *  with a value, kernel_threads included. */
std::string pointSpecText(const ExperimentRunner::Point &p);

/** The --help block describing every knob. */
std::string knobHelpText();

} // namespace mcsim

#endif // CLOUDMC_SIM_KNOBS_HH
