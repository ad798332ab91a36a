/**
 * @file
 * Command-line configuration for the examples and one-off experiment
 * runs: every knob of the knob table (sim/knobs.hh) is a flag
 * (`--key value`, '-' for '_'), applied to the same ExperimentSpec a
 * spec file fills, with generated --help/--list text. Keeps every
 * tool's flag vocabulary identical to the spec-file keys.
 */

#ifndef CLOUDMC_SIM_OPTIONS_HH
#define CLOUDMC_SIM_OPTIONS_HH

#include <string>
#include <vector>

#include "sim_config.hh"
#include "spec.hh"
#include "workload/presets.hh"

namespace mcsim {

/** Parsed command line for an experiment-style tool. */
struct ExperimentOptions
{
    SimConfig config = SimConfig::baseline();
    WorkloadId workload = WorkloadId::DS;
    bool csv = false;
    /** Set by --fairness: run alone-run baselines and report the
     *  slowdown/fairness metrics (also turned on by a spec's
     *  `fairness = on` key). */
    bool fairness = false;
    /** Leftover positional arguments, in order. */
    std::vector<std::string> positional;
    /** Set when --help was requested; the caller should print usage. */
    bool helpRequested = false;
    /** Set when --list was requested; print listText() and exit. */
    bool listRequested = false;
    /** The knobs set by flags and --config files; `config` is its
     *  base. hasSpec records that a --config file was loaded. */
    ExperimentSpec spec;
    bool hasSpec = false;

    /**
     * Parse argv (excluding argv[0]). Returns an empty string on
     * success, or a one-line error describing the offending argument.
     * `usage()` lists every flag. Flags and `--config <file>` lines
     * apply to `spec` in order, so a later axis flag collapses that
     * axis of a loaded sweep to its value; the scope checks run once
     * all arguments are read. `config` is then the spec's base (every
     * single-valued axis applied) and `workload` its single workload.
     * A bare workload acronym is the workload knob; other positional
     * arguments are kept. `--fast <divisor>` shortens the windows set
     * so far.
     */
    std::string parse(int argc, char **argv);

    /** Usage text: every knob flag and spec key, then listText(). */
    static std::string usage(const std::string &tool);

    /** The --list payload: every scheduler, page policy, mapping,
     *  DRAM device (with timings summary) and workload, one block
     *  each. Also appended to usage(). */
    static std::string listText();
};

} // namespace mcsim

#endif // CLOUDMC_SIM_OPTIONS_HH
