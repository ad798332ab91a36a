/**
 * @file
 * Command lines. ExperimentOptions serves one-off experiment runs:
 * every knob of the knob table (sim/knobs.hh) is a flag (`--key
 * value`, '-' for '_'), applied to the same ExperimentSpec a spec file
 * fills, with generated --help/--list text. FlagSet serves the bench
 * and example binaries, which build their own configs: each declares
 * the few flags it takes, typed and range-checked, and a bad command
 * line stops it before anything is simulated.
 */

#ifndef CLOUDMC_SIM_OPTIONS_HH
#define CLOUDMC_SIM_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dram/devices.hh"
#include "sim_config.hh"
#include "spec.hh"
#include "workload/presets.hh"

namespace mcsim {

/**
 * The flags of one bench or example binary, each declared with its
 * type and range, e.g. `FlagSet().flag("--cycles N", cycles, 1)
 * .fast().parse(argc, argv)`. A spelling is the flag, then after a
 * space the value syntax the usage line shows; a spelling without a
 * space is a bare flag. parse() stores every value; an unknown flag, a
 * missing or malformed value or a stray argument prints a named error
 * and the usage line to stderr and exits 2.
 */
class FlagSet
{
  public:
    /** A bare flag: sets @p on. */
    FlagSet &flag(const char *spelling, bool &on);
    /** An integer in [@p lo, @p hi]. */
    template <typename Uint>
    FlagSet &
    flag(const char *spelling, Uint &n, std::uint64_t lo,
         std::uint64_t hi = std::numeric_limits<Uint>::max())
    {
        static_assert(std::is_unsigned_v<Uint>);
        return add(spelling, [&n, lo, hi](const std::string &v) {
            std::uint64_t wide = 0;
            const std::string err = uintIn(v, lo, hi, wide);
            n = static_cast<Uint>(wide);
            return err;
        });
    }
    /** A number in [@p lo, @p hi). */
    FlagSet &flag(const char *spelling, double &x, double lo, double hi);
    /** Any text (a path). */
    FlagSet &flag(const char *spelling, std::string &text);
    /** A workload acronym, looked up like the workload knob's. */
    FlagSet &flag(const char *spelling, WorkloadId &workload);
    /** A DRAM device registry name. */
    FlagSet &flag(const char *spelling, const DramDevice *&device);
    /** --fast D: a nonzero window divisor, exported as CLOUDMC_FAST
     *  for every ExperimentRunner of the process. */
    FlagSet &fast();
    /** --threads N: the sweep worker count, exported as
     *  CLOUDMC_THREADS (see ExperimentRunner::defaultThreads). */
    FlagSet &threads();
    /** The next bare argument, typed and checked like flag(@p name,
     *  @p out); positionals fill in declaration order. */
    template <typename T>
    FlagSet &
    positional(const char *name, T &out)
    {
        flag(name, out);
        positionals_.push_back(std::move(flags_.back()));
        flags_.pop_back();
        return *this;
    }
    /** --help and --list print the usage line and @p text, exit 0. */
    FlagSet &
    help(std::string text)
    {
        help_ = std::move(text);
        return *this;
    }

    void parse(int argc, char **argv) const;

  private:
    /** Stores a value; returns "" or what the flag needs instead. */
    using Setter = std::function<std::string(const std::string &value)>;
    /** A spelling and its setter. */
    using Flag = std::pair<std::string, Setter>;

    FlagSet &
    add(const char *spelling, Setter set)
    {
        flags_.emplace_back(spelling, std::move(set));
        return *this;
    }
    /** Parse @p v into @p n; "" or what a flag in [lo, hi] needs. */
    static std::string uintIn(const std::string &v, std::uint64_t lo,
                              std::uint64_t hi, std::uint64_t &n);

    std::vector<Flag> flags_;
    std::vector<Flag> positionals_;
    std::string help_;
};

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
