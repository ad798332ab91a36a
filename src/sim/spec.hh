/**
 * @file
 * Declarative experiment specs: one dependency-free key=value text
 * file describes a full SimConfig plus a sweep matrix, so a device x
 * scheduler x workload study is a data file instead of a bench binary.
 *
 * Format: one `key = value` pair per line; `#` starts a comment;
 * blank lines are ignored. The keys are the knob table's
 * (sim/knobs.hh); `run_experiment --help` lists every key with its
 * values. Axis keys accept comma-separated lists and expand into a
 * full cross product; every axis defaults to the baseline's single
 * value, so an empty file describes exactly one Table 2 run.
 *
 * Stacked-only keys are rejected with a named error when any swept
 * device is a flat JEDEC part, and tiered-only keys unless
 * `tier = on` is set: a silently ignored knob would masquerade as a
 * null result.
 */

#ifndef CLOUDMC_SIM_SPEC_HH
#define CLOUDMC_SIM_SPEC_HH

#include <optional>
#include <string>
#include <vector>

#include "experiment.hh"
#include "sim_config.hh"
#include "workload/presets.hh"

namespace mcsim {

/** A parsed spec: the base configuration plus the sweep axes. */
struct ExperimentSpec
{
    SimConfig base;

    std::vector<std::string> devices; ///< Registry names.
    std::vector<SchedulerKind> schedulers;
    std::vector<PagePolicyKind> policies;
    std::vector<MappingScheme> mappings;
    std::vector<BankGroupMapping> groupMappings;
    std::vector<std::uint32_t> channelCounts;
    /** Stacked-only vault-count sweep; empty runs every device at its
     *  registry vault count. */
    std::vector<std::uint32_t> vaultCounts;
    std::vector<WorkloadId> workloads;

    /** The `backend` key: every swept device must compose this
     *  backend, and `stacked` with no device axis selects HMC2-8GB. */
    std::optional<MemBackendKind> backend;

    /** Attach single-core alone-run baselines to every point so the
     *  sweep reports slowdown/fairness metrics (the `fairness` key). */
    bool fairness = false;

    /** Keys set so far, in first-set order; the scope checks name the
     *  first offender. */
    std::vector<std::string> given;

    /** Set knob @p key (or its plural alias) to @p value. Returns ""
     *  or a one-line error; on error the spec is unchanged. */
    std::string set(const std::string &key, const std::string &value);

    /**
     * Check the spec once all input is read (backend/device agreement,
     * knob scopes, vault capacity, monitor region bounds), then shape
     * the base config with every single-valued axis, so a spec doubles
     * as a plain configuration for one-off runs. Returns "" or a
     * one-line error.
     */
    std::string finish();

    /** Number of points the cross product expands to. */
    std::size_t pointCount() const;

    /**
     * Expand the cross product into runnable points (device-major,
     * workload-minor). Each point's SimConfig carries the device's
     * timings/power/geometry and the derived clock domains; with
     * `fairness` set each point also carries its alone-run baseline.
     */
    std::vector<ExperimentRunner::Point> points() const;
};

/**
 * Parse spec text. Returns an empty string on success, otherwise a
 * one-line diagnostic ("line N: ..." for a bad line). @p out is
 * default-initialized first and is only meaningful on success.
 */
std::string parseExperimentSpec(const std::string &text,
                                ExperimentSpec &out);

/**
 * Apply a spec file's lines to @p spec in order, without resetting it
 * or calling finish() (the --config flag). Returns "" or a one-line
 * error naming the file.
 */
std::string applySpecFile(const std::string &path, ExperimentSpec &spec);

/** Load and parse a spec file; errors include unopenable files. */
std::string loadExperimentSpec(const std::string &path,
                               ExperimentSpec &out);

} // namespace mcsim

#endif // CLOUDMC_SIM_SPEC_HH
