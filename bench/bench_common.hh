/**
 * @file
 * Shared machinery for the per-figure bench binaries: the scheduler /
 * page-policy / channel sweeps behind the paper's figures, and the
 * table printer that emits the same rows the paper reports.
 *
 * All binaries share one on-disk results cache (see ExperimentRunner),
 * so the full simulation set runs once regardless of which bench
 * binary is invoked first.
 */

#ifndef CLOUDMC_BENCH_BENCH_COMMON_HH
#define CLOUDMC_BENCH_BENCH_COMMON_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/experiment.hh"
#include "sim/options.hh"

namespace mcsim::bench {

/** Extracts the figure's metric from one run's results. */
using MetricFn = std::function<double(const MetricSet &)>;

/** One column of a figure: a configuration label and its per-workload
 *  results keyed by WorkloadId. */
struct Series
{
    std::string label;
    std::map<WorkloadId, MetricSet> results;
};

/** One column of a custom study: a label and its configuration. */
struct LabeledConfig
{
    std::string label;
    SimConfig cfg;
};

/**
 * Run one series per labeled configuration across @p workloads,
 * submitting the whole sweep as a single parallel batch.
 */
std::vector<Series>
runConfigStudy(ExperimentRunner &runner,
               const std::vector<LabeledConfig> &configs,
               const std::vector<WorkloadId> &workloads = {
                   kAllWorkloads.begin(), kAllWorkloads.end()});

/** Run the paper's scheduler sweep (Figures 1-7): 5 schedulers x 12
 *  workloads on the Table 2 baseline. First series is FR-FCFS. */
std::vector<Series> runSchedulerStudy(ExperimentRunner &runner);

/** Run the page-policy sweep (Figures 9-11): 4 policies x 12
 *  workloads under FR-FCFS. First series is OpenAdaptive. */
std::vector<Series> runPagePolicyStudy(ExperimentRunner &runner);

/**
 * Run the multi-channel sweep (Figures 12-14, Table 4). For 2 and 4
 * channels every mapping scheme is simulated; each workload's entry
 * holds its best-IPC scheme (the paper reports best-per-workload).
 * First series is the 1-channel baseline.
 */
std::vector<Series> runChannelStudy(ExperimentRunner &runner);

/**
 * Print a figure: one row per workload plus the three category
 * averages, one column per series. When @p normalizeToFirst is set,
 * values are divided by the first series' value for that workload
 * (the paper's normalization), and category averages are means of the
 * normalized values.
 */
void printFigure(const std::string &title, const std::string &metricName,
                 const std::vector<Series> &series, MetricFn metric,
                 bool normalizeToFirst, int precision = 3,
                 bool csv = false);

/**
 * Standard main() body: parse --csv, --fast D and --threads N
 * (FlagSet, sim/options.hh), then the study. Studies submit their
 * whole sweep as one ExperimentRunner batch, so uncached points run on
 * a worker pool (CLOUDMC_THREADS or the hardware concurrency by
 * default). Returns 0: a bad command line exits inside.
 */
int figureMain(int argc, char **argv, const std::string &title,
               const std::string &metricName,
               std::vector<Series> (*study)(ExperimentRunner &),
               MetricFn metric, bool normalizeToFirst, int precision = 3);

/**
 * Commit fingerprint for perf-trajectory stamps, first hit wins: the
 * CLOUDMC_GIT_SHA environment variable (explicit override), GITHUB_SHA
 * (set by CI), `git rev-parse HEAD` in the current directory at bench
 * time, the SHA CMake captured at configure time (stale across commits
 * without a reconfigure), and "unknown".
 */
std::string gitSha();

} // namespace mcsim::bench

#endif // CLOUDMC_BENCH_BENCH_COMMON_HH
