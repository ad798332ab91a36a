/**
 * @file
 * The measured quantities behind every figure in the paper, collected
 * over one measurement window.
 *
 * Units are domain-relative: "cycles" means core cycles and bandwidth
 * utilization is relative to the configured device's peak, both under
 * the SimConfig's ClockDomains — there is no global clock constant.
 * Comparing devices therefore compares wall-clock-equivalent work, not
 * raw cycle counts.
 */

#ifndef CLOUDMC_SIM_METRICS_HH
#define CLOUDMC_SIM_METRICS_HH

#include <cstdint>
#include <variant>
#include <vector>

namespace mcsim {

/** One simulation run's results. */
struct MetricSet
{
    /** Aggregate committed instructions per cycle over all cores. */
    double userIpc = 0.0;
    /** Mean DRAM read latency (controller arrival to last data beat),
     *  in core cycles. Figure 3's quantity. */
    double avgReadLatency = 0.0;
    /** Read latency tail, in core cycles (log-bucket estimates). */
    double readLatencyP50 = 0.0;
    double readLatencyP95 = 0.0;
    double readLatencyP99 = 0.0;
    /** Row-buffer hit rate, percent. Figure 2's quantity. */
    double rowHitRatePct = 0.0;
    /** LLC demand misses per kilo committed instructions. Figure 4. */
    double l2Mpki = 0.0;
    /** Mean read/write queue occupancy summed over controllers.
     *  Figures 5 and 6. */
    double avgReadQueue = 0.0;
    double avgWriteQueue = 0.0;
    /** DRAM data-bus utilization, percent of peak. Figure 7. */
    double bwUtilPct = 0.0;
    /** CAS commands issued to the same (rank, bank group) as the
     *  previous CAS on their channel, percent — the back-to-back
     *  population the tCCD_L (rather than tCCD_S) spacing applies to.
     *  On single-group devices this degenerates to a same-rank
     *  back-to-back fraction (all of a rank's banks share the one
     *  group). */
    double sameGroupCasPct = 0.0;
    /** Activations receiving exactly one access, percent. Figure 8. */
    double singleAccessPct = 0.0;

    /** Per-core IPC (for the ATLAS disparity analysis). */
    std::vector<double> perCoreIpc;
    /** Per-core committed instructions and elapsed core cycles over
     *  the window (the numerator/denominator behind perCoreIpc).
     *  In-memory only; not persisted in the results cache. */
    std::vector<std::uint64_t> perCoreCommitted;
    std::vector<std::uint64_t> perCoreCycles;

    /** Lowest per-core IPC divided by the highest, in [0,1]. The
     *  paper's Section 4.1.1 fairness quantity ("the lowest per core
     *  IPC with FR-FCFS is within 85% of the highest"). */
    double ipcDisparity = 1.0;

    /**
     * Measured slowdown/fairness quantities, derived against alone-run
     * baselines (deriveFairnessMetrics below): each core's slowdown is
     * S_i = IPC_alone,i / IPC_shared,i, where IPC_alone,i comes from a
     * separate simulation of that core's application running with the
     * memory system to itself. This is the real version of the quantity
     * STFM only *estimates* online (sched_stfm.hh), and the standard
     * multiprogrammed-fairness vocabulary the scheduler papers report:
     *
     *  - weightedSpeedup  = sum_i IPC_shared,i / IPC_alone,i
     *  - harmonicSpeedup  = N / sum_i S_i  (harmonic-mean speedup)
     *  - maxSlowdown      = max_i S_i      (the unfairness headline)
     *
     * All zero (and perCoreSlowdown empty) when no baselines were run.
     */
    std::vector<double> perCoreSlowdown;
    double weightedSpeedup = 0.0;
    double harmonicSpeedup = 0.0;
    double maxSlowdown = 0.0;

    /** True when the slowdown/fairness block above was derived. */
    bool hasFairness() const { return !perCoreSlowdown.empty(); }

    /** Estimated DRAM core energy over the window (Micron TN-41-01
     *  style model; see dram/energy.hh), and its average power. */
    double dramEnergyNj = 0.0;
    double dramAvgPowerMw = 0.0;

    /**
     * Stacked-backend quantities (zeros / an empty list on the flat
     * backend). perVaultReadQueue is the mean read-queue occupancy of
     * every vault queue in global queue order; vaultQueueImbalance is
     * the hottest queue's occupancy over the all-queue mean (1.0 =
     * perfectly balanced, 0 when idle). The remap counters total the
     * measurement window's hot-bank migrations and the rows they
     * copied across vaults.
     */
    std::vector<double> perVaultReadQueue;
    double vaultQueueImbalance = 0.0;
    std::uint64_t remapMigrations = 0;
    std::uint64_t remapMigratedRows = 0;

    /**
     * Tiered-backend quantities (zeros on non-tiered configurations).
     * fastTierHitPct is the percent of routed requests served by the
     * fast tier (0 when nothing was routed); slowTierReadLatencyP99 is
     * the slow tier's read-latency tail in core cycles (0 when the
     * slow tier served no reads); the migration counters total the
     * window's tier migrations (tile swaps, or alloy-cache fills) and
     * the rows they copied between tiers.
     */
    double fastTierHitPct = 0.0;
    double slowTierReadLatencyP99 = 0.0;
    std::uint64_t tierMigrations = 0;
    std::uint64_t tierMigratedRows = 0;

    std::uint64_t committedInstructions = 0;
    std::uint64_t measuredCycles = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
};

/**
 * One persisted MetricSet field: its results-cache column name and
 * the member it stores. The table of them (metricFields()) is the
 * cache's column list, so adding a metric to the cache is one entry.
 */
struct MetricField
{
    const char *name;
    std::variant<double MetricSet::*, std::uint64_t MetricSet::*,
                 std::vector<double> MetricSet::*>
        member;
};

/** Every persisted MetricSet field, in results-cache column order.
 *  In-memory-only fields (perCoreCommitted, perCoreCycles) are not
 *  listed. */
const std::vector<MetricField> &metricFields();

/**
 * The exact identity check: the name of the first field in which @p a
 * and @p b differ, walking every metricFields() entry (lists element
 * by element) and then perCoreCommitted and perCoreCycles, or nullptr
 * when they hold the same values. Doubles compare with ==, so +0
 * matches -0 and a NaN matches nothing.
 */
const char *firstDifferentMetric(const MetricSet &a, const MetricSet &b);

/**
 * One alone-run baseline covering a contiguous core range of a shared
 * run: cores [firstCore, firstCore + numCores) of the shared run are
 * measured against @p alone. The baseline run must expose either
 * exactly @p numCores per-core IPCs (part-isolated mix baselines, core
 * l of the range maps to baseline core l) or exactly one (single-core
 * alone run of a homogeneous preset, broadcast to every covered core).
 */
struct AloneBaselineMetrics
{
    std::uint32_t firstCore = 0;
    std::uint32_t numCores = 0;
    const MetricSet *alone = nullptr;
};

/**
 * Derive @p shared's slowdown/fairness block from alone-run baselines.
 * Every core of the shared run must be covered by exactly one
 * baseline, and both runs must carry per-core IPCs. Returns false
 * (leaving the fairness fields zeroed) when coverage or per-core data
 * is missing. Cores whose alone run committed nothing contribute a
 * slowdown of 1 and no weighted-speedup share; a core starved to zero
 * committed instructions in the *shared* run scores the largest
 * finite slowdown the window can attest to (as if it had committed
 * one instruction), so starvation inflates maxSlowdown instead of
 * masquerading as perfect fairness.
 */
bool deriveFairnessMetrics(MetricSet &shared,
                           const std::vector<AloneBaselineMetrics> &baselines);

} // namespace mcsim

#endif // CLOUDMC_SIM_METRICS_HH
