/**
 * @file
 * The benchmark's measurement toolkit: small statistics helpers, the
 * output checks, and the traced run that splits one simulation's host
 * time across the simulator's layers.
 *
 * Everything here drives the simulator from outside, through its
 * public entry points only. A layer that cannot be wrapped in place is
 * timed by replaying the stream captured from the traced run into a
 * fresh instance of that layer:
 *
 *  - workload: a decorator around the generator counts and captures
 *    every nextOp / tryNextOpLocal / nextFetchBlock call; the captured
 *    call sequence is replayed into a fresh generator (which must
 *    return the same ops) to time one call.
 *  - cpu: the captured loads, stores and fetches are replayed into a
 *    fresh CacheHierarchy; its misses and writebacks become the
 *    request stream for the memory replay.
 *  - backend / mem: that request stream is routed through a fresh
 *    backend from makeMemBackend() and fed to its controllers at the
 *    captured arrival ticks.
 *  - dram: every queue's captured DRAM command trace is replayed into
 *    a fresh Channel, which must accept every command at its tick.
 *  - kernel: System::advance runs in fixed chunks; KernelStats are read
 *    at the end.
 */

#ifndef CLOUDMC_PERFBENCH_LAYERS_HH
#define CLOUDMC_PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/sim_config.hh"
#include "sim/system.hh"
#include "workload/synthetic.hh"

namespace perf {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile: the smallest sample with at least a
 *  @p q share of the samples at or below it (0 when empty). */
double percentile(std::vector<double> v, double q);

/**
 * The highest of the percentiles 50, 90, 99 and 99.9 that has at
 * least ten samples beyond it among @p n samples, as a quantile; 0
 * when even the median has fewer than ten beyond it.
 */
double tailQuantileFor(std::size_t n);

/** Traced wall time over untraced wall time, as a percent excess. */
double overheadPct(double tracedS, double untracedS);

/** Pass/fail tally of the benchmark's output checks. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void expect(bool ok, const std::string &what);
};

/** Every MetricSet field the figures read, compared exactly. */
bool identical(const mcsim::MetricSet &a, const mcsim::MetricSet &b);

/** Equal within the results cache's printed precision. */
bool closeEnough(const mcsim::MetricSet &a, const mcsim::MetricSet &b);

/** FNV-1a digest over the figure fields of @p sets, in order. */
std::uint64_t digest(const std::vector<mcsim::MetricSet> &sets);

/**
 * DRAM RD+WR commands against the controllers' served requests:
 * memReads counts forwarded reads that never reach DRAM, and reads in
 * flight at either window edge are counted on one side only, so the
 * two may differ by a small slack per queue.
 */
bool casMatchesRequests(std::uint64_t rdCmds, std::uint64_t wrCmds,
                        const mcsim::MetricSet &m,
                        std::uint64_t forwardedReads, std::uint32_t queues);

/** DRAM RD+WR commands of @p sys's measurement window, checked as
 *  above from the channels' own counters. */
bool casMatchesRequests(mcsim::System &sys, const mcsim::MetricSet &m);

/** One simulation point: the workload and the system it runs on. */
struct Scenario
{
    mcsim::WorkloadParams params;
    mcsim::SimConfig cfg;

    /** The config System's external-generator constructor needs to
     *  reproduce the preset constructor exactly (core count, MLP
     *  window, store buffer). */
    mcsim::SimConfig externalCfg() const;
    std::uint64_t totalCycles() const
    {
        return cfg.warmupCoreCycles + cfg.measureCoreCycles;
    }
};

/**
 * Layer counters summed over one or more traced simulations. Timed
 * quantities are sums of host nanoseconds with their call counts;
 * modelled values are summed per point and averaged at the end.
 */
struct LayerTotals
{
    std::uint32_t points = 0;

    std::uint64_t genCalls = 0;
    std::uint64_t genReplayCalls = 0;
    double genReplayNs = 0.0;

    std::uint64_t cpuAccesses = 0;
    double cpuReplayNs = 0.0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    double l2MpkiSum = 0.0;

    double coreTicksRun = 0.0, coreTickBase = 0.0, coreBatched = 0.0;
    double ctlTicksRun = 0.0, ctlTickBase = 0.0;
    std::vector<double> chunkMs;

    std::uint64_t memTicks = 0;
    double memTickNs = 0.0;
    std::uint64_t memEnqueues = 0;
    double memEnqueueNs = 0.0;
    std::uint64_t cmdsWholeRun = 0;
    double rowHitSum = 0.0, readQueueSum = 0.0, writeQueueSum = 0.0;

    std::uint64_t dramIssues = 0;
    double dramIssueNs = 0.0, dramNextLegalNs = 0.0;
    std::uint64_t act = 0, pre = 0, rd = 0, wr = 0, ref = 0;
    double singleAccessSum = 0.0;

    bool stacked = false;
    std::uint64_t routes = 0;
    double routeNs = 0.0;
    std::uint64_t remapMigrations = 0;
    double imbalanceSum = 0.0;

    double tracedWallS = 0.0;
    double untracedWallS = 0.0;

    /**
     * Add one run's idle-skip counters with their bases: core ticks
     * and batched cycles over core cycles x cores, controller ticks
     * over DRAM cycles x queues.
     */
    void addKernel(const mcsim::KernelStats &k, double coreCycles,
                   double cores, double dramCycles, double queues);

    /** The per-layer metrics, by the names BENCHMARK.json lists. */
    void report(std::map<std::string, double> &out) const;
};

/** Cost of one steady_clock read pair, subtracted from timed calls. */
double timerOverheadNs();

/**
 * Run @p sc once through the traced path (decorated generator,
 * command hooks, chunked advance of @p chunkCycles) and return the
 * traced simulation's wall seconds. @p untraced is the same point's
 * untraced MetricSet: the traced run must reproduce it exactly. With
 * @p totals set, also replay the captured streams into fresh layer
 * instances and add every layer counter to it.
 */
double traceOnce(const Scenario &sc, const mcsim::MetricSet &untraced,
                 std::uint64_t chunkCycles, LayerTotals *totals,
                 Checks &checks);

/** Arithmetic self-checks of the helpers above. */
void selfTest(Checks &checks);

} // namespace perf

#endif // CLOUDMC_PERFBENCH_LAYERS_HH
