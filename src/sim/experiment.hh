/**
 * @file
 * Experiment harness: runs (workload, configuration) points and
 * memoizes the results in an on-disk CSV cache so the fourteen
 * per-figure bench binaries can share one set of simulations.
 *
 * Independent points can be executed concurrently through runAll():
 * simulations are deterministic and self-contained, so a batch runs on
 * a thread pool with only the memo cache and the CSV append path
 * behind a mutex. Results are identical to the serial loop.
 */

#ifndef CLOUDMC_SIM_EXPERIMENT_HH
#define CLOUDMC_SIM_EXPERIMENT_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "metrics.hh"
#include "sim_config.hh"
#include "workload/mixed.hh"
#include "workload/presets.hh"
#include "workload/workload.hh"

namespace mcsim {

/** Memoizing simulation runner. */
class ExperimentRunner
{
  public:
    /** One simulation point of a sweep. */
    struct Point
    {
        Point() = default;
        Point(WorkloadId wl, const SimConfig &c) : workload(wl), cfg(c) {}

        WorkloadId workload = WorkloadId::DS;
        SimConfig cfg;

        /**
         * Custom-generator point (mixed workloads, traces): when set,
         * the simulation builds a fresh generator from the factory and
         * runs it on @p customCores cores instead of the preset. Such
         * points are memoized under @p customKey, or never cached when
         * it is empty — the key must then fingerprint the generator as
         * faithfully as configKey() fingerprints a preset.
         */
        std::function<std::unique_ptr<WorkloadGenerator>()> makeGenerator;
        std::uint32_t customCores = 0;
        std::string customKey;

        /**
         * When nonzero (and makeGenerator is unset), run the preset
         * with this core count instead of its calibrated one. The
         * alone-run baselines use 1 (single core, memory system to
         * itself) and the mix-part baselines use the part's core
         * count; the preset's IO/DMA substrate is kept as calibrated.
         * Memoized under a distinct "ALONE|<n>c|" fingerprint.
         */
        std::uint32_t presetCores = 0;

        struct AloneBaseline;
        /**
         * Alone-run baselines for slowdown/fairness accounting. When
         * non-empty, runAll() schedules each baseline run through the
         * same worker pool (memoized under its own fingerprint) and
         * derives perCoreSlowdown / weightedSpeedup / harmonicSpeedup
         * / maxSlowdown into this point's MetricSet. Baseline runs
         * themselves must not carry baselines.
         */
        std::vector<AloneBaseline> baselines;
    };

    /** Most threads a sweep or a simulation may be given. */
    static constexpr unsigned kMaxThreads = 1024;

    /**
     * @param cachePath CSV cache location; empty selects the
     *        CLOUDMC_CACHE environment variable or, failing that,
     *        "cloudmc_results_cache.csv" in the working directory.
     *        Pass "-" to disable caching entirely.
     *
     * Checks CLOUDMC_FAST and CLOUDMC_THREADS up front, so a malformed
     * value stops the program before any point runs.
     */
    explicit ExperimentRunner(std::string cachePath = "");

    /** Run (or recall) one simulation of @p workload under @p cfg: a
     *  one-point runAll(..., 1). */
    MetricSet run(WorkloadId workload, const SimConfig &cfg);

    /**
     * Run (or recall) a whole sweep, executing uncached points on up
     * to @p threads worker threads. Points are independent, so the
     * returned metrics (ordered like @p points) are identical to
     * calling run() in a serial loop, and the cacheHits() /
     * simulationsRun() counters advance exactly as the serial loop
     * would advance them: duplicate uncached points simulate once and
     * count the repeats as hits.
     */
    std::vector<MetricSet> runAll(const std::vector<Point> &points,
                                  unsigned threads);

    /** runAll() with the defaultThreads() worker count. */
    std::vector<MetricSet> runAll(const std::vector<Point> &points);

    /**
     * Worker count used by the single-argument runAll():
     * CLOUDMC_THREADS when set, else std::thread::hardware_concurrency
     * (at least 1). A CLOUDMC_THREADS that is not an integer in
     * [1, kMaxThreads] is a fatal error naming the value.
     */
    static unsigned defaultThreads();

    /**
     * The window divisor every point runs under: CLOUDMC_FAST when set,
     * else 1 (full length). A value that is not a nonzero integer is a
     * fatal error naming it, never a silent full-length run.
     */
    static std::uint64_t fastDivisor();

    /** The config a point runs: windows divided by CLOUDMC_FAST, and
     *  @p kernelThreads (when nonzero: the sweep's share of the thread
     *  budget, see planThreadSplit) in place of cfg.kernelThreads.
     *  A tool that builds a System itself runs this config too. */
    static SimConfig runConfig(const SimConfig &cfg,
                               std::uint32_t kernelThreads = 0);

    /**
     * How one thread budget is shared between the two parallelism
     * layers (see README "Thread-budget sharing"). Their product never
     * exceeds the budget, so a sweep cannot oversubscribe the host by
     * running @p threads points that each spawn kernel shards.
     */
    struct ThreadSplit
    {
        unsigned sweepWorkers; ///< Concurrent simulation points.
        unsigned shardThreads; ///< SimConfig::kernelThreads per point.
    };

    /**
     * Split @p threads between the sweep pool and the per-point
     * epoch-sharded kernel for a batch of @p jobs uncached points.
     * Sweep-level parallelism wins when it alone can fill the budget
     * (jobs >= threads: independent points scale embarrassingly);
     * with fewer jobs than threads, each point gets the leftover
     * budget as intra-simulation shards — a lone big point on an
     * otherwise idle host runs threads-wide instead of serially.
     */
    static ThreadSplit planThreadSplit(std::size_t jobs, unsigned threads);

    /**
     * Stable fingerprint of a (workload, config) point: the workload
     * acronym plus a 64-bit FNV-1a hash of canonicalPointText() (see
     * sim/knobs.hh) over the config as it runs, i.e. after the
     * CLOUDMC_FAST division. kernel_threads and knobs dormant for the
     * config are left out, so points that simulate identically share
     * one row.
     */
    static std::string configKey(WorkloadId workload, const SimConfig &cfg);

    /**
     * The line opening every section of the results-cache file:
     * "#cloudmc-cache <schema hash> key,<column>,...". Rows load only
     * under a header equal to this one; any other rows are skipped
     * (and re-simulated on demand), never migrated.
     */
    static const std::string &cacheHeader();

    /**
     * The cache fingerprint runAll() memoizes @p p under: customKey
     * when set, the "ALONE|<n>c|"-prefixed preset key for presetCores
     * points, configKey() for plain preset points, and "" (never
     * cached) for keyless custom-generator points.
     */
    static std::string pointKey(const Point &p);

    /**
     * Attach the matching single-core alone-run baseline to a preset
     * point: one run of the same configuration with the preset scaled
     * to 1 core, covering every core of the shared run.
     */
    static void attachAloneBaseline(Point &p);

    /**
     * Build a memoizable MixedWorkload point, including one
     * part-isolated alone-run baseline per mix part (the part's preset
     * at the part's core count, covering the part's core range).
     */
    static Point mixedFairnessPoint(const std::vector<MixPart> &parts,
                                    const SimConfig &cfg,
                                    Addr addressSpace,
                                    std::uint64_t seedSalt = 0);

    std::uint64_t cacheHits() const { return cacheHits_; }
    std::uint64_t simulationsRun() const { return simulationsRun_; }

  private:
    void loadCache();
    /**
     * Append one record as a single flushed write so concurrent
     * processes sharing the cache file cannot interleave partial
     * lines; the first record of a file that does not end inside a
     * current section carries the header in the same write. Caller
     * holds mu_.
     */
    void appendToCache(const std::string &key, const MetricSet &m);
    static MetricSet simulatePoint(const Point &p,
                                   std::uint32_t kernelThreads);

    std::string cachePath_;
    /** False when constructed with "-": results are never memoized. */
    bool cachingEnabled_ = true;
    /** The cache file ends inside a section cacheHeader() opened. */
    bool sectionOpen_ = false;
    std::mutex mu_; ///< Guards cache_, the counters, and the CSV append.
    std::map<std::string, MetricSet> cache_;
    std::uint64_t cacheHits_ = 0;
    std::uint64_t simulationsRun_ = 0;
};

/** One alone-run baseline of a fairness point: the cores it covers
 *  plus the run whose per-core IPCs serve as their baseline. */
struct ExperimentRunner::Point::AloneBaseline
{
    std::uint32_t firstCore = 0;
    std::uint32_t numCores = 0;
    Point run;
};

} // namespace mcsim

#endif // CLOUDMC_SIM_EXPERIMENT_HH
