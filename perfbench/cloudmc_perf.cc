/**
 * @file
 * cloudmc_perf: the benchmark's measuring binary. perfbench/run.py
 * builds it, runs it once per invocation and turns its output into the
 * benchmark's result line; it can also be run by hand:
 *
 *   cloudmc_perf --workload ws-ddr3 --seed 1 --seconds 25 --trace 0 \
 *                --cache .bench_build/perf_cache.csv
 *   cloudmc_perf --self-test
 *
 * Workloads (each a closed loop: fixed simulated work, one process):
 *   ws-ddr3    Web Search on the Table 2 baseline (DDR3-1600, 1 channel,
 *              FR-FCFS, open-adaptive), serial event kernel
 *   q6-ddr3    TPC-H Q6 on the same system
 *   q6-hmc16   TPC-H Q6 on HMC2-8GB, 16 vaults, remap on, 2 kernel
 *              threads
 *   sched-sweep the paper's scheduler study (5 schedulers x 12
 *              workloads, short windows) as one cold runAll plus six
 *              warm recalls from fresh runners
 *
 * --trace 0 repeats the workload for --seconds and reports the
 * end-to-end metrics (see reportTimes); --trace 1 runs the traced path
 * of layers.hh and reports the per-layer metrics. Either way the output
 * checks are counted, and the last stdout line is one JSON object.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <sched.h>
#include <sys/resource.h>
#include <thread>
#include <vector>

#include "dram/devices.hh"
#include "layers.hh"
#include "mem/factory.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;
using namespace perf;

namespace {

/** The seed whose outputs are pinned by perfbench/digests.json. */
constexpr std::uint64_t kDefaultSeed = 1;
/** Fixed System::advance chunk of the traced run, in core cycles. */
constexpr std::uint64_t kChunkCycles = 10'000;
/** Recalls of the sweep from fresh runners, as fig02-fig07 would do. */
constexpr int kRecalls = 6;
/**
 * Sweep workers (at most the usable CPUs). Two, not every CPU: a sweep
 * that fills a shared host measured 0.26-0.30 run-to-run spread on four
 * workers against about 0.15 on two.
 */
constexpr unsigned kSweepWorkers = 2;

/** The preset's own seed at the default benchmark seed; any other
 *  benchmark seed is mixed in (splitmix64) so every preset moves. */
std::uint64_t
saltedSeed(std::uint64_t presetSeed, std::uint64_t benchSeed)
{
    if (benchSeed == kDefaultSeed)
        return presetSeed;
    std::uint64_t z = presetSeed + benchSeed * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

WorkloadParams
saltedPreset(WorkloadId wl, std::uint64_t benchSeed)
{
    WorkloadParams p = workloadPreset(wl);
    p.seed = saltedSeed(p.seed, benchSeed);
    return p;
}

bool
singleScenario(const std::string &name, std::uint64_t seed, Scenario &sc)
{
    sc.cfg = SimConfig::baseline();
    sc.cfg.warmupCoreCycles = 500'000;
    sc.cfg.measureCoreCycles = 2'000'000;
    if (name == "ws-ddr3") {
        sc.params = saltedPreset(WorkloadId::WS, seed);
    } else if (name == "q6-ddr3") {
        sc.params = saltedPreset(WorkloadId::TPCHQ6, seed);
    } else if (name == "q6-hmc16") {
        sc.params = saltedPreset(WorkloadId::TPCHQ6, seed);
        sc.cfg.applyDevice(dramDeviceOrDie("HMC2-8GB"));
        sc.cfg.setVaults(16);
        sc.cfg.remap.enabled = true;
        sc.cfg.kernelThreads = 2;
    } else {
        return false;
    }
    return true;
}

/** The sweep's 60 points, scheduler-major like the figures. */
std::vector<Scenario>
sweepScenarios(std::uint64_t seed)
{
    std::vector<Scenario> out;
    for (const SchedulerKind s : kPaperSchedulers) {
        for (const WorkloadId wl : kAllWorkloads) {
            Scenario sc;
            sc.params = saltedPreset(wl, seed);
            sc.cfg = SimConfig::baseline();
            sc.cfg.scheduler = s;
            // The figures' `--fast 50` windows.
            sc.cfg.warmupCoreCycles = 40'000;
            sc.cfg.measureCoreCycles = 160'000;
            sc.cfg.seed = seed;
            out.push_back(sc);
        }
    }
    return out;
}

/**
 * runAll points for the sweep. Each is a custom-generator point so the
 * salted workload seed reaches the generator; the key fingerprints
 * the point like configKey() plus the seed. (The external-generator
 * System drives no DMA engine, so DS, WF and MS run without their IO
 * traffic here.)
 */
std::vector<ExperimentRunner::Point>
sweepPoints(const std::vector<Scenario> &scs)
{
    std::vector<ExperimentRunner::Point> pts;
    for (std::size_t i = 0; i < scs.size(); ++i) {
        const Scenario &sc = scs[i];
        const SimConfig cfg = sc.externalCfg();
        ExperimentRunner::Point p(kAllWorkloads[i % kAllWorkloads.size()],
                                  cfg);
        const std::uint64_t capacity =
            makeMemBackend(cfg, sc.params.cores)->capacityBytes();
        const WorkloadParams params = sc.params;
        p.makeGenerator = [params, capacity] {
            return std::make_unique<SyntheticWorkload>(params, capacity);
        };
        p.customCores = sc.params.cores;
        p.customKey =
            "perfbench|" + ExperimentRunner::configKey(p.workload, cfg);
        pts.push_back(std::move(p));
    }
    return pts;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Peak resident memory of this process image. VmHWM, unlike
 *  getrusage's ru_maxrss, does not carry the launching process's
 *  peak across exec. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    return kib / 1024.0;
}

/**
 * Moves the process across the CPUs it may use, one window of @p width
 * CPUs per iteration, so a CPU slowed by a neighbour on a shared host
 * holds only its share of a run's samples instead of the whole run.
 * The original affinity mask is restored on destruction.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(unsigned width) : width_(std::max(1u, width))
    {
        if (sched_getaffinity(0, sizeof(orig_), &orig_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &orig_))
                cpus_.push_back(c);
        }
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(orig_), &orig_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin the process to the next window of CPUs. */
    void
    next()
    {
        if (cpus_.size() <= width_)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        for (unsigned k = 0; k < width_; ++k)
            CPU_SET(cpus_[(step_ + k) % cpus_.size()], &set);
        ++step_;
        sched_setaffinity(0, sizeof(set), &set);
    }

  private:
    unsigned width_;
    cpu_set_t orig_{};
    std::vector<int> cpus_;
    std::size_t step_ = 0;
};

struct Result
{
    std::map<std::string, double> metrics;
    std::map<std::string, double> context;
    Checks checks;
    std::uint64_t digest = 0;
};

/**
 * The end-to-end timings of a run's iterations. Every iteration does
 * the same deterministic work, and on a shared host interference only
 * ever adds time, so throughput, wall and CPU time are reported for
 * the fastest iteration (best of N), with the medians alongside as
 * context. Set-up is reported as the median of its many repeats.
 */
void
reportTimes(const std::vector<double> &mcps, const std::vector<double> &wall,
            const std::vector<double> &cpu, const std::vector<double> &setup,
            Result &res)
{
    res.metrics["sim_mcycles_per_s"] = *std::max_element(mcps.begin(), mcps.end());
    res.metrics["sweep_s"] = *std::min_element(wall.begin(), wall.end());
    res.metrics["host_cpu_s"] = *std::min_element(cpu.begin(), cpu.end());
    res.metrics["setup_s"] = median(setup);
    res.context["sim_mcycles_per_s_median"] = median(mcps);
    res.context["sweep_s_median"] = median(wall);
    res.context["host_cpu_s_median"] = median(cpu);
    res.context["samples"] = static_cast<double>(mcps.size());
    res.context["setup_samples"] = static_cast<double>(setup.size());
}

/** Event kernel equals the reference kernel (and the parallel kernel
 *  equals serial) on a short prefix of @p sc. */
void
checkKernels(const Scenario &sc, Checks &checks)
{
    Scenario pre = sc;
    pre.cfg.warmupCoreCycles = 100'000;
    pre.cfg.measureCoreCycles = 300'000;
    pre.cfg.kernelThreads = 1;
    const auto runWith = [&](bool reference, std::uint32_t threads) {
        SimConfig cfg = pre.cfg;
        cfg.kernelThreads = threads;
        System sys(cfg, pre.params);
        sys.useReferenceKernel(reference);
        return sys.run();
    };
    const MetricSet ev = runWith(false, 1);
    checks.expect(identical(ev, runWith(true, 1)),
                  "event kernel must equal the reference kernel");
    if (sc.cfg.kernelThreads > 1) {
        checks.expect(identical(ev, runWith(false, sc.cfg.kernelThreads)),
                      "parallel kernel must equal the serial kernel");
    }
}

void
singleEndToEnd(const Scenario &sc, double seconds, Result &res)
{
    checkKernels(sc, res.checks);
    std::vector<double> mcps, setup, wall, cpu;
    MetricSet first;
    CpuRotation rotation(sc.cfg.kernelThreads);
    const auto start = Clock::now();
    do {
        rotation.next();
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        System sys(sc.cfg, sc.params);
        setup.push_back(secondsSince(t0));
        const auto t1 = Clock::now();
        const MetricSet m = sys.run();
        const double runS = secondsSince(t1);
        wall.push_back(secondsSince(t0));
        cpu.push_back(cpuSeconds() - cpu0);
        mcps.push_back(static_cast<double>(sc.totalCycles()) / 1e6 / runS);
        if (mcps.size() == 1)
            first = m;
        else
            res.checks.expect(identical(m, first),
                              "repeated runs must be bit-identical");
        res.checks.expect(casMatchesRequests(sys, m),
                          "DRAM RD+WR commands must match served requests");
    } while (secondsSince(start) < seconds);
    // Set-up is short next to a run: repeat it for a steady median.
    for (int i = 0; i < 20; ++i) {
        rotation.next();
        const auto t0 = Clock::now();
        System sys(sc.cfg, sc.params);
        setup.push_back(secondsSince(t0));
    }
    res.digest = digest({first});
    reportTimes(mcps, wall, cpu, setup, res);
    res.context["kernel_threads"] = sc.cfg.kernelThreads;
    res.context["sweep_workers"] = 1;
}

void
singleTraced(const Scenario &sc, double seconds, Result &res)
{
    Scenario serial = sc;
    serial.cfg.kernelThreads = 1;
    LayerTotals totals;
    std::vector<double> untracedS, tracedS, parallelS;
    MetricSet ref;
    const auto start = Clock::now();
    do {
        System sys(serial.cfg, serial.params);
        const auto t1 = Clock::now();
        const MetricSet m = sys.run();
        untracedS.push_back(secondsSince(t1));
        if (untracedS.size() == 1)
            ref = m;
        tracedS.push_back(traceOnce(serial, ref,
                                    kChunkCycles,
                                    untracedS.size() == 1 ? &totals : nullptr,
                                    res.checks));
        if (sc.cfg.kernelThreads > 1) {
            System par(sc.cfg, sc.params);
            const auto p0 = Clock::now();
            const MetricSet pm = par.run();
            parallelS.push_back(secondsSince(p0));
            res.checks.expect(identical(pm, ref),
                              "parallel kernel must equal the serial kernel");
        }
    } while (secondsSince(start) < seconds);
    totals.tracedWallS = median(tracedS);
    totals.untracedWallS = median(untracedS);
    totals.report(res.metrics);
    res.metrics["kernel.self_speedup"] =
        parallelS.empty() ? 0.0 : median(untracedS) / median(parallelS);
    res.context["samples"] = static_cast<double>(tracedS.size());
    res.context["kernel_threads"] = sc.cfg.kernelThreads;
    res.context["sweep_workers"] = 1;
    res.context["chunk_tail_quantile"] =
        tailQuantileFor(totals.chunkMs.size());
}

/** One cold runAll on a fresh cache plus kRecalls warm recalls. */
struct SweepPass
{
    double setupS[1 + kRecalls] = {};
    double coldS = 0.0;
    std::vector<double> recallS;
    std::vector<MetricSet> fresh;
    std::uint64_t coldSims = 0;
    std::uint64_t recallHits = 0;
};

SweepPass
sweepOnce(const std::vector<ExperimentRunner::Point> &pts,
          const std::string &cachePath, unsigned workers, Checks &checks)
{
    SweepPass pass;
    std::remove(cachePath.c_str());
    {
        const auto s0 = Clock::now();
        ExperimentRunner cold(cachePath);
        pass.setupS[0] = secondsSince(s0);
        const auto c0 = Clock::now();
        pass.fresh = cold.runAll(pts, workers);
        pass.coldS = secondsSince(c0);
        pass.coldSims = cold.simulationsRun();
        checks.expect(cold.simulationsRun() == pts.size() &&
                          cold.cacheHits() == 0,
                      "cold sweep must simulate every point");
    }
    for (int r = 0; r < kRecalls; ++r) {
        const auto s0 = Clock::now();
        ExperimentRunner warm(cachePath);
        pass.setupS[1 + r] = secondsSince(s0);
        const std::vector<MetricSet> got = warm.runAll(pts, workers);
        pass.recallS.push_back(secondsSince(s0));
        pass.recallHits += warm.cacheHits();
        bool same = got.size() == pass.fresh.size();
        for (std::size_t i = 0; same && i < got.size(); ++i)
            same = closeEnough(got[i], pass.fresh[i]);
        checks.expect(warm.simulationsRun() == 0 &&
                          warm.cacheHits() == pts.size() && same,
                      "recall must hit the cache for every point and "
                      "return the fresh metrics");
    }
    std::remove(cachePath.c_str());
    return pass;
}

void
sweepEndToEnd(const std::vector<Scenario> &scs, const std::string &cachePath,
              unsigned workers, double seconds, Result &res)
{
    const auto pts = sweepPoints(scs);
    double cycles = 0.0;
    for (const Scenario &sc : scs)
        cycles += static_cast<double>(sc.totalCycles());
    std::vector<double> mcps, setup, wall, cpu;
    std::vector<MetricSet> first;
    CpuRotation rotation(workers);
    const auto start = Clock::now();
    do {
        rotation.next();
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        SweepPass pass = sweepOnce(pts, cachePath, workers, res.checks);
        wall.push_back(secondsSince(t0));
        cpu.push_back(cpuSeconds() - cpu0);
        mcps.push_back(cycles / 1e6 / pass.coldS);
        setup.insert(setup.end(), std::begin(pass.setupS),
                     std::end(pass.setupS));
        if (first.empty()) {
            first = std::move(pass.fresh);
        } else {
            bool same = true;
            for (std::size_t i = 0; same && i < first.size(); ++i)
                same = identical(pass.fresh[i], first[i]);
            res.checks.expect(same, "repeated sweeps must be bit-identical");
        }
    } while (secondsSince(start) < seconds);
    res.digest = digest(first);
    reportTimes(mcps, wall, cpu, setup, res);
    res.context["kernel_threads"] = 1;
    res.context["sweep_workers"] = workers;
}

void
sweepTraced(const std::vector<Scenario> &scs, const std::string &cachePath,
            unsigned workers, Result &res)
{
    const auto pts = sweepPoints(scs);
    const SweepPass pass = sweepOnce(pts, cachePath, workers, res.checks);
    res.metrics["experiment.recall_ms"] = median(pass.recallS) * 1e3;
    res.metrics["experiment.simulations_run"] =
        static_cast<double>(pass.coldSims);
    res.metrics["experiment.cache_hits"] =
        static_cast<double>(pass.recallHits);

    LayerTotals totals;
    std::vector<double> pointSetupMs;
    for (std::size_t i = 0; i < scs.size(); ++i) {
        const Scenario &sc = scs[i];
        const SimConfig cfg = sc.externalCfg();
        SyntheticWorkload gen(
            sc.params, makeMemBackend(cfg, sc.params.cores)->capacityBytes());
        const auto t0 = Clock::now();
        System sys(cfg, gen, sc.params.cores);
        pointSetupMs.push_back(secondsSince(t0) * 1e3);
        const auto t1 = Clock::now();
        const MetricSet m = sys.run();
        totals.untracedWallS += secondsSince(t1);
        res.checks.expect(identical(m, pass.fresh[i]),
                          "sweep point must equal its runAll result");
        totals.tracedWallS +=
            traceOnce(sc, m, kChunkCycles, &totals, res.checks);
    }
    totals.report(res.metrics);
    res.metrics["experiment.point_setup_ms"] = median(pointSetupMs);
    res.context["samples"] = static_cast<double>(scs.size());
    res.context["kernel_threads"] = 1;
    res.context["sweep_workers"] = workers;
    res.context["chunk_tail_quantile"] =
        tailQuantileFor(totals.chunkMs.size());
}

/** Per-layer metrics a workload does not exercise read 0. */
void
fillUnexercised(Result &res)
{
    for (const char *name :
         {"kernel.self_speedup", "experiment.recall_ms",
          "experiment.point_setup_ms", "experiment.simulations_run",
          "experiment.cache_hits"}) {
        res.metrics.emplace(name, 0.0);
    }
}

void
printResult(const Result &res)
{
    std::printf("{\"attempted\": %llu, \"failed\": %llu, \"digest\": "
                "\"%016llx\", \"failures\": [",
                static_cast<unsigned long long>(res.checks.attempted),
                static_cast<unsigned long long>(res.checks.failed),
                static_cast<unsigned long long>(res.digest));
    for (std::size_t i = 0; i < res.checks.failures.size(); ++i) {
        std::printf("%s\"%s\"", i ? ", " : "",
                    res.checks.failures[i].c_str());
    }
    std::printf("], \"metrics\": {");
    const char *sep = "";
    for (const auto &[k, v] : res.metrics) {
        std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
        sep = ", ";
    }
    std::printf("}, \"context\": {");
    sep = "";
    for (const auto &[k, v] : res.context) {
        std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
        sep = ", ";
    }
    std::printf("}, \"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
                PERF_BUILD_TYPE, PERF_COMPILER);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: cloudmc_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 --cache PATH\n"
                 "       cloudmc_perf --self-test\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Pin the environment: none of the simulator's knobs may leak in.
    for (const char *var : {"CLOUDMC_FAST", "CLOUDMC_THREADS", "CLOUDMC_CACHE"})
        unsetenv(var);

    std::string workload, cachePath;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false, selfTestOnly = false;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    // At most the CPUs this process may run on, and at most 4.
    cpu_set_t allowed;
    const unsigned usable =
        sched_getaffinity(0, sizeof(allowed), &allowed) == 0
            ? static_cast<unsigned>(CPU_COUNT(&allowed))
            : hw;
    const unsigned workers = std::clamp(usable, 1u, kSweepWorkers);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool more = i + 1 < argc;
        if (a == "--workload" && more)
            workload = argv[++i];
        else if (a == "--seed" && more)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && more)
            seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--trace" && more)
            trace = std::strcmp(argv[++i], "0") != 0;
        else if (a == "--cache" && more)
            cachePath = argv[++i];
        else if (a == "--self-test")
            selfTestOnly = true;
        else
            return usage();
    }

    Result res;
    selfTest(res.checks);
    if (selfTestOnly) {
        printResult(res);
        return res.checks.failed ? 1 : 0;
    }
    if (cachePath.empty())
        return usage();

    const auto t0 = Clock::now();
    if (workload == "sched-sweep") {
        const auto scs = sweepScenarios(seed);
        if (trace)
            sweepTraced(scs, cachePath, workers, res);
        else
            sweepEndToEnd(scs, cachePath, workers, seconds, res);
    } else {
        Scenario sc;
        if (!singleScenario(workload, seed, sc))
            return usage();
        if (trace)
            singleTraced(sc, seconds, res);
        else
            singleEndToEnd(sc, seconds, res);
    }
    if (trace)
        fillUnexercised(res);
    else
        res.metrics["peak_rss_mb"] = peakRssMb();
    res.context["host_hw_concurrency"] = hw;
    res.context["usable_cpus"] = usable;
    res.context["total_s"] = secondsSince(t0);
    printResult(res);
    return 0;
}
