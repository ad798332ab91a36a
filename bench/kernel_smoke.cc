/**
 * @file
 * Event-kernel throughput smoke: runs the Figure 1 configuration (the
 * Table 2 baseline under FR-FCFS) for a fixed cycle budget on both
 * simulation kernels and writes the self-reported throughput to a
 * JSON file, so the bench trajectory accumulates comparable
 * simulated-Mticks/s numbers over time.
 *
 * Two numbers are reported per run:
 *  - event_kernel:     the event-scheduled kernel with idle-skip
 *  - reference_kernel: the pre-refactor tick-by-tick loop (kept in
 *    System as the golden model), i.e. the pre-refactor throughput
 *    measured on the same build, host and config
 *
 * With --kernel-threads N > 1 a third run exercises the epoch-sharded
 * parallel kernel and stamps its throughput plus self_speedup (the
 * parallel/serial event-kernel ratio on this host).
 *
 * The smoke also cross-checks that every kernel produces bit-identical
 * metrics, the event kernel's core contract, and that a fairness, a
 * stacked-backend and a tiered point each survive a results-cache
 * round-trip in every MetricSet column (exit 3, 5 and 6 otherwise).
 *
 * Usage: kernel_smoke [--cycles N] [--workload ACR] [--device DEV]
 *                     [--channels N] [--kernel-threads N]
 *                     [--json PATH] [--check-regression BASELINE]
 *        (defaults: 2M measured core cycles, WS, DDR3-1600, 1 channel,
 *        1 thread, BENCH_kernel.json; N >= 1, channels and kernel
 *        threads at most 1024, and a bad flag or value exits 2 before
 *        simulating)
 *
 * Entries are stamped with the git SHA (bench::gitSha) and the device
 * name, so the accumulated perf trajectory is attributable to a
 * commit and a clock-ratio configuration.
 *
 * --check-regression reads the committed BASELINE json (normally the
 * in-tree BENCH_kernel*.json stamped by the last perf-affecting PR)
 * before this run overwrites anything, and exits 4 if the measured
 * speedup_vs_reference fell more than 15% below it — likewise for
 * self_speedup when both the baseline carries one and the host has
 * at least two hardware threads (a single-CPU host cannot exhibit
 * parallel speedup, so the clause would only measure scheduler
 * noise there). The speedups are same-host kernel ratios, so the
 * guard transfers across machines of different absolute speed.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "bench_common.hh"
#include "dram/devices.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

struct KernelRun
{
    double wallS = 0.0;
    double mticksPerS = 0.0;
    double coreTicksFrac = 0.0; ///< Core ticks run / eager core ticks.
    double ctlTicksFrac = 0.0;  ///< Controller ticks run / DRAM cycles.
    double batchedFrac = 0.0;   ///< Cycles run in batches / eager ticks.
    std::uint64_t batchRuns = 0; ///< runBatch() calls that advanced.
    MetricSet metrics;
    Tick endTick{};
    ClockDomains clk; ///< The grid the system actually ran.
};

KernelRun
runOnce(WorkloadId wl, const DramDevice &dev,
        std::uint64_t measureCycles, bool reference,
        std::uint32_t channels = 1, std::uint32_t kernelThreads = 1)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.applyDevice(dev);
    cfg.dram.channels = channels;
    cfg.kernelThreads = kernelThreads;
    cfg.warmupCoreCycles = measureCycles / 4;
    cfg.measureCoreCycles = measureCycles;
    System sys(cfg, workloadPreset(wl));
    sys.useReferenceKernel(reference);
    const auto t0 = std::chrono::steady_clock::now();
    KernelRun r;
    r.metrics = sys.run();
    r.wallS = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    r.endTick = sys.now();
    r.clk = sys.clocks();
    r.mticksPerS =
        static_cast<double>(sys.now().count()) / r.wallS / 1e6;
    const KernelStats &k = sys.kernelStats();
    const double coreCycles =
        static_cast<double>(sys.clocks().ticksToCore(sys.now()).count());
    const double dramCycles =
        static_cast<double>(sys.clocks().ticksToDram(sys.now()).count());
    r.coreTicksFrac = coreCycles > 0.0
                          ? static_cast<double>(k.coreTicksRun) /
                                (coreCycles * sys.numCores())
                          : 0.0;
    r.ctlTicksFrac =
        dramCycles > 0.0 ? static_cast<double>(k.ctlTicksRun) /
                               (dramCycles * sys.numControllers())
                         : 0.0;
    r.batchedFrac = coreCycles > 0.0
                        ? static_cast<double>(k.coreCyclesBatched) /
                              (coreCycles * sys.numCores())
                        : 0.0;
    r.batchRuns = k.coreBatchRuns;
    return r;
}

/** Whether two runs agree exactly (every MetricSet field and the end
 *  tick); names the first differing metric on stderr. */
bool
sameRun(const KernelRun &a, const KernelRun &b, const char *what)
{
    const char *diff = firstDifferentMetric(a.metrics, b.metrics);
    if (diff)
        std::fprintf(stderr, "kernel_smoke: %s differ in %s\n", what, diff);
    return !diff && a.endTick == b.endTick;
}

/** Whether column @p f of @p a and @p b agree to the ~6 significant
 *  digits the results cache keeps (integers exactly). */
bool
sameAtCsvPrecision(const MetricSet &a, const MetricSet &b,
                   const MetricField &f)
{
    const auto close = [](double x, double y) {
        return std::fabs(x - y) <= 1e-5 * (std::fabs(y) + 1.0);
    };
    return std::visit(
        [&](auto member) {
            const auto &x = a.*member;
            const auto &y = b.*member;
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, double>)
                return close(x, y);
            else if constexpr (std::is_same_v<T, std::vector<double>>)
                return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                                  close);
            else
                return x == y;
        },
        f.member);
}

/**
 * Results-cache round trip: run @p p against a scratch cache, recall
 * it with a fresh runner (which must not simulate), and compare every
 * metricFields() column. Each column named in @p exercised must leave
 * its default in the fresh run, so the point exercises what it checks.
 * Names each failing column on stderr.
 */
bool
cacheRoundtrips(const ExperimentRunner::Point &p,
                const std::vector<std::string> &exercised,
                const std::string &cachePath)
{
    std::remove(cachePath.c_str());
    const MetricSet fresh =
        ExperimentRunner(cachePath).runAll({p}, 1).front();
    ExperimentRunner rerun(cachePath);
    const MetricSet cached = rerun.runAll({p}, 1).front();
    std::remove(cachePath.c_str());

    bool ok = rerun.simulationsRun() == 0;
    for (const MetricField &f : metricFields()) {
        const bool idle =
            std::count(exercised.begin(), exercised.end(), f.name) &&
            sameAtCsvPrecision(fresh, MetricSet{}, f);
        if (idle || !sameAtCsvPrecision(fresh, cached, f)) {
            std::fprintf(stderr, "kernel_smoke: %s fails the cache "
                                 "round-trip\n",
                         f.name);
            ok = false;
        }
    }
    return ok;
}

/**
 * Pull one numeric key out of a previously committed bench JSON.
 * Returns a negative value when the file or the key is missing (the
 * guard then passes trivially — a fresh tree has no baseline yet).
 */
double
baselineValue(const std::string &path, const char *name)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return -1.0;
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    const std::string key = std::string("\"") + name + "\":";
    const std::size_t pos = text.find(key);
    if (pos == std::string::npos)
        return -1.0;
    return std::strtod(text.c_str() + pos + key.size(), nullptr);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t cycles = 2'000'000;
    WorkloadId wl = WorkloadId::WS;
    const DramDevice *dev = &dramDeviceOrDie("DDR3-1600");
    std::string jsonPath = "BENCH_kernel.json";
    std::string regressionBaseline;
    std::uint32_t channels = 1;
    std::uint32_t kernelThreads = 1;
    FlagSet()
        .flag("--cycles N", cycles, 1)
        .flag("--workload ACR", wl)
        .flag("--device DEV", dev)
        .flag("--channels N", channels, 1, 1024)
        .flag("--kernel-threads N", kernelThreads, 1,
              ExperimentRunner::kMaxThreads)
        .flag("--json PATH", jsonPath)
        .flag("--check-regression BASELINE", regressionBaseline)
        .parse(argc, argv);
    const unsigned hostHw = std::thread::hardware_concurrency();
    // Read the baseline up front: --json may point at the same file
    // this run is about to overwrite. Without --check-regression the
    // empty path opens nothing, so every value reads as missing.
    const double baseSpeedup =
        baselineValue(regressionBaseline, "speedup_vs_reference");
    const double baseSelfSpeedup =
        baselineValue(regressionBaseline, "self_speedup");
    const double baseHostHw =
        baselineValue(regressionBaseline, "host_hw_concurrency");

    const KernelRun ref = runOnce(wl, *dev, cycles, true, channels);
    const KernelRun ev = runOnce(wl, *dev, cycles, false, channels);
    bool bitIdentical = sameRun(ev, ref, "event and reference kernels");
    const double speedup =
        ref.mticksPerS > 0.0 ? ev.mticksPerS / ref.mticksPerS : 0.0;

    // The epoch-sharded parallel kernel: measured against the serial
    // event kernel on the same host (self_speedup) and held to the
    // same bit-identity contract as serial-vs-reference.
    KernelRun par;
    double selfSpeedup = 0.0;
    if (kernelThreads > 1) {
        par = runOnce(wl, *dev, cycles, false, channels, kernelThreads);
        bitIdentical =
            sameRun(par, ev, "parallel and event kernels") && bitIdentical;
        selfSpeedup =
            ev.mticksPerS > 0.0 ? par.mticksPerS / ev.mticksPerS : 0.0;
    }

    // Round-trip points: fairness (shared run plus alone baseline),
    // stacked (4 HMC2 vaults, remapping on) and tiered (hotness_based,
    // a monitor window small enough that migrations fire).
    SimConfig tiny = SimConfig::baseline();
    tiny.warmupCoreCycles = 50'000;
    tiny.measureCoreCycles = 150'000;
    ExperimentRunner::Point fairness(wl, tiny);
    fairness.cfg.applyDevice(*dev);
    ExperimentRunner::attachAloneBaseline(fairness);
    ExperimentRunner::Point stacked(wl, tiny);
    stacked.cfg.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    stacked.cfg.setVaults(4);
    stacked.cfg.remap.enabled = true;
    stacked.cfg.remap.windowAccesses = 256;
    ExperimentRunner::Point tiered(wl, tiny);
    tiered.cfg.tier.enabled = true;
    tiered.cfg.tier.policy = TierPolicy::HotnessBased;
    tiered.cfg.tier.monitorWindowSamples = 64;
    const std::string scratch = jsonPath + ".cache.tmp.csv";
    const bool fairnessRoundtrip =
        cacheRoundtrips(fairness, {"per_core_slowdown"}, scratch);
    const bool stackedRoundtrip =
        cacheRoundtrips(stacked, {"per_vault_read_queue"}, scratch);
    const bool tieredRoundtrip = cacheRoundtrips(
        tiered, {"fast_tier_hit_pct", "slow_tier_read_latency_p99"},
        scratch);

    std::printf("kernel_smoke: fig01 config, workload %s, device %s, "
                "%u channel(s), %llu measured core cycles\n",
                workloadAcronym(wl), dev->name.c_str(), channels,
                static_cast<unsigned long long>(cycles));
    std::printf("  event kernel:     %7.2f Mticks/s (%.3f s, core ticks "
                "run %.1f%%, batched %.1f%%, ctl ticks run %.1f%%)\n",
                ev.mticksPerS, ev.wallS, 100.0 * ev.coreTicksFrac,
                100.0 * ev.batchedFrac, 100.0 * ev.ctlTicksFrac);
    std::printf("  reference kernel: %7.2f Mticks/s (%.3f s)\n",
                ref.mticksPerS, ref.wallS);
    if (kernelThreads > 1) {
        std::printf("  parallel kernel:  %7.2f Mticks/s (%.3f s, %u "
                    "threads, self-speedup %.2fx, host hw %u)\n",
                    par.mticksPerS, par.wallS, kernelThreads, selfSpeedup,
                    hostHw);
    }
    std::printf("  speedup %.2fx, metrics bit-identical: %s\n", speedup,
                bitIdentical ? "yes" : "NO");
    std::printf("  fairness fields survive cache round-trip: %s\n",
                fairnessRoundtrip ? "yes" : "NO");
    std::printf("  stacked fields survive cache round-trip: %s\n",
                stackedRoundtrip ? "yes" : "NO");
    std::printf("  tiered fields survive cache round-trip: %s\n",
                tieredRoundtrip ? "yes" : "NO");

    const ClockDomains &clk = ev.clk;
    std::FILE *f = std::fopen(jsonPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
        return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"kernel_smoke\",\n"
        "  \"config\": \"fig01-baseline-frfcfs\",\n"
        "  \"git_sha\": \"%s\",\n"
        "  \"workload\": \"%s\",\n"
        "  \"device\": \"%s\",\n"
        "  \"channels\": %u,\n"
        "  \"clock_ratios\": \"%llu:%llu\",\n"
        "  \"measure_core_cycles\": %llu,\n"
        "  \"sim_ticks\": %llu,\n"
        "  \"threads\": %u,\n"
        "  \"host_hw_concurrency\": %u,\n"
        "  \"event_kernel\": {\n"
        "    \"mticks_per_s\": %.3f,\n"
        "    \"wall_s\": %.4f,\n"
        "    \"core_ticks_run_frac\": %.4f,\n"
        "    \"ctl_ticks_run_frac\": %.4f,\n"
        "    \"cycles_batched_frac\": %.4f,\n"
        "    \"batch_runs\": %llu\n"
        "  },\n"
        "  \"reference_kernel\": {\n"
        "    \"mticks_per_s\": %.3f,\n"
        "    \"wall_s\": %.4f\n"
        "  },\n",
        bench::gitSha().c_str(), workloadAcronym(wl), dev->name.c_str(),
        channels, static_cast<unsigned long long>(clk.ticksPerCore.count()),
        static_cast<unsigned long long>(clk.ticksPerDram.count()),
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(ev.endTick.count()), kernelThreads,
        hostHw, ev.mticksPerS, ev.wallS, ev.coreTicksFrac, ev.ctlTicksFrac,
        ev.batchedFrac, static_cast<unsigned long long>(ev.batchRuns),
        ref.mticksPerS, ref.wallS);
    if (kernelThreads > 1) {
        std::fprintf(f,
                     "  \"parallel_kernel\": {\n"
                     "    \"mticks_per_s\": %.3f,\n"
                     "    \"wall_s\": %.4f\n"
                     "  },\n"
                     "  \"self_speedup\": %.3f,\n",
                     par.mticksPerS, par.wallS, selfSpeedup);
    }
    std::fprintf(f,
                 "  \"speedup_vs_reference\": %.3f,\n"
                 "  \"metrics_bit_identical\": %s,\n"
                 "  \"fairness_cache_roundtrip\": %s,\n"
                 "  \"stacked_cache_roundtrip\": %s,\n"
                 "  \"tiered_cache_roundtrip\": %s\n"
                 "}\n",
                 speedup, bitIdentical ? "true" : "false",
                 fairnessRoundtrip ? "true" : "false",
                 stackedRoundtrip ? "true" : "false",
                 tieredRoundtrip ? "true" : "false");
    std::fclose(f);
    if (!bitIdentical)
        return 2;
    if (!fairnessRoundtrip)
        return 3;
    if (!stackedRoundtrip)
        return 5;
    if (!tieredRoundtrip)
        return 6;
    if (baseSpeedup > 0.0) {
        const double floor = 0.85 * baseSpeedup;
        std::printf("  regression guard: measured %.2fx vs baseline "
                    "%.2fx (floor %.2fx): %s\n",
                    speedup, baseSpeedup, floor,
                    speedup >= floor ? "ok" : "REGRESSION");
        if (speedup < floor)
            return 4;
    }
    // The self-speedup clause arms only where parallel speedup is
    // physically possible AND the floor is meaningful: an MT run
    // checked against an MT baseline, with both this host and the
    // baseline's stamped host multi-core (a 1-vCPU stamp records
    // self_speedup < 1 and would make the floor vacuous).
    if (kernelThreads > 1 && baseSelfSpeedup > 0.0 && hostHw >= 2 &&
        baseHostHw >= 2.0) {
        const double floor = 0.85 * baseSelfSpeedup;
        std::printf("  self-speedup guard: measured %.2fx vs baseline "
                    "%.2fx (floor %.2fx): %s\n",
                    selfSpeedup, baseSelfSpeedup, floor,
                    selfSpeedup >= floor ? "ok" : "REGRESSION");
        if (selfSpeedup < floor)
            return 4;
    }
    return 0;
}
