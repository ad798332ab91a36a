/**
 * @file
 * Randomized differential validation of the two simulation kernels:
 * 64 seeded random configurations — device (including the bank-group
 * DDR4/DDR5 grades, per-bank-refresh LPDDR3, and the stacked HMC2
 * part) x scheduler x page policy x mapping x bank-group mapping x
 * channel count x workload x refresh on/off — each run on the
 * event-scheduled kernel AND the tick-by-tick reference loop,
 * asserting bit-identical metrics (firstDifferentMetric) and equal
 * per-channel command logs (CommandLog::firstDivergence), and
 * refereeing every channel of the event run with the TimingChecker on
 * that channel's own timings and clocks. A quarter of the indices
 * force the stacked backend (vault counts {4, 8, 16}, dynamic
 * remapping on/off) so vault routing, TSV timing and the migration
 * cost model are always in the differential sample.
 *
 * Each configuration additionally runs the epoch-sharded parallel
 * kernel at thread budgets {2, 4, 7}; metrics and command traces must
 * equal the serial event kernel (and hence the reference) at every
 * thread count — the epoch/barrier contract in the README.
 *
 * A failing configuration is printed as a reproducible spec string,
 * formatted through the knob table (and checked to parse back to the
 * same results-cache key): paste it into a file and run
 * `example_run_experiment --config` (or re-run this suite with
 * CLOUDMC_FUZZ_SEED) to replay the exact point.
 * CI pins CLOUDMC_FUZZ_SEED so the covered sample is stable per run
 * while the seed knob still lets a soak loop walk fresh samples.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/random.hh"
#include "dram/command_log.hh"
#include "dram/devices.hh"
#include "mem/factory.hh"
#include "sim/knobs.hh"
#include "sim/spec.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

/** Base seed: CLOUDMC_FUZZ_SEED when set (CI pins it), else 1. */
std::uint64_t
fuzzBaseSeed()
{
    if (const char *env = std::getenv("CLOUDMC_FUZZ_SEED")) {
        const auto v = std::strtoull(env, nullptr, 10);
        if (v >= 1)
            return v;
    }
    return 1;
}

struct FuzzConfig
{
    SimConfig cfg;
    WorkloadId workload = WorkloadId::DS;
};

/** @p cfg running @p wl as a runnable `--config` spec. */
std::string
reproSpec(WorkloadId wl, const SimConfig &cfg)
{
    return pointSpecText(ExperimentRunner::Point(wl, cfg));
}

/** Derive one random configuration from the (base seed, index) pair. */
FuzzConfig
drawConfig(std::uint64_t index)
{
    Pcg32 rng(fuzzBaseSeed() * 1'000'003 + index, 0x22);
    FuzzConfig f;
    f.cfg = SimConfig::baseline();

    const auto &registry = dramDeviceRegistry();
    f.cfg.applyDevice(
        registry[rng.below(static_cast<std::uint32_t>(registry.size()))]);
    f.cfg.scheduler = kAllSchedulers[rng.below(
        static_cast<std::uint32_t>(kAllSchedulers.size()))];
    f.cfg.pagePolicy = kAllPagePolicies[rng.below(
        static_cast<std::uint32_t>(kAllPagePolicies.size()))];
    f.cfg.mapping = kExtendedMappingSchemes[rng.below(
        static_cast<std::uint32_t>(kExtendedMappingSchemes.size()))];
    f.cfg.bankGroupMapping = kAllBankGroupMappings[rng.below(2)];
    f.cfg.dram.channels = 1u << rng.below(3); // 1, 2 or 4.
    f.workload = kAllWorkloads[rng.below(
        static_cast<std::uint32_t>(kAllWorkloads.size()))];
    f.cfg.refreshEnabled = rng.below(2) == 0;
    // Stacked-backend sampling: a quarter of the indices force the
    // stacked reference part, so vault-geometry and remapping coverage
    // never depends on the registry draw above happening to pick it.
    if (rng.below(4) == 0)
        f.cfg.applyDevice(*findDramDevice("HMC2-8GB"));
    if (f.cfg.dram.vaultsPerStack > 0) {
        const std::uint32_t vaultChoices[] = {4, 8, 16};
        f.cfg.setVaults(vaultChoices[rng.below(3)]);
        f.cfg.remap.enabled = rng.below(2) == 0;
        // Each stack fans out into one controller queue per vault;
        // cap the stack count so the tick-by-tick reference runs
        // (which step every controller every cycle) stay cheap.
        f.cfg.dram.channels = std::min(f.cfg.dram.channels, 2u);
    }
    // Tiered-composition sampling (drawn AFTER every earlier knob so
    // the pre-v7 rng streams — and CI's pinned coverage — are
    // unchanged): a quarter of the indices wrap the drawn fast tier
    // in the tiered backend, cycling the three policies and both
    // capacity splits, with a monitor window small enough that
    // hotness_based migrations actually fire inside the tiny run.
    if (rng.below(4) == 0) {
        f.cfg.tier.enabled = true;
        const TierPolicy policies[] = {TierPolicy::StaticSplit,
                                       TierPolicy::HotnessBased,
                                       TierPolicy::AlloyCache};
        f.cfg.tier.policy = policies[rng.below(3)];
        f.cfg.tier.fastCapacityPct = rng.below(2) == 0 ? 50 : 25;
        f.cfg.tier.monitorSampleEvery = 2;
        f.cfg.tier.monitorWindowSamples = 64;
    }
    // Small windows keep 64 double (event + reference) runs cheap
    // while still spanning several tREFI periods on every device.
    f.cfg.warmupCoreCycles = 20'000;
    f.cfg.measureCoreCycles = 50'000;
    return f;
}

struct RunResult
{
    MetricSet metrics;
    Tick endTick{};
    CommandLog log;
};

RunResult
runKernel(const FuzzConfig &f, bool reference,
          std::uint32_t kernelThreads = 1)
{
    SimConfig cfg = f.cfg;
    cfg.kernelThreads = kernelThreads;
    System sys(cfg, workloadPreset(f.workload));
    sys.useReferenceKernel(reference);
    RunResult r;
    r.log.attachAll(sys);
    r.metrics = sys.run();
    r.endTick = sys.now();
    return r;
}

/** Every metric to the last bit, the end tick, and every command. */
void
expectRunsIdentical(const RunResult &got, const RunResult &want)
{
    EXPECT_STREQ(firstDifferentMetric(got.metrics, want.metrics), nullptr);
    EXPECT_EQ(got.endTick, want.endTick);
    EXPECT_EQ(got.log.firstDivergence(want.log), "");
}

} // namespace

class KernelFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(KernelFuzz, EventAndReferenceKernelsAgreeOnRandomConfig)
{
    const FuzzConfig f = drawConfig(GetParam());
    const std::string spec = reproSpec(f.workload, f.cfg);
    SCOPED_TRACE("reproduce with --config spec:\n" + spec);

    // The printed spec must name exactly this point: parsed back, it
    // has the same results-cache key.
    ExperimentSpec parsed;
    ASSERT_EQ(parseExperimentSpec(spec, parsed), "");
    ASSERT_EQ(parsed.pointCount(), 1u);
    const ExperimentRunner::Point back = parsed.points().front();
    EXPECT_EQ(ExperimentRunner::configKey(back.workload, back.cfg),
              ExperimentRunner::configKey(f.workload, f.cfg));

    const RunResult ev = runKernel(f, /*reference=*/false);
    const RunResult ref = runKernel(f, /*reference=*/true);

    // Exact command-trace equality: a kernel that skipped a refresh
    // deadline, latch delivery or group-timing boundary shifts a
    // channel's stream.
    expectRunsIdentical(ev, ref);
    EXPECT_GT(ev.log.count(), 0u) << "run issued no DRAM commands";
    // The kernels agreeing does not make them right: every channel's
    // stream must also pass the independent checker on its own
    // timings (a stacked vault's tTSV, a slow tier's stretched ones).
    EXPECT_EQ(ev.log.firstViolation(), "");

    // The epoch-sharded parallel kernel must reproduce the serial
    // event kernel bit for bit at every thread budget (IO-enabled
    // workloads exercise the documented serial fallback).
    for (const std::uint32_t threads : {2u, 4u, 7u}) {
        SimConfig threaded = f.cfg;
        threaded.kernelThreads = threads;
        SCOPED_TRACE("with kernel_threads = " + std::to_string(threads) +
                     "; reproduce with --config spec:\n" +
                     reproSpec(f.workload, threaded));
        expectRunsIdentical(runKernel(f, /*reference=*/false, threads), ev);
    }
}

INSTANTIATE_TEST_SUITE_P(SixtyFourSeededConfigs, KernelFuzz,
                         ::testing::Range<std::uint64_t>(0, 64));
