/**
 * @file
 * End-to-end system tests: smoke runs, determinism, metric sanity,
 * multi-channel configurations, and the experiment harness cache.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <type_traits>
#include <variant>

#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

SimConfig
quickConfig()
{
    SimConfig cfg = SimConfig::baseline();
    cfg.warmupCoreCycles = 100'000;
    cfg.measureCoreCycles = 300'000;
    return cfg;
}

} // namespace

TEST(System, SmokeRunProducesSaneMetrics)
{
    System sys(quickConfig(), workloadPreset(WorkloadId::DS));
    const MetricSet m = sys.run();
    EXPECT_GT(m.userIpc, 0.1);
    EXPECT_LE(m.userIpc, 16.0);
    EXPECT_GT(m.avgReadLatency, 30.0); // At least the DRAM minimum.
    EXPECT_LT(m.avgReadLatency, 5000.0);
    EXPECT_GE(m.rowHitRatePct, 0.0);
    EXPECT_LE(m.rowHitRatePct, 100.0);
    EXPECT_GT(m.l2Mpki, 0.0);
    EXPECT_GE(m.bwUtilPct, 0.0);
    EXPECT_LE(m.bwUtilPct, 100.0);
    EXPECT_GE(m.singleAccessPct, 0.0);
    EXPECT_LE(m.singleAccessPct, 100.0);
    EXPECT_GT(m.memReads, 0u);
    EXPECT_GT(m.memWrites, 0u);
    EXPECT_EQ(m.perCoreIpc.size(), 16u);
    EXPECT_EQ(m.measuredCycles, 300'000u);
}

TEST(System, DeterministicAcrossRuns)
{
    System a(quickConfig(), workloadPreset(WorkloadId::WS));
    System b(quickConfig(), workloadPreset(WorkloadId::WS));
    EXPECT_STREQ(firstDifferentMetric(a.run(), b.run()), nullptr);
}

TEST(System, SeedKnobReachesPresetWorkload)
{
    const WorkloadParams ws = workloadPreset(WorkloadId::WS);
    SimConfig cfg = quickConfig();
    const MetricSet one = System(cfg, ws).run();
    cfg.seed = 7;
    const MetricSet seven = System(cfg, ws).run();
    EXPECT_NE(firstDifferentMetric(one, seven), nullptr);
    EXPECT_NE(one.memReads, seven.memReads);
}

TEST(MetricSetIdentity, EverySingleFieldChangeIsReported)
{
    MetricSet base;
    base.perCoreIpc = {0.5, 0.25};
    base.perCoreCommitted = {10, 20};
    base.perCoreCycles = {100, 100};
    EXPECT_EQ(firstDifferentMetric(base, base), nullptr);
    for (const MetricField &f : metricFields()) {
        MetricSet changed = base;
        std::visit(
            [&](auto member) {
                auto &v = changed.*member;
                if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                             std::vector<double>>) {
                    if (v.empty())
                        v.push_back(1.0);
                    else
                        v.back() += 1.0;
                } else {
                    v += 1;
                }
            },
            f.member);
        const char *diff = firstDifferentMetric(base, changed);
        ASSERT_NE(diff, nullptr) << f.name;
        EXPECT_STREQ(diff, f.name);
        EXPECT_STREQ(firstDifferentMetric(changed, base), f.name);
    }
    MetricSet changed = base;
    changed.perCoreCommitted.back() += 1;
    EXPECT_STREQ(firstDifferentMetric(base, changed), "per_core_committed");
    changed = base;
    changed.perCoreCycles.front() += 1;
    EXPECT_STREQ(firstDifferentMetric(base, changed), "per_core_cycles");
}

TEST(System, WebFrontendRunsEightCores)
{
    System sys(quickConfig(), workloadPreset(WorkloadId::WF));
    EXPECT_EQ(sys.numCores(), 8u);
    const MetricSet m = sys.run();
    EXPECT_EQ(m.perCoreIpc.size(), 8u);
}

TEST(System, MultiChannelDistributesTraffic)
{
    SimConfig cfg = quickConfig();
    cfg.dram.channels = 4;
    cfg.mapping = MappingScheme::RoRaBaCoCh;
    System sys(cfg, workloadPreset(WorkloadId::TPCHQ6));
    EXPECT_EQ(sys.numControllers(), 4u);
    const MetricSet m = sys.run();
    EXPECT_GT(m.userIpc, 0.1);
    // Every channel serviced a meaningful share of the reads.
    for (std::uint32_t ch = 0; ch < 4; ++ch) {
        EXPECT_GT(sys.controller(ch).stats().servedReads,
                  m.memReads / 16);
    }
}

TEST(System, MoreChannelsNeverSlowDecisionSupport)
{
    SimConfig one = quickConfig();
    SimConfig four = quickConfig();
    four.dram.channels = 4;
    four.mapping = MappingScheme::RoChRaBaCo;
    System s1(one, workloadPreset(WorkloadId::TPCHQ6));
    System s4(four, workloadPreset(WorkloadId::TPCHQ6));
    const double ipc1 = s1.run().userIpc;
    const double ipc4 = s4.run().userIpc;
    // DSPW is bandwidth-bound: 4 channels must help (paper: +19%).
    EXPECT_GT(ipc4, ipc1);
}

TEST(System, IoEngineGeneratesDmaTraffic)
{
    // Data Serving configures a DMA engine (ioWindow > 0): requests
    // attributed to the IO pseudo-core must reach the controller.
    System sys(quickConfig(), workloadPreset(WorkloadId::DS));
    (void)sys.run();
    const auto &perCore = sys.controller(0).stats().perCoreReads;
    EXPECT_GT(perCore[16], 0u); // Overflow slot = IO pseudo-core.
}

TEST(System, NoIoEngineWithoutIoWindow)
{
    // MapReduce has no DMA engine; the IO slot must stay silent.
    ASSERT_EQ(workloadPreset(WorkloadId::MR).ioWindow, 0u);
    System sys(quickConfig(), workloadPreset(WorkloadId::MR));
    (void)sys.run();
    EXPECT_EQ(sys.controller(0).stats().perCoreReads[16], 0u);
}

TEST(System, PostedIoWritesReachDramQuickly)
{
    // IO writes are posted: they must commit to DRAM within a short
    // window even while reads keep arriving (the wedge this design
    // prevents: window slots held until a write CAS never issues).
    SimConfig cfg = quickConfig();
    cfg.measureCoreCycles = 200'000;
    System sys(cfg, workloadPreset(WorkloadId::MS));
    const MetricSet m = sys.run();
    EXPECT_GT(m.memWrites, 10u);
}

TEST(System, LatencyPercentilesOrderedAndPlausible)
{
    System sys(quickConfig(), workloadPreset(WorkloadId::DS));
    const MetricSet m = sys.run();
    EXPECT_GT(m.readLatencyP50, 20.0); // Above the raw DRAM minimum.
    EXPECT_LE(m.readLatencyP50, m.readLatencyP95);
    EXPECT_LE(m.readLatencyP95, m.readLatencyP99);
    // The mean sits inside the distribution's bulk.
    EXPECT_LT(m.readLatencyP50 / 8.0, m.avgReadLatency);
    EXPECT_GT(m.readLatencyP99 * 8.0, m.avgReadLatency);
}

TEST(System, ExternalGeneratorConstructor)
{
    WorkloadParams p = workloadPreset(WorkloadId::SS);
    SyntheticWorkload gen(p, 16ull << 30);
    System sys(quickConfig(), gen, p.cores);
    const MetricSet m = sys.run();
    EXPECT_GT(m.userIpc, 0.1);
}

TEST(System, ResetStatsStartsFreshWindow)
{
    System sys(quickConfig(), workloadPreset(WorkloadId::MR));
    sys.advance(100'000);
    sys.resetStats();
    sys.advance(50'000);
    const MetricSet m = sys.collect();
    EXPECT_EQ(m.measuredCycles, 50'000u);
    EXPECT_GT(m.committedInstructions, 0u);
}

TEST(ExperimentRunner, CacheRoundtrip)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/cloudmc_cache_test.csv";
    std::remove(path.c_str());

    SimConfig cfg = quickConfig();
    MetricSet first;
    {
        ExperimentRunner runner(path);
        first = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 1u);
        // Second call hits the in-memory cache.
        (void)runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.cacheHits(), 1u);
    }
    {
        // New runner reloads from disk: no simulation needed.
        ExperimentRunner runner(path);
        const MetricSet again = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_EQ(runner.cacheHits(), 1u);
        EXPECT_NEAR(again.userIpc, first.userIpc, 1e-4);
        EXPECT_NEAR(again.rowHitRatePct, first.rowHitRatePct, 1e-2);
    }
    std::remove(path.c_str());
}

TEST(ExperimentRunner, KeysDistinguishConfigurations)
{
    SimConfig a = SimConfig::baseline();
    SimConfig b = a;
    b.scheduler = SchedulerKind::Atlas;
    SimConfig c = a;
    c.dram.channels = 4;
    SimConfig d = a;
    d.pagePolicy = PagePolicyKind::Rbpp;
    SimConfig e = a;
    e.mapping = MappingScheme::RoChRaBaCo;
    const auto ka = ExperimentRunner::configKey(WorkloadId::DS, a);
    EXPECT_NE(ka, ExperimentRunner::configKey(WorkloadId::MR, a));
    EXPECT_NE(ka, ExperimentRunner::configKey(WorkloadId::DS, b));
    EXPECT_NE(ka, ExperimentRunner::configKey(WorkloadId::DS, c));
    EXPECT_NE(ka, ExperimentRunner::configKey(WorkloadId::DS, d));
    EXPECT_NE(ka, ExperimentRunner::configKey(WorkloadId::DS, e));
}

TEST(ExperimentRunner, DisabledCacheAlwaysSimulates)
{
    ExperimentRunner runner("-");
    SimConfig cfg = quickConfig();
    cfg.measureCoreCycles = 150'000;
    (void)runner.run(WorkloadId::WS, cfg);
    (void)runner.run(WorkloadId::WS, cfg);
    EXPECT_EQ(runner.simulationsRun(), 2u);
    EXPECT_EQ(runner.cacheHits(), 0u);
}

/** Scheduler sweep: the full system completes under every policy. */
class SystemSchedulerSweep
    : public ::testing::TestWithParam<SchedulerKind>
{
};

TEST_P(SystemSchedulerSweep, RunsToCompletion)
{
    SimConfig cfg = quickConfig();
    cfg.scheduler = GetParam();
    System sys(cfg, workloadPreset(WorkloadId::DS));
    const MetricSet m = sys.run();
    EXPECT_GT(m.userIpc, 0.05);
    EXPECT_GT(m.memReads, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SystemSchedulerSweep,
    ::testing::Values(SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks,
                      SchedulerKind::ParBs, SchedulerKind::Atlas,
                      SchedulerKind::Rl, SchedulerKind::Fcfs,
                      SchedulerKind::Fqm, SchedulerKind::Tcm,
                      SchedulerKind::Stfm));

/** Page-policy sweep: likewise. */
class SystemPolicySweep
    : public ::testing::TestWithParam<PagePolicyKind>
{
};

TEST_P(SystemPolicySweep, RunsToCompletion)
{
    SimConfig cfg = quickConfig();
    cfg.pagePolicy = GetParam();
    System sys(cfg, workloadPreset(WorkloadId::MS));
    const MetricSet m = sys.run();
    EXPECT_GT(m.userIpc, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SystemPolicySweep,
    ::testing::Values(PagePolicyKind::OpenAdaptive,
                      PagePolicyKind::CloseAdaptive, PagePolicyKind::Rbpp,
                      PagePolicyKind::Abpp, PagePolicyKind::Open,
                      PagePolicyKind::Close, PagePolicyKind::Timer,
                      PagePolicyKind::History));
