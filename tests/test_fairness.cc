/**
 * @file
 * Slowdown/fairness subsystem tests: the deriveFairnessMetrics math,
 * the alone-run baseline pipeline in ExperimentRunner (scheduling,
 * memoization, schema-v4 persistence), MixedWorkload part-isolated
 * baselines, event-vs-reference kernel equality of the derived
 * quantities, and STFM's online slowdown estimate against the
 * measured truth.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mem/sched_stfm.hh"
#include "sim/experiment.hh"
#include "sim/spec.hh"
#include "sim/system.hh"
#include "workload/mixed.hh"

using namespace mcsim;

namespace {

std::string
tempCachePath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/cloudmc_fair_" + tag +
           ".csv";
}

SimConfig
tinyConfig()
{
    SimConfig cfg = SimConfig::baseline();
    cfg.warmupCoreCycles = 50'000;
    cfg.measureCoreCycles = 150'000;
    return cfg;
}

/** Pin CLOUDMC_FAST so runner windows match direct System runs. */
class FastEnvGuard
{
  public:
    FastEnvGuard()
    {
        const char *v = std::getenv("CLOUDMC_FAST");
        saved_ = v ? v : "";
        unsetenv("CLOUDMC_FAST");
    }
    ~FastEnvGuard()
    {
        if (!saved_.empty())
            setenv("CLOUDMC_FAST", saved_.c_str(), 1);
    }

  private:
    std::string saved_;
};

MetricSet
makeShared(std::vector<double> ipc)
{
    MetricSet m;
    m.perCoreIpc = std::move(ipc);
    return m;
}

} // namespace

TEST(DeriveFairness, SingleCoreBaselineBroadcasts)
{
    MetricSet shared = makeShared({0.5, 0.25});
    MetricSet alone = makeShared({1.0});
    ASSERT_TRUE(deriveFairnessMetrics(shared, {{0, 2, &alone}}));
    ASSERT_EQ(shared.perCoreSlowdown.size(), 2u);
    EXPECT_DOUBLE_EQ(shared.perCoreSlowdown[0], 2.0);
    EXPECT_DOUBLE_EQ(shared.perCoreSlowdown[1], 4.0);
    EXPECT_DOUBLE_EQ(shared.maxSlowdown, 4.0);
    EXPECT_DOUBLE_EQ(shared.weightedSpeedup, 0.75);
    EXPECT_DOUBLE_EQ(shared.harmonicSpeedup, 2.0 / 6.0);
    EXPECT_TRUE(shared.hasFairness());
}

TEST(DeriveFairness, PartIsolatedBaselinesMapPerCore)
{
    MetricSet shared = makeShared({0.5, 0.2, 0.8, 0.4});
    MetricSet aloneA = makeShared({1.0, 0.4});
    MetricSet aloneB = makeShared({1.6, 1.6});
    ASSERT_TRUE(deriveFairnessMetrics(
        shared, {{0, 2, &aloneA}, {2, 2, &aloneB}}));
    EXPECT_DOUBLE_EQ(shared.perCoreSlowdown[0], 2.0);
    EXPECT_DOUBLE_EQ(shared.perCoreSlowdown[1], 2.0);
    EXPECT_DOUBLE_EQ(shared.perCoreSlowdown[2], 2.0);
    EXPECT_DOUBLE_EQ(shared.perCoreSlowdown[3], 4.0);
    EXPECT_DOUBLE_EQ(shared.maxSlowdown, 4.0);
    EXPECT_DOUBLE_EQ(shared.harmonicSpeedup, 4.0 / 10.0);
}

TEST(DeriveFairness, StarvedCoreScoresMaximalFiniteSlowdown)
{
    // A core starved to zero committed instructions while its alone
    // run makes progress must inflate maxSlowdown (as if it committed
    // one instruction over the window), not report slowdown 1.
    MetricSet shared = makeShared({0.5, 0.0});
    shared.measuredCycles = 1'000'000;
    MetricSet alone = makeShared({1.0});
    ASSERT_TRUE(deriveFairnessMetrics(shared, {{0, 2, &alone}}));
    EXPECT_DOUBLE_EQ(shared.perCoreSlowdown[0], 2.0);
    EXPECT_DOUBLE_EQ(shared.perCoreSlowdown[1], 1'000'000.0);
    EXPECT_DOUBLE_EQ(shared.maxSlowdown, 1'000'000.0);
    // The starved core contributes nothing to throughput...
    EXPECT_DOUBLE_EQ(shared.weightedSpeedup, 0.5);
    // ...and its huge slowdown crushes the harmonic-mean speedup.
    EXPECT_LT(shared.harmonicSpeedup, 1e-5);

    // An idle *application* (alone run committed nothing) still
    // scores a neutral 1.
    MetricSet idle = makeShared({0.0});
    MetricSet idleAlone = makeShared({0.0});
    ASSERT_TRUE(deriveFairnessMetrics(idle, {{0, 1, &idleAlone}}));
    EXPECT_DOUBLE_EQ(idle.perCoreSlowdown[0], 1.0);
}

TEST(DeriveFairness, RejectsBadCoverage)
{
    MetricSet aloneOk = makeShared({1.0});

    // Uncovered core.
    MetricSet shared = makeShared({0.5, 0.5});
    EXPECT_FALSE(deriveFairnessMetrics(shared, {{0, 1, &aloneOk}}));
    EXPECT_FALSE(shared.hasFairness());
    EXPECT_DOUBLE_EQ(shared.maxSlowdown, 0.0);

    // Overlapping baselines.
    shared = makeShared({0.5, 0.5});
    EXPECT_FALSE(deriveFairnessMetrics(
        shared, {{0, 2, &aloneOk}, {1, 1, &aloneOk}}));

    // Range past the end.
    shared = makeShared({0.5, 0.5});
    EXPECT_FALSE(deriveFairnessMetrics(shared, {{1, 2, &aloneOk}}));

    // Baseline with neither 1 nor numCores entries.
    shared = makeShared({0.5, 0.5, 0.5});
    MetricSet aloneBad = makeShared({1.0, 1.0});
    EXPECT_FALSE(deriveFairnessMetrics(shared, {{0, 3, &aloneBad}}));

    // No per-core data on the shared run (a pre-v4 cache row).
    shared = MetricSet{};
    EXPECT_FALSE(deriveFairnessMetrics(shared, {{0, 1, &aloneOk}}));
}

TEST(DeriveFairness, DivisionEdgesNeverProduceNanOrInf)
{
    // measuredCycles == 0 (a degenerate window) with a starved core:
    // the floor IPC falls back to 1.0 instead of dividing by zero, so
    // the slowdown stays finite and equal to the alone IPC.
    MetricSet shared = makeShared({0.0});
    shared.measuredCycles = 0;
    MetricSet alone = makeShared({2.0});
    ASSERT_TRUE(deriveFairnessMetrics(shared, {{0, 1, &alone}}));
    EXPECT_DOUBLE_EQ(shared.perCoreSlowdown[0], 2.0);
    EXPECT_TRUE(std::isfinite(shared.maxSlowdown));
    EXPECT_TRUE(std::isfinite(shared.harmonicSpeedup));

    // Every core idle in both runs: slowdownSum lands on the core
    // count (all neutral 1s), never a 0/0.
    MetricSet allIdle = makeShared({0.0, 0.0});
    MetricSet idleAlone = makeShared({0.0});
    ASSERT_TRUE(deriveFairnessMetrics(allIdle, {{0, 2, &idleAlone}}));
    EXPECT_DOUBLE_EQ(allIdle.harmonicSpeedup, 1.0);
    EXPECT_DOUBLE_EQ(allIdle.weightedSpeedup, 0.0);
    EXPECT_DOUBLE_EQ(allIdle.maxSlowdown, 1.0);

    // Empty baseline list: rejected before any division happens.
    MetricSet noBase = makeShared({0.5});
    EXPECT_FALSE(deriveFairnessMetrics(noBase, {}));
    EXPECT_FALSE(noBase.hasFairness());

    // A baseline part declaring zero cores is malformed coverage.
    MetricSet zeroPart = makeShared({0.5});
    EXPECT_FALSE(deriveFairnessMetrics(zeroPart, {{0, 0, &alone}}));
}

TEST(Fairness, PresetPointMeasuresRealSlowdowns)
{
    FastEnvGuard guard;
    ExperimentRunner runner("-");
    ExperimentRunner::Point p(WorkloadId::WS, tinyConfig());
    ExperimentRunner::attachAloneBaseline(p);
    ASSERT_EQ(p.baselines.size(), 1u);
    EXPECT_EQ(p.baselines[0].numCores,
              workloadPreset(WorkloadId::WS).cores);
    EXPECT_EQ(p.baselines[0].run.presetCores, 1u);

    const MetricSet m = runner.runAll({p}, 2).front();
    EXPECT_EQ(runner.simulationsRun(), 2u); // Shared + alone baseline.
    ASSERT_TRUE(m.hasFairness());
    ASSERT_EQ(m.perCoreSlowdown.size(),
              workloadPreset(WorkloadId::WS).cores);
    // 16 cores contend for one channel, so the pod as a whole must run
    // slower than the alone baseline. Individual cores can dip just
    // below 1: the baseline is the preset's mean-intensity single
    // core, while spread presets give their lightest cores less memory
    // work than that.
    std::size_t slowed = 0;
    for (double s : m.perCoreSlowdown) {
        EXPECT_GT(s, 0.5);
        slowed += s > 1.0 ? 1 : 0;
    }
    EXPECT_GE(2 * slowed, m.perCoreSlowdown.size());
    EXPECT_GT(m.maxSlowdown, 1.0);
    EXPECT_GT(m.weightedSpeedup, 0.0);
    EXPECT_LT(m.weightedSpeedup,
              static_cast<double>(m.perCoreSlowdown.size()));
    EXPECT_GT(m.harmonicSpeedup, 0.0);
    EXPECT_LT(m.harmonicSpeedup, 1.0);
}

TEST(Fairness, PerCoreBreakdownsBackThePerCoreIpc)
{
    SimConfig cfg = tinyConfig();
    System sys(cfg, workloadPreset(WorkloadId::DS));
    const MetricSet m = sys.run();
    ASSERT_EQ(m.perCoreCommitted.size(), m.perCoreIpc.size());
    ASSERT_EQ(m.perCoreCycles.size(), m.perCoreIpc.size());
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < m.perCoreIpc.size(); ++c) {
        total += m.perCoreCommitted[c];
        EXPECT_EQ(m.perCoreCycles[c], m.measuredCycles);
        const double ipc =
            static_cast<double>(m.perCoreCommitted[c]) /
            static_cast<double>(m.perCoreCycles[c]);
        EXPECT_DOUBLE_EQ(m.perCoreIpc[c], ipc);
    }
    EXPECT_EQ(total, m.committedInstructions);
}

TEST(Fairness, BaselinesMemoizeAcrossRepeatedSweeps)
{
    FastEnvGuard guard;
    const std::string path = tempCachePath("memo");
    std::remove(path.c_str());

    // Two schedulers over one workload, fairness attached: 2 shared
    // runs + 2 alone baselines (the baseline key includes the
    // scheduler, so they do not collapse).
    std::vector<ExperimentRunner::Point> points;
    for (auto sched : {SchedulerKind::FrFcfs, SchedulerKind::Atlas}) {
        SimConfig cfg = tinyConfig();
        cfg.scheduler = sched;
        ExperimentRunner::Point p(WorkloadId::WS, cfg);
        ExperimentRunner::attachAloneBaseline(p);
        points.push_back(std::move(p));
    }

    MetricSet first;
    {
        ExperimentRunner runner(path);
        first = runner.runAll(points, 2).front();
        EXPECT_EQ(runner.simulationsRun(), 4u);
        EXPECT_EQ(runner.cacheHits(), 0u);
        ASSERT_TRUE(first.hasFairness());
    }
    // A fresh runner replays shared runs AND baselines from disk.
    {
        ExperimentRunner runner(path);
        const MetricSet again = runner.runAll(points, 2).front();
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_EQ(runner.cacheHits(), 4u);
        ASSERT_TRUE(again.hasFairness());
        ASSERT_EQ(again.perCoreSlowdown.size(),
                  first.perCoreSlowdown.size());
        for (std::size_t c = 0; c < first.perCoreSlowdown.size(); ++c) {
            EXPECT_NEAR(again.perCoreSlowdown[c],
                        first.perCoreSlowdown[c],
                        1e-5 * first.perCoreSlowdown[c]);
        }
        EXPECT_NEAR(again.weightedSpeedup, first.weightedSpeedup,
                    1e-5 * first.weightedSpeedup);
        EXPECT_NEAR(again.harmonicSpeedup, first.harmonicSpeedup,
                    1e-5 * first.harmonicSpeedup);
        EXPECT_NEAR(again.maxSlowdown, first.maxSlowdown,
                    1e-5 * first.maxSlowdown);
    }
    std::remove(path.c_str());
}

TEST(Fairness, MetricsBitIdenticalAcrossKernels)
{
    FastEnvGuard guard;
    const SimConfig cfg = tinyConfig();
    WorkloadParams shared = workloadPreset(WorkloadId::TPCC1);
    WorkloadParams alone = shared;
    alone.cores = 1;

    const auto runBoth = [&](const WorkloadParams &params,
                             bool reference) {
        System sys(cfg, params);
        sys.useReferenceKernel(reference);
        return sys.run();
    };
    MetricSet evShared = runBoth(shared, false);
    MetricSet refShared = runBoth(shared, true);
    const MetricSet evAlone = runBoth(alone, false);
    const MetricSet refAlone = runBoth(alone, true);

    ASSERT_TRUE(deriveFairnessMetrics(
        evShared, {{0, shared.cores, &evAlone}}));
    ASSERT_TRUE(deriveFairnessMetrics(
        refShared, {{0, shared.cores, &refAlone}}));
    EXPECT_STREQ(firstDifferentMetric(evShared, refShared), nullptr);
}

TEST(Fairness, MixedPartsUseTheirIsolatedBaselines)
{
    FastEnvGuard guard;
    const std::vector<MixPart> parts = {{WorkloadId::WS, 2},
                                        {WorkloadId::TPCHQ6, 2}};
    const SimConfig cfg = tinyConfig();
    ExperimentRunner::Point p =
        ExperimentRunner::mixedFairnessPoint(parts, cfg, 16ull << 30);
    ASSERT_EQ(p.baselines.size(), 2u);
    EXPECT_EQ(p.baselines[0].run.workload, WorkloadId::WS);
    EXPECT_EQ(p.baselines[0].run.presetCores, 2u);
    EXPECT_EQ(p.baselines[0].firstCore, 0u);
    EXPECT_EQ(p.baselines[1].run.workload, WorkloadId::TPCHQ6);
    EXPECT_EQ(p.baselines[1].run.presetCores, 2u);
    EXPECT_EQ(p.baselines[1].firstCore, 2u);
    EXPECT_EQ(p.customCores, 4u);
    EXPECT_FALSE(p.customKey.empty());

    ExperimentRunner runner("-");
    const MetricSet m = runner.runAll({p}, 2).front();
    ASSERT_TRUE(m.hasFairness());
    ASSERT_EQ(m.perCoreSlowdown.size(), 4u);

    // Recompute the slowdowns from independently-run part baselines:
    // each part's cores must be normalized by *that part's* alone run.
    ExperimentRunner aloneRunner("-");
    const auto aloneMetrics = aloneRunner.runAll(
        {p.baselines[0].run, p.baselines[1].run}, 2);
    for (std::uint32_t part = 0; part < 2; ++part) {
        for (std::uint32_t l = 0; l < 2; ++l) {
            const std::uint32_t c = part * 2 + l;
            const double expected =
                aloneMetrics[part].perCoreIpc[l] / m.perCoreIpc[c];
            EXPECT_DOUBLE_EQ(m.perCoreSlowdown[c], expected)
                << "core " << c;
        }
    }
}

TEST(Fairness, StfmEstimateTracksMeasuredSlowdown)
{
    FastEnvGuard guard;
    // STFM's online estimate covers *memory service* slowdown only; a
    // core's whole-execution slowdown dilutes that with compute time.
    // Mapping the estimate through the core's measured memory-stall
    // fraction f gives a predicted execution slowdown
    //     S_pred = 1 / (1 - f + f / S_stfm)
    // which must track the measured (alone-baseline) slowdown within a
    // tolerance band. TPC-H Q6 is the right probe: streaming scans
    // with little LLC reuse, so the single-core baseline is not
    // distorted by the constructive cache sharing scale-out presets
    // enjoy (which would push measured slowdowns below 1).
    SimConfig cfg = SimConfig::baseline();
    cfg.scheduler = SchedulerKind::Stfm;
    cfg.warmupCoreCycles = 200'000;
    cfg.measureCoreCycles = 400'000;
    WorkloadParams shared = workloadPreset(WorkloadId::TPCHQ6);
    WorkloadParams alone = shared;
    alone.cores = 1;

    System sys(cfg, shared);
    MetricSet sharedM = sys.run();
    System aloneSys(cfg, alone);
    const MetricSet aloneM = aloneSys.run();
    ASSERT_TRUE(deriveFairnessMetrics(
        sharedM, {{0, shared.cores, &aloneM}}));

    const auto *stfm = dynamic_cast<const StfmScheduler *>(
        &sys.controller(0).scheduler());
    ASSERT_NE(stfm, nullptr);
    for (std::uint32_t c = 0; c < shared.cores; ++c) {
        const double estimated = stfm->slowdownOf(c);
        const double measured = sharedM.perCoreSlowdown[c];
        EXPECT_GE(estimated, 1.0);
        EXPECT_GT(measured, 0.95);

        const CoreStats &cs = sys.core(c).stats();
        const double f =
            static_cast<double>(cs.loadMissStallCycles +
                                cs.fetchStallCycles) /
            static_cast<double>(cs.cycles);
        const double predicted = 1.0 / (1.0 - f + f / estimated);
        // Observed ~1.1-1.5x on this configuration; the band leaves
        // headroom for model drift without accepting a broken
        // estimator.
        EXPECT_LT(predicted, 2.5 * measured) << "core " << c;
        EXPECT_GT(predicted, 0.75 * measured) << "core " << c;
    }
}

TEST(Fairness, SpecFairnessKeyAttachesBaselines)
{
    ExperimentSpec spec;
    const std::string err = parseExperimentSpec(
        "workloads = WS, DS\nfairness = on\n", spec);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(spec.fairness);
    const auto points = spec.points();
    ASSERT_EQ(points.size(), 2u);
    for (const auto &p : points) {
        ASSERT_EQ(p.baselines.size(), 1u);
        EXPECT_EQ(p.baselines[0].run.presetCores, 1u);
        EXPECT_EQ(p.baselines[0].numCores,
                  workloadPreset(p.workload).cores);
    }

    ExperimentSpec off;
    ASSERT_TRUE(parseExperimentSpec("fairness = off\n", off).empty());
    EXPECT_FALSE(off.fairness);
    EXPECT_TRUE(off.points().front().baselines.empty());

    ExperimentSpec bad;
    EXPECT_FALSE(parseExperimentSpec("fairness = maybe\n", bad).empty());
}
