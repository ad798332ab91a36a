/**
 * @file
 * Experiment harness robustness: the on-disk results cache must
 * survive corruption, format drift and concurrent-ish appends without
 * ever returning garbage — a corrupt row re-simulates, it never
 * poisons a figure.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "mem/address_mapping.hh"
#include "mem/factory.hh"
#include "sim/experiment.hh"
#include "sim/knobs.hh"
#include "sim/spec.hh"
#include "sim/system.hh"
#include "workload/synthetic.hh"

using namespace mcsim;

namespace {

std::string
tempCachePath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/cloudmc_expcache_" +
           tag + ".csv";
}

SimConfig
tinyConfig()
{
    SimConfig cfg = SimConfig::baseline();
    cfg.warmupCoreCycles = 50'000;
    cfg.measureCoreCycles = 100'000;
    return cfg;
}

/** Sets CLOUDMC_FAST (unsets it for nullptr) for one scope. */
class FastDivisorScope
{
  public:
    explicit FastDivisorScope(const char *value)
    {
        if (const char *env = std::getenv("CLOUDMC_FAST"))
            saved_ = env;
        set(value);
    }
    ~FastDivisorScope() { set(saved_.empty() ? nullptr : saved_.c_str()); }

    static void
    set(const char *value)
    {
        if (value)
            setenv("CLOUDMC_FAST", value, 1);
        else
            unsetenv("CLOUDMC_FAST");
    }

  private:
    std::string saved_;
};

/** The key of the first point of @p spec. */
std::string
specKey(const ExperimentSpec &spec)
{
    const ExperimentRunner::Point p = spec.points().front();
    return ExperimentRunner::configKey(p.workload, p.cfg);
}

} // namespace

TEST(ExperimentCache, CorruptLinesAreIgnored)
{
    const std::string path = tempCachePath("corrupt");
    // Full-width rows with this point's key but one bad field each: a
    // negative count, a non-number in a list, one field too many.
    const std::string key =
        ExperimentRunner::configKey(WorkloadId::WS, tinyConfig());
    const std::string head = key + ",1.5,100,30,5,1,2,10,20,";
    const std::string tail = ",2000,30,40,0.9,5000,120,55,77,99,1.1,1.2,"
                             "1.3,,,42.5,0.25,3,7,,50,60,1,2";
    {
        std::ofstream out(path);
        out << ExperimentRunner::cacheHeader() << '\n';
        out << "not a csv line at all\n";
        out << "key-without-values,\n";
        out << "half,1.0,2.0\n";
        out << "\n";
        out << head << "-1000" << tail << '\n';
        out << head << "1000" << tail << ",9\n";
        out << key << ",1.5,100,30,5,1,2,10,20,1000,2000,30,40,0.9,5000,"
                      "120,55,77,99,1.1,1.2,1.3,1;x,,42.5,0.25,3,7,,50,60,"
                      "1,2\n";
    }
    ExperimentRunner runner(path);
    const MetricSet m = runner.run(WorkloadId::WS, tinyConfig());
    // The corrupt rows never match; a real simulation ran.
    EXPECT_EQ(runner.simulationsRun(), 1u);
    EXPECT_EQ(runner.cacheHits(), 0u);
    EXPECT_GT(m.userIpc, 0.0);
    std::remove(path.c_str());
}

TEST(ExperimentCache, OldFormatRowsResimulate)
{
    // A row with the key of a current configuration but too few value
    // fields must be dropped, not half-read, even inside a section
    // opened by the current header.
    const std::string path = tempCachePath("oldformat");
    const SimConfig cfg = tinyConfig();
    const std::string key = ExperimentRunner::configKey(WorkloadId::WS, cfg);
    {
        std::ofstream out(path);
        out << ExperimentRunner::cacheHeader() << '\n';
        out << key << ",1.5,100,30,5,1,10,20,80,1000,2000,30,40\n";
    }
    ExperimentRunner runner(path);
    (void)runner.run(WorkloadId::WS, cfg);
    EXPECT_EQ(runner.simulationsRun(), 1u);
    std::remove(path.c_str());
}

TEST(ExperimentCache, EnergyFieldsRoundtrip)
{
    const std::string path = tempCachePath("energy");
    std::remove(path.c_str());
    const SimConfig cfg = tinyConfig();
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::MS, cfg);
        EXPECT_GT(fresh.dramEnergyNj, 0.0);
        EXPECT_GT(fresh.dramAvgPowerMw, 0.0);
        EXPECT_GT(fresh.ipcDisparity, 0.0);
        EXPECT_LE(fresh.ipcDisparity, 1.0);
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.run(WorkloadId::MS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        // The CSV stores ~6 significant digits; compare relatively.
        EXPECT_NEAR(cached.dramEnergyNj, fresh.dramEnergyNj,
                    1e-5 * fresh.dramEnergyNj);
        EXPECT_NEAR(cached.dramAvgPowerMw, fresh.dramAvgPowerMw,
                    1e-5 * fresh.dramAvgPowerMw);
        EXPECT_NEAR(cached.ipcDisparity, fresh.ipcDisparity, 1e-5);
    }
    std::remove(path.c_str());
}

TEST(ExperimentCache, LatencyPercentilesRoundtrip)
{
    // The cache persists the read-latency percentiles; a reloaded
    // entry must carry them instead of silently reporting 0.
    const std::string path = tempCachePath("percentiles");
    std::remove(path.c_str());
    const SimConfig cfg = tinyConfig();
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::DS, cfg);
        EXPECT_GT(fresh.readLatencyP50, 0.0);
        EXPECT_GE(fresh.readLatencyP95, fresh.readLatencyP50);
        EXPECT_GE(fresh.readLatencyP99, fresh.readLatencyP95);
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.run(WorkloadId::DS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_NEAR(cached.readLatencyP50, fresh.readLatencyP50,
                    1e-5 * fresh.readLatencyP50);
        EXPECT_NEAR(cached.readLatencyP95, fresh.readLatencyP95,
                    1e-5 * fresh.readLatencyP95);
        EXPECT_NEAR(cached.readLatencyP99, fresh.readLatencyP99,
                    1e-5 * fresh.readLatencyP99);
    }
    std::remove(path.c_str());
}

TEST(ExperimentParallel, CustomGeneratorPointsRunUncached)
{
    // Custom-generator points (mixed workloads) go through the same
    // batch machinery; with an empty customKey they are never
    // memoized, and their results match a direct System run. The
    // runner scales windows by CLOUDMC_FAST but the direct System
    // does not, so pin the divisor for the comparison.
    const char *fastEnv = std::getenv("CLOUDMC_FAST");
    const std::string savedFast = fastEnv ? fastEnv : "";
    unsetenv("CLOUDMC_FAST");

    ExperimentRunner runner("-");
    ExperimentRunner::Point p;
    p.cfg = tinyConfig();
    p.makeGenerator = [] {
        return std::make_unique<SyntheticWorkload>(
            workloadPreset(WorkloadId::WS), 8ull << 30);
    };
    p.customCores = workloadPreset(WorkloadId::WS).cores;
    const auto batch =
        runner.runAll({p, p}, 2); // Same point twice: both simulate.
    EXPECT_EQ(runner.simulationsRun(), 2u);
    EXPECT_EQ(runner.cacheHits(), 0u);

    SimConfig cfg = tinyConfig();
    SyntheticWorkload gen(workloadPreset(WorkloadId::WS), 8ull << 30);
    System direct(cfg, gen, p.customCores);
    const MetricSet md = direct.run();
    EXPECT_STREQ(firstDifferentMetric(batch[0], md), nullptr);
    EXPECT_STREQ(firstDifferentMetric(batch[1], md), nullptr);

    if (!savedFast.empty())
        setenv("CLOUDMC_FAST", savedFast.c_str(), 1);
}

TEST(ExperimentCache, MissingFileStartsEmpty)
{
    const std::string path = tempCachePath("missing");
    std::remove(path.c_str());
    ExperimentRunner runner(path);
    EXPECT_EQ(runner.cacheHits(), 0u);
    EXPECT_EQ(runner.simulationsRun(), 0u);
}

namespace {

/** A 2-scheduler x 2-workload sweep of tiny simulation points. */
std::vector<ExperimentRunner::Point>
tinySweep()
{
    std::vector<ExperimentRunner::Point> points;
    for (auto kind : {SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks}) {
        for (auto wl : {WorkloadId::WS, WorkloadId::TPCC1}) {
            SimConfig cfg = tinyConfig();
            cfg.scheduler = kind;
            ExperimentRunner::Point p;
            p.workload = wl;
            p.cfg = cfg;
            points.push_back(std::move(p));
        }
    }
    return points;
}

} // namespace

TEST(ExperimentParallel, RunAllMatchesSerialLoop)
{
    const auto points = tinySweep();

    // Serial reference: independent runner, caching disabled so every
    // point actually simulates.
    ExperimentRunner serial("-");
    std::vector<MetricSet> expected;
    for (const auto &p : points)
        expected.push_back(serial.run(p.workload, p.cfg));

    ExperimentRunner parallel("-");
    const auto got = parallel.runAll(points, 4);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_STREQ(firstDifferentMetric(got[i], expected[i]), nullptr);
    }
    EXPECT_EQ(parallel.simulationsRun(), points.size());
    EXPECT_EQ(parallel.cacheHits(), 0u);
}

TEST(ExperimentParallel, CountersConsistentUnderConcurrency)
{
    const std::string path = tempCachePath("parallel");
    std::remove(path.c_str());

    const auto sweep = tinySweep();
    // Submit each point twice in one batch: 4 unique simulations, 4
    // duplicate references that must resolve as cache hits — exactly
    // what a serial run() loop over the same list would count.
    std::vector<ExperimentRunner::Point> points = sweep;
    points.insert(points.end(), sweep.begin(), sweep.end());

    {
        ExperimentRunner runner(path);
        const auto got = runner.runAll(points, 4);
        ASSERT_EQ(got.size(), points.size());
        EXPECT_EQ(runner.simulationsRun(), sweep.size());
        EXPECT_EQ(runner.cacheHits(), sweep.size());
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            SCOPED_TRACE(i);
            const MetricSet &dup = got[i + sweep.size()];
            EXPECT_STREQ(firstDifferentMetric(got[i], dup), nullptr);
        }
    }

    // A fresh runner replays the whole batch from the on-disk cache.
    {
        ExperimentRunner runner(path);
        const auto got = runner.runAll(points, 4);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_EQ(runner.cacheHits(), points.size());
        ASSERT_EQ(got.size(), points.size());
        for (const auto &m : got)
            EXPECT_GT(m.userIpc, 0.0);
    }
    std::remove(path.c_str());
}

TEST(ExperimentParallel, CacheFileHasNoPartialLines)
{
    const std::string path = tempCachePath("lines");
    std::remove(path.c_str());
    {
        ExperimentRunner runner(path);
        (void)runner.runAll(tinySweep(), 4);
    }
    // The header opens the file, then one record per point; every
    // record must parse back, so a fresh runner recalls all four.
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, ExperimentRunner::cacheHeader());
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_NE(line.find(','), std::string::npos);
    }
    EXPECT_EQ(lines, 4u);

    ExperimentRunner runner(path);
    (void)runner.runAll(tinySweep(), 2);
    EXPECT_EQ(runner.simulationsRun(), 0u);
    EXPECT_EQ(runner.cacheHits(), 4u);
    std::remove(path.c_str());
}

TEST(ExperimentParallel, SingleThreadAndZeroThreadsStillWork)
{
    const auto points = tinySweep();
    ExperimentRunner one("-");
    const auto a = one.runAll(points, 1);
    ExperimentRunner zero("-");
    const auto b = zero.runAll(points, 0);
    ASSERT_EQ(a.size(), points.size());
    ASSERT_EQ(b.size(), points.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_STREQ(firstDifferentMetric(a[i], b[i]), nullptr);
    }
}

TEST(ExperimentCache, KeyEncodesEveryStudiedDimension)
{
    // Beyond the basic distinctions (covered in test_system.cc), the
    // key must separate the extension dimensions too.
    const SimConfig a = SimConfig::baseline();
    SimConfig tcm = a;
    tcm.scheduler = SchedulerKind::Tcm;
    SimConfig hist = a;
    hist.pagePolicy = PagePolicyKind::History;
    SimConfig perm = a;
    perm.mapping = MappingScheme::PermBaXor;
    const auto ka = ExperimentRunner::configKey(WorkloadId::DS, a);
    EXPECT_NE(ka, ExperimentRunner::configKey(WorkloadId::DS, tcm));
    EXPECT_NE(ka, ExperimentRunner::configKey(WorkloadId::DS, hist));
    EXPECT_NE(ka, ExperimentRunner::configKey(WorkloadId::DS, perm));
}

TEST(ExperimentCache, KeyFingerprintsFullParameterSet)
{
    // Regression: the old key carried only the ATLAS quantum, so
    // sweeps over any other scheduler/controller tunable aliased to
    // one cached row and silently returned stale metrics.
    const SimConfig base = SimConfig::baseline();
    const auto kb = ExperimentRunner::configKey(WorkloadId::DS, base);

    SimConfig stfmAlpha = base;
    stfmAlpha.schedulerParams.stfm.alpha = 2.0;
    SimConfig tcmCluster = base;
    tcmCluster.schedulerParams.tcm.clusterFrac = 0.35;
    SimConfig tcmQuantum = base;
    tcmQuantum.schedulerParams.tcm.quantumCycles = 200'000;
    SimConfig rlEpsilon = base;
    rlEpsilon.schedulerParams.rl.epsilon = 0.2;
    SimConfig parbsCap = base;
    parbsCap.schedulerParams.parBs.batchingCap = 9;
    SimConfig drain = base;
    drain.controller.writeDrainHigh = 32;
    SimConfig refreshOff = base;
    refreshOff.refreshEnabled = false;
    SimConfig xbar = base;
    xbar.xbarLatencyCycles = 8;
    SimConfig ranks = base;
    ranks.dram.ranksPerChannel = 1;

    for (const SimConfig *cfg :
         {&stfmAlpha, &tcmCluster, &tcmQuantum, &rlEpsilon, &parbsCap,
          &drain, &refreshOff, &xbar, &ranks}) {
        EXPECT_NE(kb, ExperimentRunner::configKey(WorkloadId::DS, *cfg));
    }
    // And the fingerprint is stable: same parameters, same key.
    EXPECT_EQ(kb, ExperimentRunner::configKey(WorkloadId::DS,
                                              SimConfig::baseline()));
}

TEST(ExperimentCache, FairnessColumnsRoundtrip)
{
    // Rows carry the fairness scalars and the per-core IPC / slowdown
    // lists; a reloaded entry must reproduce them.
    const std::string path = tempCachePath("v4roundtrip");
    std::remove(path.c_str());
    SimConfig cfg = tinyConfig();
    ExperimentRunner::Point p(WorkloadId::WS, cfg);
    ExperimentRunner::attachAloneBaseline(p);

    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.runAll({p}, 1).front();
        ASSERT_TRUE(fresh.hasFairness());
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.runAll({p}, 1).front();
        EXPECT_EQ(runner.simulationsRun(), 0u);
        ASSERT_EQ(cached.perCoreIpc.size(), fresh.perCoreIpc.size());
        ASSERT_EQ(cached.perCoreSlowdown.size(),
                  fresh.perCoreSlowdown.size());
        for (std::size_t c = 0; c < fresh.perCoreIpc.size(); ++c) {
            EXPECT_NEAR(cached.perCoreIpc[c], fresh.perCoreIpc[c],
                        1e-5 * fresh.perCoreIpc[c]);
            EXPECT_NEAR(cached.perCoreSlowdown[c],
                        fresh.perCoreSlowdown[c],
                        1e-5 * fresh.perCoreSlowdown[c]);
        }
        EXPECT_NEAR(cached.weightedSpeedup, fresh.weightedSpeedup,
                    1e-5 * fresh.weightedSpeedup);
        EXPECT_NEAR(cached.harmonicSpeedup, fresh.harmonicSpeedup,
                    1e-5 * fresh.harmonicSpeedup);
        EXPECT_NEAR(cached.maxSlowdown, fresh.maxSlowdown,
                    1e-5 * fresh.maxSlowdown);
    }
    std::remove(path.c_str());
}

TEST(ExperimentCache, KeySeparatesBankGroupAxes)
{
    // The bank-group count and the group-mapping option are part of
    // the key, so a grouped-timing run can never alias a row simulated
    // under the single-group model or the other placement.
    const SimConfig base = SimConfig::baseline();
    SimConfig ddr4 = base;
    ddr4.applyDevice(dramDeviceOrDie("DDR4-2400"));
    SimConfig ddr4Packed = ddr4;
    ddr4Packed.bankGroupMapping = BankGroupMapping::GroupPacked;
    SimConfig ddr5 = base;
    ddr5.applyDevice(dramDeviceOrDie("DDR5-4800"));

    const auto kb = ExperimentRunner::configKey(WorkloadId::DS, base);
    const auto k4 = ExperimentRunner::configKey(WorkloadId::DS, ddr4);
    const auto k4p =
        ExperimentRunner::configKey(WorkloadId::DS, ddr4Packed);
    const auto k5 = ExperimentRunner::configKey(WorkloadId::DS, ddr5);
    EXPECT_NE(kb, k4);
    EXPECT_NE(k4, k5);
    EXPECT_NE(k4, k4p);

    // On a single-group device the two placements are the same
    // physical layout; the key normalizes so they share one row.
    SimConfig basePacked = base;
    basePacked.bankGroupMapping = BankGroupMapping::GroupPacked;
    EXPECT_EQ(kb, ExperimentRunner::configKey(WorkloadId::DS,
                                              basePacked));
}

TEST(ExperimentCache, SameGroupCasColumnRoundtrips)
{
    // Rows persist sameGroupCasPct; a reloaded entry must reproduce
    // it (single-group baseline: every CAS follows a CAS in
    // the only group, so the value is large and nonzero).
    const std::string path = tempCachePath("v5roundtrip");
    std::remove(path.c_str());
    const SimConfig cfg = tinyConfig();
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::WS, cfg);
        EXPECT_GT(fresh.sameGroupCasPct, 0.0);
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_NEAR(cached.sameGroupCasPct, fresh.sameGroupCasPct,
                    1e-4 * fresh.sameGroupCasPct);
    }
    std::remove(path.c_str());
}

TEST(ExperimentCache, KeySeparatesBackends)
{
    // The memory backend (and, stacked, the vault geometry plus the
    // remap flag) is part of the key, so a stacked-backend run can
    // never alias a row simulated under the flat JEDEC model.
    const SimConfig base = SimConfig::baseline();
    SimConfig hmc = base;
    hmc.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    SimConfig hmc8 = hmc;
    hmc8.setVaults(8);
    SimConfig hmcRemap = hmc;
    hmcRemap.remap.enabled = true;

    const auto kb = ExperimentRunner::configKey(WorkloadId::DS, base);
    const auto kh = ExperimentRunner::configKey(WorkloadId::DS, hmc);
    const auto k8 = ExperimentRunner::configKey(WorkloadId::DS, hmc8);
    const auto kr =
        ExperimentRunner::configKey(WorkloadId::DS, hmcRemap);
    EXPECT_NE(kb, kh);
    EXPECT_NE(kh, k8);
    EXPECT_NE(kh, kr);

    // Remap *tuning* (a code-only tunable) changes the key too.
    SimConfig tuned = hmcRemap;
    tuned.remap.hotFactor = 8.0;
    EXPECT_NE(kr, ExperimentRunner::configKey(WorkloadId::DS, tuned));
    // And the remap knobs are keyed only on the stacked backend, so
    // flat keys are identical whatever the dormant struct holds.
    SimConfig flatTuned = base;
    flatTuned.remap.hotFactor = 8.0;
    EXPECT_EQ(kb, ExperimentRunner::configKey(WorkloadId::DS, flatTuned));
}

TEST(ExperimentCache, StackedColumnsRoundtrip)
{
    // Rows persist the per-vault occupancy list, the imbalance scalar
    // and the remap counters; a reloaded stacked row must reproduce
    // all of them.
    const std::string path = tempCachePath("v6roundtrip");
    std::remove(path.c_str());
    SimConfig cfg = tinyConfig();
    cfg.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    cfg.setVaults(4);
    cfg.remap.enabled = true;
    cfg.remap.windowAccesses = 256; // Migrate within the tiny window.
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(fresh.perVaultReadQueue.size(), 4u);
        EXPECT_GT(fresh.vaultQueueImbalance, 0.0);
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_EQ(runner.cacheHits(), 1u);
        EXPECT_NEAR(cached.vaultQueueImbalance, fresh.vaultQueueImbalance,
                    1e-5 * fresh.vaultQueueImbalance);
        EXPECT_EQ(cached.remapMigrations, fresh.remapMigrations);
        EXPECT_EQ(cached.remapMigratedRows, fresh.remapMigratedRows);
        ASSERT_EQ(cached.perVaultReadQueue.size(),
                  fresh.perVaultReadQueue.size());
        for (std::size_t i = 0; i < fresh.perVaultReadQueue.size(); ++i) {
            EXPECT_NEAR(cached.perVaultReadQueue[i],
                        fresh.perVaultReadQueue[i],
                        1e-5 * fresh.perVaultReadQueue[i] + 1e-9);
        }
    }
    std::remove(path.c_str());
}

TEST(ExperimentCache, KeySeparatesDevicesAndClocks)
{
    // Two devices (or two core clocks) must never alias to one cached
    // row.
    const SimConfig base = SimConfig::baseline();
    SimConfig ddr4 = base;
    ddr4.applyDevice(dramDeviceOrDie("DDR4-2400"));
    SimConfig lp = base;
    lp.applyDevice(dramDeviceOrDie("LPDDR3-1600"));
    SimConfig fastCore = base;
    fastCore.setCoreMhz(3000);

    const auto kb = ExperimentRunner::configKey(WorkloadId::DS, base);
    EXPECT_NE(kb, ExperimentRunner::configKey(WorkloadId::DS, ddr4));
    EXPECT_NE(kb, ExperimentRunner::configKey(WorkloadId::DS, lp));
    EXPECT_NE(kb, ExperimentRunner::configKey(WorkloadId::DS, fastCore));
    // LPDDR3-1600 shares DDR3-1600's bus clock; only the name differs.
    EXPECT_NE(ExperimentRunner::configKey(WorkloadId::DS, ddr4),
              ExperimentRunner::configKey(WorkloadId::DS, lp));
}

TEST(ExperimentCache, TierColumnsRoundtrip)
{
    // Rows persist the tier hit fraction, the slow-tier p99 and the
    // migration counters; a reloaded tiered row must reproduce all of
    // them.
    const std::string path = tempCachePath("v7roundtrip");
    std::remove(path.c_str());
    SimConfig cfg = tinyConfig();
    cfg.tier.enabled = true;
    cfg.tier.policy = TierPolicy::HotnessBased;
    cfg.tier.monitorWindowSamples = 64; // Migrate within a tiny run.
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::WS, cfg);
        EXPECT_GT(fresh.fastTierHitPct, 0.0);
        EXPECT_LT(fresh.fastTierHitPct, 100.0);
        EXPECT_GT(fresh.slowTierReadLatencyP99, 0.0);
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_EQ(runner.cacheHits(), 1u);
        EXPECT_NEAR(cached.fastTierHitPct, fresh.fastTierHitPct,
                    1e-5 * fresh.fastTierHitPct);
        EXPECT_NEAR(cached.slowTierReadLatencyP99,
                    fresh.slowTierReadLatencyP99,
                    1e-5 * fresh.slowTierReadLatencyP99);
        EXPECT_EQ(cached.tierMigrations, fresh.tierMigrations);
        EXPECT_EQ(cached.tierMigratedRows, fresh.tierMigratedRows);
    }
    std::remove(path.c_str());
}

TEST(ExperimentCache, KeySeparatesTiers)
{
    // A tiered run never aliases the plain fast-tier row,
    // and policies / capacity splits / tier knobs never alias each
    // other — while non-tiered keys ignore the dormant tier struct.
    const SimConfig base = SimConfig::baseline();
    SimConfig tiered = base;
    tiered.tier.enabled = true;
    SimConfig alloy = tiered;
    alloy.tier.policy = TierPolicy::AlloyCache;
    SimConfig slim = tiered;
    slim.tier.fastCapacityPct = 25;
    SimConfig tuned = tiered;
    tuned.tier.slowLatencyDramCycles = 256;

    const auto kb = ExperimentRunner::configKey(WorkloadId::DS, base);
    const auto kt = ExperimentRunner::configKey(WorkloadId::DS, tiered);
    EXPECT_NE(kb, kt);
    EXPECT_NE(kt, ExperimentRunner::configKey(WorkloadId::DS, alloy));
    EXPECT_NE(kt, ExperimentRunner::configKey(WorkloadId::DS, slim));
    EXPECT_NE(kt, ExperimentRunner::configKey(WorkloadId::DS, tuned));
    // Tier knobs are keyed only when the composition is enabled, so
    // non-tiered keys are identical whatever the struct holds.
    SimConfig dormant = base;
    dormant.tier.fastCapacityPct = 25;
    dormant.tier.hotFactor = 8.0;
    EXPECT_EQ(kb, ExperimentRunner::configKey(WorkloadId::DS, dormant));
}

TEST(ExperimentCache, OtherSchemaRowsAreSkippedAndResimulated)
{
    // The cache is derived data: a headerless v7-format row and a row
    // under another schema's header never load, even when they carry
    // this very point's key. The point re-simulates, its row lands
    // under a freshly written header, and the next runner recalls it.
    const std::string path = tempCachePath("oldschema");
    const SimConfig cfg = tinyConfig();
    const std::string row =
        ExperimentRunner::configKey(WorkloadId::WS, cfg) +
        ",1.5,100,30,5,1,2,10,20,1000,2000,30,40,0.9,5000,120,55,77,99,"
        "1.1,1.2,1.3,,,42.5,0.25,3,7,,50,60,1,2";
    std::string foreign = ExperimentRunner::cacheHeader();
    foreign.replace(foreign.find(' ') + 1, 16, std::string(16, '0'));
    {
        std::ofstream out(path);
        out << row << '\n' << foreign << '\n' << row << '\n';
    }
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 1u);
        EXPECT_EQ(runner.cacheHits(), 0u);
        EXPECT_NE(fresh.userIpc, 1.5);
    }
    {
        // Recalled from the new section; a second point appends to it
        // without repeating the header.
        ExperimentRunner runner(path);
        const MetricSet cached = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_EQ(runner.cacheHits(), 1u);
        EXPECT_NEAR(cached.userIpc, fresh.userIpc, 1e-5 * fresh.userIpc);
        (void)runner.run(WorkloadId::DS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 1u);
    }
    std::ifstream in(path);
    std::string line;
    std::size_t headers = 0, lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        headers += line == ExperimentRunner::cacheHeader();
    }
    EXPECT_EQ(headers, 1u);
    EXPECT_EQ(lines, 6u); // 3 skipped lines, header, 2 rows.
    ExperimentRunner runner(path);
    (void)runner.run(WorkloadId::DS, cfg);
    EXPECT_EQ(runner.cacheHits(), 1u);
    std::remove(path.c_str());
}

// The tests below each write rows of one earlier cache-schema
// generation and are named for how those rows once loaded. None of
// them loads now: rows outside a current section, and rows whose keys
// use the old segmented format, are skipped and never migrated, so the
// planted userIpc of 1.5 never comes back.

namespace {

/** Value columns of the earlier schemas, each planting userIpc 1.5. */
const std::string kV1Values =
    ",1.5,100,30,5,1,2,10,20,1000,2000,30,40,0.9,5000,120";
const std::string kV3Values = kV1Values + ",55,77,99";
const std::string kV4Values = kV3Values + ",1.1,1.2,1.3,,";
const std::string kV5Values = kV4Values + ",42.5";
const std::string kV6Values = kV5Values + ",0.25,3,7,";
/** The v7 width, which is also the current one. */
const std::string kV7Values = kV6Values + ",50,60,1,2";

/** The readable head every segmented key of tinyConfig() began with,
 *  before device, bank-group and parameter-hash segments. */
std::string
segmentedKeyHead()
{
    const SimConfig cfg = tinyConfig();
    return std::string("WS|") + schedulerKindName(cfg.scheduler) + '|' +
           pagePolicyKindName(cfg.pagePolicy) + '|' +
           mappingSchemeName(cfg.mapping) + '|' +
           std::to_string(cfg.dram.channels) + "ch|" +
           std::to_string(cfg.numCores) + "c|50+100k|s" +
           std::to_string(cfg.seed) + "|q" +
           std::to_string(cfg.schedulerParams.atlas.quantumCycles / 1000) +
           "|f1";
}

/**
 * A segmented-key row in its own era's width, headerless, then the
 * same key in the current width under the current header: the key
 * format alone must keep the second from satisfying a lookup.
 */
std::string
segmentedKeyRows(const std::string &key, const std::string &values)
{
    return key + values + '\n' + ExperimentRunner::cacheHeader() + '\n' +
           key + kV7Values + '\n';
}

/**
 * Runs the tiny WS point against a cache file holding @p contents: the
 * point re-simulates, and the next runner recalls the fresh row.
 */
void
expectEarlierSchemaSkipped(const char *tag, const std::string &contents)
{
    const std::string path = tempCachePath(tag);
    {
        std::ofstream out(path);
        out << contents;
    }
    const SimConfig cfg = tinyConfig();
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 1u);
        EXPECT_EQ(runner.cacheHits(), 0u);
        EXPECT_NE(fresh.userIpc, 1.5);
    }
    ExperimentRunner runner(path);
    const MetricSet cached = runner.run(WorkloadId::WS, cfg);
    EXPECT_EQ(runner.simulationsRun(), 0u);
    EXPECT_EQ(runner.cacheHits(), 1u);
    EXPECT_NEAR(cached.userIpc, fresh.userIpc, 1e-5 * fresh.userIpc);
    std::remove(path.c_str());
}

} // namespace

TEST(ExperimentCache, V1RowsStillLoadWithZeroPercentiles)
{
    // A 15-column row carrying this point's current key.
    expectEarlierSchemaSkipped(
        "v1row",
        ExperimentRunner::configKey(WorkloadId::WS, tinyConfig()) +
            kV1Values + '\n');
}

TEST(ExperimentCache, LegacyKeysLoadAsBaselineDevice)
{
    // v1/v2 keys had no device segment.
    expectEarlierSchemaSkipped(
        "legacykey", segmentedKeyRows(segmentedKeyHead(), kV1Values));
}

TEST(ExperimentCache, PreParamsHashKeysMigrateToBaselineRow)
{
    // v3 keys added the device segment but no parameter hash.
    expectEarlierSchemaSkipped(
        "paramsmigrate",
        segmentedKeyRows(segmentedKeyHead() + "|dev=DDR3-1600@2000:800",
                         kV3Values));
}

TEST(ExperimentCache, V4KeysMigrateToSingleGroupFingerprint)
{
    // v4 keys added the parameter hash but no bank-group segment.
    expectEarlierSchemaSkipped(
        "v4migrate",
        segmentedKeyRows(segmentedKeyHead() +
                             "|dev=DDR3-1600@2000:800|p0123456789abcdef",
                         kV4Values));
}

TEST(ExperimentCache, V5KeysMigrateToFlatFingerprint)
{
    // v5 keys added the bank-group segment but no backend segment.
    expectEarlierSchemaSkipped(
        "v5migrate",
        segmentedKeyRows(segmentedKeyHead() + "|dev=DDR3-1600@2000:800"
                                              "|bg=1i|p0123456789abcdef",
                         kV5Values));
}

TEST(ExperimentCache, V6RowsLoadWithZeroTierColumns)
{
    // A 28-column row with this point's current key, headerless and
    // again inside a current section, where its width rejects it.
    const std::string row =
        ExperimentRunner::configKey(WorkloadId::WS, tinyConfig()) +
        kV6Values + '\n';
    expectEarlierSchemaSkipped(
        "v6migrate", row + ExperimentRunner::cacheHeader() + '\n' + row);
}

TEST(ExperimentCache, EveryKnobChangesTheKey)
{
    // A second legal value for every keyed knob in the table, set
    // through the knob's own parser with the knob in scope. A knob
    // added without an entry here fails, so no knob can alias rows.
    // The window values differ from the defaults by under 1000 cycles.
    const std::map<std::string, std::string> second = {
        {"device", "DDR4-2400"},
        {"scheduler", "ATLAS"},
        {"policy", "Close"},
        {"mapping", "PermBaXor"},
        {"group_mapping", "GroupPacked"},
        {"channels", "2"},
        {"vaults", "8"},
        {"workload", "WS"},
        {"core_mhz", "3000"},
        {"warmup", "2000001"},
        {"measure", "8000999"},
        {"seed", "2"},
        {"refresh", "off"},
        {"backend", "stacked"},
        {"remap", "on"},
        {"tier", "on"},
        {"tier_policy", "alloy_cache"},
        {"tier_latency", "120"},
        {"tier_bw", "40"},
        {"tier_capacity_pct", "25"},
        {"tier_hot_factor", "3.5"},
        {"tier_migration_cycles", "32"},
        {"monitor_sample", "8"},
        {"monitor_window", "512"},
        {"monitor_min_regions", "8"},
        {"monitor_max_regions", "64"},
    };
    const FastDivisorScope fullWindows(nullptr);
    for (const Knob &k : knobTable()) {
        if (!k.keyed())
            continue;
        SCOPED_TRACE(k.key);
        const auto alt = second.find(k.key);
        ASSERT_NE(alt, second.end()) << "no second value for " << k.key;
        std::string prelude;
        if (k.scope == KnobScope::Grouped)
            prelude = "device = DDR4-2400\n";
        else if (k.scope == KnobScope::Stacked)
            prelude = "device = HMC2-8GB\n";
        else if (k.scope == KnobScope::Tiered)
            prelude = "tier = on\n";
        ExperimentSpec spec;
        ASSERT_EQ(parseExperimentSpec(prelude, spec), "");
        const std::string before = specKey(spec);
        ASSERT_EQ(k.parse(alt->second, spec), "");
        ASSERT_EQ(spec.finish(), "");
        EXPECT_NE(specKey(spec), before);
    }

    // kernel_threads changes how a point runs, not what it computes,
    // and dormant knobs change nothing: group mapping on a
    // single-group part, the remap struct on a flat part and the tier
    // struct with the tier off.
    ExperimentSpec spec;
    ASSERT_EQ(parseExperimentSpec("", spec), "");
    const std::string base = specKey(spec);
    ASSERT_EQ(findKnob("kernel_threads")->parse("4", spec), "");
    ASSERT_EQ(findKnob("group_mapping")->parse("GroupPacked", spec), "");
    ASSERT_EQ(spec.finish(), "");
    EXPECT_EQ(specKey(spec), base);
    SimConfig dormant = spec.points().front().cfg;
    EXPECT_EQ(dormant.bankGroupMapping, BankGroupMapping::GroupPacked);
    dormant.remap.enabled = true;
    dormant.remap.hotFactor = 8.0;
    dormant.tier.fastCapacityPct = 25;
    dormant.tier.hotFactor = 8.0;
    EXPECT_EQ(ExperimentRunner::configKey(WorkloadId::DS, dormant), base);
}

TEST(ExperimentCache, KeyHashesTheWindowsThatRun)
{
    // The key covers the config after the CLOUDMC_FAST division: full
    // windows divided by 50 share the row of the equal short windows.
    SimConfig full = SimConfig::baseline();
    SimConfig shortened = full;
    shortened.shortenWindows(50);
    std::string fullAtFast50;
    {
        const FastDivisorScope fast("50");
        fullAtFast50 = ExperimentRunner::configKey(WorkloadId::DS, full);
    }
    const FastDivisorScope fullWindows(nullptr);
    EXPECT_EQ(fullAtFast50,
              ExperimentRunner::configKey(WorkloadId::DS, shortened));
    EXPECT_NE(fullAtFast50,
              ExperimentRunner::configKey(WorkloadId::DS, full));
}

TEST(ExperimentRunnerDeathTest, MalformedEnvironmentIsFatal)
{
    // Each statement runs in a child, so the variables it sets stay
    // out of this process.
    const auto fatal = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(
        {
            setenv("CLOUDMC_FAST", "abc", 1);
            ExperimentRunner runner("-");
        },
        fatal, "CLOUDMC_FAST needs a nonzero divisor, got 'abc'");
    EXPECT_EXIT(
        {
            setenv("CLOUDMC_FAST", "0", 1);
            ExperimentRunner runner("-");
        },
        fatal, "CLOUDMC_FAST needs a nonzero divisor, got '0'");
    EXPECT_EXIT(
        {
            unsetenv("CLOUDMC_FAST");
            setenv("CLOUDMC_THREADS", "4x", 1);
            ExperimentRunner runner("-");
        },
        fatal,
        "CLOUDMC_THREADS needs an integer in \\[1, 1024\\], got '4x'");
}
