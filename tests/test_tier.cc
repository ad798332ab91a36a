/**
 * @file
 * The tiered memory backend and its DAMON-style monitor: region
 * split/merge/aging, the zero-region degenerate span, tier routing
 * under all three policies, the migration cost model, determinism,
 * collect() idempotence, the empty-set metric edges, and tiered runs
 * agreeing bit-for-bit (every metric and every channel's command
 * stream) across the reference, event, and parallel kernels.
 */

#include <gtest/gtest.h>

#include <set>

#include "dram/command_log.hh"
#include "dram/devices.hh"
#include "mem/backend.hh"
#include "mem/hotness_monitor.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

/** A small tiered configuration over the flat DDR3 baseline. */
SimConfig
tieredConfig(TierPolicy policy = TierPolicy::HotnessBased)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.tier.enabled = true;
    cfg.tier.policy = policy;
    cfg.tier.monitorSampleEvery = 1;
    cfg.tier.monitorWindowSamples = 256;
    cfg.warmupCoreCycles = 20'000;
    cfg.measureCoreCycles = 50'000;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------- monitor

TEST(HotnessMonitor, InitialRegionsCoverTheSpan)
{
    const Addr span = 1 << 20, grain = 1 << 12;
    MonitorConfig cfg;
    cfg.minRegions = 16;
    HotnessMonitor mon(span, grain, cfg);
    const auto &regions = mon.regions();
    ASSERT_EQ(regions.size(), 16u);
    EXPECT_EQ(regions.front().start, 0u);
    EXPECT_EQ(regions.back().end, span);
    for (std::size_t i = 1; i < regions.size(); ++i) {
        EXPECT_EQ(regions[i].start, regions[i - 1].end);
        EXPECT_EQ(regions[i].start % grain, 0u);
    }
}

TEST(HotnessMonitor, ZeroRegionSpanIsANoOp)
{
    // A span smaller than one grain yields no regions; record() must
    // never close a window and densityAt() reports 0.
    HotnessMonitor mon(/*span=*/16, /*grain=*/4096, MonitorConfig{});
    EXPECT_TRUE(mon.regions().empty());
    for (int i = 0; i < 100'000; ++i)
        EXPECT_FALSE(mon.record(0));
    EXPECT_EQ(mon.windowsClosed(), 0u);
    EXPECT_EQ(mon.densityAt(0), 0.0);
}

TEST(HotnessMonitor, SamplingCountsEveryNth)
{
    MonitorConfig cfg;
    cfg.sampleEvery = 4;
    cfg.windowSamples = 8;
    cfg.minRegions = 1;
    HotnessMonitor mon(1 << 16, 1 << 12, cfg);
    // The countdown starts armed, so accesses 1, 5, 9, ... are the
    // counted ones; the 8th counted sample is access 29, which closes
    // the window.
    for (int i = 0; i < 28; ++i)
        EXPECT_FALSE(mon.record(0)) << "access " << i;
    EXPECT_TRUE(mon.record(0));
    EXPECT_EQ(mon.regions().front().count, 8u);
    mon.closeWindow();
}

TEST(HotnessMonitor, HotRegionsSplitAndColdRegionsMerge)
{
    MonitorConfig cfg;
    cfg.sampleEvery = 1;
    cfg.windowSamples = 1024;
    cfg.minRegions = 4;
    cfg.maxRegions = 64;
    const Addr span = 1 << 20, grain = 1 << 12;
    HotnessMonitor mon(span, grain, cfg);
    const std::size_t initial = mon.regions().size();

    // Hammer one grain; everything else stays cold.
    for (int w = 0; w < 8; ++w) {
        bool closed = false;
        for (int i = 0; i < 1024 && !closed; ++i)
            closed = mon.record(grain / 2);
        ASSERT_TRUE(closed);
        mon.closeWindow();
    }
    // The hot end of the space splits into finer regions while the
    // uniform cold remainder merges, so the hot grain's region is
    // finer than an initial region.
    const auto &regions = mon.regions();
    ASSERT_GE(regions.size(), cfg.minRegions);
    ASSERT_LE(regions.size(), cfg.maxRegions);
    EXPECT_LT(regions.front().end - regions.front().start,
              span / initial);
    EXPECT_GT(mon.densityAt(grain / 2), mon.densityAt(span - 1));
}

TEST(HotnessMonitor, AgingHalvesCountsEachWindow)
{
    MonitorConfig cfg;
    cfg.sampleEvery = 1;
    cfg.windowSamples = 64;
    cfg.minRegions = 1;
    cfg.maxRegions = 1; // No splits: one region keeps the arithmetic plain.
    HotnessMonitor mon(1 << 16, 1 << 12, cfg);
    for (int i = 0; i < 63; ++i)
        mon.record(0);
    ASSERT_TRUE(mon.record(0));
    EXPECT_EQ(mon.regions().front().count, 64u);
    mon.closeWindow();
    EXPECT_EQ(mon.regions().front().count, 32u);
    mon.closeWindow();
    EXPECT_EQ(mon.regions().front().count, 16u);
}

// ---------------------------------------------------------------- backend

TEST(TieredBackend, FactoryComposesFastAndSlowTiers)
{
    SimConfig cfg = tieredConfig();
    cfg.dram.channels = 2;
    auto be = makeMemBackend(cfg, cfg.numCores);
    ASSERT_TRUE(be);
    EXPECT_EQ(be->kind(), MemBackendKind::Tiered);
    // 2 fast channels + 2 slow channels.
    EXPECT_EQ(be->numQueues(), 4u);
    // 50% fast share: the address space is twice the fast capacity.
    EXPECT_EQ(be->capacityBytes(), 2 * cfg.dram.capacityBytes());
}

TEST(TieredBackend, StackedFastTierComposes)
{
    SimConfig cfg = tieredConfig();
    cfg.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    cfg.setVaults(4);
    auto be = makeMemBackend(cfg, cfg.numCores);
    ASSERT_TRUE(be);
    EXPECT_EQ(be->kind(), MemBackendKind::Tiered);
    // 4 vault queues + 1 slow channel per stack.
    EXPECT_EQ(be->numQueues(), 5u);
}

TEST(TieredBackend, StaticSplitSpreadsFastTilesAndNeverMigrates)
{
    SimConfig cfg = tieredConfig(TierPolicy::StaticSplit);
    auto be = makeMemBackend(cfg, cfg.numCores);
    const std::uint32_t fastQueues = cfg.dram.channels;

    // A well-spread probe wave (odd-constant multiply is a bijection
    // mod the power-of-two capacity) must see both tiers, stamp no
    // migration delay, and route every address identically on repeat.
    std::uint64_t fastSeen = 0, slowSeen = 0;
    for (std::uint64_t i = 0; i < 4096; ++i) {
        Request req;
        req.addr = (i * 0x9E3779B97F4A7C15ull) % be->capacityBytes();
        be->route(req, Tick{});
        ASSERT_LT(req.coord.channel, be->numQueues());
        EXPECT_EQ(req.availableAt, Tick{});
        ++(req.coord.channel < fastQueues ? fastSeen : slowSeen);

        Request again;
        again.addr = req.addr;
        be->route(again, Tick{});
        EXPECT_EQ(again.coord.channel, req.coord.channel);
        EXPECT_EQ(again.coord.bank, req.coord.bank);
    }
    // A 50% share splits the wave roughly in half.
    EXPECT_GT(fastSeen, 4096u / 4);
    EXPECT_GT(slowSeen, 4096u / 4);

    MetricSet m;
    be->collect(m, Tick{});
    EXPECT_EQ(m.tierMigrations, 0u);
    EXPECT_EQ(m.tierMigratedRows, 0u);
    EXPECT_GT(m.fastTierHitPct, 0.0);
    EXPECT_LT(m.fastTierHitPct, 100.0);
}

TEST(TieredBackend, HotnessPolicyPromotesAHammeredSlowTile)
{
    SimConfig cfg = tieredConfig(TierPolicy::HotnessBased);
    auto be = makeMemBackend(cfg, cfg.numCores);
    const std::uint32_t fastQueues = cfg.dram.channels;

    // Find a slow-resident address by probing a well-spread wave.
    Addr hot = 0;
    for (std::uint64_t i = 1; i < 4096 && !hot; ++i) {
        Request probe;
        probe.addr = (i * 0x9E3779B97F4A7C15ull) % be->capacityBytes();
        be->route(probe, Tick{});
        if (probe.coord.channel >= fastQueues)
            hot = probe.addr;
    }
    ASSERT_NE(hot, 0u) << "no slow-resident address found";

    // Hammer it; sprinkle a little background traffic over the rest of
    // the space so the cold fast end exists.
    bool promoted = false, sawMigrationDelay = false;
    for (std::uint64_t i = 0; i < 200'000 && !promoted; ++i) {
        Request req;
        req.addr = (i % 8 == 0) ? (i * 0x9E3779B97F4A7C15ull) %
                                      be->capacityBytes()
                                : hot;
        be->route(req, Tick{});
        if (req.availableAt > Tick{})
            sawMigrationDelay = true;
        if (req.addr == hot && req.coord.channel < fastQueues)
            promoted = true;
    }
    EXPECT_TRUE(promoted) << "hot slow tile never moved to the fast tier";
    EXPECT_TRUE(sawMigrationDelay)
        << "no routed request was charged the tile-copy delay";
    MetricSet m;
    be->collect(m, Tick{});
    EXPECT_GE(m.tierMigrations, 1u);
    EXPECT_GT(m.tierMigratedRows, 0u);
}

TEST(TieredBackend, AlloyCacheFillsOnMissAndHitsAfter)
{
    SimConfig cfg = tieredConfig(TierPolicy::AlloyCache);
    auto be = makeMemBackend(cfg, cfg.numCores);
    const std::uint32_t fastQueues = cfg.dram.channels;

    Request miss;
    miss.addr = cfg.dram.capacityBytes() + 64; // Beyond any warm tag.
    be->route(miss, Tick{});
    EXPECT_GE(miss.coord.channel, fastQueues) << "first touch must miss";

    Request hit;
    hit.addr = miss.addr;
    be->route(hit, Tick{});
    EXPECT_LT(hit.coord.channel, fastQueues) << "second touch must hit";
    // The hit lands while the fill is still in flight, so it waits.
    EXPECT_GT(hit.availableAt, Tick{});

    MetricSet m;
    be->collect(m, Tick{});
    EXPECT_GE(m.tierMigrations, 1u);
}

TEST(TieredBackend, RoutingIsDeterministic)
{
    for (TierPolicy p : {TierPolicy::StaticSplit, TierPolicy::HotnessBased,
                         TierPolicy::AlloyCache}) {
        SimConfig cfg = tieredConfig(p);
        auto a = makeMemBackend(cfg, cfg.numCores);
        auto b = makeMemBackend(cfg, cfg.numCores);
        for (std::uint64_t i = 0; i < 4096; ++i) {
            const Addr addr = ((i % 2 ? 0 : i * 7919) * cfg.dram.blockBytes) %
                              a->capacityBytes();
            Request ra, rb;
            ra.addr = rb.addr = addr;
            a->route(ra, Tick{});
            b->route(rb, Tick{});
            ASSERT_EQ(ra.coord.channel, rb.coord.channel)
                << tierPolicyName(p) << " request " << i;
            ASSERT_EQ(ra.coord.bank, rb.coord.bank)
                << tierPolicyName(p) << " request " << i;
            ASSERT_EQ(ra.availableAt, rb.availableAt)
                << tierPolicyName(p) << " request " << i;
        }
    }
}

TEST(TieredBackend, RunAgreesAcrossAllKernels)
{
    // End-to-end: a tiered system (hotness policy, small windows so
    // migrations actually fire) produces bit-identical metrics and
    // command streams under the reference loop, the event kernel, and
    // the parallel kernel.
    SimConfig cfg = tieredConfig(TierPolicy::HotnessBased);
    cfg.dram.channels = 2;

    const auto runOnce = [&](bool reference, std::uint32_t threads,
                             CommandLog &log) {
        SimConfig c = cfg;
        c.kernelThreads = threads;
        System sys(c, workloadPreset(WorkloadId::WS));
        sys.useReferenceKernel(reference);
        log.attachAll(sys);
        return sys.run();
    };
    CommandLog refLog, evLog, parLog;
    const MetricSet ref = runOnce(true, 1, refLog);
    const MetricSet ev = runOnce(false, 1, evLog);
    const MetricSet par = runOnce(false, 4, parLog);

    EXPECT_STREQ(firstDifferentMetric(ev, ref), nullptr);
    EXPECT_STREQ(firstDifferentMetric(par, ref), nullptr);
    EXPECT_EQ(evLog.firstDivergence(refLog), "");
    EXPECT_EQ(parLog.firstDivergence(refLog), "");
    EXPECT_GT(ref.memReads, 0u);
    EXPECT_GT(ref.fastTierHitPct, 0.0);
}

// ------------------------------------------------------- collect() edges

TEST(TieredBackend, CollectIsIdempotent)
{
    SimConfig cfg = tieredConfig(TierPolicy::HotnessBased);
    System sys(cfg, workloadPreset(WorkloadId::DS));
    const MetricSet once = sys.run();
    EXPECT_GT(once.memReads, 0u);
    EXPECT_GT(once.fastTierHitPct, 0.0);
    EXPECT_GT(once.slowTierReadLatencyP99, 0.0);
}

TEST(TieredBackend, FullFastCapacityReportsZeroSlowTail)
{
    // 100% fast share: no slow tile exists, so the slow tier serves
    // nothing and its p99 (an empty histogram's percentile) is 0 while
    // the hit fraction is exactly 100.
    SimConfig cfg = tieredConfig(TierPolicy::HotnessBased);
    cfg.tier.fastCapacityPct = 100;
    System sys(cfg, workloadPreset(WorkloadId::DS));
    const MetricSet m = sys.run();
    EXPECT_GT(m.memReads, 0u);
    EXPECT_EQ(m.fastTierHitPct, 100.0);
    EXPECT_EQ(m.slowTierReadLatencyP99, 0.0);
    EXPECT_EQ(m.tierMigrations, 0u);
}

TEST(TieredBackend, CollectWithNoTrafficReportsZeros)
{
    // The zero-routed-accesses edge: no division blows up and every
    // ratio reports 0.
    SimConfig cfg = tieredConfig(TierPolicy::HotnessBased);
    auto be = makeMemBackend(cfg, cfg.numCores);
    MetricSet m;
    be->collect(m, Tick{});
    EXPECT_EQ(m.fastTierHitPct, 0.0);
    EXPECT_EQ(m.slowTierReadLatencyP99, 0.0);
    EXPECT_EQ(m.tierMigrations, 0u);
    EXPECT_EQ(m.tierMigratedRows, 0u);
}

TEST(Backend, StackedCollectTwiceIsIdentical)
{
    // Regression: StackedDramBackend::collect used to append to
    // perVaultReadQueue without clearing and accumulate energy and the
    // remap counters, so a second collect() on the same MetricSet
    // duplicated every vault entry and doubled the sums.
    SimConfig cfg = SimConfig::baseline();
    cfg.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    cfg.setVaults(4);
    cfg.remap.enabled = true;
    cfg.remap.windowAccesses = 64;
    cfg.remap.hotFactor = 2.0;
    auto be = makeMemBackend(cfg, cfg.numCores);
    for (int i = 0; i < 200; ++i) {
        Request req;
        req.addr = 0; // Hammer one slot so a migration fires.
        be->route(req, Tick{});
    }

    MetricSet twice, once;
    be->collect(twice, Tick{});
    be->collect(twice, Tick{}); // Must be a no-op repeat.
    be->collect(once, Tick{});
    ASSERT_GE(once.remapMigrations, 1u);
    EXPECT_STREQ(firstDifferentMetric(twice, once), nullptr);
}

TEST(Backend, FlatAndTieredCollectTwiceIsIdentical)
{
    for (const bool tiered : {false, true}) {
        SimConfig cfg = SimConfig::baseline();
        cfg.tier.enabled = tiered;
        auto be = makeMemBackend(cfg, cfg.numCores);
        for (std::uint64_t i = 0; i < 512; ++i) {
            Request req;
            req.addr = (i * 7919 * cfg.dram.blockBytes) %
                       be->capacityBytes();
            be->route(req, Tick{});
        }
        MetricSet twice, once;
        be->collect(twice, Tick{});
        be->collect(twice, Tick{});
        be->collect(once, Tick{});
        EXPECT_STREQ(firstDifferentMetric(twice, once), nullptr);
    }
}
