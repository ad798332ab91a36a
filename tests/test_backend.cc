/**
 * @file
 * The pluggable memory backend: the flat/stacked factory split, the
 * stacked registry entry, capacity-preserving vault overrides, static
 * vault-interleave routing, the dynamic remapper (migration counters
 * and the availableAt cost model), and stacked-backend runs agreeing
 * (every metric and every vault's command stream) across the
 * reference, event, and parallel kernels.
 */

#include <gtest/gtest.h>

#include <set>

#include "dram/command_log.hh"
#include "dram/devices.hh"
#include "mem/backend.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

/** A small stacked configuration: one stack, four vaults. */
SimConfig
stackedConfig(std::uint32_t vaults = 4)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    cfg.setVaults(vaults);
    cfg.warmupCoreCycles = 20'000;
    cfg.measureCoreCycles = 50'000;
    return cfg;
}

} // namespace

TEST(Backend, RegistryCarriesAStackedPart)
{
    const DramDevice &dev = dramDeviceOrDie("HMC2-8GB");
    EXPECT_EQ(dev.geometry.vaultsPerStack, 16u);
    EXPECT_EQ(dev.geometry.ranksPerChannel, 1u);
    EXPECT_GT(dev.timings.tTSV, 0u);
    // One stack is 8 GiB: 16 vaults x 8 banks x 2^18 rows x 256 B.
    EXPECT_EQ(dev.geometry.capacityBytes(), 8ull << 30);
}

TEST(Backend, KindFollowsDeviceGeometry)
{
    SimConfig flat = SimConfig::baseline();
    EXPECT_EQ(flat.backend, MemBackendKind::FlatDram);
    flat.applyDevice(dramDeviceOrDie("DDR4-2400"));
    EXPECT_EQ(flat.backend, MemBackendKind::FlatDram);

    SimConfig hmc = SimConfig::baseline();
    hmc.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    EXPECT_EQ(hmc.backend, MemBackendKind::StackedDram);
    // Moving back to a flat part flips the kind back.
    hmc.applyDevice(dramDeviceOrDie("DDR3-1600"));
    EXPECT_EQ(hmc.backend, MemBackendKind::FlatDram);
}

TEST(Backend, FactoryBuildsTheSelectedBackend)
{
    SimConfig flat = SimConfig::baseline();
    flat.dram.channels = 2;
    auto fb = makeMemBackend(flat, flat.numCores);
    ASSERT_TRUE(fb);
    EXPECT_EQ(fb->kind(), MemBackendKind::FlatDram);
    EXPECT_EQ(fb->numQueues(), 2u);

    SimConfig hmc = stackedConfig(/*vaults=*/8);
    hmc.dram.channels = 2; // Two stacks.
    auto sb = makeMemBackend(hmc, hmc.numCores);
    ASSERT_TRUE(sb);
    EXPECT_EQ(sb->kind(), MemBackendKind::StackedDram);
    EXPECT_EQ(sb->numQueues(), 16u); // 2 stacks x 8 vaults.
    EXPECT_EQ(sb->capacityBytes(), 16ull << 30);
}

TEST(Backend, SetVaultsPreservesCapacity)
{
    const std::uint64_t full =
        dramDeviceOrDie("HMC2-8GB").geometry.capacityBytes();
    for (std::uint32_t v : {4u, 8u, 16u}) {
        SimConfig cfg = SimConfig::baseline();
        cfg.applyDevice(dramDeviceOrDie("HMC2-8GB"));
        cfg.setVaults(v);
        EXPECT_EQ(cfg.dram.vaultsPerStack, v);
        EXPECT_EQ(cfg.dram.capacityBytes(), full) << v << " vaults";
    }
}

TEST(Backend, StaticRoutingIsAVaultInterleave)
{
    // With remapping off, routing is a pure function of the address:
    // stable across calls, covering every vault queue, and never
    // stamping a migration delay.
    SimConfig cfg = stackedConfig(/*vaults=*/4);
    auto be = makeMemBackend(cfg, cfg.numCores);
    ASSERT_EQ(be->numQueues(), 4u);

    std::set<std::uint32_t> queues;
    for (std::uint64_t i = 0; i < 4096; ++i) {
        Request req;
        req.addr = i * cfg.dram.blockBytes;
        be->route(req, Tick{});
        ASSERT_LT(req.coord.channel, be->numQueues());
        EXPECT_EQ(req.availableAt, Tick{});
        queues.insert(req.coord.channel);

        Request again;
        again.addr = req.addr;
        be->route(again, Tick{});
        EXPECT_EQ(again.coord.channel, req.coord.channel);
        EXPECT_EQ(again.coord.bank, req.coord.bank);
        EXPECT_EQ(again.coord.row, req.coord.row);
    }
    EXPECT_EQ(queues.size(), 4u) << "interleave missed a vault";
}

TEST(Backend, RemapperMigratesHotSlotsAndChargesTheCopy)
{
    // Hammer one logical bank slot: once the window closes, the
    // remapper must swap it toward a cold vault, count the migration,
    // and stamp subsequent requests with the copy's earliest-service
    // tick (the availableAt cost model).
    SimConfig cfg = stackedConfig(/*vaults=*/4);
    cfg.remap.enabled = true;
    cfg.remap.windowAccesses = 64;
    cfg.remap.hotFactor = 2.0;
    auto be = makeMemBackend(cfg, cfg.numCores);

    Request probe;
    probe.addr = 0;
    be->route(probe, Tick{});
    const std::uint32_t homeQueue = probe.coord.channel;

    // 100 more accesses: the window closes once (at the 64th total
    // access), so exactly one swap fires and every later access to the
    // still-copying slot is charged the migration delay.
    bool sawMigrationDelay = false;
    for (int i = 0; i < 100; ++i) {
        Request req;
        req.addr = 0; // One slot soaks every access.
        be->route(req, Tick{});
        if (req.availableAt > Tick{})
            sawMigrationDelay = true;
    }
    EXPECT_TRUE(sawMigrationDelay)
        << "no routed request was charged a migration delay";

    MetricSet m;
    be->collect(m, Tick{});
    EXPECT_EQ(m.remapMigrations, 1u);
    EXPECT_EQ(m.remapMigratedRows, 2ull * cfg.remap.migrationRows);

    // The hot slot moved: its physical queue differs from its static
    // home.
    Request after;
    after.addr = 0;
    be->route(after, Tick{});
    EXPECT_NE(after.coord.channel, homeQueue);
}

TEST(Backend, RemapRoutingIsDeterministic)
{
    // Two identically-configured backends fed the identical request
    // sequence must route identically — the property that makes
    // route-on-alloc safe under every kernel.
    SimConfig cfg = stackedConfig(/*vaults=*/8);
    cfg.remap.enabled = true;
    cfg.remap.windowAccesses = 32;
    auto a = makeMemBackend(cfg, cfg.numCores);
    auto b = makeMemBackend(cfg, cfg.numCores);

    for (std::uint64_t i = 0; i < 2048; ++i) {
        // A skewed pattern: half the accesses hit one block.
        const Addr addr =
            (i % 2 ? 0 : i * 7919) * cfg.dram.blockBytes;
        Request ra, rb;
        ra.addr = rb.addr = addr;
        a->route(ra, Tick{});
        b->route(rb, Tick{});
        ASSERT_EQ(ra.coord.channel, rb.coord.channel) << "request " << i;
        ASSERT_EQ(ra.coord.bank, rb.coord.bank) << "request " << i;
        ASSERT_EQ(ra.availableAt, rb.availableAt) << "request " << i;
    }
}

TEST(Backend, StackedRunAgreesAcrossAllKernels)
{
    // End-to-end: a stacked system with remapping on produces
    // bit-identical metrics and vault command streams under the
    // tick-by-tick reference loop, the serial event kernel, and the
    // epoch-sharded parallel kernel.
    SimConfig cfg = stackedConfig(/*vaults=*/4);
    cfg.remap.enabled = true;
    cfg.remap.windowAccesses = 512;

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
    EXPECT_EQ(ref.perVaultReadQueue.size(), 4u);
    EXPECT_GT(ref.memReads, 0u);
}

TEST(Backend, FlatRunsReportNoStackedQuantities)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.warmupCoreCycles = 20'000;
    cfg.measureCoreCycles = 50'000;
    System sys(cfg, workloadPreset(WorkloadId::DS));
    const MetricSet m = sys.run();
    EXPECT_TRUE(m.perVaultReadQueue.empty());
    EXPECT_EQ(m.vaultQueueImbalance, 0.0);
    EXPECT_EQ(m.remapMigrations, 0u);
    EXPECT_EQ(m.remapMigratedRows, 0u);
    EXPECT_GT(m.memReads, 0u);
}
