/**
 * @file
 * DRAM geometry robustness sweep: the full system must run sanely and
 * protocol-legally on organizations other than the paper's Table 2
 * (fewer/more ranks and banks, smaller/larger row buffers, different
 * capacities). Catches geometry-dependent arithmetic bugs (bit-field
 * widths, tFAW windows with few banks, refresh with many ranks).
 */

#include <gtest/gtest.h>

#include <string>

#include "dram/command_log.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

struct GeometryCase
{
    std::uint32_t ranks;
    std::uint32_t banks;
    std::uint32_t rowBytes;
};

std::string
caseName(const ::testing::TestParamInfo<GeometryCase> &info)
{
    return std::to_string(info.param.ranks) + "r" +
           std::to_string(info.param.banks) + "b" +
           std::to_string(info.param.rowBytes) + "row";
}

} // namespace

class GeometrySweep : public ::testing::TestWithParam<GeometryCase>
{
};

TEST_P(GeometrySweep, SystemRunsSanelyAndLegally)
{
    const GeometryCase &gc = GetParam();
    SimConfig cfg = SimConfig::baseline();
    cfg.dram.ranksPerChannel = gc.ranks;
    cfg.dram.banksPerRank = gc.banks;
    cfg.dram.rowBufferBytes = gc.rowBytes;
    // Hold capacity at the baseline 8 GiB so the workload footprint
    // and the DMA buffer still fit; the sweep varies organization,
    // not size (the paper's machines have 32-64 GB regardless).
    cfg.dram.rowsPerBank = (8ull << 30) / (std::uint64_t{gc.ranks} *
                                           gc.banks * gc.rowBytes);
    cfg.warmupCoreCycles = 30'000;
    cfg.measureCoreCycles = 120'000;

    System sys(cfg, workloadPreset(WorkloadId::DS));
    CommandLog log;
    log.attachAll(sys);
    const MetricSet m = sys.run();
    // Independent protocol referee on every channel.
    EXPECT_EQ(log.firstViolation(), "");
    EXPECT_GT(m.userIpc, 0.05);
    EXPECT_GT(m.memReads, 100u);
    EXPECT_GE(m.rowHitRatePct, 0.0);
    EXPECT_LE(m.rowHitRatePct, 100.0);
    EXPECT_LE(m.bwUtilPct, 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, GeometrySweep,
    ::testing::Values(GeometryCase{1, 8, 8192},   // Single rank.
                      GeometryCase{4, 8, 8192},   // Four ranks.
                      GeometryCase{2, 4, 8192},   // Few banks: tFAW hot.
                      GeometryCase{2, 16, 8192},  // Many banks.
                      GeometryCase{2, 8, 2048},   // Small rows.
                      GeometryCase{2, 8, 16384},  // Large rows.
                      GeometryCase{1, 4, 2048}),  // Everything small.
    caseName);

TEST(GeometrySweep, MoreBanksNeverHurtThroughputMuch)
{
    // Bank-level parallelism: 16 banks must be at least as good as 4
    // (modulo noise) for a bank-parallel workload.
    SimConfig few = SimConfig::baseline();
    few.dram.banksPerRank = 4;
    few.dram.rowsPerBank = 1u << 17; // Keep the 8 GiB capacity.
    few.warmupCoreCycles = 100'000;
    few.measureCoreCycles = 400'000;
    SimConfig many = few;
    many.dram.banksPerRank = 16;
    many.dram.rowsPerBank = 1u << 15;
    System a(few, workloadPreset(WorkloadId::TPCHQ6));
    System b(many, workloadPreset(WorkloadId::TPCHQ6));
    const double ipcFew = a.run().userIpc;
    const double ipcMany = b.run().userIpc;
    EXPECT_GT(ipcMany, ipcFew * 0.98);
}
