/**
 * @file
 * Synthetic workload generator tests: determinism, mix fractions,
 * region shares, sticky runs, sparse placement, and preset sanity.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/presets.hh"
#include "workload/synthetic.hh"

using namespace mcsim;

namespace {

constexpr Addr kSpace = 16ull << 30;

WorkloadParams
simpleParams()
{
    WorkloadParams p;
    p.cores = 4;
    p.memRefPerInstr = 0.5;
    p.storeFrac = 0.25;
    RegionSpec hot;
    hot.share = 0.7;
    hot.footprintBytes = 1 << 20;
    hot.zipfTheta = 0.8;
    RegionSpec cold;
    cold.share = 0.3;
    cold.footprintBytes = 64 << 20;
    cold.zipfTheta = 0.1;
    p.regions = {hot, cold};
    p.seed = 9;
    return p;
}

} // namespace

TEST(Synthetic, DeterministicForSeed)
{
    SyntheticWorkload a(simpleParams(), kSpace);
    SyntheticWorkload b(simpleParams(), kSpace);
    for (int i = 0; i < 2000; ++i) {
        const Op oa = a.nextOp(i % 4);
        const Op ob = b.nextOp(i % 4);
        ASSERT_EQ(static_cast<int>(oa.kind), static_cast<int>(ob.kind));
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.length, ob.length);
        ASSERT_EQ(a.nextFetchBlock(i % 4), b.nextFetchBlock(i % 4));
    }
}

TEST(Synthetic, CoresHaveIndependentStreams)
{
    SyntheticWorkload w(simpleParams(), kSpace);
    // Consume from core 0; core 1's stream is unaffected by ordering.
    SyntheticWorkload ref(simpleParams(), kSpace);
    for (int i = 0; i < 100; ++i)
        (void)w.nextOp(0);
    for (int i = 0; i < 50; ++i) {
        const Op a = w.nextOp(1);
        const Op b = ref.nextOp(1);
        ASSERT_EQ(a.addr, b.addr);
    }
}

TEST(Synthetic, MemoryFractionMatchesConfig)
{
    SyntheticWorkload w(simpleParams(), kSpace);
    std::uint64_t mem = 0, total = 0;
    for (int i = 0; i < 50000; ++i) {
        const Op op = w.nextOp(0);
        total += op.kind == Op::Kind::Compute ? op.length : 1;
        mem += op.kind != Op::Kind::Compute;
    }
    EXPECT_NEAR(static_cast<double>(mem) / total, 0.5, 0.03);
}

TEST(Synthetic, StoreFractionMatchesConfig)
{
    SyntheticWorkload w(simpleParams(), kSpace);
    std::uint64_t stores = 0, memops = 0;
    for (int i = 0; i < 50000; ++i) {
        const Op op = w.nextOp(1);
        if (op.kind == Op::Kind::Compute)
            continue;
        ++memops;
        stores += op.kind == Op::Kind::Store;
    }
    EXPECT_NEAR(static_cast<double>(stores) / memops, 0.25, 0.03);
}

TEST(Synthetic, RegionSharesRespected)
{
    SyntheticWorkload w(simpleParams(), kSpace);
    // Hot region occupies the second reserved range (after code) and
    // cold the third; distinguish by address.
    std::uint64_t hot = 0, cold = 0;
    for (int i = 0; i < 100000; ++i) {
        const Op op = w.nextOp(2);
        if (op.kind == Op::Kind::Compute)
            continue;
        // Code is 4 MiB at 0; hot spans next (1 MiB * spread 1).
        if (op.addr < (4ull << 20) + (1ull << 20))
            ++hot;
        else
            ++cold;
    }
    const double hotFrac = static_cast<double>(hot) / (hot + cold);
    EXPECT_NEAR(hotFrac, 0.7, 0.05);
}

TEST(Synthetic, AddressesStayInBounds)
{
    for (auto id : kAllWorkloads) {
        SyntheticWorkload w(workloadPreset(id), kSpace);
        for (int i = 0; i < 5000; ++i) {
            const Op op = w.nextOp(i % w.params().cores);
            if (op.kind != Op::Kind::Compute) {
                ASSERT_LT(op.addr, kSpace) << w.name();
            }
            ASSERT_LT(w.nextFetchBlock(i % w.params().cores), kSpace);
        }
    }
}

TEST(Synthetic, StickyRunsProduceSequentialBlocks)
{
    WorkloadParams p = simpleParams();
    RegionSpec stream;
    stream.share = 1.0;
    stream.footprintBytes = 1 << 20;
    stream.seqBurstBlocks = 16;
    stream.repeatsPerBlock = 1;
    stream.scramble = false;
    stream.stickyRefs = 16;
    p.regions = {stream};
    p.memRefPerInstr = 0.9;
    SyntheticWorkload w(p, kSpace);

    // Collect consecutive memory addresses; most gaps are one block.
    Addr prev = 0;
    int seq = 0, memops = 0;
    for (int i = 0; i < 3000; ++i) {
        const Op op = w.nextOp(0);
        if (op.kind == Op::Kind::Compute)
            continue;
        if (memops > 0 && op.addr == prev + 64)
            ++seq;
        prev = op.addr;
        ++memops;
    }
    EXPECT_GT(static_cast<double>(seq) / memops, 0.85);
}

TEST(Synthetic, SpreadFactorKeepsFootprintDistinct)
{
    WorkloadParams p = simpleParams();
    p.regions[0].spreadFactor = 64;
    p.regions[0].zipfTheta = 0.0;
    SyntheticWorkload w(p, kSpace);
    // Distinct zipf indices map to distinct sparse addresses.
    std::set<Addr> seen;
    for (int i = 0; i < 20000; ++i) {
        const Op op = w.nextOp(0);
        if (op.kind != Op::Kind::Compute &&
            op.addr < (4ull << 20) + (64ull << 20)) {
            seen.insert(op.addr);
        }
    }
    // Uniform over 16 K blocks: we should observe thousands of
    // distinct addresses, none colliding into fewer slots.
    EXPECT_GT(seen.size(), 4000u);
}

TEST(Synthetic, IntensitySpreadScalesPerCore)
{
    WorkloadParams p = simpleParams();
    p.intensitySpread = 0.5;
    p.cores = 4;
    SyntheticWorkload w(p, kSpace);
    EXPECT_DOUBLE_EQ(w.intensityOf(0), 0.5);
    EXPECT_DOUBLE_EQ(w.intensityOf(3), 1.5);
    EXPECT_LT(w.intensityOf(1), w.intensityOf(2));
}

TEST(Synthetic, FetchStreamIsMostlySequential)
{
    WorkloadParams p = simpleParams();
    p.codeJumpProb = 0.0;
    SyntheticWorkload w(p, kSpace);
    Addr prev = w.nextFetchBlock(0);
    for (int i = 0; i < 100; ++i) {
        const Addr a = w.nextFetchBlock(0);
        ASSERT_TRUE(a == prev + 64 || a < prev); // Wraps allowed.
        prev = a;
    }
}

TEST(Presets, AllWorkloadsWellFormed)
{
    for (auto id : kAllWorkloads) {
        const WorkloadParams p = workloadPreset(id);
        EXPECT_FALSE(p.name.empty());
        EXPECT_EQ(p.acronym, workloadAcronym(id));
        EXPECT_EQ(p.category, workloadCategory(id));
        EXPECT_GE(p.cores, 8u);
        double shares = 0;
        for (const auto &r : p.regions)
            shares += r.share;
        EXPECT_NEAR(shares, 1.0, 1e-6) << p.name;
    }
}

TEST(Presets, WebFrontendUsesEightCores)
{
    EXPECT_EQ(workloadPreset(WorkloadId::WF).cores, 8u);
    EXPECT_EQ(workloadPreset(WorkloadId::DS).cores, 16u);
}

TEST(Presets, DecisionSupportHasMlp)
{
    for (auto id : workloadsInCategory(WorkloadCategory::DecisionSupport))
        EXPECT_GT(workloadPreset(id).mlpWindow, 1u);
}

TEST(Presets, CategoriesPartitionWorkloads)
{
    std::size_t total = 0;
    for (auto cat :
         {WorkloadCategory::ScaleOut, WorkloadCategory::Transactional,
          WorkloadCategory::DecisionSupport}) {
        total += workloadsInCategory(cat).size();
    }
    EXPECT_EQ(total, kAllWorkloads.size());
    EXPECT_EQ(workloadsInCategory(WorkloadCategory::ScaleOut).size(), 6u);
}

TEST(Synthetic, PresetStreamsArePinned)
{
    // Every preset's first 2*10^5 ops and fetch blocks, pulled round
    // robin over its cores the way Core::runBatch pulls them: a fetch
    // block, then an op through tryNextOpLocal(), or nextOp() when it
    // refuses. Recorded before the generator's fast paths (Zipf bucket
    // memo, two-step Pcg32::nextU64, branch-free run lengths), which
    // must not move a single draw.
    const std::uint64_t pinned[] = {
        0x35b63661340c0a9eULL, // DS
        0x1ed77e915f90d87bULL, // MR
        0xc89e60087ad49179ULL, // SS
        0x2daef2a5c69c0990ULL, // WF
        0xf690df6aae66af12ULL, // WS
        0x69d2fe2facaf2f8bULL, // MS
        0xf525080826487908ULL, // WSPEC99
        0x241e2c3438228515ULL, // TPC-C1
        0x1d95636fb29fdc8fULL, // TPC-C2
        0x251dd4fdbff4741aULL, // TPC-H Q2
        0x8ea898a7144f633cULL, // TPC-H Q6
        0x1356db9a24844560ULL, // TPC-H Q17
    };
    static_assert(sizeof pinned / sizeof pinned[0] == kAllWorkloads.size());
    for (std::size_t w = 0; w < kAllWorkloads.size(); ++w) {
        SyntheticWorkload gen(workloadPreset(kAllWorkloads[w]), kSpace);
        const std::uint32_t cores = gen.params().cores;
        std::uint64_t h = 0xcbf29ce484222325ULL;
        auto fold = [&h](std::uint64_t v) {
            h ^= v;
            h *= 0x100000001b3ULL;
        };
        for (std::uint32_t i = 0; i < 200000; ++i) {
            const CoreId core = i % cores;
            fold(gen.nextFetchBlock(core));
            Op op;
            if (!gen.tryNextOpLocal(core, op))
                op = gen.nextOp(core);
            fold(static_cast<std::uint64_t>(op.kind));
            fold(op.kind == Op::Kind::Compute ? op.length : op.addr);
        }
        EXPECT_EQ(h, pinned[w]) << gen.name() << ": got 0x" << std::hex
                                << h;
    }
}
