/**
 * @file
 * Scheduling algorithm unit tests: selection rules, ranking math,
 * starvation guards, and learning updates.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/random.hh"
#include "dram/bank.hh"
#include "mem/factory.hh"
#include "mem/sched_atlas.hh"
#include "mem/sched_basic.hh"
#include "mem/sched_fqm.hh"
#include "mem/sched_parbs.hh"
#include "mem/sched_rl.hh"

using namespace mcsim;

namespace {

/** Absolute tick @p n (test shorthand for literal times). */
constexpr Tick
tk(std::uint64_t n)
{
    return Tick{n};
}

/** Absolute tick a span past the origin (test shorthand). */
constexpr Tick
tk(TickSpan s)
{
    return Tick{} + s;
}

/** Test fixture helper: owns requests and builds candidates. */
class Pool
{
  public:
    Candidate &
    add(Tick arrived, CoreId core, std::uint32_t bank, bool issuable,
        bool rowHit, DramCommandType cmd = DramCommandType::Read)
    {
        auto req = std::make_unique<Request>();
        req->id = storage_.size();
        req->core = core;
        req->arrivedAt = arrived;
        req->coord.rank = 0;
        req->coord.bank = bank;
        req->coord.row = 1;
        Candidate c;
        c.req = req.get();
        c.cmd = cmd;
        c.issuableNow = issuable;
        c.isRowHit = rowHit;
        storage_.push_back(std::move(req));
        cands_.push_back(c);
        return cands_.back();
    }

    std::vector<Candidate> &all() { return cands_; }

  private:
    std::vector<std::unique_ptr<Request>> storage_;
    std::vector<Candidate> cands_;
};

SchedulerContext
ctx16()
{
    SchedulerContext c;
    c.numCores = 16;
    return c;
}

} // namespace

// ---------------------------------------------------------------- FCFS

TEST(Fcfs, PicksOldestOnly)
{
    FcfsScheduler s;
    Pool p;
    p.add(tk(100), 0, 0, true, true);
    p.add(tk(50), 1, 1, true, false); // Oldest.
    p.add(tk(200), 2, 2, true, true);
    EXPECT_EQ(s.choose(p.all(), tk(300), ctx16()), 1);
}

TEST(Fcfs, IdlesWhenOldestNotIssuable)
{
    FcfsScheduler s;
    Pool p;
    p.add(tk(50), 0, 0, false, false); // Oldest but blocked.
    p.add(tk(100), 1, 1, true, true);  // Issuable but younger.
    EXPECT_EQ(s.choose(p.all(), tk(300), ctx16()), -1);
}

TEST(Fcfs, EmptyPool)
{
    FcfsScheduler s;
    std::vector<Candidate> none;
    EXPECT_EQ(s.choose(none, tk(0), ctx16()), -1);
}

// ---------------------------------------------------------- FCFS_banks

TEST(FcfsBanks, ServesOldestPerBank)
{
    FcfsBanksScheduler s;
    Pool p;
    p.add(tk(50), 0, 0, false, false); // Bank 0 head, blocked.
    p.add(tk(100), 1, 0, true, true);  // Bank 0, younger: NOT eligible.
    p.add(tk(200), 2, 1, true, false); // Bank 1 head, issuable.
    EXPECT_EQ(s.choose(p.all(), tk(300), ctx16()), 2);
}

TEST(FcfsBanks, NoReorderingWithinBank)
{
    FcfsBanksScheduler s;
    Pool p;
    p.add(tk(50), 0, 0, false, false); // Head of bank 0 blocked.
    p.add(tk(100), 1, 0, true, true);  // Row hit behind it.
    EXPECT_EQ(s.choose(p.all(), tk(300), ctx16()), -1);
}

TEST(FcfsBanks, AgeBreaksTiesAcrossBanks)
{
    FcfsBanksScheduler s;
    Pool p;
    p.add(tk(80), 0, 0, true, false);
    p.add(tk(20), 1, 1, true, false); // Older head.
    EXPECT_EQ(s.choose(p.all(), tk(300), ctx16()), 1);
}

TEST(FcfsBanks, EqualAgeHeadsResolveByRequestId)
{
    // Regression: the head-of-bank accounting once lived in an
    // unordered_map, and the selection loop walked candidates in an
    // order influenced by it — equal-arrival heads across banks
    // resolved by hash-bucket order, i.e. differently per stdlib.
    // The contract: ties on arrivedAt break on the lower request id,
    // regardless of how the candidate vector is permuted.
    const Tick arrival = tk(40);
    for (int perm = 0; perm < 2; ++perm) {
        FcfsBanksScheduler s;
        Pool p;
        if (perm == 0) {
            p.add(arrival, 0, 2, true, false); // id 0, bank 2.
            p.add(arrival, 1, 5, true, false); // id 1, bank 5.
            p.add(arrival, 2, 7, true, false); // id 2, bank 7.
        } else {
            // Same requests, reversed bank presentation order; the
            // lowest id must still win.
            p.add(arrival, 2, 7, true, false); // id 0, bank 7.
            p.add(arrival, 1, 5, true, false); // id 1, bank 5.
            p.add(arrival, 0, 2, true, false); // id 2, bank 2.
        }
        const int pick = s.choose(p.all(), tk(300), ctx16());
        ASSERT_GE(pick, 0);
        EXPECT_EQ(p.all()[static_cast<std::size_t>(pick)].req->id, 0u)
            << "permutation " << perm;
    }
}

TEST(FcfsBanks, HeadTableResetsBetweenCalls)
{
    // The head-of-bank table is reused across calls. A stale bank-3
    // head (index 1 of the first pool) would keep the second pool's
    // bank-3 request from heading its bank, and a stale bank-0 head
    // would shadow bank 0's new request.
    FcfsBanksScheduler reused;
    Pool first;
    first.add(tk(10), 0, 0, false, false); // Bank 0 head, blocked.
    first.add(tk(20), 1, 3, true, false);  // Bank 3 head: the pick.
    first.add(tk(30), 2, 3, true, false);
    ASSERT_EQ(reused.choose(first.all(), tk(100), ctx16()), 1);

    Pool second;
    second.add(tk(30), 0, 3, true, false);  // Bank 3's only request.
    second.add(tk(20), 1, 5, false, false); // Bank 5, new, blocked.
    second.add(tk(40), 2, 0, true, false);  // Bank 0's only request.
    second.add(tk(35), 3, 0, true, false).req->coord.rank = 1; // New.
    FcfsBanksScheduler fresh;
    const int want = fresh.choose(second.all(), tk(200), ctx16());
    EXPECT_EQ(want, 0); // Stale heads would leave only index 3.
    EXPECT_EQ(reused.choose(second.all(), tk(200), ctx16()), want);
    // And once more on the first pool, after the second grew the table.
    EXPECT_EQ(reused.choose(first.all(), tk(300), ctx16()), 1);
}

// -------------------------------------------------------------- FR-FCFS

TEST(FrFcfs, PrefersRowHits)
{
    FrFcfsScheduler s;
    Pool p;
    p.add(tk(50), 0, 0, true, false);  // Oldest, not a hit.
    p.add(tk(100), 1, 1, true, true);  // Younger hit: wins.
    EXPECT_EQ(s.choose(p.all(), tk(300), ctx16()), 1);
}

TEST(FrFcfs, OldestHitAmongHits)
{
    FrFcfsScheduler s;
    Pool p;
    p.add(tk(100), 0, 0, true, true);
    p.add(tk(60), 1, 1, true, true); // Older hit.
    p.add(tk(10), 2, 2, true, false);
    EXPECT_EQ(s.choose(p.all(), tk(300), ctx16()), 1);
}

TEST(FrFcfs, FallsBackToOldest)
{
    FrFcfsScheduler s;
    Pool p;
    p.add(tk(100), 0, 0, true, false);
    p.add(tk(60), 1, 1, true, false);
    EXPECT_EQ(s.choose(p.all(), tk(300), ctx16()), 1);
}

TEST(FrFcfs, SkipsNonIssuable)
{
    FrFcfsScheduler s;
    Pool p;
    p.add(tk(100), 0, 0, false, true);
    p.add(tk(200), 1, 1, true, false);
    EXPECT_EQ(s.choose(p.all(), tk(300), ctx16()), 1);
}

// --------------------------------------------------------------- PAR-BS

TEST(ParBs, MarkedRequestsBeatUnmarked)
{
    ParBsScheduler s(16);
    Pool p;
    p.add(tk(10), 0, 0, true, false);
    p.add(tk(20), 0, 0, true, false);
    // First choose() forms a batch over current pool.
    const int first = s.choose(p.all(), tk(100), ctx16());
    ASSERT_GE(first, 0);
    EXPECT_TRUE(p.all()[first].req->marked);
    EXPECT_EQ(s.batchesFormed(), 1u);
    // A new arrival after batch formation is unmarked and loses.
    auto &young = p.add(tk(30), 1, 1, true, true);
    const int second = s.choose(p.all(), tk(100), ctx16());
    ASSERT_GE(second, 0);
    EXPECT_TRUE(p.all()[second].req->marked);
    EXPECT_NE(p.all()[second].req, young.req);
}

TEST(ParBs, BatchingCapLimitsPerCoreBankMarks)
{
    ParBsScheduler s(16, ParBsConfig{2});
    Pool p;
    for (int i = 0; i < 5; ++i)
        p.add(tk(10 + i), 0, 0, true, false); // Same core, same bank.
    (void)s.choose(p.all(), tk(100), ctx16());
    int marked = 0;
    for (const auto &c : p.all())
        marked += c.req->marked;
    EXPECT_EQ(marked, 2);
}

TEST(ParBs, ShortestJobRanksFirst)
{
    ParBsScheduler s(16);
    Pool p;
    // Core 0: 3 requests to one bank (long job). Core 1: 1 request.
    p.add(tk(10), 0, 0, true, false);
    p.add(tk(11), 0, 0, true, false);
    p.add(tk(12), 0, 0, true, false);
    p.add(tk(20), 1, 1, true, false);
    (void)s.choose(p.all(), tk(100), ctx16());
    EXPECT_LT(s.coreRank(1), s.coreRank(0));
}

TEST(ParBs, NewBatchWhenDrained)
{
    ParBsScheduler s(16, ParBsConfig{5});
    Pool p;
    p.add(tk(10), 0, 0, true, false);
    const int idx = s.choose(p.all(), tk(100), ctx16());
    ASSERT_EQ(idx, 0);
    s.onRequestServiced(*p.all()[0].req);
    // Pool for the next cycle: a fresh request; batch is empty so a
    // new one forms and it gets marked.
    Pool p2;
    p2.add(tk(50), 2, 3, true, false);
    (void)s.choose(p2.all(), tk(200), ctx16());
    EXPECT_EQ(s.batchesFormed(), 2u);
    EXPECT_TRUE(p2.all()[0].req->marked);
}

// ---------------------------------------------------------------- ATLAS

TEST(Atlas, RanksLeastAttainedServiceFirst)
{
    AtlasConfig cfg;
    cfg.quantumCycles = 1000;
    AtlasScheduler s(4, cfg);
    // Core 0 consumes lots of service, core 1 little.
    Request heavy;
    heavy.core = 0;
    for (int i = 0; i < 50; ++i)
        s.onRequestServiced(heavy);
    Request light;
    light.core = 1;
    s.onRequestServiced(light);
    // Advance past a quantum boundary.
    s.tick(tk(kBaselineClocks.coreToTicks(1001)), ctx16());
    EXPECT_EQ(s.quantaElapsed(), 1u);
    EXPECT_LT(s.coreRank(1), s.coreRank(0));
    EXPECT_GT(s.totalService(0), s.totalService(1));
}

TEST(Atlas, ExponentialSmoothingBiasesCurrentQuantum)
{
    AtlasConfig cfg;
    cfg.quantumCycles = 1000;
    cfg.alpha = 0.875;
    AtlasScheduler s(2, cfg);
    Request r;
    r.core = 0;
    for (int i = 0; i < 8; ++i)
        s.onRequestServiced(r);
    s.tick(tk(kBaselineClocks.coreToTicks(1001)), ctx16());
    EXPECT_DOUBLE_EQ(s.totalService(0), 0.875 * 8.0);
    // Next quantum with no service decays it.
    s.tick(tk(kBaselineClocks.coreToTicks(2002)), ctx16());
    EXPECT_DOUBLE_EQ(s.totalService(0), 0.125 * 0.875 * 8.0);
}

TEST(Atlas, HigherRankedCoreWins)
{
    AtlasConfig cfg;
    cfg.quantumCycles = 100;
    AtlasScheduler s(4, cfg);
    Request heavy;
    heavy.core = 2;
    for (int i = 0; i < 10; ++i)
        s.onRequestServiced(heavy);
    s.tick(tk(kBaselineClocks.coreToTicks(101)), ctx16());
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(90)), 2, 0, true,
          true); // Heavy core, hit.
    p.add(tk(kBaselineClocks.coreToTicks(95)), 0, 1, true,
          false); // Light core.
    EXPECT_EQ(
        s.choose(p.all(), tk(kBaselineClocks.coreToTicks(110)), ctx16()),
        1);
}

TEST(Atlas, StarvedRequestOverridesRank)
{
    AtlasConfig cfg;
    cfg.quantumCycles = 100;
    cfg.starvationCycles = 1000;
    AtlasScheduler s(4, cfg);
    Request heavy;
    heavy.core = 2;
    for (int i = 0; i < 10; ++i)
        s.onRequestServiced(heavy);
    s.tick(tk(kBaselineClocks.coreToTicks(101)), ctx16());
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(10)), 2, 0, true,
          false); // Starved heavy.
    p.add(tk(kBaselineClocks.coreToTicks(1500)), 0, 1, true, true);
    EXPECT_EQ(
        s.choose(p.all(), tk(kBaselineClocks.coreToTicks(1600)), ctx16()),
        0);
}

TEST(Atlas, RowHitBreaksTiesWithinRank)
{
    AtlasScheduler s(4);
    Pool p;
    p.add(tk(10), 0, 0, true, false);
    p.add(tk(20), 0, 1, true, true);
    EXPECT_EQ(s.choose(p.all(), tk(100), ctx16()), 1);
}

// ------------------------------------------------------------------- RL

TEST(Rl, OnlyPicksLegalCandidates)
{
    RlConfig cfg;
    cfg.epsilon = 0.0; // Greedy only; exploration is tested below.
    RlScheduler s(cfg);
    Pool p;
    p.add(tk(10), 0, 0, false, true);
    p.add(tk(20), 1, 1, true, false);
    for (int i = 0; i < 200; ++i) {
        const int idx = s.choose(p.all(), tk(1000 + i), ctx16());
        ASSERT_EQ(idx, 1);
    }
}

TEST(Rl, ExplorationNeverPicksIllegalCandidates)
{
    RlConfig cfg;
    cfg.epsilon = 1.0; // Every decision explores.
    cfg.starvationCycles = 100'000'000;
    RlScheduler s(cfg);
    Pool p;
    p.add(tk(10), 0, 0, false, true);
    p.add(tk(20), 1, 1, true, false);
    bool sawNoAction = false;
    for (int i = 0; i < 300; ++i) {
        const int idx = s.choose(p.all(), tk(1000 + i), ctx16());
        ASSERT_TRUE(idx == 1 || idx == -1) << idx;
        sawNoAction = sawNoAction || idx == -1;
    }
    // The action vocabulary includes no-action.
    EXPECT_TRUE(sawNoAction);
}

TEST(Rl, ReturnsMinusOneWhenNothingLegal)
{
    RlScheduler s;
    Pool p;
    p.add(tk(10), 0, 0, false, true);
    EXPECT_EQ(s.choose(p.all(), tk(100), ctx16()), -1);
}

TEST(Rl, LearnsFromRewards)
{
    RlScheduler s;
    Pool p;
    p.add(tk(10), 0, 0, true, true, DramCommandType::Read);
    // Repeated data-transferring actions earn reward; the chosen
    // feature vector's Q-value must rise above its initial zero.
    Tick now{1000};
    for (int i = 0; i < 500; ++i) {
        (void)s.choose(p.all(), now, ctx16());
        now += kBaselineClocks.ticksPerDram;
    }
    EXPECT_GT(s.updates(), 400u);
}

TEST(Rl, ExploresAtConfiguredRate)
{
    RlConfig cfg;
    cfg.epsilon = 0.2;
    // Starvation must not kick in: the pool is never serviced, and a
    // starved pick would bypass (and undercount) exploration.
    cfg.starvationCycles = 100'000'000;
    RlScheduler s(cfg);
    Pool p;
    p.add(tk(10), 0, 0, true, true);
    p.add(tk(20), 1, 1, true, false);
    Tick now{1000};
    for (int i = 0; i < 5000; ++i) {
        (void)s.choose(p.all(), now, ctx16());
        now += kBaselineClocks.ticksPerDram;
    }
    // ~20% of 5000 decisions should be exploratory.
    EXPECT_NEAR(static_cast<double>(s.explorations()), 1000.0, 200.0);
}

TEST(Rl, StarvationGuardServicesOldRequests)
{
    RlConfig cfg;
    cfg.starvationCycles = 100;
    cfg.epsilon = 0.0;
    RlScheduler s(cfg);
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(0)), 0, 0, true,
          false); // Ancient.
    p.add(tk(kBaselineClocks.coreToTicks(190)), 1, 1, true,
          true); // Fresh hit.
    EXPECT_EQ(
        s.choose(p.all(), tk(kBaselineClocks.coreToTicks(200)), ctx16()),
        0);
}

TEST(Rl, DeterministicGivenSeed)
{
    RlConfig cfg;
    cfg.seed = 42;
    RlScheduler a(cfg), b(cfg);
    Pool p;
    p.add(tk(10), 0, 0, true, true);
    p.add(tk(20), 1, 1, true, false);
    Tick now{1000};
    for (int i = 0; i < 300; ++i) {
        ASSERT_EQ(a.choose(p.all(), now, ctx16()),
                  b.choose(p.all(), now, ctx16()));
        now += kBaselineClocks.ticksPerDram;
    }
}

TEST(Rl, GreedyPickKeepsFirstOfEqualFeatures)
{
    // Candidates 1 and 2 are both row-hit demand reads under the same
    // queue state, so they share one feature word and one Q-value; the
    // strict '>' scan must keep the first, whatever their ages.
    RlConfig cfg;
    cfg.epsilon = 0.0;
    cfg.starvationCycles = 100'000'000;
    RlScheduler s(cfg);
    // Train on the same queue state with the reads listed first: the
    // greedy tie-break picks a read, and its reward lifts that word's
    // Q-value above the activate's.
    Pool train;
    train.add(tk(10), 0, 1, true, true, DramCommandType::Read);
    train.add(tk(20), 1, 2, true, true, DramCommandType::Read);
    train.add(tk(30), 2, 0, true, false, DramCommandType::Activate);
    Tick now{1000};
    for (int i = 0; i < 300; ++i) {
        (void)s.choose(train.all(), now, ctx16());
        now += kBaselineClocks.ticksPerDram;
    }
    ASSERT_GT(s.updates(), 0u);

    Pool p;
    p.add(tk(30), 0, 0, true, false, DramCommandType::Activate);
    p.add(tk(20), 1, 1, true, true, DramCommandType::Read);
    p.add(tk(10), 2, 2, true, true, DramCommandType::Read); // Older.
    int reads = 0;
    for (int i = 0; i < 300; ++i) {
        const int pick = s.choose(p.all(), now, ctx16());
        ASSERT_NE(pick, 2) << "decision " << i;
        reads += pick == 1;
        now += kBaselineClocks.ticksPerDram;
    }
    EXPECT_EQ(reads, 300); // The shared word wins every decision.
}

TEST(Rl, UsesUnifiedQueues)
{
    RlScheduler s;
    EXPECT_TRUE(s.unifiedQueues());
    FrFcfsScheduler f;
    EXPECT_FALSE(f.unifiedQueues());
}

using RlDeathTest = ::testing::Test;

TEST(RlDeathTest, RejectsNonPowerOfTwoTableSize)
{
    // The tile hash masks with tableSize - 1, so another size would
    // leave entries unreachable; the constructor names the value.
    RlConfig cfg;
    cfg.tableSize = 200;
    EXPECT_DEATH(RlScheduler{cfg},
                 "RL tableSize must be a power of two, got 200");
    cfg.tableSize = 0;
    EXPECT_DEATH(RlScheduler{cfg},
                 "RL tableSize must be a power of two, got 0");
    cfg.tableSize = 128;
    RlScheduler ok(cfg);
    EXPECT_EQ(ok.qValue(0), 0.0);
}

// ------------------------------------------------------------------ FQM

TEST(Fqm, EqualizesServiceAcrossCores)
{
    FqmScheduler s(4);
    // Core 0 already got service at bank 0.
    Request served;
    served.core = 0;
    served.coord.bank = 0;
    s.onRequestServiced(served);
    s.onRequestServiced(served);
    Pool p;
    p.add(tk(10), 0, 0, true, true);  // Core 0, much virtual time.
    p.add(tk(20), 1, 0, true, false); // Core 1, none: wins.
    EXPECT_EQ(s.choose(p.all(), tk(100), ctx16()), 1);
    EXPECT_EQ(s.virtualTime(0, p.all()[0].req->coord.flatBankKey()), 2u);
}

TEST(Fqm, RowHitBreaksVirtualTimeTies)
{
    FqmScheduler s(4);
    Pool p;
    p.add(tk(10), 0, 0, true, false);
    p.add(tk(20), 1, 1, true, true);
    EXPECT_EQ(s.choose(p.all(), tk(100), ctx16()), 1);
}

// ------------------------------------------------------------------ TCM

namespace {

/** A TCM with one elapsed quantum shaped by the given per-core loads. */
TcmScheduler
tcmAfterQuantum(const std::vector<std::uint64_t> &arrivals,
                const std::vector<std::uint64_t> &services,
                TcmConfig cfg = TcmConfig{})
{
    TcmScheduler s(static_cast<std::uint32_t>(arrivals.size()), cfg);
    Request req;
    for (CoreId c = 0; c < arrivals.size(); ++c) {
        req.core = c;
        for (std::uint64_t i = 0; i < arrivals[c]; ++i)
            s.onRequestArrived(req);
        for (std::uint64_t i = 0; i < services[c]; ++i)
            s.onRequestServiced(req);
    }
    s.tick(tk(kBaselineClocks.coreToTicks(cfg.quantumCycles) + TickSpan{1}),
           SchedulerContext{});
    return s;
}

} // namespace

TEST(Tcm, StartsAsAllLatencyCluster)
{
    TcmScheduler s(4);
    for (CoreId c = 0; c < 4; ++c) {
        EXPECT_TRUE(s.inLatencyCluster(c));
        EXPECT_EQ(s.corePriority(c), 0u);
    }
    EXPECT_EQ(s.quantaElapsed(), 0u);
}

TEST(Tcm, ClustersLightCoresAsLatencySensitive)
{
    // Core 0 is light, cores 1-3 are heavy; with clusterFrac = 0.2 the
    // latency budget is 0.2 * 310 = 62 >= core 0's 10 serviced.
    TcmScheduler s = tcmAfterQuantum({5, 100, 100, 100},
                                     {10, 100, 100, 100});
    EXPECT_EQ(s.quantaElapsed(), 1u);
    EXPECT_TRUE(s.inLatencyCluster(0));
    EXPECT_FALSE(s.inLatencyCluster(1));
    EXPECT_FALSE(s.inLatencyCluster(2));
    EXPECT_FALSE(s.inLatencyCluster(3));
}

TEST(Tcm, LatencyClusterBeatsBandwidthCluster)
{
    TcmScheduler s = tcmAfterQuantum({5, 100, 100, 100},
                                     {10, 100, 100, 100});
    Pool p;
    p.add(tk(10), 1, 0, true, true);  // Heavy core, older, row hit.
    p.add(tk(90), 0, 1, true, false); // Light core: still wins.
    EXPECT_EQ(s.choose(p.all(), tk(100), ctx16()), 1);
}

TEST(Tcm, RowHitBreaksTiesWithinCluster)
{
    TcmScheduler s(4);
    Pool p;
    p.add(tk(10), 0, 0, true, false);
    p.add(tk(20), 1, 1, true, true);
    EXPECT_EQ(s.choose(p.all(), tk(100), ctx16()), 1);
}

TEST(Tcm, StarvedRequestOverridesClusters)
{
    TcmConfig cfg;
    cfg.starvationCycles = 1'000;
    TcmScheduler s = tcmAfterQuantum({5, 100, 100, 100},
                                     {10, 100, 100, 100}, cfg);
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(10)), 1, 0, true,
          false); // Starved heavy.
    p.add(tk(kBaselineClocks.coreToTicks(2900)), 0, 1, true, true);
    EXPECT_EQ(
        s.choose(p.all(), tk(kBaselineClocks.coreToTicks(3000)), ctx16()),
        0);
}

TEST(Tcm, ShuffleReordersOnlyBandwidthCluster)
{
    TcmConfig cfg;
    cfg.shuffleCycles = 10;
    TcmScheduler s = tcmAfterQuantum({5, 100, 100, 100},
                                     {10, 100, 100, 100}, cfg);
    const auto lightPrio = s.corePriority(0);
    // Drive several shuffle intervals; the latency core's priority is
    // stable while the bandwidth cores' priorities stay a permutation
    // of the remaining slots.
    const Tick start =
        tk(kBaselineClocks.coreToTicks(cfg.quantumCycles) + TickSpan{100});
    for (int i = 1; i <= 50; ++i) {
        s.tick(start + kBaselineClocks.coreToTicks(10) * i,
               SchedulerContext{});
        EXPECT_EQ(s.corePriority(0), lightPrio);
        std::vector<bool> seen(4, false);
        for (CoreId c = 1; c < 4; ++c) {
            const auto pr = s.corePriority(c);
            ASSERT_GE(pr, 1u);
            ASSERT_LT(pr, 4u);
            ASSERT_FALSE(seen[pr]) << "duplicate priority " << pr;
            seen[pr] = true;
        }
    }
    EXPECT_GE(s.shufflesDone(), 40u);
}

TEST(Tcm, OnlyPicksIssuableCandidates)
{
    TcmScheduler s(4);
    Pool p;
    p.add(tk(10), 0, 0, false, true);
    p.add(tk(20), 1, 1, true, false);
    EXPECT_EQ(s.choose(p.all(), tk(100), ctx16()), 1);
    std::vector<Candidate> none;
    EXPECT_EQ(s.choose(none, tk(100), ctx16()), -1);
}

TEST(Tcm, IoRequestsRankBelowAllCores)
{
    TcmScheduler s = tcmAfterQuantum({50, 50, 50, 50},
                                     {50, 50, 50, 50});
    Pool p;
    p.add(tk(10), kIoCoreId, 0, true, true); // Old IO request.
    p.add(tk(90), 2, 1, true, false);        // Younger core request: wins.
    EXPECT_EQ(s.choose(p.all(), tk(100), ctx16()), 1);
}

// ----------------------------------------------------------------- STFM

TEST(Stfm, BehavesLikeFrFcfsWhenFair)
{
    StfmScheduler s(4);
    Pool p;
    p.add(tk(50), 0, 0, true, false); // Oldest non-hit.
    p.add(tk(100), 1, 1, true, true); // Younger hit: wins under FR-FCFS.
    EXPECT_EQ(s.choose(p.all(), tk(300), ctx16()), 1);
    EXPECT_DOUBLE_EQ(s.unfairness(), 1.0);
}

TEST(Stfm, SlowdownTracksWaitingTime)
{
    StfmScheduler s(4);
    Pool p;
    // Core 0's CAS waited a long time relative to its alone-service
    // estimate: slowdown rises above 1.
    p.add(tk(0), 0, 0, true, true);
    (void)s.choose(p.all(), tk(kBaselineClocks.dramToTicks(500)),
                   ctx16());
    EXPECT_GT(s.slowdownOf(0), 1.0);
    EXPECT_DOUBLE_EQ(s.slowdownOf(1), 1.0); // Idle core.
}

TEST(Stfm, ElevatesMostSlowedCoreWhenUnfair)
{
    StfmConfig cfg;
    cfg.alpha = 1.05;
    StfmScheduler s(4, cfg);
    // Train: core 0's requests wait ~20x service, core 1's none.
    for (int i = 0; i < 4; ++i) {
        Pool waitP;
        waitP.add(tk(0), 0, 0, true, true);
        (void)s.choose(waitP.all(),
                       tk(kBaselineClocks.dramToTicks(400 * (i + 1))),
                       ctx16());
        Pool fastP;
        fastP.add(tk(kBaselineClocks.dramToTicks(400 * (i + 1)) -
                     TickSpan{10}),
                  1, 1, true, true);
        (void)s.choose(fastP.all(),
                       tk(kBaselineClocks.dramToTicks(400 * (i + 1))),
                       ctx16());
    }
    EXPECT_GT(s.unfairness(), 1.05);
    // Now core 0's non-hit must beat core 1's younger row hit.
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(5000)), 1, 1, true, true);
    p.add(tk(kBaselineClocks.coreToTicks(4000)), 0, 0, true, false);
    EXPECT_EQ(
        s.choose(p.all(), tk(kBaselineClocks.coreToTicks(5100)), ctx16()),
        1);
}

TEST(Stfm, DecayForgetsOldImbalance)
{
    StfmConfig cfg;
    cfg.decayCycles = 100;
    cfg.decayFactor = 0.0; // Full forget at each interval.
    StfmScheduler s(4, cfg);
    Pool p;
    p.add(tk(0), 0, 0, true, true);
    (void)s.choose(p.all(), tk(kBaselineClocks.dramToTicks(500)),
                   ctx16());
    EXPECT_GT(s.slowdownOf(0), 1.0);
    s.tick(tk(kBaselineClocks.coreToTicks(200)), ctx16());
    EXPECT_DOUBLE_EQ(s.slowdownOf(0), 1.0);
}

TEST(Stfm, StarvedRequestBeatsEverything)
{
    StfmConfig cfg;
    cfg.starvationCycles = 1'000;
    StfmScheduler s(4, cfg);
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(0)), 2, 0, true,
          false); // Ancient.
    p.add(tk(kBaselineClocks.coreToTicks(1900)), 0, 1, true, true);
    EXPECT_EQ(
        s.choose(p.all(), tk(kBaselineClocks.coreToTicks(2000)), ctx16()),
        0);
}

TEST(Stfm, OnlyPicksIssuable)
{
    StfmScheduler s(4);
    Pool p;
    p.add(tk(10), 0, 0, false, true);
    EXPECT_EQ(s.choose(p.all(), tk(100), ctx16()), -1);
}

// -------------------------------------------------------------- Factory

TEST(Factory, AllSchedulersConstructible)
{
    for (auto kind : {SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks,
                      SchedulerKind::ParBs, SchedulerKind::Atlas,
                      SchedulerKind::Rl, SchedulerKind::Fcfs,
                      SchedulerKind::Fqm, SchedulerKind::Tcm,
                      SchedulerKind::Stfm}) {
        auto s = makeScheduler(kind, 16);
        ASSERT_NE(s, nullptr);
        EXPECT_STREQ(s->name(), schedulerKindName(kind));
        EXPECT_EQ(schedulerKindFromName(s->name()), kind);
    }
}

// --------------------------------------------------- age-ordered picks

TEST(Schedulers, BankHeadsPickTheSameRequest)
{
    // FR-FCFS, FCFS and FCFS_banks pick by request age (olderThan():
    // arrivedAt, then seq) and, for FCFS_banks across banks, by
    // (arrivedAt, id), never by candidate index. So over random pools
    // each must pick the same request from the pool in enqueue order
    // and from a shuffled copy. Pools have equal-arrival ties across
    // banks, shuffled request ids, gated requests and random
    // per-(bank, command) legality. (The name is kept from the
    // bank-head candidate path, which relied on the same property.)
    std::vector<std::unique_ptr<Scheduler>> scheds;
    scheds.push_back(std::make_unique<FrFcfsScheduler>());
    scheds.push_back(std::make_unique<FcfsScheduler>());
    scheds.push_back(std::make_unique<FcfsBanksScheduler>());
    constexpr std::uint32_t kBanks = 6; // 2 ranks x 3 banks.
    const Tick now = tk(1000);
    Pcg32 rng(2026, 5);
    const auto shuffle = [&rng](auto &v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1],
                      v[rng.below(static_cast<std::uint32_t>(i))]);
    };
    std::uint64_t picked = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        std::uint64_t openRow[kBanks];
        bool legal[kBanks][4];
        for (std::uint32_t b = 0; b < kBanks; ++b) {
            openRow[b] = rng.below(3) == 0 ? Bank::kNoRow : rng.below(3);
            for (bool &l : legal[b])
                l = rng.below(2) == 0;
        }
        const std::uint32_t n = 1 + rng.below(24);
        std::vector<std::uint64_t> ids(n);
        for (std::uint32_t i = 0; i < n; ++i)
            ids[i] = i;
        shuffle(ids);
        std::vector<std::unique_ptr<Request>> reqs;
        Tick arrived = tk(0);
        for (std::uint32_t i = 0; i < n; ++i) {
            if (rng.below(3) == 0)
                arrived += TickSpan{1 + rng.below(4)};
            auto r = std::make_unique<Request>();
            r->id = ids[i];
            r->seq = i + 1; // Pool order is enqueue order.
            r->arrivedAt = arrived;
            const std::uint32_t key = rng.below(kBanks);
            r->coord.rank = key / 3;
            r->coord.bank = key % 3;
            r->coord.row = rng.below(3);
            if (rng.below(6) == 0)
                r->availableAt = now + TickSpan{rng.below(3)};
            reqs.push_back(std::move(r));
        }
        std::vector<Candidate> pool;
        for (auto &r : reqs) {
            const std::uint32_t key = r->coord.rank * 3 + r->coord.bank;
            Candidate c;
            c.req = r.get();
            if (openRow[key] == Bank::kNoRow) {
                c.cmd = DramCommandType::Activate;
            } else if (openRow[key] == r->coord.row) {
                c.cmd = DramCommandType::Read;
                c.isRowHit = true;
            } else {
                c.cmd = DramCommandType::Precharge;
            }
            c.issuableNow = legal[key][static_cast<int>(c.cmd)] &&
                            r->availableAt <= now;
            pool.push_back(c);
        }
        std::vector<Candidate> shuffled = pool;
        shuffle(shuffled);
        for (auto &s : scheds) {
            const int a = s->choose(pool, now, ctx16());
            const int h = s->choose(shuffled, now, ctx16());
            ASSERT_EQ(a < 0 ? nullptr : pool[a].req,
                      h < 0 ? nullptr : shuffled[h].req)
                << s->name() << " trial " << trial;
            picked += a >= 0;
        }
    }
    EXPECT_GT(picked, 4000u); // Most trials issue something.
}
