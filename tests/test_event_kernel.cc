/**
 * @file
 * Event-scheduled kernel tests: the idle-skip kernel must produce
 * bit-identical results to the tick-by-tick reference loop across
 * every scheduler, page policy, refresh setting and IO-enabled
 * workload, metric for metric (firstDifferentMetric) and command for
 * command on every channel (CommandLog), so the kernel never skips
 * past a refresh deadline or a crossbar-latch delivery; and
 * Channel::nextLegalAt must agree with canIssue() constraint for
 * constraint.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "dram/channel.hh"
#include "dram/command_log.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

SimConfig
smallConfig()
{
    SimConfig cfg = SimConfig::baseline();
    cfg.warmupCoreCycles = 30'000;
    cfg.measureCoreCycles = 120'000;
    return cfg;
}

/**
 * Run @p wl on the event kernel and on the reference loop: every
 * metric, the end tick and every channel's command stream must match.
 * Returns the event run's command log.
 */
CommandLog
runBothAndCompare(const SimConfig &cfg, WorkloadId wl)
{
    System ev(cfg, workloadPreset(wl));
    System ref(cfg, workloadPreset(wl));
    ref.useReferenceKernel(true);
    CommandLog evLog, refLog;
    evLog.attachAll(ev);
    refLog.attachAll(ref);
    const MetricSet me = ev.run();
    EXPECT_STREQ(firstDifferentMetric(me, ref.run()), nullptr);
    EXPECT_EQ(ev.now(), ref.now());
    EXPECT_EQ(evLog.firstDivergence(refLog), "");
    return evLog;
}

} // namespace

/**
 * Golden equivalence across the scheduler matrix. WS exercises the
 * plain compute/cache path; WF runs 8 cores plus the DMA/IO engine,
 * so latch-ready and IO-issue events gate the skip logic too.
 */
class KernelSchedulerEquivalence
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, bool>>
{
};

TEST_P(KernelSchedulerEquivalence, BitIdenticalToReference)
{
    const auto [sched, refresh] = GetParam();
    SimConfig cfg = smallConfig();
    cfg.scheduler = sched;
    cfg.refreshEnabled = refresh;
    runBothAndCompare(cfg, WorkloadId::WS);
    runBothAndCompare(cfg, WorkloadId::WF); // IO engine enabled.
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, KernelSchedulerEquivalence,
    ::testing::Combine(
        ::testing::Values(SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks,
                          SchedulerKind::ParBs, SchedulerKind::Atlas,
                          SchedulerKind::Rl, SchedulerKind::Fcfs,
                          SchedulerKind::Fqm, SchedulerKind::Tcm,
                          SchedulerKind::Stfm),
        ::testing::Bool()),
    [](const auto &info) {
        std::string name = schedulerKindName(std::get<0>(info.param));
        name += std::get<1>(info.param) ? "_refresh" : "_norefresh";
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

/**
 * Golden equivalence across the page policies; the Timer policy is
 * the one genuinely time-driven closure source the kernel must wake
 * for, and History/RBPP/ABPP exercise predictor state.
 */
class KernelPolicyEquivalence
    : public ::testing::TestWithParam<PagePolicyKind>
{
};

TEST_P(KernelPolicyEquivalence, BitIdenticalToReference)
{
    SimConfig cfg = smallConfig();
    cfg.pagePolicy = GetParam();
    runBothAndCompare(cfg, WorkloadId::DS);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, KernelPolicyEquivalence,
    ::testing::Values(PagePolicyKind::OpenAdaptive,
                      PagePolicyKind::CloseAdaptive, PagePolicyKind::Rbpp,
                      PagePolicyKind::Abpp, PagePolicyKind::Open,
                      PagePolicyKind::Close, PagePolicyKind::Timer,
                      PagePolicyKind::History),
    [](const auto &info) { return pagePolicyKindName(info.param); });

/**
 * Golden equivalence on non-baseline clock ratios: the kernel's
 * domain walk must be exact for any core:DRAM tick ratio, not just
 * the baseline's 2:5. DDR4-2400 runs 3:5 on a 166.7 ps tick (plus 16
 * banks/rank); LPDDR3-1600 keeps 2:5 but changes every timing;
 * DDR3-1066's 533 MHz bus is coprime with 2000 MHz cores, so its grid
 * degenerates to 533:2000 — the stress case for the boundary walk.
 */
class KernelDeviceEquivalence
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(KernelDeviceEquivalence, BitIdenticalToReference)
{
    SimConfig cfg = smallConfig();
    cfg.applyDevice(dramDeviceOrDie(GetParam()));
    runBothAndCompare(cfg, WorkloadId::WS);
    runBothAndCompare(cfg, WorkloadId::WF); // IO engine enabled.
}

INSTANTIATE_TEST_SUITE_P(NonBaselineDevices, KernelDeviceEquivalence,
                         ::testing::Values("DDR4-2400", "DDR5-4800",
                                           "LPDDR3-1600", "DDR3-1066"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name) {
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return name;
                         });

/** Device sweeps must also hold under the time-driven page policy and
 *  a quantum scheduler, the two event sources with cycle-denominated
 *  deadlines that the clock refactor re-derives. */
TEST(KernelDeviceEquivalence, TimerPolicyAndAtlasOnDdr4)
{
    SimConfig cfg = smallConfig();
    cfg.applyDevice(dramDeviceOrDie("DDR4-2400"));
    cfg.pagePolicy = PagePolicyKind::Timer;
    cfg.scheduler = SchedulerKind::Atlas;
    runBothAndCompare(cfg, WorkloadId::DS);
}

/** Multi-channel configurations exercise per-controller due tracking. */
TEST(EventKernel, MultiChannelBitIdentical)
{
    SimConfig cfg = smallConfig();
    cfg.dram.channels = 4;
    cfg.mapping = MappingScheme::RoChRaBaCo;
    runBothAndCompare(cfg, WorkloadId::DS);
}

/** Repeated short advance() calls must land on the same state as the
 *  reference loop at every boundary, not just at run() end. */
TEST(EventKernel, IncrementalAdvanceMatches)
{
    SimConfig cfg = smallConfig();
    System ev(cfg, workloadPreset(WorkloadId::WS));
    System ref(cfg, workloadPreset(WorkloadId::WS));
    ref.useReferenceKernel(true);
    CommandLog evLog, refLog;
    evLog.attachAll(ev);
    refLog.attachAll(ref);
    for (int chunk = 0; chunk < 8; ++chunk) {
        ev.advance(7'501); // Deliberately ragged chunks.
        ref.advance(7'501);
        EXPECT_EQ(ev.now(), ref.now());
    }
    ev.resetStats();
    ref.resetStats();
    ev.advance(40'000);
    ref.advance(40'000);
    EXPECT_STREQ(firstDifferentMetric(ev.collect(), ref.collect()),
                 nullptr);
    EXPECT_EQ(evLog.firstDivergence(refLog), "");
}

/**
 * Exact command-trace equality: the kernel must issue every DRAM
 * command — including every refresh — at exactly the tick the
 * reference loop issues it. A kernel that skipped past a refresh
 * deadline or a latch-ready tick would shift this sequence.
 */
namespace {

/** Run DS on both kernels over several tREFI periods. */
void
expectTraceIdentical(const char *device)
{
    SimConfig cfg = smallConfig();
    if (device)
        cfg.applyDevice(dramDeviceOrDie(device));
    cfg.measureCoreCycles = 200'000; // Spans several tREFI periods.
    EXPECT_GT(runBothAndCompare(cfg, WorkloadId::DS)
                  .count(DramCommandType::Refresh),
              0u)
        << "trace never exercised a refresh";
}

} // namespace

TEST(EventKernel, CommandTraceIdenticalIncludingRefresh)
{
    expectTraceIdentical(nullptr); // Baseline DDR3-1600.
}

TEST(EventKernel, CommandTraceIdenticalOnDdr4)
{
    // 3:5 tick ratio, 4 bank groups with real tCCD_L/tRRD_L/tWTR_L.
    expectTraceIdentical("DDR4-2400");
}

TEST(EventKernel, CommandTraceIdenticalOnDdr5)
{
    // 6:5 tick ratio, 8 groups x 4 banks, BL16.
    expectTraceIdentical("DDR5-4800");
}

TEST(EventKernel, CommandTraceIdenticalOnLpddr3)
{
    // Per-bank refresh: REFpb every tREFI/8 per rank, round-robin.
    expectTraceIdentical("LPDDR3-1600");
}

/**
 * Channel::nextLegalAt must agree with canIssue(): illegal strictly
 * before the reported tick, legal exactly at it (absent intervening
 * commands).
 */
class NextLegalTest : public ::testing::Test
{
  protected:
    NextLegalTest()
        : chan(geom(), DramTimings::ddr3_1600(), false)
    {
    }

    static DramGeometry
    geom()
    {
        DramGeometry g;
        g.channels = 1;
        g.ranksPerChannel = 2;
        g.banksPerRank = 8;
        g.rowsPerBank = 1u << 12;
        return g;
    }

    static DramCoord
    coord(std::uint32_t rank, std::uint32_t bank, std::uint64_t row)
    {
        DramCoord c;
        c.rank = rank;
        c.bank = bank;
        c.row = row;
        c.column = 3;
        return c;
    }

    void
    expectConsistent(const DramCommand &cmd, Tick now)
    {
        const Tick legal = chan.nextLegalAt(cmd, now);
        ASSERT_NE(legal, kMaxTick);
        EXPECT_TRUE(chan.canIssue(cmd, legal))
            << dramCommandName(cmd.type) << " not legal at its own "
            << "nextLegalAt " << legal;
        for (Tick t = now; t < legal; t += TickSpan{1}) {
            EXPECT_FALSE(chan.canIssue(cmd, t))
                << dramCommandName(cmd.type) << " already legal at " << t
                << " but nextLegalAt said " << legal;
        }
    }

    Channel chan;
};

TEST_F(NextLegalTest, ActivateReadPrechargeChain)
{
    const auto c = coord(0, 2, 7);
    expectConsistent(DramCommand::activate(c), Tick{});
    chan.issue(DramCommand::activate(c), Tick{});

    // Read gated by tRCD and the command bus.
    expectConsistent(DramCommand::read(c), Tick{1});
    const Tick rdAt = chan.nextLegalAt(DramCommand::read(c), Tick{1});
    chan.issue(DramCommand::read(c), rdAt);

    // Precharge gated by tRTP; next activate by tRP + tRC.
    expectConsistent(DramCommand::precharge(0, 2), rdAt + TickSpan{1});
    const Tick preAt =
        chan.nextLegalAt(DramCommand::precharge(0, 2), rdAt + TickSpan{1});
    chan.issue(DramCommand::precharge(0, 2), preAt);
    expectConsistent(DramCommand::activate(coord(0, 2, 9)),
                     preAt + TickSpan{1});
}

TEST_F(NextLegalTest, WriteToReadTurnaround)
{
    const auto c = coord(1, 4, 11);
    chan.issue(DramCommand::activate(c),
               chan.nextLegalAt(DramCommand::activate(c), Tick{}));
    const Tick wrAt = chan.nextLegalAt(DramCommand::write(c), Tick{});
    chan.issue(DramCommand::write(c), wrAt);
    // Same-rank read now gated by tWTR and the data bus.
    expectConsistent(DramCommand::read(c), wrAt + TickSpan{1});
}

TEST_F(NextLegalTest, FawGatesFifthActivate)
{
    // Four activates to distinct banks as fast as legality allows;
    // the fifth must report a tFAW-gated next-legal tick.
    Tick now{};
    for (std::uint32_t b = 0; b < 4; ++b) {
        const auto cmd = DramCommand::activate(coord(0, b, 1));
        now = chan.nextLegalAt(cmd, now);
        chan.issue(cmd, now);
    }
    expectConsistent(DramCommand::activate(coord(0, 4, 1)),
                     now + TickSpan{1});
}

TEST_F(NextLegalTest, StateMismatchesReportNever)
{
    const auto c = coord(0, 0, 5);
    // CAS/PRE to a closed bank can never become legal on their own.
    EXPECT_EQ(chan.nextLegalAt(DramCommand::read(c), Tick{}), kMaxTick);
    EXPECT_EQ(chan.nextLegalAt(DramCommand::precharge(0, 0), Tick{}),
              kMaxTick);
    chan.issue(DramCommand::activate(c), Tick{});
    // An activate to the now-open bank can't either.
    EXPECT_EQ(chan.nextLegalAt(DramCommand::activate(c), Tick{1}),
              kMaxTick);
    // A CAS to the wrong row is likewise stuck until a precharge.
    EXPECT_EQ(chan.nextLegalAt(DramCommand::read(coord(0, 0, 6)), Tick{1}),
              kMaxTick);
}

/** The reported skip statistics must show the kernel actually skips. */
TEST(EventKernel, SkipCountersShowIdleSkipping)
{
    SimConfig cfg = smallConfig();
    System sys(cfg, workloadPreset(WorkloadId::WS));
    (void)sys.run();
    const KernelStats &k = sys.kernelStats();
    const std::uint64_t coreCycles =
        kBaselineClocks.ticksToCore(sys.now()).count();
    const std::uint64_t dramCycles =
        kBaselineClocks.ticksToDram(sys.now()).count();
    // Every executed step is counted...
    EXPECT_GT(k.coreStepsRun, 0u);
    EXPECT_LE(k.coreStepsRun, coreCycles);
    EXPECT_LE(k.ctlTicksRun, dramCycles);
    // ...and a meaningful fraction of core ticks is skipped (WS cores
    // are blocked or compute-running most of the time).
    EXPECT_LT(k.coreTicksRun, coreCycles * sys.numCores() / 2);
}
