/**
 * @file
 * Memory controller integration tests: request conservation, latency
 * bounds, row-outcome classification, forwarding, write drain, and a
 * parameterized conservation sweep across every scheduler and page
 * policy combination.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "dram/channel.hh"
#include "dram/command_log.hh"
#include "dram/devices.hh"
#include "mem/factory.hh"
#include "mem/mem_controller.hh"

using namespace mcsim;

namespace {

struct Harness
{
    explicit Harness(SchedulerKind sched = SchedulerKind::FrFcfs,
                     PagePolicyKind policy = PagePolicyKind::OpenAdaptive,
                     bool refresh = true,
                     const DramTimings &timings = DramTimings::ddr3_1600())
        : geom(makeGeom()), channel(geom, timings, refresh),
          mc(channel, makeScheduler(sched, 16), makePagePolicy(policy), 16)
    {
        mc.setCompletionCallback(
            [this](Request *req, Tick) { completed.push_back(*req); });
    }

    static DramGeometry
    makeGeom()
    {
        DramGeometry g;
        g.rowsPerBank = 1u << 12;
        return g;
    }

    Request *
    makeReq(Addr addr, bool isWrite, CoreId core = 0)
    {
        auto req = std::make_unique<Request>();
        req->id = storage.size();
        req->core = core;
        req->addr = addr;
        req->isWrite = isWrite;
        // Simple fixed mapping for tests: block -> column/bank/row.
        const Addr blk = addr / 64;
        req->coord.column = blk % geom.blocksPerRow();
        req->coord.bank =
            (blk / geom.blocksPerRow()) % geom.banksPerRank;
        req->coord.rank = (blk / geom.blocksPerRow() / geom.banksPerRank) %
                          geom.ranksPerChannel;
        req->coord.row = blk / geom.blocksPerRow() / geom.banksPerRank /
                         geom.ranksPerChannel;
        storage.push_back(std::move(req));
        return storage.back().get();
    }

    /** Run the controller for @p dramCycles. */
    void
    run(std::uint64_t dramCycles)
    {
        for (std::uint64_t i = 0; i < dramCycles; ++i) {
            mc.tick(now);
            now += kBaselineClocks.ticksPerDram;
        }
    }

    DramGeometry geom;
    Channel channel;
    MemController mc;
    std::vector<std::unique_ptr<Request>> storage;
    std::vector<Request> completed;
    Tick now{};
};

/** Byte address of (row, bank, column) under the test mapping. */
Addr
addrOf(std::uint64_t row, std::uint32_t bank, std::uint32_t col)
{
    const DramGeometry g = Harness::makeGeom();
    return ((row * g.ranksPerChannel * g.banksPerRank + bank) *
                g.blocksPerRow() +
            col) *
           64;
}

} // namespace

TEST(MemController, SingleReadCompletes)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(200);
    ASSERT_EQ(h.completed.size(), 1u);
    EXPECT_FALSE(h.completed[0].isWrite);
    // Latency at least tRCD + CL + burst.
    const auto tm = DramTimings::ddr3_1600();
    EXPECT_GE(h.completed[0].completedAt - h.completed[0].arrivedAt,
              kBaselineClocks.dramToTicks(tm.tRCD + tm.tCAS + tm.tBURST));
    EXPECT_EQ(h.completed[0].outcome, RowOutcome::Miss);
    EXPECT_EQ(h.mc.stats().rowMisses, 1u);
}

TEST(MemController, RowHitClassification)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 1), false), h.now);
    h.run(300);
    ASSERT_EQ(h.completed.size(), 2u);
    EXPECT_EQ(h.mc.stats().rowHits, 1u);
    EXPECT_EQ(h.mc.stats().rowMisses, 1u);
}

TEST(MemController, ConflictClassification)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(100); // Row 1 open, queue empty.
    h.mc.enqueue(h.makeReq(addrOf(2, 0, 0), false), h.now);
    h.run(300);
    ASSERT_EQ(h.completed.size(), 2u);
    EXPECT_EQ(h.mc.stats().rowConflicts, 1u);
}

TEST(MemController, ReadForwardedFromWriteQueue)
{
    Harness h;
    const Addr a = addrOf(3, 1, 5);
    h.mc.enqueue(h.makeReq(a, true), h.now);
    h.mc.enqueue(h.makeReq(a, false), h.now);
    h.run(300);
    EXPECT_EQ(h.mc.stats().forwardedReads, 1u);
    // Both the write and the forwarded read complete.
    EXPECT_EQ(h.completed.size(), 2u);
}

TEST(MemController, WritesDrainAtIdleThreshold)
{
    Harness h;
    for (int i = 0; i < 20; ++i)
        h.mc.enqueue(h.makeReq(addrOf(i, i % 8, 0), true), h.now);
    EXPECT_EQ(h.mc.writeQueueLen(), 20u);
    h.run(2000);
    // Idle drain kicks in (threshold 16) and drains to the low mark.
    EXPECT_LE(h.mc.writeQueueLen(), 8u);
    EXPECT_GE(h.mc.stats().servedWrites, 12u);
}

TEST(MemController, ReadsPrioritizedOverParkedWrites)
{
    Harness h;
    for (int i = 0; i < 4; ++i)
        h.mc.enqueue(h.makeReq(addrOf(10 + i, 0, 0), true), h.now);
    h.mc.enqueue(h.makeReq(addrOf(1, 1, 0), false), h.now);
    h.run(100);
    // The read finishes while the small write backlog stays parked.
    EXPECT_EQ(h.completed.size(), 1u);
    EXPECT_FALSE(h.completed[0].isWrite);
    EXPECT_EQ(h.mc.writeQueueLen(), 4u);
}

TEST(MemController, QueueStatsTrackOccupancy)
{
    Harness h;
    for (int i = 0; i < 6; ++i)
        h.mc.enqueue(h.makeReq(addrOf(i, i % 4, 0), false), h.now);
    h.run(500);
    EXPECT_GT(h.mc.stats().readQueueLen.mean(h.now), 0.0);
    EXPECT_EQ(h.completed.size(), 6u);
}

TEST(MemController, RefreshEventuallyIssues)
{
    Harness h;
    const auto tm = DramTimings::ddr3_1600();
    h.run(tm.tREFI * 3);
    EXPECT_GE(h.channel.stats().refreshes, 2u);
}

TEST(MemController, BlockedRefreshWakesAtPrechargeLegalTick)
{
    // Rank 0's refresh comes due two cycles after an ACT opened bank 0,
    // the bank both refresh modes must close first. While the bank is
    // inside tRAS the refresh is blocked: the quiescent controller must
    // sleep until the closing precharge is legal instead of retrying
    // every cycle, and the precharge and refresh must then issue on
    // the ticks that per-cycle ticking issues them.
    const TickSpan cycle = kBaselineClocks.ticksPerDram;
    for (const bool perBank : {false, true}) {
        SCOPED_TRACE(perBank ? "REFpb" : "all-bank REF");
        DramTimings tm = DramTimings::ddr3_1600();
        tm.perBankRefresh = perBank;
        tm.tRFCpb = perBank ? 90 : 0;
        Harness perCycle(SchedulerKind::FrFcfs,
                         PagePolicyKind::OpenAdaptive, true, tm);
        Harness stepped(SchedulerKind::FrFcfs, PagePolicyKind::OpenAdaptive,
                        true, tm);
        const Tick due = stepped.channel.rank(0).nextRefreshDue();
        CommandLog logs[2];
        Harness *harnesses[2] = {&perCycle, &stepped};
        for (int i = 0; i < 2; ++i) {
            Harness &h = *harnesses[i];
            h.channel.issue(DramCommand::activate(DramCoord{0, 0, 0, 1, 0}),
                            due - 2 * cycle);
            logs[i].attach(h.channel);
            h.now = due;
        }
        const Tick preLegal = stepped.channel.bank(0, 0).preAllowedAt();
        ASSERT_GT(preLegal, due + cycle) << "bank must still be in tRAS";

        stepped.now = stepped.mc.tick(due);
        EXPECT_EQ(stepped.now, preLegal);

        // Run both until the refresh issues: one every DRAM cycle, the
        // other only on the ticks tick() asks for.
        const auto refreshed = [](const CommandLog &log) {
            return log.count(DramCommandType::Refresh) > 0;
        };
        while (!refreshed(logs[0]) && perCycle.now < due + 200 * cycle) {
            perCycle.mc.tick(perCycle.now);
            perCycle.now += cycle;
        }
        while (!refreshed(logs[1]) && stepped.now < due + 200 * cycle)
            stepped.now = stepped.mc.tick(stepped.now);

        const auto &cmds = logs[0].channels[0].entries;
        ASSERT_EQ(cmds.size(), 2u);
        EXPECT_EQ(cmds[0].cmd.type, DramCommandType::Precharge);
        EXPECT_EQ(cmds[0].tick, preLegal);
        EXPECT_EQ(logs[1].firstDivergence(logs[0]), "");
    }
}

TEST(MemController, PerCoreStatsAttributed)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false, 3), h.now);
    h.mc.enqueue(h.makeReq(addrOf(2, 1, 0), false, 5), h.now);
    h.run(300);
    EXPECT_EQ(h.mc.stats().perCoreReads[3], 1u);
    EXPECT_EQ(h.mc.stats().perCoreReads[5], 1u);
    EXPECT_EQ(h.mc.stats().perCoreReads[0], 0u);
}

TEST(MemController, ResetStatsClearsCounters)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(200);
    h.mc.resetStats(h.now);
    EXPECT_EQ(h.mc.stats().servedReads, 0u);
    EXPECT_EQ(h.mc.stats().rowMisses, 0u);
    EXPECT_EQ(h.mc.stats().readLatencySamples, 0u);
}

TEST(MemController, ActivationHistogramSampledOnPrecharge)
{
    Harness h(SchedulerKind::FrFcfs, PagePolicyKind::Close);
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(300);
    // Close policy precharges right after the single access.
    EXPECT_EQ(h.mc.stats().activationAccesses.bucket(1), 1u);
}

TEST(MemController, CloseAdaptiveClosesIdleRows)
{
    Harness h(SchedulerKind::FrFcfs, PagePolicyKind::CloseAdaptive,
              false);
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(300);
    EXPECT_FALSE(h.channel.bank(0, 0).isOpen());
}

TEST(MemController, DrainFlipReasksPagePolicy)
{
    // Close-adaptive keeps an accessed row open while a read hit is
    // pending. Once the write drain starts, reads leave the active
    // pool, so the row has no pending hit and must close at the next
    // idle cycle although nothing else happens to its bank: the drain
    // flip alone changes the policy's answer.
    Harness h(SchedulerKind::FrFcfs, PagePolicyKind::CloseAdaptive, false);
    CommandLog log;
    log.attach(h.channel);
    // The first precharge to bank 0, or kMaxTick while none issued.
    const auto firstBank0Pre = [&log] {
        for (const CommandLog::Entry &e : log.channels[0].entries) {
            if (e.cmd.type == DramCommandType::Precharge && e.cmd.bank == 0)
                return e.tick;
        }
        return kMaxTick;
    };
    h.mc.enqueue(h.makeReq(addrOf(5, 0, 0), false), h.now);
    Request *held = h.makeReq(addrOf(5, 0, 1), false);
    held->availableAt = h.now + kBaselineClocks.dramToTicks(100000);
    h.mc.enqueue(held, h.now);
    h.run(200);
    ASSERT_EQ(h.completed.size(), 1u); // The ungated read.
    ASSERT_TRUE(h.channel.bank(0, 0).isOpen()); // Held hit pending.
    ASSERT_EQ(firstBank0Pre(), kMaxTick);
    for (std::uint32_t col = 0; col < 24; ++col)
        h.mc.enqueue(h.makeReq(addrOf(0, 1, col), true), h.now);
    h.run(300);
    EXPECT_LT(firstBank0Pre(), held->availableAt);
    EXPECT_FALSE(h.channel.bank(0, 0).isOpen());
}

TEST(MemController, OpenPolicyKeepsIdleRowsOpen)
{
    Harness h(SchedulerKind::FrFcfs, PagePolicyKind::Open, false);
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(300);
    EXPECT_TRUE(h.channel.bank(0, 0).isOpen());
}

TEST(MemController, DrainEntersAtHighWatermarkUnderReadLoad)
{
    Harness h;
    // A steady read presence keeps the idle-timeout drain out of the
    // picture; only the high watermark (24) may start a drain.
    for (int i = 0; i < 23; ++i)
        h.mc.enqueue(h.makeReq(addrOf(100 + i, i % 8, 0), true), h.now);
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(1);
    EXPECT_FALSE(h.mc.drainingWrites());
    h.mc.enqueue(h.makeReq(addrOf(200, 0, 1), true), h.now);
    h.run(1);
    EXPECT_TRUE(h.mc.drainingWrites());
}

TEST(MemController, DrainExitsAtLowWatermark)
{
    Harness h;
    for (int i = 0; i < 24; ++i)
        h.mc.enqueue(h.makeReq(addrOf(100 + i, i % 8, 0), true), h.now);
    // Feed a slow trickle of reads so the read queue never stays empty
    // long enough for the idle-timeout drain to take over.
    int nextRead = 0;
    while (h.mc.writeQueueLen() > 12 && h.now < Tick{} + kBaselineClocks.coreToTicks(200'000)) {
        if (h.mc.readQueueLen() == 0) {
            h.mc.enqueue(
                h.makeReq(addrOf(300 + nextRead, nextRead % 8, 0), false),
                h.now);
            ++nextRead;
        }
        h.run(10);
    }
    EXPECT_EQ(h.mc.writeQueueLen(), 12u);
    h.run(5);
    EXPECT_FALSE(h.mc.drainingWrites());
}

TEST(MemController, IdleTimeoutDrainsLoneWrite)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(5, 2, 0), true), h.now);
    // Below every watermark: only the idle timeout can serve it.
    h.run(128 + 100);
    EXPECT_EQ(h.mc.writeQueueLen(), 0u);
    EXPECT_EQ(h.mc.stats().servedWrites, 1u);
}

TEST(MemController, ForwardingMatchesExactBlockOnly)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(3, 1, 5), true), h.now);
    h.mc.enqueue(h.makeReq(addrOf(3, 1, 6), false), h.now); // Other block.
    h.run(300);
    EXPECT_EQ(h.mc.stats().forwardedReads, 0u);
}

TEST(MemController, ForwardedReadLatencyIsShort)
{
    Harness h;
    const Addr a = addrOf(3, 1, 5);
    h.mc.enqueue(h.makeReq(a, true), h.now);
    h.mc.enqueue(h.makeReq(a, false), h.now);
    h.run(300);
    ASSERT_EQ(h.mc.stats().forwardedReads, 1u);
    // The forwarded read completes in forwardLatencyCycles, far below
    // any DRAM access.
    TickSpan fwdLatency = kMaxTickSpan;
    for (const Request &r : h.completed) {
        if (!r.isWrite)
            fwdLatency = r.completedAt - r.arrivedAt;
    }
    EXPECT_LE(fwdLatency, kBaselineClocks.dramToTicks(4));
}

TEST(MemController, UnifiedQueueSchedulerSeesWritesWithoutDrain)
{
    // RL selects from reads and writes together (paper Section 4.1.3):
    // a lone write is serviced promptly without any drain trigger.
    RlConfig rl;
    rl.epsilon = 0.0;
    SchedulerParams params;
    params.rl = rl;
    DramGeometry g = Harness::makeGeom();
    Channel ch(g, DramTimings::ddr3_1600(), false);
    MemController mc(ch, makeScheduler(SchedulerKind::Rl, 16, params),
                     makePagePolicy(PagePolicyKind::OpenAdaptive), 16);
    auto req = std::make_unique<Request>();
    req->addr = 64;
    req->isWrite = true;
    req->coord.row = 2;
    Tick now{};
    mc.enqueue(req.get(), now);
    for (int i = 0; i < 60; ++i) {
        mc.tick(now);
        now += kBaselineClocks.ticksPerDram;
    }
    EXPECT_EQ(mc.stats().servedWrites, 1u);
}

TEST(MemController, RefreshClosesOpenBankFirst)
{
    Harness h; // Refresh enabled.
    const auto tm = DramTimings::ddr3_1600();
    // Open a row and leave it open (open-adaptive keeps idle rows).
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(tm.tREFI + tm.tRFC + 200);
    // Refresh happened, which required an extra precharge beyond the
    // request's own service (which never precharged).
    EXPECT_GE(h.channel.stats().refreshes, 1u);
    EXPECT_GE(h.channel.stats().precharges, 1u);
}

TEST(MemController, WriteCompletionCallbackFiresAtCas)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(2, 0, 0), true), h.now);
    h.run(2000);
    ASSERT_EQ(h.completed.size(), 1u);
    EXPECT_TRUE(h.completed[0].isWrite);
    EXPECT_GT(h.completed[0].completedAt, Tick{});
}

TEST(MemController, PerCoreLatencyAccumulates)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false, 7), h.now);
    h.run(300);
    EXPECT_GT(h.mc.stats().perCoreLatencyTicks[7], TickSpan{0});
    EXPECT_EQ(h.mc.stats().perCoreLatencyTicks[3], TickSpan{0});
}

TEST(MemController, IoCoreStatsUseOverflowSlot)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false, kIoCoreId), h.now);
    h.run(300);
    // Requests from the IO pseudo-core land in the numCores slot.
    EXPECT_EQ(h.mc.stats().perCoreReads[16], 1u);
}

/**
 * Conservation property across every scheduler x page-policy pair:
 * all requests injected eventually complete exactly once, with
 * positive latency, under random traffic.
 */
class ControllerSweep
    : public ::testing::TestWithParam<
          std::tuple<SchedulerKind, PagePolicyKind>>
{
};

TEST_P(ControllerSweep, AllRequestsCompleteOnce)
{
    const auto [sched, policy] = GetParam();
    Harness h(sched, policy);
    Pcg32 rng(2024);

    std::uint64_t injected = 0;
    for (int burst = 0; burst < 40; ++burst) {
        const int n = 1 + rng.below(6);
        for (int i = 0; i < n; ++i) {
            const Addr a =
                addrOf(rng.below(64), rng.below(8), rng.below(16));
            h.mc.enqueue(h.makeReq(a, rng.chance(0.3),
                                   rng.below(16)),
                         h.now);
            ++injected;
        }
        h.run(50 + rng.below(100));
    }
    h.run(20000); // Drain everything.
    EXPECT_EQ(h.completed.size(), injected);
    EXPECT_EQ(h.mc.readQueueLen(), 0u);
    EXPECT_EQ(h.mc.writeQueueLen(), 0u);
    for (const Request &r : h.completed) {
        if (!r.isWrite) {
            EXPECT_GT(r.completedAt, r.arrivedAt);
        }
    }
    // Hit+miss+conflict accounts for every non-forwarded CAS.
    const auto &s = h.mc.stats();
    EXPECT_EQ(s.rowHits + s.rowMisses + s.rowConflicts,
              s.servedReads + s.servedWrites);
    EXPECT_EQ(s.servedReads + s.forwardedReads + s.servedWrites,
              injected);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ControllerSweep,
    ::testing::Combine(
        ::testing::Values(SchedulerKind::FrFcfs, SchedulerKind::Fcfs,
                          SchedulerKind::FcfsBanks, SchedulerKind::ParBs,
                          SchedulerKind::Atlas, SchedulerKind::Rl,
                          SchedulerKind::Fqm, SchedulerKind::Tcm,
                          SchedulerKind::Stfm),
        ::testing::Values(PagePolicyKind::OpenAdaptive,
                          PagePolicyKind::CloseAdaptive,
                          PagePolicyKind::Rbpp, PagePolicyKind::Abpp,
                          PagePolicyKind::Open, PagePolicyKind::Close,
                          PagePolicyKind::Timer,
                          PagePolicyKind::History)));

namespace {

/**
 * One controller on one channel of a registry device, fed a seeded
 * random request stream: reads and writes over a few rows of every
 * bank (hits, misses and conflicts), some gated by availableAt as a
 * migrating backend would gate them.
 */
struct DeviceRig
{
    DeviceRig(const std::string &device, std::unique_ptr<Scheduler> sched,
              PagePolicyKind policy)
        : DeviceRig(device, std::move(sched),
                    makePagePolicy(policy, clocksOf(device)))
    {
    }

    DeviceRig(const std::string &device, std::unique_ptr<Scheduler> sched,
              std::unique_ptr<PagePolicy> policy)
        : dev(dramDeviceOrDie(device)), clk(clocksOf(device)),
          channel(dev.geometry, dev.timings, true, clk),
          mc(channel, std::move(sched), std::move(policy), 16)
    {
        mc.setCompletionCallback([this](Request *req, Tick at) {
            done.emplace_back(req->id, at);
        });
        log.attach(channel);
    }

    /**
     * Enqueue a random request at DRAM cycle @p cycle, tick @p now
     * (queue depth permitting), one in @p gateOneIn of them gated.
     * Every 3000 cycles traffic pauses for 1000 so the queues drain
     * and all-bank refreshes, which wait for every bank of a rank to
     * close, get to issue.
     */
    void
    maybeEnqueue(Pcg32 &rng, int cycle, Tick now,
                 std::uint32_t gateOneIn = 8)
    {
        if (cycle % 3000 >= 2000 || rng.below(3) != 0 ||
            mc.readQueueLen() + mc.writeQueueLen() >= 40) {
            return;
        }
        auto req = std::make_unique<Request>();
        req->id = storage.size();
        req->core = rng.below(16);
        req->isWrite = rng.below(10) < 3;
        req->coord.rank = rng.below(dev.geometry.ranksPerChannel);
        req->coord.bank = rng.below(dev.geometry.banksPerRank);
        req->coord.row = rng.below(3);
        req->coord.column = rng.below(64);
        req->addr = (((req->coord.row * 64 + req->coord.bank) * 4 +
                      req->coord.rank) * 64 + req->coord.column) * 64;
        if (rng.below(gateOneIn) == 0)
            req->availableAt = now + clk.dramToTicks(rng.below(120));
        storage.push_back(std::move(req));
        mc.enqueue(storage.back().get(), now);
    }

    /** The rig's clocks: baseline cores over @p device's bus. */
    static ClockDomains
    clocksOf(const std::string &device)
    {
        return ClockDomains::fromMhz(kBaselineClocks.coreMhz,
                                     dramDeviceOrDie(device).busMhz);
    }

    const DramDevice &dev;
    ClockDomains clk;
    Channel channel;
    MemController mc;
    std::vector<std::unique_ptr<Request>> storage;
    std::vector<std::pair<std::uint64_t, Tick>> done;
    CommandLog log;
};

const char *const kRigDevices[] = {"DDR3-1600", "DDR4-2400", "DDR5-4800",
                                   "LPDDR3-1600", "HMC2-8GB"};

/** A scheduler that forwards every call to an inner one; the checking
 *  wrappers below override the calls they observe. */
class ForwardingScheduler : public Scheduler
{
  public:
    explicit ForwardingScheduler(std::unique_ptr<Scheduler> inner)
        : inner_(std::move(inner))
    {
    }

    const char *name() const override { return inner_->name(); }
    int
    choose(const std::vector<Candidate> &cands, Tick now,
           const SchedulerContext &ctx) override
    {
        return inner_->choose(cands, now, ctx);
    }
    void onRequestArrived(const Request &r) override
    {
        inner_->onRequestArrived(r);
    }
    void onRequestServiced(const Request &r) override
    {
        inner_->onRequestServiced(r);
    }
    void tick(Tick now, const SchedulerContext &ctx) override
    {
        inner_->tick(now, ctx);
    }
    Tick nextEventAt(Tick now) const override
    {
        return inner_->nextEventAt(now);
    }
    bool unifiedQueues() const override { return inner_->unifiedQueues(); }

  private:
    std::unique_ptr<Scheduler> inner_;
};

/**
 * A scheduler wrapper that checks every candidate it is offered
 * against the channel before delegating: the next command and row-hit
 * flag the bank state gives, legalAt = max(nextLegalAt, availableAt),
 * and issuableNow = canIssue() with the gate open. It also checks that
 * the whole active pool is offered, in pool order, and notes a tick
 * that saw a non-empty pool but never offered it. Records the first
 * mismatch.
 */
class CheckedCandidates : public ForwardingScheduler
{
  public:
    using ForwardingScheduler::ForwardingScheduler;

    const Channel *channel = nullptr;
    std::string mismatch; ///< First mismatch, empty while none.
    std::uint64_t offered = 0;
    std::uint64_t blocked = 0; ///< legalAt past now.
    std::uint64_t gated = 0;   ///< availableAt set legalAt.
    std::uint64_t perCommand[4] = {};
    /** Set by tick() while the active pool is non-empty and cleared by
     *  choose(): still set after a controller tick, the pool was not
     *  offered, which only an issued refresh step may explain. */
    bool poolUnoffered = false;

    int
    choose(const std::vector<Candidate> &cands, Tick now,
           const SchedulerContext &ctx) override
    {
        poolUnoffered = false;
        if (mismatch.empty())
            mismatch = check(cands, now, ctx);
        return ForwardingScheduler::choose(cands, now, ctx);
    }
    void tick(Tick now, const SchedulerContext &ctx) override
    {
        poolUnoffered = poolSize(ctx) > 0;
        ForwardingScheduler::tick(now, ctx);
    }

  private:
    std::size_t
    poolSize(const SchedulerContext &ctx) const
    {
        return unifiedQueues() ? ctx.readQueueLen + ctx.writeQueueLen
               : ctx.drainingWrites ? ctx.writeQueueLen
                                    : ctx.readQueueLen;
    }

    std::string
    check(const std::vector<Candidate> &cands, Tick now,
          const SchedulerContext &ctx)
    {
        const std::size_t pool = poolSize(ctx);
        if (cands.size() != pool) {
            return "offered " + std::to_string(cands.size()) +
                   " of a pool of " + std::to_string(pool);
        }
        for (std::size_t i = 0; i < cands.size(); ++i) {
            const Candidate &c = cands[i];
            const Request &r = *c.req;
            if (i > 0 && cands[i - 1].req->isWrite == r.isWrite &&
                cands[i - 1].req->seq > r.seq) {
                return "candidate " + std::to_string(i) +
                       " out of pool order";
            }
            const Bank &bank = channel->bank(r.coord.rank, r.coord.bank);
            DramCommandType cmd = DramCommandType::Precharge;
            if (!bank.isOpen()) {
                cmd = DramCommandType::Activate;
            } else if (bank.openRow() == r.coord.row) {
                cmd = r.isWrite ? DramCommandType::Write
                                : DramCommandType::Read;
            }
            const DramCommand dc{cmd, r.coord.rank, r.coord.bank,
                                 r.coord.row, r.coord.column};
            const Tick legal = channel->nextLegalAt(dc, now);
            const Tick expected = std::max(legal, r.availableAt);
            const bool issuable =
                channel->canIssue(dc, now) && r.availableAt <= now;
            const bool hit = cmd == DramCommandType::Read ||
                             cmd == DramCommandType::Write;
            if (c.cmd != cmd || c.isRowHit != hit ||
                c.legalAt != expected || c.issuableNow != issuable) {
                return "request " + std::to_string(r.id) + " at tick " +
                       std::to_string(now.count()) + ": offered " +
                       dramCommandName(c.cmd) + " legal at " +
                       std::to_string(c.legalAt.count()) +
                       (c.issuableNow ? " (now)" : "") + ", expected " +
                       dramCommandName(cmd) + " legal at " +
                       std::to_string(expected.count()) +
                       (issuable ? " (now)" : "");
            }
            ++offered;
            ++perCommand[static_cast<int>(cmd)];
            blocked += expected > now;
            gated += r.availableAt > legal;
        }
        return {};
    }
};

} // namespace

TEST(MemController, LegalityCacheMatchesChannel)
{
    // After every tick, every (rank, bank, command) legal tick the
    // controller would compose at the next cycle (bank gate plus the
    // (rank, group) shared floor, clamped to the command bus and now)
    // must equal the channel's own nextLegalAt(), and must be exactly
    // the first tick canIssue() accepts: issuable now when it is at or
    // before now, else issuable at it and not one tick earlier. Covers
    // an age-ordered scheduler (FR-FCFS), a batching one (PAR-BS), one
    // with unified queues (RL) and page closures; the counts show the
    // states the check reached.
    const SchedulerKind scheds[] = {
        SchedulerKind::FrFcfs, SchedulerKind::Rl, SchedulerKind::ParBs};
    const PagePolicyKind policies[] = {PagePolicyKind::OpenAdaptive,
                                       PagePolicyKind::Close};
    const DramCommandType types[] = {
        DramCommandType::Activate, DramCommandType::Read,
        DramCommandType::Write, DramCommandType::Precharge};
    for (const char *device : kRigDevices) {
        for (const SchedulerKind sched : scheds) {
            for (const PagePolicyKind policy : policies) {
                SCOPED_TRACE(std::string(device) + " / " +
                             schedulerKindName(sched) + " / " +
                             pagePolicyKindName(policy));
                const DramDevice &dev = dramDeviceOrDie(device);
                const ClockDomains clk = ClockDomains::fromMhz(
                    kBaselineClocks.coreMhz, dev.busMhz);
                DeviceRig rig(device,
                              makeScheduler(sched, 16, SchedulerParams{},
                                            clk, dev.timings),
                              policy);
                Pcg32 rng(7, static_cast<std::uint64_t>(sched));
                std::uint64_t legal = 0;   // Entries the bank state allows.
                std::uint64_t blocked = 0; // ... not legal at now yet.
                std::uint64_t casBlocked = 0;
                Tick now{};
                // Long enough for all-bank refreshes (tREFI is 6240
                // DDR3 cycles) as well as REFpb.
                for (int cycle = 0; cycle < 14000; ++cycle) {
                    rig.maybeEnqueue(rng, cycle, now);
                    rig.mc.tick(now);
                    now += clk.dramToTicks(1);
                    for (std::uint32_t r = 0;
                         r < dev.geometry.ranksPerChannel; ++r) {
                        for (std::uint32_t b = 0;
                             b < dev.geometry.banksPerRank; ++b) {
                            const std::uint64_t row =
                                rig.channel.bank(r, b).openRow();
                            for (const DramCommandType t : types) {
                                const DramCommand dc{t, r, b, row, 0};
                                const Tick composed =
                                    rig.mc.composedLegalAt(r, b, t, now);
                                // Streamed only on a failure.
                                const auto where = [&] {
                                    return std::string(dramCommandName(t)) +
                                           " rank " + std::to_string(r) +
                                           " bank " + std::to_string(b) +
                                           " cycle " + std::to_string(cycle);
                                };
                                ASSERT_EQ(composed,
                                          rig.channel.nextLegalAt(dc, now))
                                    << where();
                                ASSERT_EQ(rig.channel.canIssue(dc, now),
                                          composed <= now)
                                    << where();
                                if (composed == kMaxTick)
                                    continue;
                                ++legal;
                                if (composed > now) {
                                    ++blocked;
                                    casBlocked +=
                                        t == DramCommandType::Read ||
                                        t == DramCommandType::Write;
                                    ASSERT_TRUE(
                                        rig.channel.canIssue(dc, composed))
                                        << where();
                                    ASSERT_FALSE(rig.channel.canIssue(
                                        dc, composed - TickSpan{1}))
                                        << where();
                                }
                            }
                        }
                    }
                }
                EXPECT_GT(legal, 0u);
                EXPECT_GT(blocked, 0u);
                EXPECT_GT(casBlocked, 0u);
                EXPECT_GT(rig.done.size(), 100u);
                EXPECT_GT(rig.channel.stats().refreshes, 0u);
            }
        }
    }
}

TEST(MemController, CandidatesMatchBankState)
{
    // Every scheduler is offered the whole active pool in pool order,
    // and every candidate carries the command, row-hit flag, legal tick
    // and issuability the channel's bank state gives, with a fifth of
    // the requests gated. Ticked every cycle, so candidates kept and
    // re-clamped between rebuilds are checked too.
    const SchedulerKind scheds[] = {
        SchedulerKind::FrFcfs, SchedulerKind::Fcfs,
        SchedulerKind::FcfsBanks, SchedulerKind::ParBs,
        SchedulerKind::Atlas, SchedulerKind::Rl};
    const PagePolicyKind policies[] = {PagePolicyKind::OpenAdaptive,
                                       PagePolicyKind::Close};
    for (const char *device :
         {"DDR3-1600", "DDR5-4800", "LPDDR3-1600", "HMC2-8GB"}) {
        for (const SchedulerKind sched : scheds) {
            for (const PagePolicyKind policy : policies) {
                SCOPED_TRACE(std::string(device) + " / " +
                             schedulerKindName(sched) + " / " +
                             pagePolicyKindName(policy));
                const DramDevice &dev = dramDeviceOrDie(device);
                const ClockDomains clk = ClockDomains::fromMhz(
                    kBaselineClocks.coreMhz, dev.busMhz);
                auto checked = std::make_unique<CheckedCandidates>(
                    makeScheduler(sched, 16, SchedulerParams{}, clk,
                                  dev.timings));
                CheckedCandidates &check = *checked;
                DeviceRig rig(device, std::move(checked), policy);
                check.channel = &rig.channel;
                const auto &issued = rig.log.channels[0].entries;
                Pcg32 rng(13, static_cast<std::uint64_t>(sched));
                Tick now{};
                for (int cycle = 0; cycle < 14000; ++cycle) {
                    rig.maybeEnqueue(rng, cycle, now, 5);
                    rig.mc.tick(now);
                    ASSERT_EQ(check.mismatch, "") << "cycle " << cycle;
                    ASSERT_TRUE(!check.poolUnoffered ||
                                (!issued.empty() &&
                                 issued.back().tick == now))
                        << "cycle " << cycle << ": pool not offered";
                    now += clk.dramToTicks(1);
                }
                EXPECT_GT(check.blocked, 0u);
                EXPECT_GT(check.gated, 0u);
                for (const std::uint64_t n : check.perCommand)
                    EXPECT_GT(n, 0u);
                EXPECT_GT(rig.done.size(), 100u);
            }
        }
    }
}

TEST(MemController, BankHeadsMatchPerRequestCandidates)
{
    // The age-ordered schedulers (FR-FCFS, FCFS, FCFS_banks), offered
    // one candidate per queued request like every other scheduler,
    // stepped on their own wake-up hints (tick()'s return value) the
    // way the event kernel steps them, must issue the command stream
    // and complete the requests, at the same ticks, that the same
    // controller ticked every cycle does. A fifth of the requests are
    // gated by availableAt, whose gates the hints must also wake for.
    // (The name is kept from the bank-head candidate path the
    // per-request candidates replaced.)
    const SchedulerKind scheds[] = {SchedulerKind::FrFcfs,
                                    SchedulerKind::Fcfs,
                                    SchedulerKind::FcfsBanks};
    const PagePolicyKind policies[] = {PagePolicyKind::OpenAdaptive,
                                       PagePolicyKind::CloseAdaptive,
                                       PagePolicyKind::Close};
    constexpr int kCycles = 14000;
    for (const char *device : {"DDR3-1600", "DDR5-4800", "LPDDR3-1600"}) {
        for (const SchedulerKind sched : scheds) {
            for (const PagePolicyKind policy : policies) {
                SCOPED_TRACE(std::string(device) + " / " +
                             schedulerKindName(sched) + " / " +
                             pagePolicyKindName(policy));
                const ClockDomains clk = DeviceRig::clocksOf(device);
                DeviceRig hinted(device, makeScheduler(sched, 16), policy);
                DeviceRig every(device, makeScheduler(sched, 16), policy);
                Pcg32 rngA(11, static_cast<std::uint64_t>(sched));
                Pcg32 rngB(11, static_cast<std::uint64_t>(sched));
                Tick due{};
                int hintedTicks = 0;
                Tick now{};
                for (int cycle = 0; cycle < kCycles; ++cycle) {
                    const std::size_t queued = hinted.storage.size();
                    hinted.maybeEnqueue(rngA, cycle, now, 5);
                    every.maybeEnqueue(rngB, cycle, now, 5);
                    if (hinted.storage.size() != queued)
                        due = now; // Arrivals re-arm the controller.
                    if (due <= now) {
                        due = hinted.mc.tick(now);
                        ++hintedTicks;
                        ASSERT_GT(due, now);
                    }
                    every.mc.tick(now);
                    now += clk.dramToTicks(1);
                }
                EXPECT_EQ(hinted.log.firstDivergence(every.log), "");
                EXPECT_EQ(hinted.done, every.done);
                EXPECT_GT(hinted.done.size(), 100u);
                EXPECT_GT(hinted.channel.stats().refreshes, 0u);
                // The hints skipped cycles, so the comparison is not
                // one of two identical loops.
                EXPECT_LT(hintedTicks, kCycles);
            }
        }
    }
}

namespace {

/**
 * A scheduler wrapper that keeps the live request pool: every request
 * between onRequestArrived() and onRequestServiced(), plus the drain
 * mode each tick() reports.
 */
class PoolTracker : public ForwardingScheduler
{
  public:
    using ForwardingScheduler::ForwardingScheduler;

    std::vector<const Request *> live;
    bool draining = false;
    std::uint64_t drainFlips = 0;

    /** Is @p r in the active pool: the read queue, or the write queue
     *  while draining; both with unified queues. */
    bool
    active(const Request &r) const
    {
        return unifiedQueues() || r.isWrite == draining;
    }

    void onRequestArrived(const Request &r) override
    {
        live.push_back(&r);
        ForwardingScheduler::onRequestArrived(r);
    }
    void onRequestServiced(const Request &r) override
    {
        live.erase(std::find(live.begin(), live.end(), &r));
        ForwardingScheduler::onRequestServiced(r);
    }
    void tick(Tick now, const SchedulerContext &ctx) override
    {
        drainFlips += ctx.drainingWrites != draining;
        draining = ctx.drainingWrites;
        ForwardingScheduler::tick(now, ctx);
    }
};

/**
 * A page-policy wrapper that checks every shouldClose() query's
 * pendingHit and pendingConflict against the live active pool a
 * PoolTracker keeps, before delegating. Records the first mismatch.
 */
class CheckedPageQueries : public PagePolicy
{
  public:
    CheckedPageQueries(std::unique_ptr<PagePolicy> inner,
                       const PoolTracker &pool)
        : inner_(std::move(inner)), pool_(pool)
    {
    }

    std::string mismatch; ///< First mismatch, empty while none.
    /** Queries seen, by [pendingHit][pendingConflict]. */
    std::uint64_t queries[2][2] = {};

    const char *name() const override { return inner_->name(); }
    bool
    shouldClose(const PageQuery &q) override
    {
        bool hit = false;
        bool conflict = false;
        for (const Request *r : pool_.live) {
            if (r->coord.rank == q.rank && r->coord.bank == q.bank &&
                pool_.active(*r)) {
                (r->coord.row == q.openRow ? hit : conflict) = true;
            }
        }
        if (mismatch.empty() &&
            (q.pendingHit != hit || q.pendingConflict != conflict)) {
            mismatch = "rank " + std::to_string(q.rank) + " bank " +
                       std::to_string(q.bank) + " at tick " +
                       std::to_string(q.now.count()) + ": pending hit " +
                       std::to_string(q.pendingHit) + " conflict " +
                       std::to_string(q.pendingConflict) + ", pool has " +
                       std::to_string(hit) + " and " +
                       std::to_string(conflict);
        }
        ++queries[hit][conflict];
        return inner_->shouldClose(q);
    }
    Tick
    nextCloseEventAt(const PageQuery &q) const override
    {
        return inner_->nextCloseEventAt(q);
    }
    void
    onActivate(std::uint32_t rank, std::uint32_t bank,
               std::uint64_t row) override
    {
        inner_->onActivate(rank, bank, row);
    }
    void
    onPrecharge(std::uint32_t rank, std::uint32_t bank, std::uint64_t row,
                std::uint32_t accesses) override
    {
        inner_->onPrecharge(rank, bank, row, accesses);
    }

  private:
    std::unique_ptr<PagePolicy> inner_;
    const PoolTracker &pool_;
};

} // namespace

TEST(MemController, PageQueriesMatchActivePool)
{
    // The page policy's pendingHit / pendingConflict flags describe the
    // active pool as it is at the query: the read queue, or the write
    // queue while draining (both for RL's unified queues), against the
    // bank's open row. The pool is tracked independently of the
    // controller, through the scheduler's arrival and service calls
    // and the drain mode its tick() sees. Ticked every cycle, so
    // queries between candidate rebuilds are checked too.
    const SchedulerKind scheds[] = {
        SchedulerKind::FrFcfs, SchedulerKind::ParBs, SchedulerKind::Rl};
    const PagePolicyKind policies[] = {PagePolicyKind::OpenAdaptive,
                                       PagePolicyKind::CloseAdaptive};
    for (const char *device : {"DDR3-1600", "DDR5-4800", "HMC2-8GB"}) {
        for (const SchedulerKind sched : scheds) {
            for (const PagePolicyKind policy : policies) {
                SCOPED_TRACE(std::string(device) + " / " +
                             schedulerKindName(sched) + " / " +
                             pagePolicyKindName(policy));
                const DramDevice &dev = dramDeviceOrDie(device);
                const ClockDomains clk = DeviceRig::clocksOf(device);
                auto tracker = std::make_unique<PoolTracker>(makeScheduler(
                    sched, 16, SchedulerParams{}, clk, dev.timings));
                PoolTracker &pool = *tracker;
                auto checked = std::make_unique<CheckedPageQueries>(
                    makePagePolicy(policy, clk), pool);
                CheckedPageQueries &check = *checked;
                DeviceRig rig(device, std::move(tracker),
                              std::move(checked));
                Pcg32 rng(17, static_cast<std::uint64_t>(sched));
                Tick now{};
                for (int cycle = 0; cycle < 14000; ++cycle) {
                    rig.maybeEnqueue(rng, cycle, now, 5);
                    rig.mc.tick(now);
                    ASSERT_EQ(check.mismatch, "") << "cycle " << cycle;
                    now += clk.dramToTicks(1);
                }
                // Each flag was seen true and false.
                const auto &n = check.queries;
                EXPECT_GT(n[1][0] + n[1][1], 0u); // pendingHit
                EXPECT_GT(n[0][0] + n[0][1], 0u);
                EXPECT_GT(n[0][1] + n[1][1], 0u); // pendingConflict
                EXPECT_GT(n[0][0] + n[1][0], 0u);
                EXPECT_GT(pool.drainFlips, 0u);
                EXPECT_GT(rig.done.size(), 100u);
            }
        }
    }
}
