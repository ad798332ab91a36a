/**
 * @file
 * Full-system protocol validation: log every channel of a complete
 * System run (cores + caches + controller + refresh + every
 * scheduler), replay each channel through the independent
 * TimingChecker on that channel's own timings and clocks, and assert
 * that not one of the tens of thousands of issued DRAM commands
 * violates a JEDEC constraint. This closes the loop the unit fuzz
 * test opens: the fuzz drives the channel with synthetic traffic;
 * this drives it with the real controller under real workloads.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "dram/channel.hh"
#include "dram/command_log.hh"
#include "dram/devices.hh"
#include "dram/timing_checker.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

/** Run @p wl on @p cfg with every channel's commands logged. */
CommandLog
runLogged(const SimConfig &cfg, WorkloadId wl)
{
    System sys(cfg, workloadPreset(wl));
    CommandLog log;
    log.attachAll(sys);
    (void)sys.run();
    return log;
}

/** "DDR4-2400" -> "DDR4_2400": a device name as a test name. */
std::string
deviceTestName(const ::testing::TestParamInfo<const char *> &info)
{
    std::string name = info.param;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

} // namespace

class ProtocolValidation
    : public ::testing::TestWithParam<SchedulerKind>
{
};

TEST_P(ProtocolValidation, SystemRunIssuesOnlyLegalCommands)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.scheduler = GetParam();
    cfg.warmupCoreCycles = 50'000;
    cfg.measureCoreCycles = 250'000;
    const CommandLog log = runLogged(cfg, WorkloadId::DS);
    EXPECT_GT(log.count(), 1000u) << "run produced too few commands";
    EXPECT_EQ(log.firstViolation(), "");
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ProtocolValidation,
    ::testing::Values(SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks,
                      SchedulerKind::ParBs, SchedulerKind::Atlas,
                      SchedulerKind::Rl, SchedulerKind::Fqm,
                      SchedulerKind::Tcm, SchedulerKind::Stfm));

TEST(ProtocolValidationMultiChannel, FourChannelsAllLegal)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.dram.channels = 4;
    cfg.mapping = MappingScheme::RoChRaBaCo;
    cfg.warmupCoreCycles = 50'000;
    cfg.measureCoreCycles = 250'000;
    const CommandLog log = runLogged(cfg, WorkloadId::TPCHQ6);
    EXPECT_EQ(log.firstViolation(), "");
    // Every channel saw traffic.
    ASSERT_EQ(log.channels.size(), 4u);
    for (const auto &channel : log.channels)
        EXPECT_GT(channel.entries.size(), 100u);
}

TEST(ProtocolValidationPolicies, ClosePolicyStillLegal)
{
    // Close-page issues the most precharges; validate it separately.
    SimConfig cfg = SimConfig::baseline();
    cfg.pagePolicy = PagePolicyKind::Close;
    cfg.warmupCoreCycles = 50'000;
    cfg.measureCoreCycles = 200'000;
    EXPECT_EQ(runLogged(cfg, WorkloadId::MS).firstViolation(), "");
}

/**
 * Bank-group devices: full-system runs on the real split timings
 * (tCCD_L/tRRD_L/tWTR_L now bound by the checker too) must stay
 * violation-free under both group-bit placements, and LPDDR3's
 * per-bank refresh stream must satisfy the REFpb rules. The devices
 * whose bus clock puts a DRAM cycle at other than 5 ticks (DDR3-1066,
 * -1333 and -1866 at 2000 ticks, HMC2's vaults at 8) are refereed on
 * that grid, since every checker runs on its channel's own clocks.
 */
class ProtocolValidationDevices
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ProtocolValidationDevices, GroupTimingRunsAllLegal)
{
    for (const auto gm : kAllBankGroupMappings) {
        SimConfig cfg = SimConfig::baseline();
        cfg.applyDevice(dramDeviceOrDie(GetParam()));
        cfg.bankGroupMapping = gm;
        cfg.warmupCoreCycles = 50'000;
        cfg.measureCoreCycles = 200'000;
        SCOPED_TRACE(bankGroupMappingName(gm));
        const CommandLog log = runLogged(cfg, WorkloadId::DS);
        EXPECT_EQ(log.firstViolation(), "");
        EXPECT_GT(log.count(), 1000u) << "run produced too few commands";
    }
}

INSTANTIATE_TEST_SUITE_P(BankGroupAndPerBankRefreshDevices,
                         ProtocolValidationDevices,
                         ::testing::Values("DDR4-2400", "DDR5-4800",
                                           "LPDDR3-1600"),
                         deviceTestName);

INSTANTIATE_TEST_SUITE_P(NonBaselineClockGrids, ProtocolValidationDevices,
                         ::testing::Values("DDR3-1066", "DDR3-1333",
                                           "DDR3-1866", "HMC2-8GB"),
                         deviceTestName);

namespace {

/** DDR4 timings + a checker with rows opened where a test needs them. */
struct Ddr4Fixture
{
    Ddr4Fixture()
        : dev(dramDeviceOrDie("DDR4-2400")),
          clk(ClockDomains::fromMhz(2000, dev.busMhz)),
          chk(dev.geometry, dev.timings, clk)
    {
    }

    /** The instant @p c DRAM cycles after the time origin. */
    Tick cyc(std::uint32_t c) const { return Tick{} + clk.dramToTicks(c); }
    /** @p c DRAM cycles as a tick span. */
    TickSpan dur(std::uint32_t c) const { return clk.dramToTicks(c); }

    const DramDevice &dev;
    ClockDomains clk;
    TimingChecker chk;
};

} // namespace

TEST(ProtocolValidationGroups, TccdLViolationRejected)
{
    Ddr4Fixture f;
    const DramTimings &tm = f.dev.timings;
    ASSERT_GT(tm.tCCDL, tm.tCCD);
    // Open the same-group bank pair (banks 0 and 1, group 0).
    DramCoord a{0, 0, 0, 5, 0}, b{0, 0, 1, 7, 0};
    ASSERT_EQ(f.chk.check(DramCommand::activate(a), Tick{}), "");
    ASSERT_EQ(f.chk.check(DramCommand::activate(b), f.cyc(1000)), "");
    const Tick rd = f.cyc(2000);
    ASSERT_EQ(f.chk.check(DramCommand::read(a), rd), "");
    // Past tCCD_S but short of tCCD_L: same group, must be rejected.
    const std::string err =
        f.chk.check(DramCommand::read(b), rd + f.dur(tm.tCCDL) - TickSpan{1});
    EXPECT_NE(err.find("tCCD_L"), std::string::npos) << err;
    // At tCCD_L it goes through.
    EXPECT_EQ(f.chk.check(DramCommand::read(b), rd + f.dur(tm.tCCDL)),
              "");
}

TEST(ProtocolValidationGroups, TrrdLViolationRejected)
{
    Ddr4Fixture f;
    const DramTimings &tm = f.dev.timings;
    ASSERT_GT(tm.tRRDL, tm.tRRD);
    DramCoord a{0, 0, 0, 5, 0};
    DramCoord sameGroup{0, 0, 1, 5, 0};
    ASSERT_EQ(f.chk.check(DramCommand::activate(a), Tick{}), "");
    // Legal for tRRD_S, illegal for tRRD_L: same bank group.
    const std::string err = f.chk.check(DramCommand::activate(sameGroup),
                                        f.cyc(tm.tRRDL) - TickSpan{1});
    EXPECT_NE(err.find("tRRD_L"), std::string::npos) << err;
    EXPECT_EQ(
        f.chk.check(DramCommand::activate(sameGroup), f.cyc(tm.tRRDL)),
        "");
    // A different group is held only to tRRD_S.
    DramCoord otherGroup{0, 0, f.dev.geometry.banksPerGroup(), 5, 0};
    EXPECT_EQ(f.chk.check(DramCommand::activate(otherGroup),
                          f.cyc(tm.tRRDL) + f.dur(tm.tRRD)),
              "");
}

TEST(ProtocolValidationGroups, TfawCountsActsAcrossGroups)
{
    Ddr4Fixture f;
    const DramTimings &tm = f.dev.timings;
    // Four ACTs to four *different* bank groups, spaced by tRRD_S —
    // legal (tRRD_L never binds across groups), all in one tFAW
    // window.
    ASSERT_LT(3 * tm.tRRD, tm.tFAW);
    const std::uint32_t bpg = f.dev.geometry.banksPerGroup();
    for (std::uint32_t g = 0; g < 4; ++g) {
        DramCoord c{0, 0, g * bpg, 1, 0};
        ASSERT_EQ(
            f.chk.check(DramCommand::activate(c), Tick{} + g * f.dur(tm.tRRD)),
            "")
            << "group " << g;
    }
    // The fifth ACT — to yet another bank — must trip tFAW even
    // though every prior ACT went to a different group.
    DramCoord fifth{0, 0, 1, 1, 0};
    const Tick at = Tick{} + 4 * f.dur(tm.tRRD);
    ASSERT_LT(at, f.cyc(tm.tFAW));
    const std::string err = f.chk.check(DramCommand::activate(fifth), at);
    EXPECT_NE(err.find("tFAW"), std::string::npos) << err;
}

TEST(ProtocolValidationPerBankRefresh, OtherBanksStaySchedulable)
{
    const DramDevice &dev = dramDeviceOrDie("LPDDR3-1600");
    ASSERT_TRUE(dev.timings.perBankRefresh);
    const ClockDomains clk = ClockDomains::fromMhz(2000, dev.busMhz);
    const auto cyc = [&clk](std::uint32_t c) {
        return Tick{} + clk.dramToTicks(c);
    };

    // Channel: a REFpb to bank 0 leaves bank 1 activatable right on
    // the next command cycle, while bank 0 is blocked for tRFCpb.
    Channel chan(dev.geometry, dev.timings, /*enableRefresh=*/false, clk);
    chan.issue(DramCommand::refreshBank(0, 0), Tick{});
    DramCoord b1{0, 0, 1, 3, 0};
    EXPECT_TRUE(chan.canIssue(DramCommand::activate(b1), cyc(1)));
    DramCoord b0{0, 0, 0, 3, 0};
    EXPECT_FALSE(chan.canIssue(DramCommand::activate(b0),
                               cyc(dev.timings.tRFCpb) - TickSpan{1}));
    EXPECT_TRUE(
        chan.canIssue(DramCommand::activate(b0), cyc(dev.timings.tRFCpb)));

    // Checker: the same sequence is accepted, and the too-early ACT to
    // the refreshed bank is named as a tRFCpb violation.
    TimingChecker chk(dev.geometry, dev.timings, clk);
    EXPECT_EQ(chk.check(DramCommand::refreshBank(0, 0), Tick{}), "");
    EXPECT_EQ(chk.check(DramCommand::activate(b1), cyc(1)), "");
    const std::string err = chk.check(DramCommand::activate(b0),
                                      cyc(dev.timings.tRFCpb) - TickSpan{1});
    EXPECT_NE(err.find("tRFCpb"), std::string::npos) << err;
}

TEST(ProtocolValidationPerBankRefresh, RefpbToOpenBankRejected)
{
    const DramDevice &dev = dramDeviceOrDie("LPDDR3-1600");
    const ClockDomains clk = ClockDomains::fromMhz(2000, dev.busMhz);
    TimingChecker chk(dev.geometry, dev.timings, clk);
    DramCoord b0{0, 0, 0, 3, 0};
    ASSERT_EQ(chk.check(DramCommand::activate(b0), Tick{}), "");
    // The open bank cannot be refreshed, but its closed neighbor can.
    const std::string err =
        chk.check(DramCommand::refreshBank(0, 0),
                  Tick{} + clk.dramToTicks(100));
    EXPECT_NE(err.find("open bank"), std::string::npos) << err;
    EXPECT_EQ(chk.check(DramCommand::refreshBank(0, 1),
                        Tick{} + clk.dramToTicks(100)),
              "");
}
