/**
 * @file
 * ExperimentOptions tests: flag parsing, every name table, error
 * reporting, and usage generation. FlagSet tests: typed values,
 * positionals, and the exit-2 errors of the bench/example parser.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "dram/devices.hh"
#include "sim/experiment.hh"
#include "sim/options.hh"

using namespace mcsim;

namespace {

/** Run parse() over a list of string arguments. */
std::string
parseArgs(ExperimentOptions &opts, std::vector<std::string> args)
{
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (auto &a : args)
        argv.push_back(a.data());
    return opts.parse(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Options, DefaultsMatchBaseline)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {}), "");
    EXPECT_EQ(opts.workload, WorkloadId::DS);
    EXPECT_EQ(opts.config.scheduler, SchedulerKind::FrFcfs);
    EXPECT_EQ(opts.config.pagePolicy, PagePolicyKind::OpenAdaptive);
    EXPECT_EQ(opts.config.dram.channels, 1u);
    EXPECT_FALSE(opts.csv);
    EXPECT_FALSE(opts.helpRequested);
}

TEST(Options, ParsesFullConfiguration)
{
    ExperimentOptions opts;
    const std::string err = parseArgs(
        opts, {"--workload", "TPCH-Q6", "--scheduler", "TCM", "--policy",
               "History", "--mapping", "PermBaXor", "--channels", "4",
               "--warmup", "123000", "--measure", "456000", "--seed",
               "42", "--csv"});
    EXPECT_EQ(err, "");
    EXPECT_EQ(opts.workload, WorkloadId::TPCHQ6);
    EXPECT_EQ(opts.config.scheduler, SchedulerKind::Tcm);
    EXPECT_EQ(opts.config.pagePolicy, PagePolicyKind::History);
    EXPECT_EQ(opts.config.mapping, MappingScheme::PermBaXor);
    EXPECT_EQ(opts.config.dram.channels, 4u);
    EXPECT_EQ(opts.config.warmupCoreCycles, 123'000u);
    EXPECT_EQ(opts.config.measureCoreCycles, 456'000u);
    EXPECT_EQ(opts.config.seed, 42u);
    EXPECT_TRUE(opts.csv);
}

TEST(Options, BareAcronymSelectsWorkload)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"WSPEC99"}), "");
    EXPECT_EQ(opts.workload, WorkloadId::WSPEC99);
    EXPECT_TRUE(opts.positional.empty());
}

TEST(Options, UnknownPositionalIsKept)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"some-file.trace"}), "");
    ASSERT_EQ(opts.positional.size(), 1u);
    EXPECT_EQ(opts.positional[0], "some-file.trace");
}

TEST(Options, EveryNameTableRoundtrips)
{
    for (auto w : kAllWorkloads) {
        ExperimentOptions opts;
        EXPECT_EQ(parseArgs(opts, {"--workload", workloadAcronym(w)}),
                  "");
        EXPECT_EQ(opts.workload, w);
    }
    for (auto k : {SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks,
                   SchedulerKind::ParBs, SchedulerKind::Atlas,
                   SchedulerKind::Rl, SchedulerKind::Fcfs,
                   SchedulerKind::Fqm, SchedulerKind::Tcm}) {
        ExperimentOptions opts;
        EXPECT_EQ(parseArgs(opts, {"--scheduler", schedulerKindName(k)}),
                  "");
        EXPECT_EQ(opts.config.scheduler, k);
    }
    for (auto s : kExtendedMappingSchemes) {
        ExperimentOptions opts;
        EXPECT_EQ(parseArgs(opts, {"--mapping", mappingSchemeName(s)}),
                  "");
        EXPECT_EQ(opts.config.mapping, s);
    }
}

TEST(Options, RejectsBadValues)
{
    const std::array<std::vector<std::string>, 9> bad = {{
        {"--workload", "NOPE"},
        {"--scheduler", "LRU"},
        {"--policy", "YOLO"},
        {"--mapping", "RoWrong"},
        {"--channels", "3"},
        {"--measure", "0"},
        {"--flag-that-does-not-exist"},
        // 2^32 does not fit the stored 32-bit counts.
        {"--channels", "4294967296"},
        {"--device", "HMC2-8GB", "--vaults", "4294967296"},
    }};
    for (const auto &args : bad) {
        ExperimentOptions opts;
        EXPECT_NE(parseArgs(opts, args), "") << args[0];
    }
}

TEST(Options, RejectsMissingValues)
{
    for (const char *flag : {"--workload", "--scheduler", "--policy",
                             "--mapping", "--channels", "--seed"}) {
        ExperimentOptions opts;
        EXPECT_NE(parseArgs(opts, {flag}), "") << flag;
    }
}

TEST(Options, FastDividesWindows)
{
    ExperimentOptions opts;
    const auto warm = opts.config.warmupCoreCycles;
    const auto meas = opts.config.measureCoreCycles;
    EXPECT_EQ(parseArgs(opts, {"--fast", "4"}), "");
    EXPECT_EQ(opts.config.warmupCoreCycles, warm / 4);
    EXPECT_EQ(opts.config.measureCoreCycles, meas / 4);
}

TEST(Options, FastClampsMeasureFloor)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--fast", "1000000"}), "");
    EXPECT_EQ(opts.config.measureCoreCycles, 100'000u);
}

TEST(Options, FairnessFlagPropagatesToSpec)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--fairness"}), "");
    EXPECT_TRUE(opts.fairness);

    // --fairness before --config marks the loaded sweep too.
    const std::string path =
        std::string(::testing::TempDir()) + "/cloudmc_fairopts.spec";
    {
        std::ofstream out(path);
        out << "workload = WS\n";
    }
    ExperimentOptions before;
    EXPECT_EQ(parseArgs(before, {"--fairness", "--config", path}), "");
    EXPECT_TRUE(before.fairness);
    EXPECT_TRUE(before.spec.fairness);

    // A spec with `fairness = on` turns the option on as well.
    {
        std::ofstream out(path);
        out << "fairness = on\n";
    }
    ExperimentOptions fromSpec;
    EXPECT_EQ(parseArgs(fromSpec, {"--config", path}), "");
    EXPECT_TRUE(fromSpec.fairness);
    EXPECT_TRUE(fromSpec.spec.fairness);
    std::remove(path.c_str());
}

TEST(Options, HelpFlagSetsRequest)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--help"}), "");
    EXPECT_TRUE(opts.helpRequested);
}

TEST(Options, UsageListsEverything)
{
    const std::string u = ExperimentOptions::usage("tool");
    EXPECT_NE(u.find("tool"), std::string::npos);
    for (auto w : kAllWorkloads)
        EXPECT_NE(u.find(workloadAcronym(w)), std::string::npos);
    EXPECT_NE(u.find("TCM"), std::string::npos);
    EXPECT_NE(u.find("History"), std::string::npos);
    EXPECT_NE(u.find("PermChBaXor"), std::string::npos);
    // Devices joined the enumerations with the registry refactor.
    EXPECT_NE(u.find("DDR4-2400"), std::string::npos);
    EXPECT_NE(u.find("LPDDR3-1600"), std::string::npos);
}

TEST(Options, ListFlagEnumeratesEverything)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--list"}), "");
    EXPECT_TRUE(opts.listRequested);
    const std::string l = ExperimentOptions::listText();
    for (const DramDevice &d : dramDeviceRegistry())
        EXPECT_NE(l.find(d.name), std::string::npos);
    EXPECT_NE(l.find("schedulers:"), std::string::npos);
    EXPECT_NE(l.find("policies:"), std::string::npos);
    EXPECT_NE(l.find("mappings:"), std::string::npos);
    EXPECT_NE(l.find("workloads:"), std::string::npos);
}

TEST(Options, DeviceFlagAppliesRegistryEntry)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--device", "DDR4-2400", "--channels",
                               "2"}),
              "");
    EXPECT_EQ(opts.config.deviceName, "DDR4-2400");
    EXPECT_EQ(opts.config.clocks.dramMhz, 1200u);
    EXPECT_EQ(opts.config.dram.channels, 2u);
    EXPECT_EQ(opts.config.dram.banksPerRank, 16u);

    ExperimentOptions bad;
    EXPECT_NE(parseArgs(bad, {"--device", "SDRAM-133"}), "");
    EXPECT_NE(parseArgs(bad, {"--device"}), "");
}

TEST(Options, ConfigFlagLoadsASpec)
{
    const std::string path = std::string(::testing::TempDir()) +
                             "/cloudmc_optspec.spec";
    {
        std::ofstream out(path);
        out << "devices = DDR3-1600, DDR4-2400\n"
            << "workload = WS\n"
            << "seed = 11\n";
    }
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--config", path}), "");
    EXPECT_TRUE(opts.hasSpec);
    EXPECT_EQ(opts.spec.pointCount(), 2u);
    EXPECT_EQ(opts.workload, WorkloadId::WS);
    EXPECT_EQ(opts.config.seed, 11u); // Scalars merge into config.

    ExperimentOptions missing;
    const std::string err =
        parseArgs(missing, {"--config", "/no/such.spec"});
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Options, AxisFlagsAfterConfigCollapseTheSweep)
{
    const std::string path = std::string(::testing::TempDir()) +
                             "/cloudmc_optspec_override.spec";
    {
        std::ofstream out(path);
        out << "devices = DDR3-1600, DDR4-2400, LPDDR3-1600\n"
            << "schedulers = FR-FCFS, ATLAS\n"
            << "workloads = WS, DS\n";
    }
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--config", path, "--device",
                               "DDR4-2400", "--workload", "WS"}),
              "");
    // Each axis flag after --config narrows that axis to one value;
    // untouched axes keep the spec's lists.
    ASSERT_EQ(opts.spec.devices.size(), 1u);
    EXPECT_EQ(opts.spec.devices[0], "DDR4-2400");
    ASSERT_EQ(opts.spec.workloads.size(), 1u);
    EXPECT_EQ(opts.spec.workloads[0], WorkloadId::WS);
    EXPECT_EQ(opts.spec.schedulers.size(), 2u);
    EXPECT_EQ(opts.spec.pointCount(), 2u);
    std::remove(path.c_str());
}

TEST(Options, NegativeNumbersAreRejected)
{
    ExperimentOptions opts;
    EXPECT_NE(parseArgs(opts, {"--seed", "-3"}), "");
    EXPECT_NE(parseArgs(opts, {"--measure", "-1"}), "");
}

TEST(Options, BackendFlagSelectsStackedPart)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--backend", "stacked", "--vaults", "8",
                               "--remap", "on"}),
              "");
    EXPECT_EQ(opts.config.deviceName, "HMC2-8GB");
    EXPECT_EQ(opts.config.backend, MemBackendKind::StackedDram);
    EXPECT_EQ(opts.config.dram.vaultsPerStack, 8u);
    EXPECT_TRUE(opts.config.remap.enabled);

    // --backend flat on the (flat) baseline is a no-op.
    ExperimentOptions flat;
    EXPECT_EQ(parseArgs(flat, {"--backend", "flat"}), "");
    EXPECT_EQ(flat.config.backend, MemBackendKind::FlatDram);
}

TEST(Options, StackedOnlyFlagsAreNamedErrorsOnFlat)
{
    ExperimentOptions opts;
    std::string err = parseArgs(opts, {"--remap", "on"});
    EXPECT_NE(err.find("stacked backend only"), std::string::npos)
        << err;

    err = parseArgs(opts, {"--vaults", "8"});
    EXPECT_NE(err.find("stacked backend only"), std::string::npos)
        << err;

    err = parseArgs(opts, {"--vaults", "3", "--backend", "stacked"});
    EXPECT_NE(err.find("power-of-two"), std::string::npos) << err;

    err = parseArgs(opts, {"--device", "HMC2-8GB", "--backend", "flat"});
    EXPECT_NE(err.find("stacked part"), std::string::npos) << err;

    // --vaults runs the same capacity check as the spec key.
    ExperimentOptions huge;
    err = parseArgs(huge, {"--device", "HMC2-8GB", "--vaults", "8388608"});
    EXPECT_NE(err.find("vault count 8388608 cannot preserve device "
                       "'HMC2-8GB' capacity"),
              std::string::npos)
        << err;

    err = parseArgs(opts, {"--backend", "diagonal"});
    EXPECT_NE(err.find("'flat' or 'stacked'"), std::string::npos) << err;
}

TEST(Options, ListShowsBackendAndVaultColumns)
{
    const std::string l = ExperimentOptions::listText();
    // Flat parts show a '-' vault column; the stacked part shows its
    // geometry and the TSV timing.
    EXPECT_NE(l.find("flat backend, vaults -"), std::string::npos) << l;
    EXPECT_NE(l.find("stacked backend, vaults 16 x 8 banks"),
              std::string::npos)
        << l;
    EXPECT_NE(l.find("tTSV"), std::string::npos) << l;
    EXPECT_NE(l.find("HMC2-8GB"), std::string::npos) << l;
}

namespace {

/** Run FlagSet::parse() over @p args, with "tool" as argv[0]. */
void
parseFlags(const FlagSet &flags, std::vector<std::string> args)
{
    args.insert(args.begin(), "tool");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    flags.parse(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(FlagSet, StoresTypedValues)
{
    std::uint64_t cycles = 0;
    std::uint32_t threads = 0;
    double theta = 0.0;
    std::string path, trace = "default.trace";
    bool csv = false;
    WorkloadId wl = WorkloadId::DS, positional = WorkloadId::DS;
    const DramDevice *dev = nullptr;
    parseFlags(FlagSet()
                   .positional("workload", positional)
                   .positional("trace-path", trace)
                   .flag("--cycles N", cycles, 1)
                   .flag("--threads N", threads, 1, 8)
                   .flag("--theta T", theta, 0.0, 1.0)
                   .flag("--json PATH", path)
                   .flag("--csv", csv)
                   .flag("--workload ACR", wl)
                   .flag("--device DEV", dev),
               {"--cycles", "12", "TPCH-Q6", "--threads", "8", "--theta",
                "0.5", "--json", "out.json", "--csv", "--workload", "WS",
                "--device", "DDR4-2400"});
    EXPECT_EQ(cycles, 12u);
    EXPECT_EQ(threads, 8u);
    EXPECT_DOUBLE_EQ(theta, 0.5);
    EXPECT_EQ(path, "out.json");
    EXPECT_TRUE(csv);
    EXPECT_EQ(wl, WorkloadId::WS);
    EXPECT_EQ(positional, WorkloadId::TPCHQ6);
    // A positional with no argument left keeps its default.
    EXPECT_EQ(trace, "default.trace");
    ASSERT_NE(dev, nullptr);
    EXPECT_EQ(dev->name, "DDR4-2400");
}

TEST(FlagSetDeathTest, BadCommandLinesExitTwoNamingTheProblem)
{
    std::uint64_t n = 5;
    double x = 0.5;
    WorkloadId wl = WorkloadId::DS;
    const auto flags = [&] {
        return FlagSet()
            .flag("--n N", n, 1, 10)
            .flag("--x X", x, 0.0, 1.0)
            .flag("--workload ACR", wl);
    };
    const auto exit2 = ::testing::ExitedWithCode(2);
    EXPECT_EXIT(parseFlags(flags(), {"--bogus"}), exit2,
                "tool: unknown flag '--bogus'");
    EXPECT_EXIT(parseFlags(flags(), {"--n", "11"}), exit2,
                "--n: needs an integer in \\[1, 10\\], got '11'");
    EXPECT_EXIT(parseFlags(flags(), {"--n", "-1"}), exit2, "got '-1'");
    EXPECT_EXIT(parseFlags(flags(), {"--n", "3x"}), exit2, "got '3x'");
    EXPECT_EXIT(parseFlags(flags(), {"--n"}), exit2, "--n needs a value");
    EXPECT_EXIT(parseFlags(flags(), {"--x", "1"}), exit2,
                "--x: needs a number in \\[0, 1\\), got '1'");
    EXPECT_EXIT(parseFlags(flags(), {"--x", "0.5y"}), exit2, "got '0.5y'");
    EXPECT_EXIT(parseFlags(flags(), {"--workload", "NOPE"}), exit2,
                "--workload: needs one of DS .* TPCH-Q17, got 'NOPE'");
    EXPECT_EXIT(parseFlags(flags(), {"stray"}), exit2,
                "unexpected argument 'stray'");
    EXPECT_EXIT(parseFlags(FlagSet().fast(), {"--fast", "0"}), exit2,
                "--fast: needs a nonzero divisor, got '0'");
    EXPECT_EXIT(parseFlags(FlagSet().threads(), {"--threads", "1025"}),
                exit2, "--threads: needs an integer in \\[1, 1024\\]");
    // --help is a flag only where the binary declares help text.
    EXPECT_EXIT(parseFlags(flags(), {"--help"}), exit2,
                "unknown flag '--help'");
}

TEST(FlagSetDeathTest, HelpAndListExitZero)
{
    for (const char *flag : {"--help", "--list"}) {
        EXPECT_EXIT(parseFlags(FlagSet().fast().help("NAMES\n"), {flag}),
                    ::testing::ExitedWithCode(0), "");
    }
}

TEST(FlagSetDeathTest, FastAndThreadsReachTheRunner)
{
    // Run in a child so the exported variables stay out of this
    // process.
    EXPECT_EXIT(
        {
            parseFlags(FlagSet().fast().threads(),
                       {"--fast", "7", "--threads", "3"});
            std::exit(ExperimentRunner::fastDivisor() == 7 &&
                              ExperimentRunner::defaultThreads() == 3
                          ? 0
                          : 1);
        },
        ::testing::ExitedWithCode(0), "");
}
