/**
 * @file
 * Golden command streams for the memory controller. Each case runs a
 * short System window (TPC-H Q6, the paper's heaviest DRAM user, with
 * writes) and folds the per-channel DRAM command trace and every
 * persisted MetricSet field into one 64-bit FNV-1a hash, then compares
 * it with a recorded value:
 *
 *  - every scheduler x every page policy on DDR3-1600;
 *  - every scheduler on DDR5-4800 (8 bank groups), on LPDDR3-1600
 *    (per-bank refresh), on HMC2-8GB with dynamic remapping (requests
 *    gated by Request::availableAt) over one and over two stacks, and
 *    on the tiered backend (hotness-based migrations, also
 *    availableAt-gated) over one and two DDR3 channels and over an
 *    HMC2 fast tier, so the order in which the backends sum energy
 *    and bus utilization over several slow channels is pinned too.
 *
 * The kernel fuzzer only checks the kernels against each other; these
 * values pin the controller against its own past, so any change to
 * which command issues when, or to any metric, fails here. A change
 * that alters the command stream on purpose re-records the tables:
 * run with CLOUDMC_GOLDEN_PRINT=1 and paste the printed rows.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "dram/command_log.hh"
#include "dram/devices.hh"
#include "mem/factory.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

/** 64-bit FNV-1a over raw bytes. */
class Fnv1a
{
  public:
    template <typename T>
    void
    add(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct GoldenRun
{
    std::uint64_t hash;
    MetricSet metrics;
};

/** Hash of one run: every channel's command trace, channel by
 *  channel, then every persisted metric in results-cache order. */
GoldenRun
goldenRun(const SimConfig &cfg)
{
    System sys(cfg, workloadPreset(WorkloadId::TPCHQ6));
    CommandLog log;
    log.attachAll(sys);
    const MetricSet m = sys.run();
    Fnv1a h;
    for (const CommandLog::ChannelLog &channel : log.channels) {
        Fnv1a trace;
        for (const CommandLog::Entry &e : channel.entries) {
            trace.add(static_cast<std::uint8_t>(e.cmd.type));
            trace.add(e.cmd.rank);
            trace.add(e.cmd.bank);
            trace.add(e.cmd.row);
            trace.add(e.cmd.column);
            trace.add(e.tick.count());
        }
        h.add(static_cast<std::uint64_t>(channel.entries.size()));
        h.add(trace.value());
    }
    for (const MetricField &f : metricFields()) {
        std::visit(
            [&](auto member) {
                const auto &v = m.*member;
                if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                             std::vector<double>>) {
                    h.add(v.size());
                    for (double d : v)
                        h.add(d);
                } else {
                    h.add(v);
                }
            },
            f.member);
    }
    return {h.value(), m};
}

SimConfig
shortWindow(const char *device)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.applyDevice(*findDramDevice(device));
    // Long enough for several refreshes, write drains and (on the
    // migrating backends) migrations; short enough for sanitizer runs.
    cfg.warmupCoreCycles = 10'000;
    cfg.measureCoreCycles = 30'000;
    return cfg;
}

bool
printMode()
{
    const char *env = std::getenv("CLOUDMC_GOLDEN_PRINT");
    return env && *env && std::string(env) != "0";
}

/**
 * Run @p cfg under every scheduler x every policy of @p policies
 * (scheduler-major, kAllSchedulers order) and compare each hash with
 * @p want. Returns the metrics of the last run.
 */
MetricSet
checkGrid(SimConfig cfg, const std::vector<PagePolicyKind> &policies,
          const std::vector<std::uint64_t> &want)
{
    MetricSet last;
    std::size_t i = 0;
    for (const SchedulerKind sched : kAllSchedulers) {
        for (const PagePolicyKind policy : policies) {
            cfg.scheduler = sched;
            cfg.pagePolicy = policy;
            const GoldenRun run = goldenRun(cfg);
            last = run.metrics;
            if (printMode()) {
                std::cout << "        0x" << std::hex << std::setw(16)
                          << std::setfill('0') << run.hash << std::dec
                          << "ull, // " << schedulerKindName(sched)
                          << " / " << pagePolicyKindName(policy) << "\n";
            } else if (i < want.size()) {
                EXPECT_EQ(run.hash, want[i])
                    << schedulerKindName(sched) << " / "
                    << pagePolicyKindName(policy) << " on "
                    << cfg.deviceName << ": 0x" << std::hex << run.hash;
            }
            ++i;
        }
    }
    if (!printMode()) {
        EXPECT_EQ(want.size(), i) << "golden table size";
    }
    return last;
}

const std::vector<PagePolicyKind> kBaselinePolicy = {
    PagePolicyKind::OpenAdaptive};

} // namespace

TEST(ControllerGolden, Ddr3EverySchedulerAndPagePolicy)
{
    checkGrid(shortWindow("DDR3-1600"),
              std::vector<PagePolicyKind>(kAllPagePolicies.begin(),
                                          kAllPagePolicies.end()),
              {
        0xa7060742473920e0ull, // FR-FCFS / OpenAdaptive
        0x8f32e41d2fc1d2c0ull, // FR-FCFS / CloseAdaptive
        0xdf1cfa80df36be65ull, // FR-FCFS / RBPP
        0x5c6ec0de3ad3e8feull, // FR-FCFS / ABPP
        0xa7060742473920e0ull, // FR-FCFS / Open
        0x2783b7820679dee0ull, // FR-FCFS / Close
        0x1784c24fae8bbae8ull, // FR-FCFS / Timer
        0x8f32e41d2fc1d2c0ull, // FR-FCFS / History
        0x7e076e10d448d662ull, // FCFS_banks / OpenAdaptive
        0xe0019fc8b51946f4ull, // FCFS_banks / CloseAdaptive
        0x130c545dc68232b6ull, // FCFS_banks / RBPP
        0x7fe74f8d821b8110ull, // FCFS_banks / ABPP
        0x7e076e10d448d662ull, // FCFS_banks / Open
        0xc9aafdce0e0894aaull, // FCFS_banks / Close
        0x89e4d92fe4b95d30ull, // FCFS_banks / Timer
        0xe0019fc8b51946f4ull, // FCFS_banks / History
        0x9ab1985ecf2c3edbull, // PAR-BS / OpenAdaptive
        0x816002d4d98d80e8ull, // PAR-BS / CloseAdaptive
        0xb9219e891439a0bdull, // PAR-BS / RBPP
        0xace3427732241336ull, // PAR-BS / ABPP
        0x9ab1985ecf2c3edbull, // PAR-BS / Open
        0x816002d4d98d80e8ull, // PAR-BS / Close
        0x950550a1bb4f6ac5ull, // PAR-BS / Timer
        0x816002d4d98d80e8ull, // PAR-BS / History
        0xa7060742473920e0ull, // ATLAS / OpenAdaptive
        0x8f32e41d2fc1d2c0ull, // ATLAS / CloseAdaptive
        0xdf1cfa80df36be65ull, // ATLAS / RBPP
        0x5c6ec0de3ad3e8feull, // ATLAS / ABPP
        0xa7060742473920e0ull, // ATLAS / Open
        0x2783b7820679dee0ull, // ATLAS / Close
        0x1784c24fae8bbae8ull, // ATLAS / Timer
        0x8f32e41d2fc1d2c0ull, // ATLAS / History
        0x204c9e4a0b1477beull, // RL / OpenAdaptive
        0xb16d0a009ca1f8daull, // RL / CloseAdaptive
        0xce0b8e131d98ec59ull, // RL / RBPP
        0x02842481b80eca9eull, // RL / ABPP
        0x4a37a38a1573ac35ull, // RL / Open
        0xa251a98fc10a9506ull, // RL / Close
        0x14b5c9458da17344ull, // RL / Timer
        0xb16d0a009ca1f8daull, // RL / History
        0x67b93a24bc7b7327ull, // FCFS / OpenAdaptive
        0xa559002168451836ull, // FCFS / CloseAdaptive
        0xd15125b1174fb95bull, // FCFS / RBPP
        0xb7151e06a5026653ull, // FCFS / ABPP
        0x5934732b412df76full, // FCFS / Open
        0xa559002168451836ull, // FCFS / Close
        0x55710311e8ce186full, // FCFS / Timer
        0xa559002168451836ull, // FCFS / History
        0x95ed431a6a11206full, // FQM / OpenAdaptive
        0xadba8bfb27c4503cull, // FQM / CloseAdaptive
        0x256f1554e40d8160ull, // FQM / RBPP
        0x34432d7da52e22eaull, // FQM / ABPP
        0x95ed431a6a11206full, // FQM / Open
        0x0e670bcf3020e277ull, // FQM / Close
        0x8178540efc501d46ull, // FQM / Timer
        0xadba8bfb27c4503cull, // FQM / History
        0xa7060742473920e0ull, // TCM / OpenAdaptive
        0x8f32e41d2fc1d2c0ull, // TCM / CloseAdaptive
        0xdf1cfa80df36be65ull, // TCM / RBPP
        0x5c6ec0de3ad3e8feull, // TCM / ABPP
        0xa7060742473920e0ull, // TCM / Open
        0x2783b7820679dee0ull, // TCM / Close
        0x1784c24fae8bbae8ull, // TCM / Timer
        0x8f32e41d2fc1d2c0ull, // TCM / History
        0x0b12f9ea7ebb1ba6ull, // STFM / OpenAdaptive
        0xfa6736c66569cda2ull, // STFM / CloseAdaptive
        0x2231a4268d98b791ull, // STFM / RBPP
        0x7e601cc2d3d42134ull, // STFM / ABPP
        0x0b12f9ea7ebb1ba6ull, // STFM / Open
        0x0e191111d5a4fd01ull, // STFM / Close
        0xa5e8be419eeb3fa1ull, // STFM / Timer
        0xfa6736c66569cda2ull, // STFM / History
    });
}

TEST(ControllerGolden, Ddr5BankGroups)
{
    checkGrid(shortWindow("DDR5-4800"), kBaselinePolicy, {
        0xf66a4ead3e95cb88ull, // FR-FCFS / OpenAdaptive
        0xd8421f620ecefda9ull, // FCFS_banks / OpenAdaptive
        0x0364eb3ed23ea93bull, // PAR-BS / OpenAdaptive
        0xf66a4ead3e95cb88ull, // ATLAS / OpenAdaptive
        0x00ff4634a007ff55ull, // RL / OpenAdaptive
        0x4e2b57a01140eea0ull, // FCFS / OpenAdaptive
        0xaaa6f492628bb007ull, // FQM / OpenAdaptive
        0xf66a4ead3e95cb88ull, // TCM / OpenAdaptive
        0x3959f7c69c08822bull, // STFM / OpenAdaptive
    });
}

TEST(ControllerGolden, Lpddr3PerBankRefresh)
{
    checkGrid(shortWindow("LPDDR3-1600"), kBaselinePolicy, {
        0x9d571fd73f1cbfbaull, // FR-FCFS / OpenAdaptive
        0x1fc5d08f3ee4233bull, // FCFS_banks / OpenAdaptive
        0x7af84b426a539979ull, // PAR-BS / OpenAdaptive
        0x9d571fd73f1cbfbaull, // ATLAS / OpenAdaptive
        0x77fc974e55b995dfull, // RL / OpenAdaptive
        0xc69015528f2efb7full, // FCFS / OpenAdaptive
        0x4a594d2bb1a9f947ull, // FQM / OpenAdaptive
        0x9d571fd73f1cbfbaull, // TCM / OpenAdaptive
        0xf21938ff0231122aull, // STFM / OpenAdaptive
    });
}

TEST(ControllerGolden, Hmc2WithRemapping)
{
    SimConfig cfg = shortWindow("HMC2-8GB");
    cfg.setVaults(16);
    cfg.remap.enabled = true;
    // A small hotness window and any imbalance counting as hot, so
    // Q6's near-uniform scan still migrates (and gates requests by
    // availableAt) inside the short run.
    cfg.remap.windowAccesses = 256;
    cfg.remap.hotFactor = 1.0;
    const MetricSet m = checkGrid(cfg, kBaselinePolicy, {
        0x3f678a432822da3aull, // FR-FCFS / OpenAdaptive
        0x99b7872c6967924dull, // FCFS_banks / OpenAdaptive
        0x3be9401e3584cad6ull, // PAR-BS / OpenAdaptive
        0x3f678a432822da3aull, // ATLAS / OpenAdaptive
        0x8937bded6f642befull, // RL / OpenAdaptive
        0xc3c9f34120326ad3ull, // FCFS / OpenAdaptive
        0xf3efb8cf6062c162ull, // FQM / OpenAdaptive
        0x3f678a432822da3aull, // TCM / OpenAdaptive
        0xc2d6334669a6e910ull, // STFM / OpenAdaptive
    });
    EXPECT_GT(m.remapMigrations, 0u);
}

TEST(ControllerGolden, TieredHotnessMigration)
{
    SimConfig cfg = shortWindow("DDR3-1600");
    cfg.tier.enabled = true;
    cfg.tier.policy = TierPolicy::HotnessBased;
    cfg.tier.monitorSampleEvery = 2;
    cfg.tier.monitorWindowSamples = 64;
    const MetricSet m = checkGrid(cfg, kBaselinePolicy, {
        0x42e29de5b20675eeull, // FR-FCFS / OpenAdaptive
        0x319b7bb71f63de0eull, // FCFS_banks / OpenAdaptive
        0x14194688684bd291ull, // PAR-BS / OpenAdaptive
        0x42e29de5b20675eeull, // ATLAS / OpenAdaptive
        0xe0524f27bb347892ull, // RL / OpenAdaptive
        0x402d991c78ced22aull, // FCFS / OpenAdaptive
        0x2a9c4b56fe5916fcull, // FQM / OpenAdaptive
        0x42e29de5b20675eeull, // TCM / OpenAdaptive
        0x1f71c98cbebc73bfull, // STFM / OpenAdaptive
    });
    EXPECT_GT(m.tierMigrations, 0u);
}

TEST(ControllerGolden, Hmc2TwoStacksWithRemapping)
{
    // Two stacks of 8 vaults: the remapper is per stack, so routing
    // must keep every swap inside its own stack.
    SimConfig cfg = shortWindow("HMC2-8GB");
    cfg.dram.channels = 2;
    cfg.setVaults(8);
    cfg.remap.enabled = true;
    cfg.remap.windowAccesses = 256;
    cfg.remap.hotFactor = 1.0;
    const MetricSet m = checkGrid(cfg, kBaselinePolicy, {
        0x2beea9fd264ea45dull, // FR-FCFS / OpenAdaptive
        0xfa878a0334ef3974ull, // FCFS_banks / OpenAdaptive
        0x8e1e7416c8ad549aull, // PAR-BS / OpenAdaptive
        0x2beea9fd264ea45dull, // ATLAS / OpenAdaptive
        0x09fcfc6a32508d0cull, // RL / OpenAdaptive
        0x79219fca03f0208bull, // FCFS / OpenAdaptive
        0xeff0359e41912248ull, // FQM / OpenAdaptive
        0x2beea9fd264ea45dull, // TCM / OpenAdaptive
        0xf913a78bac060afaull, // STFM / OpenAdaptive
    });
    EXPECT_GT(m.remapMigrations, 0u);
    EXPECT_EQ(m.perVaultReadQueue.size(), 16u);
}

TEST(ControllerGolden, TieredTwoChannels)
{
    // Two fast and two slow channels: the slow channels' energy and
    // bus utilization are summed one channel at a time.
    SimConfig cfg = shortWindow("DDR3-1600");
    cfg.dram.channels = 2;
    cfg.tier.enabled = true;
    cfg.tier.policy = TierPolicy::HotnessBased;
    cfg.tier.monitorSampleEvery = 2;
    cfg.tier.monitorWindowSamples = 64;
    const MetricSet m = checkGrid(cfg, kBaselinePolicy, {
        0xed6e35598dc6977cull, // FR-FCFS / OpenAdaptive
        0x1e07340faabcd83dull, // FCFS_banks / OpenAdaptive
        0x6edbe2e2f9136a1full, // PAR-BS / OpenAdaptive
        0xed6e35598dc6977cull, // ATLAS / OpenAdaptive
        0xcf2a88ee6f58014bull, // RL / OpenAdaptive
        0xbd18264a372f6250ull, // FCFS / OpenAdaptive
        0xa812b83650775316ull, // FQM / OpenAdaptive
        0xed6e35598dc6977cull, // TCM / OpenAdaptive
        0x9c6ba482d4c3620bull, // STFM / OpenAdaptive
    });
    EXPECT_GT(m.tierMigrations, 0u);
}

TEST(ControllerGolden, TieredOverHmc2)
{
    // A stacked fast tier (its per-vault fields survive the tiered
    // collect) in front of a flat slow tier; the alloy-cache policy
    // fills on every miss, so availableAt gates inside the short run.
    SimConfig cfg = shortWindow("HMC2-8GB");
    cfg.tier.enabled = true;
    cfg.tier.policy = TierPolicy::AlloyCache;
    const MetricSet m = checkGrid(cfg, kBaselinePolicy, {
        0xa46be885d73ed9b5ull, // FR-FCFS / OpenAdaptive
        0x1282e632b1f004f5ull, // FCFS_banks / OpenAdaptive
        0x45c7f5704dad7e7eull, // PAR-BS / OpenAdaptive
        0xa46be885d73ed9b5ull, // ATLAS / OpenAdaptive
        0xab769702eb86d277ull, // RL / OpenAdaptive
        0x360b4617f4a271f9ull, // FCFS / OpenAdaptive
        0xb68ce6e68c3839ceull, // FQM / OpenAdaptive
        0xa46be885d73ed9b5ull, // TCM / OpenAdaptive
        0x03838a585f4d2e4full, // STFM / OpenAdaptive
    });
    EXPECT_GT(m.tierMigrations, 0u);
    EXPECT_FALSE(m.perVaultReadQueue.empty());
}
