/**
 * @file
 * Dynamic-remap ablation on the stacked backend: Zipf-skewed
 * vault/bank traffic, remap off vs on.
 *
 * The driver is a custom workload that draws (vault, bank) slots from
 * a Zipfian distribution (item 0 hottest) and maps slot index i to
 * vault i / banks, bank i % banks — so the hottest slots all live in
 * vault 0, the next-hottest in vault 1, and so on. That concentrates
 * queue pressure on the low vaults exactly the way a skewed key-value
 * shard does, which is the traffic the remapper exists for: with
 * remapping on, the hot bank slots migrate toward cold vaults and the
 * tail read latency should come down.
 *
 * Reported per variant: IPC, mean/p99 read latency (core cycles), the
 * vault queue imbalance (peak/mean mean read-queue depth), and for the
 * remap-on run the migration counters plus the copy overhead as a
 * percentage of total per-vault DRAM cycles.
 *
 * Usage: ablation_remap [--cycles N] [--threads N] [--theta T]
 *                       [--json PATH] [--csv]
 *        (defaults: 1M measured core cycles, 1 kernel thread,
 *        theta 0.99, BENCH_remap.json; --threads counts kernel
 *        threads in [1, 1024], T is in [0, 1), and a bad flag or
 *        value exits 2 before simulating)
 *
 * Divides the cycles by the runner's CLOUDMC_FAST divisor
 * (ExperimentRunner::fastDivisor, at least 10k cycles are kept; the CI
 * smoke runs with CLOUDMC_FAST=50). The improvement gate (exit 2 when
 * remap-on p99 fails to beat remap-off) arms only on full-length runs:
 * a /50 smoke closes too few remap windows for the gate to be
 * meaningful there.
 *
 * Entries are stamped with bench::gitSha() (CLOUDMC_GIT_SHA,
 * GITHUB_SHA, live `git rev-parse`, the configure-time SHA,
 * "unknown").
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/random.hh"
#include "dram/devices.hh"
#include "mem/address_mapping.hh"
#include "sim/system.hh"
#include "workload/workload.hh"

using namespace mcsim;

namespace {

/**
 * Zipf-skewed stacked-DRAM traffic. All state is per-core (each core
 * owns its RNG stream), so tryNextOpLocal can always succeed and the
 * stream is identical under every kernel.
 */
class ZipfVaultTraffic final : public WorkloadGenerator
{
  public:
    ZipfVaultTraffic(const SimConfig &cfg, std::uint32_t numCores,
                     double theta, double memProb)
        : geom_(cfg.dram.vaultsAsChannels()),
          mapper_(geom_, cfg.mapping, cfg.bankGroupMapping),
          banks_(geom_.banksPerRank),
          zipf_(static_cast<std::uint64_t>(geom_.channels) * banks_,
                theta),
          memProb_(memProb)
    {
        for (std::uint32_t c = 0; c < numCores; ++c) {
            CoreState cs;
            cs.rng.reseed(cfg.seed, 0x5851f42d4c957f2dULL + c);
            cores_.push_back(cs);
        }
    }

    const char *name() const override { return "ZipfVault"; }

    Op nextOp(CoreId core) override { return draw(cores_[core]); }

    bool
    tryNextOpLocal(CoreId core, Op &out) override
    {
        out = draw(cores_[core]);
        return true;
    }

    Addr
    nextFetchBlock(CoreId core) override
    {
        // A small per-core code loop: misses once, then lives in L1I.
        CoreState &cs = cores_[core];
        const std::uint64_t block =
            (static_cast<std::uint64_t>(core) * kCodeBlocks) +
            (cs.codePos++ & (kCodeBlocks - 1));
        return block * geom_.blockBytes;
    }

  private:
    /** Blocks in one core's code loop (power of two). */
    static constexpr std::uint64_t kCodeBlocks = 64;

    struct CoreState
    {
        Pcg32 rng;
        std::uint64_t codePos = 0;
    };

    Op
    draw(CoreState &cs)
    {
        Op op;
        if (cs.rng.chance(memProb_)) {
            const std::uint64_t slot = zipf_.sample(cs.rng);
            DramCoord c;
            c.channel = static_cast<std::uint32_t>(slot / banks_);
            c.bank = static_cast<std::uint32_t>(slot % banks_);
            // Random row/column within the slot: the footprint dwarfs
            // the cache hierarchy, so nearly every reference reaches
            // the vault's controller queue.
            c.row = cs.rng.below64(geom_.rowsPerBank);
            c.column = cs.rng.below(geom_.blocksPerRow());
            op.kind = cs.rng.chance(0.3) ? Op::Kind::Store
                                         : Op::Kind::Load;
            op.addr = mapper_.encode(c);
        } else {
            op.kind = Op::Kind::Compute;
            op.length = 1 + cs.rng.below(8);
        }
        return op;
    }

    DramGeometry geom_; ///< One channel per vault, as the backend sees it.
    AddressMapper mapper_;
    std::uint32_t banks_;
    ZipfianGenerator zipf_;
    double memProb_;
    std::vector<CoreState> cores_;
};

MetricSet
runOnce(const SimConfig &cfg, double theta, double memProb)
{
    ZipfVaultTraffic traffic(cfg, cfg.numCores, theta, memProb);
    System sys(cfg, traffic, cfg.numCores);
    return sys.run();
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t cycles = 1'000'000;
    std::uint32_t kernelThreads = 1;
    double theta = 0.99;
    std::string jsonPath = "BENCH_remap.json";
    bool csv = false;
    FlagSet()
        .flag("--cycles N", cycles, 1)
        .flag("--threads N", kernelThreads, 1,
              ExperimentRunner::kMaxThreads)
        .flag("--theta T", theta, 0.0, 1.0)
        .flag("--json PATH", jsonPath)
        .flag("--csv", csv)
        .parse(argc, argv);
    const std::uint64_t fastDiv = ExperimentRunner::fastDivisor();
    cycles = std::max<std::uint64_t>(cycles / fastDiv, 10'000);

    SimConfig cfg = SimConfig::baseline();
    cfg.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    cfg.kernelThreads = kernelThreads;
    cfg.warmupCoreCycles = cycles / 4;
    cfg.measureCoreCycles = cycles;
    // A modest MLP window keeps the skewed vault queues under real
    // pressure; the remap window is short enough that a /50 smoke run
    // still closes a handful of windows.
    cfg.core.mlpWindow = 4;
    cfg.remap.windowAccesses = 2048;
    const double memProb = 0.25;

    SimConfig off = cfg;
    off.remap.enabled = false;
    SimConfig on = cfg;
    on.remap.enabled = true;

    const MetricSet moff = runOnce(off, theta, memProb);
    const MetricSet mon = runOnce(on, theta, memProb);

    const double p99ImprovementPct =
        moff.readLatencyP99 > 0.0
            ? 100.0 * (moff.readLatencyP99 - mon.readLatencyP99) /
                  moff.readLatencyP99
            : 0.0;
    // Copy overhead: DRAM cycles spent migrating rows, as a share of
    // the total per-vault DRAM cycles in the measurement window.
    const std::uint32_t vaults =
        cfg.dram.channels * cfg.dram.vaultsPerStack;
    const double dramCycles =
        static_cast<double>(mon.measuredCycles) * cfg.clocks.dramMhz /
        cfg.clocks.coreMhz;
    const double migrationDramCycles =
        static_cast<double>(mon.remapMigratedRows) *
        cfg.remap.migrationCyclesPerRow;
    const double migrationOverheadPct =
        dramCycles > 0.0
            ? 100.0 * migrationDramCycles / (dramCycles * vaults)
            : 0.0;

    if (csv) {
        std::printf("variant,ipc,read_avg_cycles,read_p99_cycles,"
                    "vault_queue_imbalance,migrations,migrated_rows\n");
        std::printf("remap_off,%.4f,%.1f,%.1f,%.3f,0,0\n", moff.userIpc,
                    moff.avgReadLatency, moff.readLatencyP99,
                    moff.vaultQueueImbalance);
        std::printf("remap_on,%.4f,%.1f,%.1f,%.3f,%llu,%llu\n",
                    mon.userIpc, mon.avgReadLatency, mon.readLatencyP99,
                    mon.vaultQueueImbalance,
                    static_cast<unsigned long long>(mon.remapMigrations),
                    static_cast<unsigned long long>(
                        mon.remapMigratedRows));
    } else {
        std::printf("remap ablation: HMC2-8GB, %u vault(s), Zipf theta "
                    "%.2f, %llu measured core cycles, %u kernel "
                    "thread(s)\n",
                    vaults, theta,
                    static_cast<unsigned long long>(cycles),
                    kernelThreads);
        std::printf("  remap off: IPC %.4f, read avg %.1f cy, p99 %.1f "
                    "cy, vault imbalance %.2fx\n",
                    moff.userIpc, moff.avgReadLatency,
                    moff.readLatencyP99, moff.vaultQueueImbalance);
        std::printf("  remap on:  IPC %.4f, read avg %.1f cy, p99 %.1f "
                    "cy, vault imbalance %.2fx\n",
                    mon.userIpc, mon.avgReadLatency, mon.readLatencyP99,
                    mon.vaultQueueImbalance);
        std::printf("  p99 improvement %.1f%%, %llu migrations (%llu "
                    "rows copied, %.3f%% of DRAM cycles)\n",
                    p99ImprovementPct,
                    static_cast<unsigned long long>(mon.remapMigrations),
                    static_cast<unsigned long long>(mon.remapMigratedRows),
                    migrationOverheadPct);
    }

    std::FILE *f = std::fopen(jsonPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
        return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"ablation_remap\",\n"
        "  \"git_sha\": \"%s\",\n"
        "  \"device\": \"HMC2-8GB\",\n"
        "  \"vaults\": %u,\n"
        "  \"zipf_theta\": %.2f,\n"
        "  \"measure_core_cycles\": %llu,\n"
        "  \"kernel_threads\": %u,\n"
        "  \"remap_window_accesses\": %llu,\n"
        "  \"remap_off\": {\n"
        "    \"ipc\": %.4f,\n"
        "    \"read_avg_cycles\": %.2f,\n"
        "    \"read_p99_cycles\": %.2f,\n"
        "    \"vault_queue_imbalance\": %.3f\n"
        "  },\n"
        "  \"remap_on\": {\n"
        "    \"ipc\": %.4f,\n"
        "    \"read_avg_cycles\": %.2f,\n"
        "    \"read_p99_cycles\": %.2f,\n"
        "    \"vault_queue_imbalance\": %.3f,\n"
        "    \"migrations\": %llu,\n"
        "    \"migrated_rows\": %llu,\n"
        "    \"migration_overhead_pct\": %.4f\n"
        "  },\n"
        "  \"p99_improvement_pct\": %.2f\n"
        "}\n",
        bench::gitSha().c_str(), vaults, theta,
        static_cast<unsigned long long>(cycles), kernelThreads,
        static_cast<unsigned long long>(cfg.remap.windowAccesses),
        moff.userIpc, moff.avgReadLatency, moff.readLatencyP99,
        moff.vaultQueueImbalance, mon.userIpc, mon.avgReadLatency,
        mon.readLatencyP99, mon.vaultQueueImbalance,
        static_cast<unsigned long long>(mon.remapMigrations),
        static_cast<unsigned long long>(mon.remapMigratedRows),
        migrationOverheadPct, p99ImprovementPct);
    std::fclose(f);

    // The ablation's reason to exist: on a full-length run the skewed
    // traffic must see its tail improve. Short smoke runs only check
    // that both variants execute.
    if (fastDiv == 1 && mon.readLatencyP99 >= moff.readLatencyP99) {
        std::fprintf(stderr,
                     "remap did not improve p99 (%.1f -> %.1f)\n",
                     moff.readLatencyP99, mon.readLatencyP99);
        return 2;
    }
    return 0;
}
