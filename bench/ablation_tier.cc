/**
 * @file
 * Tiered-backend ablation: Zipf-skewed address traffic, the three
 * placement policies side by side.
 *
 * The driver draws 64 KiB "objects" from a Zipfian distribution
 * (object 0 hottest), laid out contiguously from address 0 the way a
 * rank-ordered heap is — hot ranks spatially clustered, which is the
 * locality a DAMON-style region monitor exists to exploit. The
 * interleaved static split still spreads that hot head across both
 * tiers at tile granularity, so:
 *
 *  - static_split is the floor — half the hot objects are pinned in
 *    the slow tier, whose throttled queues absorb the skewed load and
 *    stretch the read tail;
 *  - hotness_based should find the hot slow-resident tiles through
 *    the DAMON-style monitor and swap them fast, off-loading the slow
 *    queues (the p99 win is mostly queueing, not raw media latency);
 *  - alloy_cache trades capacity for recency: every slow hit fills a
 *    direct-mapped fast row, great reuse capture at a fill cost.
 *
 * Reported per policy: IPC, mean/p99 read latency (core cycles), the
 * fast-tier hit fraction, the slow-tier read p99, and the migration
 * counters plus copy overhead as a share of DRAM cycles.
 *
 * Usage: ablation_tier [--cycles N] [--threads N] [--theta T]
 *                      [--json PATH] [--csv]
 *        (defaults: 4M measured core cycles — the monitor needs the
 *        placement to converge inside warmup so the measured window
 *        shows steady-state overhead, not the learning ramp — 1
 *        kernel thread, theta 0.99, BENCH_tier.json; --threads counts
 *        kernel threads in [1, 1024], T is in [0, 1), and a bad flag
 *        or value exits 2 before simulating)
 *
 * Divides the cycles by the runner's CLOUDMC_FAST divisor
 * (ExperimentRunner::fastDivisor, at least 10k cycles are kept; the CI
 * smoke runs with CLOUDMC_FAST=50). The improvement gate (exit 2 when
 * hotness_based fails to beat static_split on p99, or its migration
 * overhead passes 5% of DRAM cycles) arms only on full-length runs: a
 * /50 smoke closes too few monitor windows to be meaningful.
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
#include "mem/backend.hh"
#include "sim/system.hh"
#include "workload/workload.hh"

using namespace mcsim;

namespace {

/**
 * Zipf-skewed object traffic over a tiered address space. All state
 * is per-core (each core owns its RNG stream), so tryNextOpLocal can
 * always succeed and the stream is identical under every kernel.
 */
class ZipfObjectTraffic final : public WorkloadGenerator
{
  public:
    ZipfObjectTraffic(const SimConfig &cfg, std::uint32_t numCores,
                      std::uint64_t capacityBytes, double theta,
                      double memProb)
        : capacity_(capacityBytes), zipf_(kObjects, theta),
          memProb_(memProb)
    {
        for (std::uint32_t c = 0; c < numCores; ++c) {
            CoreState cs;
            cs.rng.reseed(cfg.seed, 0x5851f42d4c957f2dULL + c);
            cores_.push_back(cs);
        }
    }

    const char *name() const override { return "ZipfObject"; }

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
        return block * kBlockBytes;
    }

  private:
    /** Object count / size: a 256 MiB Zipf footprint in 64 KiB
     *  objects — far past the 4 MiB shared L2, so the skewed tail
     *  reaches DRAM, while each object is about one placement tile
     *  (the monitor can move whole objects in single swaps). */
    static constexpr std::uint64_t kObjects = 4096;
    static constexpr std::uint64_t kObjectBytes = 64 * 1024;
    static constexpr std::uint64_t kBlockBytes = 64;
    /** Blocks in one core's code loop (power of two). */
    static constexpr std::uint64_t kCodeBlocks = 64;

    struct CoreState
    {
        Pcg32 rng;
        std::uint64_t codePos = 0;
    };

    /** Object @p i's base address: contiguous rank order, clamped to
     *  the composed space (hot ranks cluster low, like a heap laid
     *  out in allocation order). */
    Addr
    objectBase(std::uint64_t i) const
    {
        const std::uint64_t objectSlots = capacity_ / kObjectBytes;
        return (i % objectSlots) * kObjectBytes;
    }

    Op
    draw(CoreState &cs)
    {
        Op op;
        if (cs.rng.chance(memProb_)) {
            const std::uint64_t obj = zipf_.sample(cs.rng);
            const std::uint64_t block =
                cs.rng.below64(kObjectBytes / kBlockBytes);
            op.kind = cs.rng.chance(0.3) ? Op::Kind::Store
                                         : Op::Kind::Load;
            op.addr = objectBase(obj) + block * kBlockBytes;
        } else {
            op.kind = Op::Kind::Compute;
            op.length = 1 + cs.rng.below(8);
        }
        return op;
    }

    std::uint64_t capacity_;
    ZipfianGenerator zipf_;
    double memProb_;
    std::vector<CoreState> cores_;
};

MetricSet
runOnce(const SimConfig &cfg, double theta, double memProb)
{
    // Size the Zipf scatter to the composed (fast + slow) space: the
    // backend is rebuilt by System, but capacity depends only on cfg.
    const std::uint64_t capacity =
        makeMemBackend(cfg, cfg.numCores)->capacityBytes();
    ZipfObjectTraffic traffic(cfg, cfg.numCores, capacity, theta,
                              memProb);
    System sys(cfg, traffic, cfg.numCores);
    return sys.run();
}

struct PolicyResult
{
    const char *name;
    MetricSet m;
    double migrationOverheadPct = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t cycles = 4'000'000;
    std::uint32_t kernelThreads = 1;
    double theta = 0.99;
    std::string jsonPath = "BENCH_tier.json";
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
    cfg.kernelThreads = kernelThreads;
    cfg.warmupCoreCycles = cycles / 4;
    cfg.measureCoreCycles = cycles;
    // A modest MLP window keeps the skewed queues under real
    // pressure; the monitor window is short enough that a /50 smoke
    // run still closes a handful of aggregation windows.
    cfg.core.mlpWindow = 4;
    cfg.tier.enabled = true;
    cfg.tier.monitorSampleEvery = 2;
    cfg.tier.monitorWindowSamples = 512;
    cfg.tier.hotFactor = 1.5;
    const double memProb = 0.25;

    const TierPolicy policies[] = {TierPolicy::StaticSplit,
                                   TierPolicy::HotnessBased,
                                   TierPolicy::AlloyCache};
    std::vector<PolicyResult> results;
    for (TierPolicy policy : policies) {
        SimConfig run = cfg;
        run.tier.policy = policy;
        PolicyResult r;
        r.name = tierPolicyName(policy);
        r.m = runOnce(run, theta, memProb);
        // Copy overhead: DRAM cycles spent moving tier rows, as a
        // share of the total per-queue DRAM cycles in the window.
        const double dramCycles = static_cast<double>(r.m.measuredCycles) *
                                  run.clocks.dramMhz /
                                  run.clocks.coreMhz *
                                  (run.dram.channels * 2);
        r.migrationOverheadPct =
            dramCycles > 0.0
                ? 100.0 * static_cast<double>(r.m.tierMigratedRows) *
                      run.tier.migrationCyclesPerRow / dramCycles
                : 0.0;
        results.push_back(r);
    }
    const PolicyResult &stat = results[0];
    const PolicyResult &hot = results[1];
    const PolicyResult &alloy = results[2];

    const double p99ImprovementPct =
        stat.m.readLatencyP99 > 0.0
            ? 100.0 * (stat.m.readLatencyP99 - hot.m.readLatencyP99) /
                  stat.m.readLatencyP99
            : 0.0;

    if (csv) {
        std::printf("policy,ipc,read_avg_cycles,read_p99_cycles,"
                    "fast_hit_pct,slow_p99_cycles,migrations,"
                    "migrated_rows,migration_overhead_pct\n");
        for (const PolicyResult &r : results) {
            std::printf(
                "%s,%.4f,%.1f,%.1f,%.2f,%.1f,%llu,%llu,%.4f\n", r.name,
                r.m.userIpc, r.m.avgReadLatency, r.m.readLatencyP99,
                r.m.fastTierHitPct, r.m.slowTierReadLatencyP99,
                static_cast<unsigned long long>(r.m.tierMigrations),
                static_cast<unsigned long long>(r.m.tierMigratedRows),
                r.migrationOverheadPct);
        }
    } else {
        std::printf("tier ablation: %s fast tier at %u%%, slow +%u DRAM "
                    "cycles at %u%% bandwidth, Zipf theta %.2f, %llu "
                    "measured core cycles, %u kernel thread(s)\n",
                    cfg.deviceName.c_str(), cfg.tier.fastCapacityPct,
                    cfg.tier.slowLatencyDramCycles, cfg.tier.slowBwPct,
                    theta, static_cast<unsigned long long>(cycles),
                    kernelThreads);
        for (const PolicyResult &r : results) {
            std::printf(
                "  %-13s IPC %.4f, read avg %.1f cy, p99 %.1f cy, "
                "fast hits %.1f%%, slow p99 %.1f cy, %llu migrations "
                "(%llu rows, %.3f%% of DRAM cycles)\n",
                r.name, r.m.userIpc, r.m.avgReadLatency,
                r.m.readLatencyP99, r.m.fastTierHitPct,
                r.m.slowTierReadLatencyP99,
                static_cast<unsigned long long>(r.m.tierMigrations),
                static_cast<unsigned long long>(r.m.tierMigratedRows),
                r.migrationOverheadPct);
        }
        std::printf("  hotness_based p99 improvement over static_split: "
                    "%.1f%%\n",
                    p99ImprovementPct);
    }

    std::FILE *f = std::fopen(jsonPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"ablation_tier\",\n"
                 "  \"git_sha\": \"%s\",\n"
                 "  \"device\": \"%s\",\n"
                 "  \"fast_capacity_pct\": %u,\n"
                 "  \"slow_latency_dram_cycles\": %u,\n"
                 "  \"slow_bw_pct\": %u,\n"
                 "  \"zipf_theta\": %.2f,\n"
                 "  \"measure_core_cycles\": %llu,\n"
                 "  \"kernel_threads\": %u,\n"
                 "  \"monitor_window_samples\": %u,\n",
                 bench::gitSha().c_str(), cfg.deviceName.c_str(),
                 cfg.tier.fastCapacityPct, cfg.tier.slowLatencyDramCycles,
                 cfg.tier.slowBwPct, theta,
                 static_cast<unsigned long long>(cycles), kernelThreads,
                 cfg.tier.monitorWindowSamples);
    for (const PolicyResult &r : results) {
        std::fprintf(
            f,
            "  \"%s\": {\n"
            "    \"ipc\": %.4f,\n"
            "    \"read_avg_cycles\": %.2f,\n"
            "    \"read_p99_cycles\": %.2f,\n"
            "    \"fast_tier_hit_pct\": %.2f,\n"
            "    \"slow_tier_read_p99_cycles\": %.2f,\n"
            "    \"migrations\": %llu,\n"
            "    \"migrated_rows\": %llu,\n"
            "    \"migration_overhead_pct\": %.4f\n"
            "  },\n",
            r.name, r.m.userIpc, r.m.avgReadLatency, r.m.readLatencyP99,
            r.m.fastTierHitPct, r.m.slowTierReadLatencyP99,
            static_cast<unsigned long long>(r.m.tierMigrations),
            static_cast<unsigned long long>(r.m.tierMigratedRows),
            r.migrationOverheadPct);
    }
    std::fprintf(f, "  \"hotness_p99_improvement_pct\": %.2f\n}\n",
                 p99ImprovementPct);
    std::fclose(f);

    // The ablation's reason to exist: on a full-length run the
    // monitored policy must beat the static floor on the read tail,
    // and must do it without burning the bus on copies. Short smoke
    // runs only check that all three policies execute.
    if (fastDiv == 1) {
        if (hot.m.readLatencyP99 >= stat.m.readLatencyP99) {
            std::fprintf(
                stderr,
                "hotness_based did not improve p99 (%.1f -> %.1f)\n",
                stat.m.readLatencyP99, hot.m.readLatencyP99);
            return 2;
        }
        if (hot.migrationOverheadPct > 5.0) {
            std::fprintf(stderr,
                         "migration overhead %.2f%% exceeds the 5%% "
                         "budget\n",
                         hot.migrationOverheadPct);
            return 2;
        }
    }
    (void)alloy;
    return 0;
}
