#include "metrics.hh"

#include <algorithm>

#include "common/log.hh"

namespace mcsim {

const std::vector<MetricField> &
metricFields()
{
    static const std::vector<MetricField> fields = {
        {"user_ipc", &MetricSet::userIpc},
        {"avg_read_latency", &MetricSet::avgReadLatency},
        {"row_hit_rate_pct", &MetricSet::rowHitRatePct},
        {"l2_mpki", &MetricSet::l2Mpki},
        {"avg_read_queue", &MetricSet::avgReadQueue},
        {"avg_write_queue", &MetricSet::avgWriteQueue},
        {"bw_util_pct", &MetricSet::bwUtilPct},
        {"single_access_pct", &MetricSet::singleAccessPct},
        {"committed_instructions", &MetricSet::committedInstructions},
        {"measured_cycles", &MetricSet::measuredCycles},
        {"mem_reads", &MetricSet::memReads},
        {"mem_writes", &MetricSet::memWrites},
        {"ipc_disparity", &MetricSet::ipcDisparity},
        {"dram_energy_nj", &MetricSet::dramEnergyNj},
        {"dram_avg_power_mw", &MetricSet::dramAvgPowerMw},
        {"read_latency_p50", &MetricSet::readLatencyP50},
        {"read_latency_p95", &MetricSet::readLatencyP95},
        {"read_latency_p99", &MetricSet::readLatencyP99},
        {"weighted_speedup", &MetricSet::weightedSpeedup},
        {"harmonic_speedup", &MetricSet::harmonicSpeedup},
        {"max_slowdown", &MetricSet::maxSlowdown},
        {"per_core_ipc", &MetricSet::perCoreIpc},
        {"per_core_slowdown", &MetricSet::perCoreSlowdown},
        {"same_group_cas_pct", &MetricSet::sameGroupCasPct},
        {"vault_queue_imbalance", &MetricSet::vaultQueueImbalance},
        {"remap_migrations", &MetricSet::remapMigrations},
        {"remap_migrated_rows", &MetricSet::remapMigratedRows},
        {"per_vault_read_queue", &MetricSet::perVaultReadQueue},
        {"fast_tier_hit_pct", &MetricSet::fastTierHitPct},
        {"slow_tier_read_latency_p99",
         &MetricSet::slowTierReadLatencyP99},
        {"tier_migrations", &MetricSet::tierMigrations},
        {"tier_migrated_rows", &MetricSet::tierMigratedRows},
    };
    return fields;
}

const char *
firstDifferentMetric(const MetricSet &a, const MetricSet &b)
{
    for (const MetricField &f : metricFields()) {
        const bool same = std::visit(
            [&](auto member) { return a.*member == b.*member; }, f.member);
        if (!same)
            return f.name;
    }
    if (a.perCoreCommitted != b.perCoreCommitted)
        return "per_core_committed";
    if (a.perCoreCycles != b.perCoreCycles)
        return "per_core_cycles";
    return nullptr;
}

bool
deriveFairnessMetrics(MetricSet &shared,
                      const std::vector<AloneBaselineMetrics> &baselines)
{
    shared.perCoreSlowdown.clear();
    shared.weightedSpeedup = 0.0;
    shared.harmonicSpeedup = 0.0;
    shared.maxSlowdown = 0.0;

    const std::size_t cores = shared.perCoreIpc.size();
    if (cores == 0 || baselines.empty())
        return false;

    // Resolve each shared core's alone-run IPC; -1 marks "uncovered".
    std::vector<double> aloneIpc(cores, -1.0);
    for (const AloneBaselineMetrics &b : baselines) {
        if (!b.alone || b.numCores == 0 ||
            b.firstCore + b.numCores > cores) {
            return false;
        }
        const std::vector<double> &alone = b.alone->perCoreIpc;
        const bool perCore = alone.size() == b.numCores;
        if (!perCore && alone.size() != 1)
            return false; // Neither part-isolated nor single-core.
        for (std::uint32_t l = 0; l < b.numCores; ++l) {
            const std::uint32_t c = b.firstCore + l;
            if (aloneIpc[c] >= 0.0)
                return false; // Overlapping baselines.
            aloneIpc[c] = perCore ? alone[l] : alone[0];
        }
    }
    if (std::any_of(aloneIpc.begin(), aloneIpc.end(),
                    [](double v) { return v < 0.0; })) {
        return false; // A core has no baseline.
    }

    shared.perCoreSlowdown.resize(cores, 1.0);
    double slowdownSum = 0.0;
    for (std::size_t c = 0; c < cores; ++c) {
        const double sharedIpc = shared.perCoreIpc[c];
        const double alone = aloneIpc[c];
        double s = 1.0;
        if (alone > 0.0) {
            // A fully starved core (0 instructions committed in the
            // shared window while its alone run makes progress) is the
            // very pathology these metrics exist to expose: score it
            // as if it had committed a single instruction, the largest
            // finite slowdown the window can attest to.
            const double floorIpc =
                shared.measuredCycles
                    ? 1.0 / static_cast<double>(shared.measuredCycles)
                    : 1.0;
            s = alone / (sharedIpc > 0.0 ? sharedIpc : floorIpc);
        }
        shared.perCoreSlowdown[c] = s;
        slowdownSum += s;
        if (alone > 0.0)
            shared.weightedSpeedup += sharedIpc / alone;
        if (s > shared.maxSlowdown)
            shared.maxSlowdown = s;
    }
    shared.harmonicSpeedup = slowdownSum > 0.0
                                 ? static_cast<double>(cores) / slowdownSum
                                 : 0.0;
    return true;
}

} // namespace mcsim
