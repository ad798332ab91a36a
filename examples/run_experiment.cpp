/**
 * @file
 * Generic experiment runner: simulate any (workload, scheduler, page
 * policy, mapping, device, channel count) point from the command
 * line — or a whole declarative sweep from a spec file — and print
 * the metric set(s). The repo's swiss-army knife for one-off
 * questions ("what does TCM + History do to TPC-H Q6 on 2 channels of
 * DDR4-2400?") without writing code.
 *
 * Usage: run_experiment [workload] [--scheduler S] [--policy P]
 *                       [--mapping M] [--device D] [--channels N] [...]
 *        run_experiment --config sweep.spec [--csv]
 *
 * With --config (or a comma list on any axis flag) the spec's cross
 * product runs as one parallel batch through ExperimentRunner::runAll
 * and prints one row per point. Run with --help for every flag and
 * spec key and --list for every legal name.
 */

#include <cstdio>

#include "sim/options.hh"
#include "sim/spec.hh"
#include "sim/system.hh"

using namespace mcsim;

namespace {

/** Mapping column label; "+gp" marks the group-packed placement. */
std::string
mappingLabel(const SimConfig &cfg)
{
    std::string label = mappingSchemeName(cfg.mapping);
    if (cfg.bankGroupMapping == BankGroupMapping::GroupPacked &&
        cfg.dram.bankGroupsPerRank > 1) {
        label += "+gp";
    }
    return label;
}

int
runSweep(const ExperimentOptions &opts)
{
    const ExperimentSpec &spec = opts.spec;
    const auto points = spec.points();
    std::printf("run_experiment: sweeping %zu point(s) from spec%s\n",
                points.size(),
                spec.fairness ? " (with alone-run baselines)" : "");
    ExperimentRunner runner;
    const auto results = runner.runAll(points);

    if (opts.csv) {
        std::printf("workload,device,scheduler,policy,mapping,channels,"
                    "ipc,read_latency,row_hit_pct,bw_util_pct,"
                    "energy_uj%s\n",
                    spec.fairness ? ",weighted_speedup,harmonic_speedup,"
                                    "max_slowdown"
                                  : "");
    } else {
        std::printf("%-8s %-12s %-10s %-13s %-11s %3s %7s %9s %7s %7s "
                    "%9s",
                    "wl", "device", "scheduler", "policy", "mapping",
                    "ch", "ipc", "lat(cyc)", "hit%", "bw%", "uJ");
        if (spec.fairness)
            std::printf(" %7s %7s %7s", "wspd", "hspd", "maxsd");
        std::printf("\n");
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SimConfig &cfg = points[i].cfg;
        const MetricSet &m = results[i];
        std::printf(opts.csv ? "%s,%s,%s,%s,%s,%u,%.4f,%.1f,%.2f,%.2f,"
                               "%.1f"
                             : "%-8s %-12s %-10s %-13s %-11s %3u %7.3f "
                               "%9.1f %7.2f %7.2f %9.1f",
                    workloadAcronym(points[i].workload),
                    cfg.deviceName.c_str(),
                    schedulerKindName(cfg.scheduler),
                    pagePolicyKindName(cfg.pagePolicy),
                    mappingLabel(cfg).c_str(), cfg.dram.channels,
                    m.userIpc, m.avgReadLatency, m.rowHitRatePct,
                    m.bwUtilPct, m.dramEnergyNj / 1000.0);
        if (spec.fairness) {
            std::printf(opts.csv ? ",%.4f,%.4f,%.4f"
                                 : " %7.3f %7.3f %7.3f",
                        m.weightedSpeedup, m.harmonicSpeedup,
                        m.maxSlowdown);
        }
        std::printf("\n");
    }
    std::printf("(%llu simulated, %llu cache hits)\n",
                static_cast<unsigned long long>(runner.simulationsRun()),
                static_cast<unsigned long long>(runner.cacheHits()));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentOptions opts;
    const std::string err = opts.parse(argc - 1, argv + 1);
    if (!err.empty()) {
        std::fprintf(stderr, "error: %s\n\n%s", err.c_str(),
                     ExperimentOptions::usage("run_experiment").c_str());
        return 1;
    }
    if (opts.helpRequested) {
        std::fputs(ExperimentOptions::usage("run_experiment").c_str(),
                   stdout);
        return 0;
    }
    if (opts.listRequested) {
        std::fputs(ExperimentOptions::listText().c_str(), stdout);
        return 0;
    }
    if (opts.hasSpec || opts.spec.pointCount() > 1)
        return runSweep(opts);

    const WorkloadParams workload = workloadPreset(opts.workload);
    // The windows CLOUDMC_FAST divides, like every sweep point's.
    const SimConfig cfg = ExperimentRunner::runConfig(opts.config, 0);
    std::printf("run_experiment: %s | %s | %s | %s | %s | %u channel(s)\n",
                workload.acronym.c_str(), cfg.deviceName.c_str(),
                schedulerKindName(cfg.scheduler),
                pagePolicyKindName(cfg.pagePolicy),
                mappingLabel(cfg).c_str(), cfg.dram.channels);

    System sys(cfg, workload);
    MetricSet m = sys.run();
    if (opts.fairness) {
        // Derive the slowdown/fairness block against the single-core
        // alone run directly, so --fairness changes nothing about the
        // base run's semantics (same windows, no results-cache
        // traffic).
        WorkloadParams alone = workload;
        alone.cores = 1;
        System aloneSys(cfg, alone);
        const MetricSet aloneM = aloneSys.run();
        deriveFairnessMetrics(m, {{0, workload.cores, &aloneM}});
    }

    if (opts.csv) {
        std::printf("metric,value\n");
        std::printf("user_ipc,%.5f\n", m.userIpc);
        std::printf("avg_read_latency_cycles,%.2f\n", m.avgReadLatency);
        std::printf("read_latency_p50,%.1f\n", m.readLatencyP50);
        std::printf("read_latency_p95,%.1f\n", m.readLatencyP95);
        std::printf("read_latency_p99,%.1f\n", m.readLatencyP99);
        std::printf("row_hit_rate_pct,%.2f\n", m.rowHitRatePct);
        std::printf("l2_mpki,%.3f\n", m.l2Mpki);
        std::printf("avg_read_queue,%.3f\n", m.avgReadQueue);
        std::printf("avg_write_queue,%.3f\n", m.avgWriteQueue);
        std::printf("bw_util_pct,%.2f\n", m.bwUtilPct);
        std::printf("single_access_pct,%.2f\n", m.singleAccessPct);
        std::printf("ipc_disparity,%.4f\n", m.ipcDisparity);
        std::printf("dram_energy_uj,%.2f\n", m.dramEnergyNj / 1000.0);
        std::printf("dram_power_mw,%.1f\n", m.dramAvgPowerMw);
        if (m.hasFairness()) {
            std::printf("weighted_speedup,%.4f\n", m.weightedSpeedup);
            std::printf("harmonic_speedup,%.4f\n", m.harmonicSpeedup);
            std::printf("max_slowdown,%.4f\n", m.maxSlowdown);
        }
        return 0;
    }

    std::printf("\n  user IPC                  : %.3f\n", m.userIpc);
    std::printf("  avg read latency          : %.1f core cycles\n",
                m.avgReadLatency);
    std::printf("  read latency p50/p95/p99  : %.0f / %.0f / %.0f\n",
                m.readLatencyP50, m.readLatencyP95, m.readLatencyP99);
    std::printf("  row-buffer hit rate       : %.1f %%\n",
                m.rowHitRatePct);
    std::printf("  L2 MPKI                   : %.2f\n", m.l2Mpki);
    std::printf("  read / write queue (avg)  : %.2f / %.2f\n",
                m.avgReadQueue, m.avgWriteQueue);
    std::printf("  memory bandwidth util     : %.1f %%\n", m.bwUtilPct);
    std::printf("  single-access activations : %.1f %%\n",
                m.singleAccessPct);
    std::printf("  per-core IPC min/max      : %.3f\n", m.ipcDisparity);
    std::printf("  DRAM energy / avg power   : %.1f uJ / %.1f mW\n",
                m.dramEnergyNj / 1000.0, m.dramAvgPowerMw);
    if (m.hasFairness()) {
        std::printf("  weighted / harmonic spdup : %.3f / %.3f\n",
                    m.weightedSpeedup, m.harmonicSpeedup);
        std::printf("  max slowdown (vs alone)   : %.3f\n",
                    m.maxSlowdown);
    }
    return 0;
}
