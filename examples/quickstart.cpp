/**
 * @file
 * Quickstart: simulate one CloudSuite workload on the paper's Table 2
 * baseline system and print every metric the study tracks.
 *
 * Usage: quickstart [workload-acronym]
 *   e.g. quickstart DS        (default)
 *        quickstart TPCH-Q6
 */

#include <cstdio>
#include <string>

#include "sim/options.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

int
main(int argc, char **argv)
{
    WorkloadId id = WorkloadId::DS;
    FlagSet()
        .positional("workload", id)
        .help(ExperimentOptions::listText())
        .parse(argc, argv);

    const WorkloadParams workload = workloadPreset(id);
    SimConfig cfg = SimConfig::baseline();

    std::printf("cloudmc quickstart\n");
    std::printf("  workload   : %s (%s, %s)\n", workload.name.c_str(),
                workload.acronym.c_str(),
                workloadCategoryName(workload.category));
    std::printf("  system     : %u in-order cores @2GHz, 4MB L2, "
                "%u-channel DDR3-1600\n",
                workload.cores, cfg.dram.channels);
    std::printf("  controller : %s scheduling, %s page policy, %s\n",
                schedulerKindName(cfg.scheduler),
                pagePolicyKindName(cfg.pagePolicy),
                mappingSchemeName(cfg.mapping));
    std::printf("  window     : %llu warmup + %llu measured core cycles\n",
                static_cast<unsigned long long>(cfg.warmupCoreCycles),
                static_cast<unsigned long long>(cfg.measureCoreCycles));

    System system(cfg, workload);
    const MetricSet m = system.run();

    std::printf("\nresults\n");
    std::printf("  user IPC (aggregate)      : %.3f\n", m.userIpc);
    std::printf("  avg read latency          : %.1f core cycles\n",
                m.avgReadLatency);
    std::printf("  row-buffer hit rate       : %.1f %%\n",
                m.rowHitRatePct);
    std::printf("  L2 MPKI                   : %.2f\n", m.l2Mpki);
    std::printf("  avg read queue length     : %.2f\n", m.avgReadQueue);
    std::printf("  avg write queue length    : %.2f\n", m.avgWriteQueue);
    std::printf("  memory bandwidth util     : %.1f %%\n", m.bwUtilPct);
    std::printf("  single-access activations : %.1f %%\n",
                m.singleAccessPct);
    std::printf("  DRAM reads / writes       : %llu / %llu\n",
                static_cast<unsigned long long>(m.memReads),
                static_cast<unsigned long long>(m.memWrites));
    std::printf("  per-core IPC              :");
    for (double ipc : m.perCoreIpc)
        std::printf(" %.2f", ipc);
    std::printf("\n");
    return 0;
}
