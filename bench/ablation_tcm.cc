/**
 * @file
 * TCM ablation: the paper's Section 5 excludes Thread Cluster Memory
 * scheduling on the grounds that "fairness is not an issue for
 * scale-out workloads". This bench tests that claim directly: it runs
 * TCM and STFM (the paper's reference [9] fairness scheduler) against
 * FR-FCFS, PAR-BS and ATLAS on all twelve workloads, and reports both
 * throughput (user IPC) and the paper's own fairness
 * quantity (lowest per-core IPC as a fraction of the highest,
 * Section 4.1.1). If the claim holds, TCM should buy no fairness the
 * baseline does not already provide, at equal or lower IPC.
 *
 * Usage: ablation_tcm [--csv] [--fast N]
 */

#include "bench_common.hh"

using namespace mcsim;
using namespace mcsim::bench;

namespace {

std::vector<Series>
runTcmStudy(ExperimentRunner &runner)
{
    std::vector<LabeledConfig> configs;
    for (auto kind : {SchedulerKind::FrFcfs, SchedulerKind::ParBs,
                      SchedulerKind::Atlas, SchedulerKind::Tcm,
                      SchedulerKind::Stfm}) {
        SimConfig cfg = SimConfig::baseline();
        cfg.scheduler = kind;
        configs.push_back({schedulerKindName(kind), cfg});
    }
    return runConfigStudy(runner, configs);
}

} // namespace

int
main(int argc, char **argv)
{
    figureMain(
        argc, argv, "TCM ablation (a): user IPC normalized to FR-FCFS",
        "user IPC", runTcmStudy,
        [](const MetricSet &m) { return m.userIpc; },
        /*normalizeToFirst=*/true);
    return figureMain(
        argc, argv,
        "TCM ablation (b): per-core IPC fairness (min/max, 1.0 = "
        "perfectly even)",
        "min/max per-core IPC", runTcmStudy,
        [](const MetricSet &m) { return m.ipcDisparity; },
        /*normalizeToFirst=*/false);
}
