/**
 * @file
 * Heterogeneous-mix ablation: PAR-BS, ATLAS and TCM were designed for
 * multiprogrammed mixes of different memory intensities — precisely
 * what the paper's homogeneous server workloads are not. This bench
 * runs such mixes (light web workloads sharing the pod with heavy
 * TPC-H scans) and reports throughput plus the fairness quantities the
 * scheduler papers optimize: per-core IPC disparity and the light
 * parts' average IPC. If the fairness schedulers protect the light
 * cores here while changing nothing on the paper's workloads, the
 * paper's "fairness is a non-issue for scale-out" claim is supported
 * by implementations that demonstrably work as designed.
 *
 * The whole (mix, scheduler) matrix is submitted as one
 * ExperimentRunner::runAll batch of custom-generator points, so the
 * simulations run on the worker pool like every other bench sweep.
 * Mixed workloads are not memoized (no preset acronym to key them by).
 *
 * Usage: ablation_mixed [--measure M] (measured core cycles, default 4M)
 *                       [--threads N]
 *        (M, N >= 1; a bad flag or value exits 2 before simulating)
 */

#include <cstdio>
#include <numeric>
#include <vector>

#include "common/table.hh"
#include "sim/experiment.hh"
#include "sim/options.hh"
#include "workload/mixed.hh"

using namespace mcsim;

namespace {

struct MixCase
{
    const char *label;
    std::vector<MixPart> parts;
    std::uint32_t lightCores; ///< Cores 0..lightCores-1 are "light".
};

double
avgIpc(const std::vector<double> &perCore, std::uint32_t from,
       std::uint32_t to)
{
    const double sum = std::accumulate(perCore.begin() + from,
                                       perCore.begin() + to, 0.0);
    return sum / static_cast<double>(to - from);
}

std::uint32_t
totalCoresOf(const MixCase &mixCase)
{
    std::uint32_t cores = 0;
    for (const MixPart &part : mixCase.parts)
        cores += part.cores;
    return cores;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t measure = 4'000'000;
    FlagSet().flag("--measure M", measure, 1).threads().parse(argc, argv);

    const std::vector<MixCase> mixes = {
        {"WS:8 + TPCH-Q6:8",
         {{WorkloadId::WS, 8}, {WorkloadId::TPCHQ6, 8}},
         8},
        {"WF:4 + TPCH-Q2:12",
         {{WorkloadId::WF, 4}, {WorkloadId::TPCHQ2, 12}},
         4},
    };
    const std::vector<SchedulerKind> schedulers = {
        SchedulerKind::FrFcfs, SchedulerKind::ParBs, SchedulerKind::Atlas,
        SchedulerKind::Tcm, SchedulerKind::Stfm};

    // One batch covers every (mix, scheduler) point.
    ExperimentRunner runner("-");
    std::vector<ExperimentRunner::Point> points;
    for (const MixCase &mixCase : mixes) {
        const std::uint32_t totalCores = totalCoresOf(mixCase);
        for (auto sched : schedulers) {
            ExperimentRunner::Point p;
            p.cfg = SimConfig::baseline();
            p.cfg.scheduler = sched;
            p.cfg.warmupCoreCycles = 1'000'000;
            p.cfg.measureCoreCycles = measure;
            const auto parts = mixCase.parts;
            p.makeGenerator = [parts] {
                return std::make_unique<MixedWorkload>(parts, 16ull << 30);
            };
            p.customCores = totalCores;
            points.push_back(std::move(p));
        }
    }
    const auto metrics = runner.runAll(points);

    std::size_t i = 0;
    for (const MixCase &mixCase : mixes) {
        const std::uint32_t totalCores = totalCoresOf(mixCase);
        TextTable table;
        table.setHeader({"scheduler", "total IPC", "light-part IPC",
                         "heavy-part IPC", "min/max fairness"});
        for (auto sched : schedulers) {
            const MetricSet &m = metrics[i++];
            table.addRow(
                {schedulerKindName(sched), TextTable::num(m.userIpc, 3),
                 TextTable::num(
                     avgIpc(m.perCoreIpc, 0, mixCase.lightCores), 3),
                 TextTable::num(avgIpc(m.perCoreIpc, mixCase.lightCores,
                                       totalCores),
                                3),
                 TextTable::num(m.ipcDisparity, 3)});
        }
        std::printf("Mixed-workload ablation: %s\n%s\n", mixCase.label,
                    table.render().c_str());
    }
    return 0;
}
