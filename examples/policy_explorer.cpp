/**
 * @file
 * Policy explorer: sweep every scheduler x page-policy combination for
 * one workload and print the user-IPC grid, normalized to the paper's
 * FR-FCFS + open-adaptive baseline. The tool a controller architect
 * would reach for when asking "which pairing suits my workload?".
 *
 * Usage: policy_explorer [workload-acronym] [--fast D]
 *        policy_explorer --help | --list
 *   e.g. policy_explorer WS
 *        policy_explorer TPCH-Q6 --fast 4
 *   (default DS; a bad flag, workload or value exits 2 before
 *   simulating)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/options.hh"
#include "sim/experiment.hh"

using namespace mcsim;

namespace {

constexpr std::array<SchedulerKind, 9> kSchedulers = {
    SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks, SchedulerKind::Fcfs,
    SchedulerKind::ParBs,  SchedulerKind::Atlas,     SchedulerKind::Rl,
    SchedulerKind::Fqm,    SchedulerKind::Tcm,       SchedulerKind::Stfm};

} // namespace

int
main(int argc, char **argv)
{
    WorkloadId id = WorkloadId::DS;
    FlagSet()
        .positional("workload", id)
        .fast()
        .help(ExperimentOptions::listText())
        .parse(argc, argv);

    // The whole scheduler x policy grid is one batch; its first point
    // is the FR-FCFS + OpenAdaptive baseline.
    std::vector<ExperimentRunner::Point> points;
    for (auto sched : kSchedulers) {
        for (auto pp : kAllPagePolicies) {
            SimConfig cfg = SimConfig::baseline();
            cfg.scheduler = sched;
            cfg.pagePolicy = pp;
            points.push_back({id, cfg});
        }
    }
    ExperimentRunner runner;
    const auto metrics = runner.runAll(points);
    const double baseIpc = metrics.front().userIpc;

    TextTable table;
    std::vector<std::string> header{"scheduler \\ policy"};
    for (auto pp : kAllPagePolicies)
        header.emplace_back(pagePolicyKindName(pp));
    table.setHeader(std::move(header));

    double bestIpc = 0.0;
    std::string bestLabel;
    auto m = metrics.begin();
    for (auto sched : kSchedulers) {
        std::vector<std::string> row{schedulerKindName(sched)};
        for (auto pp : kAllPagePolicies) {
            const double ipc = (m++)->userIpc;
            if (ipc > bestIpc) {
                bestIpc = ipc;
                bestLabel = std::string(schedulerKindName(sched)) + " + " +
                            pagePolicyKindName(pp);
            }
            row.push_back(TextTable::num(ipc / baseIpc, 3));
        }
        table.addRow(std::move(row));
    }

    std::printf("policy explorer: %s\n", workloadAcronym(id));
    std::printf("user IPC normalized to FR-FCFS + OpenAdaptive "
                "(baseline IPC %.3f)\n\n%s\n",
                baseIpc, table.render().c_str());
    std::printf("best pairing: %s (%.1f%% vs baseline)\n",
                bestLabel.c_str(), 100.0 * (bestIpc / baseIpc - 1.0));
    std::printf("[%llu simulations run, %llu from cache]\n",
                static_cast<unsigned long long>(runner.simulationsRun()),
                static_cast<unsigned long long>(runner.cacheHits()));
    return 0;
}
