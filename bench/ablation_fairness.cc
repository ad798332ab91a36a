/**
 * @file
 * Fairness-scheduler ablation with *measured* slowdowns: the paper's
 * central comparison (FR-FCFS vs the fairness proposals PAR-BS, ATLAS,
 * TCM, STFM) re-run with the metrics those proposals actually
 * optimize — per-core slowdown against alone-run baselines, weighted
 * speedup, harmonic-mean speedup, and maximum slowdown — instead of
 * the crude min/max per-core IPC ratio.
 *
 * Two settings are reported:
 *  - a paper preset (homogeneous scale-out; default WS), where the
 *    paper argues fairness scheduling is a non-issue, and
 *  - a heterogeneous MixedWorkload (light web + heavy TPC-H), the
 *    adversarial home turf those schedulers were designed for.
 *
 * Every (setting, scheduler) point and every alone-run baseline is
 * submitted as one ExperimentRunner::runAll batch and memoized in the
 * shared results cache, so a second invocation recalls everything —
 * baselines included — without simulating.
 *
 * Usage: ablation_fairness [--workload ACR] [--measure N] [--threads N]
 *                          [--csv]
 *        (defaults: WS, 4M measured core cycles, shared default cache;
 *        N >= 1, and a bad flag or value exits 2 before simulating)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/experiment.hh"
#include "sim/options.hh"
#include "workload/mixed.hh"

using namespace mcsim;

namespace {

const std::vector<SchedulerKind> kSchedulers = {
    SchedulerKind::FrFcfs, SchedulerKind::ParBs, SchedulerKind::Atlas,
    SchedulerKind::Tcm, SchedulerKind::Stfm};

void
printCase(const char *label, const std::vector<MetricSet> &metrics,
          std::size_t &i, bool csv)
{
    if (csv) {
        for (auto sched : kSchedulers) {
            const MetricSet &m = metrics[i++];
            std::printf("%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f\n", label,
                        schedulerKindName(sched), m.userIpc,
                        m.weightedSpeedup, m.harmonicSpeedup,
                        m.maxSlowdown, m.ipcDisparity);
        }
        return;
    }
    TextTable table;
    table.setHeader({"scheduler", "total IPC", "wtd speedup",
                     "harm speedup", "max slowdown", "min/max IPC"});
    for (auto sched : kSchedulers) {
        const MetricSet &m = metrics[i++];
        table.addRow({schedulerKindName(sched),
                      TextTable::num(m.userIpc, 3),
                      TextTable::num(m.weightedSpeedup, 3),
                      TextTable::num(m.harmonicSpeedup, 3),
                      TextTable::num(m.maxSlowdown, 3),
                      TextTable::num(m.ipcDisparity, 3)});
    }
    std::printf("Fairness ablation: %s\n%s\n", label,
                table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t measure = 4'000'000;
    WorkloadId preset = WorkloadId::WS;
    bool csv = false;
    FlagSet()
        .flag("--workload ACR", preset)
        .flag("--measure N", measure, 1)
        .threads()
        .flag("--csv", csv)
        .parse(argc, argv);
    const std::vector<MixPart> mix = {{WorkloadId::WS, 8},
                                      {WorkloadId::TPCHQ6, 8}};
    const std::string mixLabel = "mix WS:8 + TPCH-Q6:8";

    // One batch: (preset + mix) x schedulers, each point carrying its
    // alone-run baseline(s); all memoized in the shared results cache.
    const std::size_t n = kSchedulers.size();
    std::vector<ExperimentRunner::Point> points(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        SimConfig cfg = SimConfig::baseline();
        cfg.scheduler = kSchedulers[i];
        cfg.warmupCoreCycles = 1'000'000;
        cfg.measureCoreCycles = measure;
        points[i] = ExperimentRunner::Point(preset, cfg);
        ExperimentRunner::attachAloneBaseline(points[i]);
        points[n + i] =
            ExperimentRunner::mixedFairnessPoint(mix, cfg, 16ull << 30);
    }
    ExperimentRunner runner;
    const auto metrics = runner.runAll(points);

    if (csv) {
        std::printf("case,scheduler,ipc,weighted_speedup,"
                    "harmonic_speedup,max_slowdown,ipc_disparity\n");
    }
    std::size_t i = 0;
    printCase((std::string("preset ") + workloadAcronym(preset)).c_str(),
              metrics, i, csv);
    printCase(mixLabel.c_str(), metrics, i, csv);
    std::printf("(%llu simulated, %llu cache hits)\n",
                static_cast<unsigned long long>(runner.simulationsRun()),
                static_cast<unsigned long long>(runner.cacheHits()));
    return 0;
}
