/**
 * @file
 * Energy ablation: the paper's Section 5 defers energy and power to
 * future work while arguing that the best-performing techniques "are
 * also the simplest to implement and hence would also reduce overall
 * energy and power consumption". This bench quantifies the DRAM side:
 * estimated DRAM core energy (dram/energy.hh) per scheduler and per
 * page policy, normalized to the baseline. The scheduler claim is
 * about controller logic energy, which the simulator cannot see; the
 * page-policy claim is directly measurable as activate/precharge and
 * standby energy.
 *
 * Usage: ablation_energy [--csv] [--fast N]
 */

#include "bench_common.hh"

using namespace mcsim;
using namespace mcsim::bench;

namespace {

std::vector<Series>
runSchedulerEnergy(ExperimentRunner &runner)
{
    std::vector<LabeledConfig> configs;
    for (auto kind : kPaperSchedulers) {
        SimConfig cfg = SimConfig::baseline();
        cfg.scheduler = kind;
        configs.push_back({schedulerKindName(kind), cfg});
    }
    return runConfigStudy(runner, configs);
}

std::vector<Series>
runPolicyEnergy(ExperimentRunner &runner)
{
    std::vector<LabeledConfig> configs;
    for (auto kind :
         {PagePolicyKind::OpenAdaptive, PagePolicyKind::CloseAdaptive,
          PagePolicyKind::Rbpp, PagePolicyKind::Abpp,
          PagePolicyKind::Timer, PagePolicyKind::History}) {
        SimConfig cfg = SimConfig::baseline();
        cfg.pagePolicy = kind;
        configs.push_back({pagePolicyKindName(kind), cfg});
    }
    return runConfigStudy(runner, configs);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto energy = [](const MetricSet &m) { return m.dramEnergyNj; };
    figureMain(
        argc, argv,
        "Energy ablation (a): DRAM energy by scheduler, normalized to "
        "FR-FCFS",
        "DRAM energy", runSchedulerEnergy, energy,
        /*normalizeToFirst=*/true);
    return figureMain(
        argc, argv,
        "Energy ablation (b): DRAM energy by page policy, normalized "
        "to OpenAdaptive",
        "DRAM energy", runPolicyEnergy, energy,
        /*normalizeToFirst=*/true);
}
