/**
 * @file
 * DRAM energy report: run one workload under several page policies
 * and schedulers and print the estimated DRAM energy breakdown. The
 * paper defers energy to future work while arguing the simplest
 * policies would also be the cheapest; this example quantifies the
 * DRAM-side of that claim for any workload.
 *
 * Usage: energy_report [workload-acronym]
 *   e.g. energy_report MS
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hh"
#include "dram/energy.hh"
#include "sim/options.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

struct Variant
{
    std::string label;
    SimConfig cfg;
};

/** Sum the energy estimate over every channel of a finished system. */
DramEnergyBreakdown
systemEnergy(System &sys, const DramPowerParams &power)
{
    DramEnergyBreakdown total;
    for (std::uint32_t ch = 0; ch < sys.numControllers(); ++ch) {
        const Channel &channel = sys.controller(ch).channel();
        const DramEnergyModel model(power, channel.timings(),
                                    channel.geometry().ranksPerChannel,
                                    channel.geometry().banksPerRank,
                                    channel.clocks());
        const DramEnergyBreakdown e =
            model.estimate(channel.stats(), sys.now());
        total.actPreNj += e.actPreNj;
        total.readNj += e.readNj;
        total.writeNj += e.writeNj;
        total.refreshNj += e.refreshNj;
        total.backgroundNj += e.backgroundNj;
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    WorkloadId id = WorkloadId::MS;
    FlagSet()
        .positional("workload", id)
        .help(ExperimentOptions::listText())
        .parse(argc, argv);

    SimConfig base = SimConfig::baseline();
    base.warmupCoreCycles = 500'000;
    base.measureCoreCycles = 2'000'000;

    std::vector<Variant> variants;
    variants.push_back({"OpenAdaptive", base});
    for (auto pp : {PagePolicyKind::CloseAdaptive, PagePolicyKind::Open,
                    PagePolicyKind::Close, PagePolicyKind::Timer,
                    PagePolicyKind::History}) {
        Variant v{pagePolicyKindName(pp), base};
        v.cfg.pagePolicy = pp;
        variants.push_back(std::move(v));
    }

    TextTable table;
    table.setHeader({"policy", "ipc", "act+pre uJ", "rd uJ", "wr uJ",
                     "refresh uJ", "background uJ", "total uJ",
                     "avg mW", "nJ/read"});
    std::printf("DRAM energy report: %s "
                "(Micron TN-41-01 core-energy model)\n\n",
                workloadAcronym(id));

    for (auto &v : variants) {
        System sys(v.cfg, workloadPreset(id));
        const MetricSet m = sys.run();
        const DramEnergyBreakdown e = systemEnergy(sys, v.cfg.power);
        const double measuredNs =
            static_cast<double>(
                v.cfg.clocks.coreToTicks(v.cfg.measureCoreCycles)
                    .count()) *
            v.cfg.clocks.nsPerTick();
        table.addRow(
            {v.label, TextTable::num(m.userIpc, 3),
             TextTable::num(e.actPreNj / 1000.0, 1),
             TextTable::num(e.readNj / 1000.0, 1),
             TextTable::num(e.writeNj / 1000.0, 1),
             TextTable::num(e.refreshNj / 1000.0, 1),
             TextTable::num(e.backgroundNj / 1000.0, 1),
             TextTable::num(e.totalNj() / 1000.0, 1),
             TextTable::num(e.avgPowerMw(measuredNs), 0),
             TextTable::num(
                 m.memReads ? e.totalNj() / static_cast<double>(m.memReads)
                            : 0.0,
                 1)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("note: DRAM core energy only (no I/O or termination); "
                "compare columns, not absolute watts.\n");
    return 0;
}
