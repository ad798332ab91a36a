/**
 * @file
 * Out-of-order hypothesis ablation: the paper's Section 5 limits the
 * study to in-order pods and hypothesizes that "aggressive out-of-order
 * designs might lead to different conclusions about how simple the
 * memory scheduling technique should be and the needed off-chip memory
 * bandwidth due to a potential increase in the MLP".
 *
 * This bench emulates increasingly aggressive cores by widening the
 * per-core MLP window (outstanding load misses: 1 = the paper's
 * in-order pod, 4 and 8 = OoO-like) and re-asks the two questions:
 *
 *  (a) does a 4-channel system start helping scale-out workloads?
 *  (b) does the FR-FCFS vs FCFS_banks gap widen?
 *
 * Usage: ablation_ooo [--fast D] [--threads N]
 */

#include <cstdio>

#include "bench_common.hh"

using namespace mcsim;

namespace {

constexpr std::array<WorkloadId, 4> kScaleOut = {
    WorkloadId::DS, WorkloadId::WS, WorkloadId::MR, WorkloadId::MS};

constexpr std::array<std::uint32_t, 3> kMlpWindows = {1, 4, 8};

} // namespace

int
main(int argc, char **argv)
{
    FlagSet().fast().threads().parse(argc, argv);

    // Every point of both parts is one batch: per MLP window, the
    // 1-channel FR-FCFS baseline, 4 channels, FCFS_banks and PAR-BS.
    std::vector<bench::LabeledConfig> configs;
    for (auto mlp : kMlpWindows) {
        SimConfig one = SimConfig::baseline();
        one.coreMlpOverride = mlp;
        SimConfig four = one;
        four.dram.channels = 4;
        four.mapping = MappingScheme::RoChRaBaCo;
        SimConfig fb = one;
        fb.scheduler = SchedulerKind::FcfsBanks;
        SimConfig pb = one;
        pb.scheduler = SchedulerKind::ParBs;
        for (const SimConfig &cfg : {one, four, fb, pb})
            configs.push_back({"", cfg});
    }
    ExperimentRunner runner;
    const auto series = bench::runConfigStudy(
        runner, configs, {kScaleOut.begin(), kScaleOut.end()});
    // Variant v (0 = one, 1 = four, 2 = fb, 3 = pb) at MLP window k.
    const auto at = [&](std::size_t k, std::size_t v,
                        WorkloadId wl) -> const MetricSet & {
        return series[4 * k + v].results.at(wl);
    };

    // (a) Channel-count benefit as MLP grows.
    {
        TextTable table;
        table.setHeader({"workload", "MLP", "1ch IPC", "4ch IPC",
                         "4ch/1ch", "1ch BW%"});
        for (auto wl : kScaleOut) {
            for (std::size_t k = 0; k < kMlpWindows.size(); ++k) {
                const MetricSet &m1 = at(k, 0, wl);
                const MetricSet &m4 = at(k, 1, wl);
                table.addRow({workloadAcronym(wl),
                              std::to_string(kMlpWindows[k]),
                              TextTable::num(m1.userIpc, 3),
                              TextTable::num(m4.userIpc, 3),
                              TextTable::num(m4.userIpc / m1.userIpc, 3),
                              TextTable::num(m1.bwUtilPct, 1)});
            }
        }
        std::printf("OoO ablation (a): channel benefit vs MLP window "
                    "(scale-out workloads)\n%s\n",
                    table.render().c_str());
    }

    // (b) Scheduler sensitivity as MLP grows.
    {
        TextTable table;
        table.setHeader(
            {"workload", "MLP", "FCFS_banks/FR-FCFS", "PAR-BS/FR-FCFS"});
        for (auto wl : kScaleOut) {
            for (std::size_t k = 0; k < kMlpWindows.size(); ++k) {
                const double ipcFr = at(k, 0, wl).userIpc;
                table.addRow(
                    {workloadAcronym(wl), std::to_string(kMlpWindows[k]),
                     TextTable::num(at(k, 2, wl).userIpc / ipcFr, 3),
                     TextTable::num(at(k, 3, wl).userIpc / ipcFr, 3)});
            }
        }
        std::printf("OoO ablation (b): scheduler gaps vs MLP window\n%s\n",
                    table.render().c_str());
    }
    return 0;
}
