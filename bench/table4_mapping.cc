/**
 * @file
 * Table 4: the best-performing multi-channel address mapping scheme
 * for each workload at 2 and 4 channels, plus the full IPC matrix
 * across all schemes so the margins are visible.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mcsim;
    bool csv = false;
    FlagSet().flag("--csv", csv).fast().threads().parse(argc, argv);

    // The full (channels, scheme, workload) matrix is one batch.
    constexpr std::uint32_t kChannels[] = {2, 4};
    std::vector<bench::LabeledConfig> configs;
    for (std::uint32_t channels : kChannels) {
        for (auto scheme : kAllMappingSchemes) {
            SimConfig cfg = SimConfig::baseline();
            cfg.dram.channels = channels;
            cfg.mapping = scheme;
            configs.push_back({mappingSchemeName(scheme), cfg});
        }
    }
    ExperimentRunner runner;
    const auto series = bench::runConfigStudy(runner, configs);

    // Full IPC matrix per channel count.
    auto s = series.begin();
    for (std::uint32_t channels : kChannels) {
        TextTable table;
        std::vector<std::string> header{"workload"};
        for (auto scheme : kAllMappingSchemes)
            header.emplace_back(mappingSchemeName(scheme));
        header.emplace_back("best");
        table.setHeader(header);
        for (auto wl : kAllWorkloads) {
            std::vector<std::string> row{workloadAcronym(wl)};
            double bestIpc = -1.0;
            std::string best;
            for (auto it = s; it != s + kAllMappingSchemes.size(); ++it) {
                const double ipc = it->results.at(wl).userIpc;
                row.push_back(TextTable::num(ipc, 3));
                if (ipc > bestIpc) {
                    bestIpc = ipc;
                    best = it->label;
                }
            }
            row.push_back(best);
            table.addRow(std::move(row));
        }
        s += kAllMappingSchemes.size();
        if (!csv) {
            std::printf("Table 4 (%u-channel): user IPC per address "
                        "mapping scheme\n",
                        channels);
        }
        std::printf("%s\n", csv ? table.renderCsv().c_str()
                                : table.render().c_str());
    }
    return 0;
}
