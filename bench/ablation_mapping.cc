/**
 * @file
 * Permutation-interleaving ablation: the paper's Section 5 lists
 * permutation-based interleaving schemes as future work. This bench
 * compares the two XOR schemes (mem/address_mapping.hh) against the
 * best paper scheme at 2 and 4 channels: user IPC and row-buffer hit
 * rate per workload, normalized to the single-channel baseline — the
 * same presentation as the paper's Figures 12-13.
 *
 * Usage: ablation_mapping [--csv] [--fast N]
 */

#include "bench_common.hh"

using namespace mcsim;
using namespace mcsim::bench;

namespace {

std::vector<Series>
runPermutationStudy(ExperimentRunner &runner)
{
    std::vector<LabeledConfig> configs;
    configs.push_back({"1ch baseline", SimConfig::baseline()});
    for (std::uint32_t channels : {2u, 4u}) {
        for (auto scheme :
             {MappingScheme::RoChRaBaCo, MappingScheme::PermBaXor,
              MappingScheme::PermChBaXor}) {
            SimConfig cfg = SimConfig::baseline();
            cfg.dram.channels = channels;
            cfg.mapping = scheme;
            configs.push_back({std::to_string(channels) + "ch " +
                                   mappingSchemeName(scheme),
                               cfg});
        }
    }
    return runConfigStudy(runner, configs);
}

} // namespace

int
main(int argc, char **argv)
{
    figureMain(
        argc, argv,
        "Permutation mapping ablation (a): user IPC normalized to the "
        "1-channel baseline",
        "user IPC", runPermutationStudy,
        [](const MetricSet &m) { return m.userIpc; },
        /*normalizeToFirst=*/true);
    return figureMain(
        argc, argv,
        "Permutation mapping ablation (b): row-buffer hit rate (%)",
        "row-buffer hit rate", runPermutationStudy,
        [](const MetricSet &m) { return m.rowHitRatePct; },
        /*normalizeToFirst=*/false);
}
