/**
 * @file
 * Device ablation: the paper's Table 2 fixes DDR3-1600; this study
 * sweeps the whole DRAM device registry (DDR3-1066 through DDR4-2400
 * and LPDDR3-1600) on the otherwise-unchanged baseline and reports
 * how much speed grade actually buys scale-out workloads. The paper's
 * core claim — these workloads underuse the memory system — predicts
 * small IPC spreads across grades; the latency-vs-IPC pair below
 * makes the test directly readable.
 *
 * Each device brings its own JEDEC timing set, bank count, power
 * parameters and command-bus clock; the clock domains (and so the
 * core-cycles-per-DRAM-cycle ratio) are re-derived per device.
 *
 * Usage: ablation_device [--csv] [--fast N] [--threads N]
 */

#include "bench_common.hh"

#include "dram/devices.hh"

using namespace mcsim;
using namespace mcsim::bench;

namespace {

std::vector<Series>
runDeviceStudy(ExperimentRunner &runner)
{
    std::vector<LabeledConfig> configs;
    for (const DramDevice &dev : dramDeviceRegistry()) {
        SimConfig cfg = SimConfig::baseline();
        cfg.applyDevice(dev);
        configs.push_back({dev.name, cfg});
    }
    // DDR3-1600 first so the paper's baseline is the normalization
    // reference.
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].label == "DDR3-1600") {
            std::swap(configs[0], configs[i]);
            break;
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
        "Device ablation (a): user IPC by DRAM device, normalized to "
        "DDR3-1600",
        "user IPC", runDeviceStudy,
        [](const MetricSet &m) { return m.userIpc; },
        /*normalizeToFirst=*/true);
    figureMain(
        argc, argv,
        "Device ablation (b): mean read latency (core cycles)",
        "read latency", runDeviceStudy,
        [](const MetricSet &m) { return m.avgReadLatency; },
        /*normalizeToFirst=*/false, /*precision=*/1);
    return figureMain(
        argc, argv,
        "Device ablation (c): DRAM average power (mW)",
        "avg power", runDeviceStudy,
        [](const MetricSet &m) { return m.dramAvgPowerMw; },
        /*normalizeToFirst=*/false, /*precision=*/1);
}
