/**
 * @file
 * Bank-group ablation: now that the channel honors the real DDR4/DDR5
 * split timings (tCCD_S/L, tRRD_S/L, tWTR_S/L), does the placement of
 * the group-select bits matter for the paper's scale-out workloads?
 *
 * Two layouts per grouped device: GroupInterleaved sinks the group
 * bits to block granularity, so a streaming CAS train rotates across
 * bank groups and pays only tCCD_S; GroupPacked keeps the classic
 * contiguous bank field, so a stream stays inside one group and the
 * long tCCD_L spacing binds between its column commands. The two
 * layouts trade off against each other — a gap the old single-tCCD
 * model (which assumed perfect interleaving) could not see at all:
 *
 *  - On the sequential DSP queries (TPC-H), packed loses a few
 *    percent IPC and ~15 cycles of read latency: the stream's CAS
 *    train stays in one group and tCCD_L binds (the (c) table shows
 *    its same-group CAS fraction roughly tripling).
 *  - On the scale-out mixes, interleaving the group bits at block
 *    granularity splinters each stream's row locality across G banks
 *    (more activates, shorter row visits), and packed wins by up to
 *    ~5-12% — bank-group interleaving is not a free lunch.
 *
 * Usage: ablation_bankgroup [--csv] [--fast N] [--threads N]
 */

#include "bench_common.hh"

#include "dram/devices.hh"

using namespace mcsim;
using namespace mcsim::bench;

namespace {

std::vector<Series>
runBankGroupStudy(ExperimentRunner &runner)
{
    std::vector<LabeledConfig> configs;
    for (const char *dev : {"DDR4-2400", "DDR5-4800"}) {
        for (const auto gm : kAllBankGroupMappings) {
            SimConfig cfg = SimConfig::baseline();
            cfg.applyDevice(dramDeviceOrDie(dev));
            cfg.bankGroupMapping = gm;
            const char *tag =
                gm == BankGroupMapping::GroupInterleaved ? "/int"
                                                         : "/pack";
            configs.push_back({std::string(dev) + tag, cfg});
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
        "Bank-group ablation (a): user IPC by group-bit placement, "
        "normalized to DDR4-2400 group-interleaved",
        "user IPC", runBankGroupStudy,
        [](const MetricSet &m) { return m.userIpc; },
        /*normalizeToFirst=*/true);
    figureMain(
        argc, argv,
        "Bank-group ablation (b): mean read latency (core cycles)",
        "read latency", runBankGroupStudy,
        [](const MetricSet &m) { return m.avgReadLatency; },
        /*normalizeToFirst=*/false, /*precision=*/1);
    return figureMain(
        argc, argv,
        "Bank-group ablation (c): same-bank-group CAS fraction (%), "
        "the population tCCD_L spaces",
        "same-group CAS %", runBankGroupStudy,
        [](const MetricSet &m) { return m.sameGroupCasPct; },
        /*normalizeToFirst=*/false, /*precision=*/1);
}
