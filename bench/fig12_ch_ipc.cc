/**
 * @file
 * Figure 12: Normalized user IPC vs number of memory channels.
 * Regenerates the paper's figure rows; README's "Figure / table
 * binaries" table lists every such binary, and example_characterize
 * prints the paper's targets next to the measured values. Flags:
 * --csv, --fast D, --threads N.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mcsim;
    return bench::figureMain(
        argc, argv, "Figure 12: Normalized user IPC vs number of memory channels",
        "user IPC", bench::runChannelStudy,
        [](const MetricSet &m) { return m.userIpc; }, true, 3);
}
