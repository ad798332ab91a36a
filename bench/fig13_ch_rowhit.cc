/**
 * @file
 * Figure 13: Normalized row-buffer hit rate vs number of memory channels.
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
        argc, argv, "Figure 13: Normalized row-buffer hit rate vs number of memory channels",
        "row-buffer hit rate", bench::runChannelStudy,
        [](const MetricSet &m) { return m.rowHitRatePct; }, true, 3);
}
