/**
 * @file
 * Figure 2: Row-buffer hit rate.
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
        argc, argv, "Figure 2: Row-buffer hit rate",
        "row-buffer hit rate (%)", bench::runSchedulerStudy,
        [](const MetricSet &m) { return m.rowHitRatePct; }, false, 1);
}
