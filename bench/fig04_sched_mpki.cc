/**
 * @file
 * Figure 4: L2 misses per kilo user instructions (MPKI).
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
        argc, argv, "Figure 4: L2 misses per kilo user instructions (MPKI)",
        "L2 MPKI", bench::runSchedulerStudy,
        [](const MetricSet &m) { return m.l2Mpki; }, false, 1);
}
