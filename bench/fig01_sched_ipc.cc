/**
 * @file
 * Figure 1: User IPC normalized to FR-FCFS.
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
        argc, argv, "Figure 1: User IPC normalized to FR-FCFS",
        "user IPC", bench::runSchedulerStudy,
        [](const MetricSet &m) { return m.userIpc; }, true, 3);
}
