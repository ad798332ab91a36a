/**
 * @file
 * Figure 11: User IPC normalized to OAPM.
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
        argc, argv, "Figure 11: User IPC normalized to OAPM",
        "user IPC", bench::runPagePolicyStudy,
        [](const MetricSet &m) { return m.userIpc; }, true, 3);
}
