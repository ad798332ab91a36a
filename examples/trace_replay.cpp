/**
 * @file
 * Trace capture and replay: run a synthetic workload while recording
 * its instruction/address stream to a binary trace, then replay the
 * trace through a fresh system and confirm the replayed run reproduces
 * the captured run's metrics. This is the workflow for studying a
 * fixed request stream under many controller configurations (every
 * configuration sees byte-identical traffic), and doubles as an
 * end-to-end determinism check.
 *
 * Usage: trace_replay [workload-acronym] [trace-path]
 *   e.g. trace_replay MS /tmp/ms.trace
 */

#include <cstdio>
#include <string>

#include "sim/options.hh"
#include "sim/system.hh"
#include "workload/presets.hh"
#include "workload/trace.hh"

using namespace mcsim;

namespace {

void
printRow(const char *label, const MetricSet &m)
{
    std::printf("  %-8s ipc %.4f  lat %.1f  rowhit %.1f%%  mpki %.2f  "
                "reads %llu\n",
                label, m.userIpc, m.avgReadLatency, m.rowHitRatePct,
                m.l2Mpki, static_cast<unsigned long long>(m.memReads));
}

} // namespace

int
main(int argc, char **argv)
{
    WorkloadId id = WorkloadId::MS;
    std::string path = "/tmp/cloudmc_example.trace";
    FlagSet()
        .positional("workload", id)
        .positional("trace-path", path)
        .help(ExperimentOptions::listText())
        .parse(argc, argv);

    SimConfig cfg = SimConfig::baseline();
    cfg.warmupCoreCycles = 200'000;
    cfg.measureCoreCycles = 800'000;
    const WorkloadParams params = workloadPreset(id);

    // Pass 1: capture. The recording wrapper taps the generator the
    // cores actually drive, so the trace holds exactly the stream the
    // captured run consumed.
    std::printf("capturing %s to %s ...\n", workloadAcronym(id),
                path.c_str());
    MetricSet captured;
    std::uint64_t recorded = 0;
    {
        SyntheticWorkload inner(params, 16ull << 30);
        TraceWriter writer(path, params.cores);
        RecordingWorkload recorder(inner, writer);
        System sys(cfg, recorder, params.cores);
        captured = sys.run();
        recorded = writer.recordsWritten();
    }
    printRow("capture", captured);
    std::printf("  %llu trace records written\n",
                static_cast<unsigned long long>(recorded));

    // Pass 2: replay the trace through a fresh system. The replayed
    // stream is identical, so the metrics must match exactly.
    std::printf("replaying ...\n");
    TraceWorkload replay(path);
    System sys(cfg, replay, replay.numCores());
    const MetricSet replayed = sys.run();
    printRow("replay", replayed);

    const bool match =
        captured.committedInstructions == replayed.committedInstructions &&
        captured.memReads == replayed.memReads &&
        captured.userIpc == replayed.userIpc;
    std::printf(match ? "replay matches capture: deterministic\n"
                      : "MISMATCH between capture and replay\n");

    // Bonus: the captured stream under a different controller. This is
    // the methodological point of traces — configuration studies on a
    // frozen request stream.
    SimConfig close = cfg;
    close.pagePolicy = PagePolicyKind::CloseAdaptive;
    TraceWorkload replay2(path);
    System sys2(close, replay2, replay2.numCores());
    printRow("close-pg", sys2.run());
    std::remove(path.c_str());
    return match ? 0 : 2;
}
