/**
 * @file
 * Batched-execution boundary conditions: every way a core's batched
 * run can terminate must leave the simulation bit-identical to the
 * per-cycle reference kernel — metrics AND exact DRAM command traces
 * — on both the DDR3-1600 baseline grid (2:5) and the DDR5-4800 grid
 * (6:5). Covered terminators:
 *  - a run ending at an L1-missing access (the op latches and executes
 *    at the core's next ordered tick),
 *  - scheduler quantum/decay/shuffle deadlines (ATLAS, TCM, RL, STFM)
 *    that the kernel must wake for regardless of how far cores batched,
 *  - refresh-induced stalls (batching must never skip a core past a
 *    refresh deadline's side effects),
 *  - the simulation end tick (batches clamp at the advance window so
 *    statistics windows close exactly like the reference loop).
 */

#include <gtest/gtest.h>

#include "dram/command_log.hh"
#include "dram/devices.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

SimConfig
smallConfig(const char *device)
{
    SimConfig cfg = SimConfig::baseline();
    if (device)
        cfg.applyDevice(dramDeviceOrDie(device));
    cfg.warmupCoreCycles = 20'000;
    cfg.measureCoreCycles = 100'000;
    return cfg;
}

struct TracedRun
{
    MetricSet metrics;
    CommandLog log;
    KernelStats kernel;
    Tick end{};
};

TracedRun
runTraced(const SimConfig &cfg, WorkloadId wl, bool reference)
{
    System sys(cfg, workloadPreset(wl));
    sys.useReferenceKernel(reference);
    TracedRun r;
    r.log.attachAll(sys);
    r.metrics = sys.run();
    r.kernel = sys.kernelStats();
    r.end = sys.now();
    return r;
}

/** Run both kernels; require identical metrics and command streams. */
TracedRun
expectEquivalent(const SimConfig &cfg, WorkloadId wl)
{
    TracedRun ev = runTraced(cfg, wl, false);
    const TracedRun ref = runTraced(cfg, wl, true);
    EXPECT_EQ(ev.end, ref.end);
    EXPECT_STREQ(firstDifferentMetric(ev.metrics, ref.metrics), nullptr);
    EXPECT_EQ(ev.log.firstDivergence(ref.log), "");
    return ev;
}

} // namespace

class BatchBoundary : public ::testing::TestWithParam<const char *>
{
};

/**
 * Miss-terminated runs: WS's shared L2 traffic means every few dozen
 * instructions an access leaves the L1s, latches, and executes at the
 * ordered tick. The event run must still batch (or the scenario tests
 * nothing) and must still reach DRAM (so latched ops really were
 * misses, not just L2 hits).
 */
TEST_P(BatchBoundary, MissTerminatedRunsStayBitIdentical)
{
    const SimConfig cfg = smallConfig(GetParam());
    const TracedRun ev = expectEquivalent(cfg, WorkloadId::WS);
    EXPECT_GT(ev.kernel.coreBatchRuns, 0u);
    EXPECT_GT(ev.kernel.coreCyclesBatched, ev.kernel.coreBatchRuns);
    EXPECT_GT(ev.metrics.memReads, 0u);
}

/**
 * Scheduler deadline boundaries: ATLAS quanta, TCM's ranking shuffle,
 * RL's learning epochs and STFM's continuous fairness estimation all
 * report nextEventAt deadlines the kernel must execute no matter how
 * far ahead the cores batched.
 */
TEST_P(BatchBoundary, SchedulerDeadlinesStayBitIdentical)
{
    for (const SchedulerKind kind :
         {SchedulerKind::Atlas, SchedulerKind::Tcm, SchedulerKind::Rl,
          SchedulerKind::Stfm}) {
        SimConfig cfg = smallConfig(GetParam());
        cfg.scheduler = kind;
        const TracedRun ev = expectEquivalent(cfg, WorkloadId::WS);
        EXPECT_GT(ev.kernel.coreCyclesBatched, 0u);
    }
}

/**
 * Refresh-induced stalls: a refresh blocks banks for tRFC, so reads
 * queue up and the resulting stalls must land on exactly the same
 * cycles in both kernels. The trace must actually contain refreshes.
 */
TEST_P(BatchBoundary, RefreshStallsStayBitIdentical)
{
    SimConfig cfg = smallConfig(GetParam());
    cfg.refreshEnabled = true;
    cfg.measureCoreCycles = 150'000; // Spans several tREFI periods.
    const TracedRun ev = expectEquivalent(cfg, WorkloadId::WS);
    EXPECT_GT(ev.log.count(DramCommandType::Refresh), 0u)
        << "trace never exercised a refresh";
    EXPECT_GT(ev.kernel.coreCyclesBatched, 0u);
}

/**
 * Simulation end tick: batches are clamped to the advance window's
 * final core cycle, so ragged windows (prime-sized chunks that never
 * line up with batch sizes or the tick grid's LCM) must close every
 * statistics window on exactly the same cycle as the reference loop.
 */
TEST_P(BatchBoundary, WindowEndClampsBatches)
{
    const SimConfig cfg = smallConfig(GetParam());
    System ev(cfg, workloadPreset(WorkloadId::WS));
    System ref(cfg, workloadPreset(WorkloadId::WS));
    ref.useReferenceKernel(true);
    CommandLog evLog, refLog;
    evLog.attachAll(ev);
    refLog.attachAll(ref);
    for (const std::uint64_t chunk :
         {std::uint64_t{9973}, std::uint64_t{1}, std::uint64_t{2},
          std::uint64_t{15013}, std::uint64_t{3}, std::uint64_t{30011}}) {
        ev.advance(chunk);
        ref.advance(chunk);
        ASSERT_EQ(ev.now(), ref.now());
        EXPECT_STREQ(firstDifferentMetric(ev.collect(), ref.collect()),
                     nullptr);
    }
    ev.resetStats();
    ref.resetStats();
    ev.advance(50'000);
    ref.advance(50'000);
    EXPECT_STREQ(firstDifferentMetric(ev.collect(), ref.collect()),
                 nullptr);
    EXPECT_EQ(evLog.firstDivergence(refLog), "");
    EXPECT_GT(ev.kernelStats().coreCyclesBatched, 0u);
}

INSTANTIATE_TEST_SUITE_P(Devices, BatchBoundary,
                         ::testing::Values("DDR3-1600", "DDR5-4800"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return name;
                         });
