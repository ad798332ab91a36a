/**
 * @file
 * The epoch-sharded parallel kernel's contracts, directly:
 *
 *  - bit-identical metrics, end ticks and per-channel DRAM command
 *    logs against the serial event kernel across thread counts,
 *    channel counts and devices (the fuzzer covers the random cross
 *    product; these are the deliberate corners);
 *  - chunked advance()s — which cross the parallel prologue/epilogue
 *    handoff repeatedly — equal one uninterrupted run;
 *  - the documented serial fallback for IO/DMA-enabled workloads;
 *  - ExperimentRunner::planThreadSplit's budget arithmetic;
 *  - WorkerPool / SpinBarrier primitives.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/worker_pool.hh"
#include "dram/command_log.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

struct RunResult
{
    MetricSet metrics;
    Tick endTick{};
    CommandLog log;
};

/** Baseline-ish config kept small enough for many differential runs. */
SimConfig
testConfig(std::uint32_t channels, std::uint32_t kernelThreads)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.dram.channels = channels;
    cfg.kernelThreads = kernelThreads;
    cfg.warmupCoreCycles = 10'000;
    cfg.measureCoreCycles = 40'000;
    return cfg;
}

/** Log every channel and run. */
RunResult
runSystem(const SimConfig &cfg, WorkloadId wl)
{
    System sys(cfg, workloadPreset(wl));
    RunResult r;
    r.log.attachAll(sys);
    r.metrics = sys.run();
    r.endTick = sys.now();
    return r;
}

void
expectRunsIdentical(const RunResult &par, const RunResult &ser)
{
    EXPECT_EQ(par.endTick, ser.endTick);
    EXPECT_STREQ(firstDifferentMetric(par.metrics, ser.metrics), nullptr);
    EXPECT_EQ(par.log.firstDivergence(ser.log), "");
    EXPECT_GT(ser.log.count(), 0u);
}

} // namespace

TEST(ParallelKernel, BitIdenticalAcrossThreadAndChannelCounts)
{
    // WS is the IO-free preset: the one that actually runs sharded.
    for (const std::uint32_t channels : {1u, 2u, 4u}) {
        const RunResult ser =
            runSystem(testConfig(channels, 1), WorkloadId::WS);
        for (const std::uint32_t threads : {2u, 3u, 5u, 8u}) {
            SCOPED_TRACE("channels=" + std::to_string(channels) +
                         " kernel_threads=" + std::to_string(threads));
            const RunResult par =
                runSystem(testConfig(channels, threads), WorkloadId::WS);
            expectRunsIdentical(par, ser);
        }
    }
}

TEST(ParallelKernel, BitIdenticalOnBankGroupedDevice)
{
    SimConfig serCfg = testConfig(2, 1);
    serCfg.applyDevice(*findDramDevice("DDR4-2400"));
    SimConfig parCfg = serCfg;
    parCfg.kernelThreads = 4;
    const RunResult ser = runSystem(serCfg, WorkloadId::WS);
    const RunResult par = runSystem(parCfg, WorkloadId::WS);
    expectRunsIdentical(par, ser);
}

TEST(ParallelKernel, ChunkedAdvanceMatchesSingleRun)
{
    // Ragged chunk sizes cross the prologue/epilogue handoff with
    // traffic in flight in both crossbar directions; the parallel
    // kernel must hand it back exactly where the serial kernel would
    // have left it.
    const SimConfig cfg = testConfig(2, 4);
    System one(cfg, workloadPreset(WorkloadId::WS));
    System chunked(cfg, workloadPreset(WorkloadId::WS));
    CommandLog oneLog, chunkedLog;
    oneLog.attachAll(one);
    chunkedLog.attachAll(chunked);
    one.advance(30'000);
    for (const std::uint64_t c : {7'001ull, 1ull, 12'345ull, 3ull,
                                  9'999ull, 651ull}) {
        chunked.advance(c);
    }
    ASSERT_EQ(one.now(), chunked.now());
    EXPECT_STREQ(firstDifferentMetric(one.collect(), chunked.collect()),
                 nullptr);
    EXPECT_EQ(oneLog.firstDivergence(chunkedLog), "");
}

TEST(ParallelKernel, IoWorkloadFallsBackToSerialAndStaysIdentical)
{
    // DS carries a DMA engine; kernelThreads > 1 must quietly run the
    // serial kernel (zero-latency IO coupling admits no lookahead).
    const RunResult ser = runSystem(testConfig(2, 1), WorkloadId::DS);
    const RunResult par = runSystem(testConfig(2, 7), WorkloadId::DS);
    expectRunsIdentical(par, ser);
}

TEST(ThreadSplit, SweepLevelWinsWhenJobsFillTheBudget)
{
    const auto s = ExperimentRunner::planThreadSplit(16, 4);
    EXPECT_EQ(s.sweepWorkers, 4u);
    EXPECT_EQ(s.shardThreads, 1u);
    const auto exact = ExperimentRunner::planThreadSplit(4, 4);
    EXPECT_EQ(exact.sweepWorkers, 4u);
    EXPECT_EQ(exact.shardThreads, 1u);
}

TEST(ThreadSplit, LoneBigPointGetsTheWholeBudgetAsShards)
{
    const auto s = ExperimentRunner::planThreadSplit(1, 8);
    EXPECT_EQ(s.sweepWorkers, 1u);
    EXPECT_EQ(s.shardThreads, 8u);
}

TEST(ThreadSplit, FewPointsShareTheLeftoverBudget)
{
    const auto s = ExperimentRunner::planThreadSplit(3, 8);
    EXPECT_EQ(s.sweepWorkers, 3u);
    EXPECT_EQ(s.shardThreads, 2u);
    EXPECT_LE(s.sweepWorkers * s.shardThreads, 8u);
}

TEST(ThreadSplit, DegenerateBudgets)
{
    const auto none = ExperimentRunner::planThreadSplit(0, 8);
    EXPECT_EQ(none.sweepWorkers, 1u);
    EXPECT_EQ(none.shardThreads, 1u);
    const auto serial = ExperimentRunner::planThreadSplit(10, 1);
    EXPECT_EQ(serial.sweepWorkers, 1u);
    EXPECT_EQ(serial.shardThreads, 1u);
}

TEST(WorkerPool, RunsEveryPartyExactlyOnceWithCallerAsZero)
{
    WorkerPool pool(3);
    EXPECT_EQ(pool.workers(), 3u);
    for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<int>> hits(4);
        for (auto &h : hits)
            h.store(0);
        pool.run(4, [&](unsigned shard) {
            hits[shard].fetch_add(1, std::memory_order_relaxed);
        });
        for (unsigned s = 0; s < 4; ++s)
            EXPECT_EQ(hits[s].load(), 1) << "shard " << s;
    }
    // Fewer parties than workers: the extras must stay asleep.
    std::atomic<int> count{0};
    pool.run(2, [&](unsigned) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 2);
    pool.run(1, [&](unsigned) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3);
}

TEST(SpinBarrier, OrdersEpochsAcrossParties)
{
    constexpr unsigned kParties = 3;
    constexpr int kEpochs = 200;
    WorkerPool pool(kParties - 1);
    SpinBarrier barrier(kParties);
    // Each party increments its slot once per epoch and checks, right
    // after the crossing, that every other party finished the epoch —
    // the exact publish/consume edge the kernel's staging relies on.
    std::vector<int> progress(kParties, 0);
    std::atomic<bool> torn{false};
    pool.run(kParties, [&](unsigned shard) {
        for (int e = 0; e < kEpochs; ++e) {
            progress[shard] = e + 1;
            barrier.arriveAndWait();
            for (unsigned p = 0; p < kParties; ++p) {
                if (progress[p] < e + 1)
                    torn.store(true, std::memory_order_relaxed);
            }
            barrier.arriveAndWait();
        }
    });
    EXPECT_FALSE(torn.load());
    for (unsigned p = 0; p < kParties; ++p)
        EXPECT_EQ(progress[p], kEpochs);
}
