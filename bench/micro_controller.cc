/**
 * @file
 * google-benchmark microbenchmark of one memory-controller tick: a
 * DDR3-1600 open-adaptive MemController under each of the paper's five
 * schedulers, stepped every DRAM cycle with its read queue held at a
 * fixed depth (0, 4 or 32 queued reads, random banks and rows). Depth
 * 0 prices the fixed per-tick cost; the slope to 4 and 32 prices each
 * queued request: every scheduler is offered one candidate per queued
 * request, so the slope is the candidate build plus the scheduler's
 * own scan. Serviced reads are replaced inside the timed loop, so the
 * figures include one enqueue per serviced read.
 *
 *   ./micro_controller --benchmark_filter='sched:4/'   # RL only
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "dram/channel.hh"
#include "dram/devices.hh"
#include "mem/factory.hh"
#include "mem/mem_controller.hh"

using namespace mcsim;

namespace {

void
controllerTick(benchmark::State &state)
{
    const auto sched = static_cast<SchedulerKind>(state.range(0));
    const auto depth = static_cast<std::size_t>(state.range(1));
    state.SetLabel(schedulerKindName(sched));
    const DramDevice &dev = dramDeviceOrDie("DDR3-1600");
    const ClockDomains clk =
        ClockDomains::fromMhz(kBaselineClocks.coreMhz, dev.busMhz);
    Channel channel(dev.geometry, dev.timings, true, clk);
    MemController mc(channel,
                     makeScheduler(sched, 16, SchedulerParams{}, clk,
                                   dev.timings),
                     makePagePolicy(PagePolicyKind::OpenAdaptive, clk), 16);

    std::vector<std::unique_ptr<Request>> storage;
    std::vector<Request *> freeList;
    mc.setCompletionCallback(
        [&freeList](Request *req, Tick) { freeList.push_back(req); });
    Pcg32 rng(42, 1);
    std::uint64_t nextId = 0;
    const auto enqueueRead = [&](Tick now) {
        Request *req;
        if (freeList.empty()) {
            storage.push_back(std::make_unique<Request>());
            req = storage.back().get();
        } else {
            req = freeList.back();
            freeList.pop_back();
        }
        *req = Request{};
        req->id = ++nextId;
        req->core = rng.below(16);
        req->coord.rank = rng.below(dev.geometry.ranksPerChannel);
        req->coord.bank = rng.below(dev.geometry.banksPerRank);
        req->coord.row = rng.below(64);
        req->coord.column = rng.below(128);
        req->addr = nextId * 64;
        mc.enqueue(req, now);
    };

    const auto commands = [&channel] {
        const ChannelStats &s = channel.stats();
        return s.activates + s.reads + s.writes + s.precharges +
               s.refreshes;
    };
    Tick now{};
    std::uint64_t ticks = 0;
    const std::uint64_t cmdsBefore = commands();
    for (auto _ : state) {
        while (mc.readQueueLen() < depth)
            enqueueRead(now);
        benchmark::DoNotOptimize(mc.tick(now));
        now += clk.dramToTicks(1);
        ++ticks;
    }
    state.counters["cmds_per_tick"] =
        static_cast<double>(commands() - cmdsBefore) /
        static_cast<double>(ticks ? ticks : 1);
}

/** The paper's schedulers as benchmark arguments. */
std::vector<std::int64_t>
paperSchedulers()
{
    std::vector<std::int64_t> kinds;
    for (const SchedulerKind k : kPaperSchedulers)
        kinds.push_back(static_cast<std::int64_t>(k));
    return kinds;
}

} // namespace

BENCHMARK(controllerTick)
    ->ArgNames({"sched", "depth"})
    ->ArgsProduct({paperSchedulers(), {0, 4, 32}});

BENCHMARK_MAIN();
