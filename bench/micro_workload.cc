/**
 * @file
 * google-benchmark microbenchmark of the synthetic workload generator,
 * the core side's per-instruction producer: ns per call for each of
 * the paper's 12 presets, plus the Zipf draw the skewed regions and
 * the code stream make on their own.
 *
 *  - op/<WL>: one op for a core, round-robin over the preset's cores,
 *    the way the batched core loop pulls it — tryNextOpLocal(), and
 *    nextOp() after a refusal (refused_pct counts those).
 *  - fetch/<WL>: one nextFetchBlock() call, round-robin likewise.
 *  - zipf_draw/<items>/<theta x 100>: one ZipfianGenerator::sample().
 *
 * The generators are built over the Table 2 baseline's DRAM capacity,
 * as System builds them.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "common/random.hh"
#include "sim/sim_config.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

SyntheticWorkload
presetGenerator(WorkloadId id)
{
    return SyntheticWorkload(workloadPreset(id),
                             SimConfig{}.dram.capacityBytes());
}

void
opCalls(benchmark::State &state, WorkloadId id)
{
    SyntheticWorkload gen = presetGenerator(id);
    const std::uint32_t cores = gen.params().cores;
    CoreId core = 0;
    std::uint64_t refused = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        Op op;
        if (!gen.tryNextOpLocal(core, op)) {
            op = gen.nextOp(core);
            ++refused;
        }
        benchmark::DoNotOptimize(op);
        core = core + 1 == cores ? 0 : core + 1;
        ++ops;
    }
    const double n = static_cast<double>(ops ? ops : 1);
    state.counters["refused_pct"] = 100.0 * static_cast<double>(refused) / n;
}

void
fetchCalls(benchmark::State &state, WorkloadId id)
{
    SyntheticWorkload gen = presetGenerator(id);
    const std::uint32_t cores = gen.params().cores;
    CoreId core = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.nextFetchBlock(core));
        core = core + 1 == cores ? 0 : core + 1;
    }
}

void
zipfDraw(benchmark::State &state)
{
    const ZipfianGenerator zipf(static_cast<std::uint64_t>(state.range(0)),
                                static_cast<double>(state.range(1)) / 100);
    Pcg32 rng(1, 0x21bf);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}

} // namespace

// The code stream's default (64 Ki blocks of 4 MiB, theta 0.45) and a
// hot data region's (64 MiB of blocks, theta 0.85).
BENCHMARK(zipfDraw)->Args({1 << 16, 45})->Args({1 << 20, 85});

int
main(int argc, char **argv)
{
    for (const WorkloadId id : kAllWorkloads) {
        const std::string wl = workloadAcronym(id);
        benchmark::RegisterBenchmark(("op/" + wl).c_str(), opCalls, id);
        benchmark::RegisterBenchmark(("fetch/" + wl).c_str(), fetchCalls,
                                     id);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
