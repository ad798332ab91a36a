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
 *  - zipf_draw/<items>/<theta x 100>: one ZipfianGenerator::sample()
 *    on each distinct shape the presets' hot regions and code streams
 *    draw from, plus one cold region's (2^24 blocks, theta 0.25).
 *    The label says whether the generator keeps its bucket memo; the
 *    cold shape keeps none and must cost what a plain closed-form
 *    draw does.
 *
 * The generators are built over the Table 2 baseline's DRAM capacity,
 * as System builds them.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>

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
zipfDraw(benchmark::State &state, std::uint64_t items, double theta)
{
    const ZipfianGenerator zipf(items, theta);
    Pcg32 rng(1, 0x21bf);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetLabel(zipf.memoized() ? "memo" : "no memo");
}

} // namespace

int
main(int argc, char **argv)
{
    std::set<std::pair<std::uint64_t, double>> shapes;
    for (const WorkloadId id : kAllWorkloads) {
        const std::string wl = workloadAcronym(id);
        benchmark::RegisterBenchmark(("op/" + wl).c_str(), opCalls, id);
        benchmark::RegisterBenchmark(("fetch/" + wl).c_str(), fetchCalls,
                                     id);
        const WorkloadParams p = workloadPreset(id);
        shapes.insert({SyntheticWorkload::blocksFor(p.codeFootprintBytes),
                       p.codeZipfTheta});
        for (const RegionSpec &r : p.regions) {
            if (r.seqBurstBlocks == 0 && r.spreadFactor > 1) { // hot()
                shapes.insert({SyntheticWorkload::blocksFor(
                                   r.footprintBytes * r.spreadFactor) /
                                   r.spreadFactor,
                               r.zipfTheta});
            }
        }
    }
    shapes.insert({std::uint64_t{1} << 24, 0.25});
    for (const auto &[items, theta] : shapes) {
        const std::string name =
            "zipf_draw/" + std::to_string(items) + "/" +
            std::to_string(static_cast<int>(theta * 100 + 0.5));
        benchmark::RegisterBenchmark(name.c_str(), zipfDraw, items, theta);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
