/**
 * @file
 * google-benchmark microbenchmark of the cache model alone: a seeded
 * random mix of access() and fill() calls on the paper's Table 2
 * geometries, the per-core 32 KiB 2-way L1 and the shared 4 MiB
 * 16-way L2.
 *
 * One benchmark iteration is one operation: an access (a quarter of
 * them writes) to a block drawn uniformly from twice the cache's
 * capacity, so about half of the accesses hit, followed on a miss by
 * the fill the hierarchy would issue for it. The time column is
 * therefore ns per operation, RNG draw included.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/random.hh"
#include "cpu/cache.hh"
#include "cpu/hierarchy.hh"

using namespace mcsim;

namespace {

void
cacheMix(benchmark::State &state, CacheConfig cfg)
{
    Cache cache(cfg);
    Pcg32 rng(1, 0xcace);
    const auto blocks = static_cast<std::uint32_t>(2 * cfg.sizeBytes /
                                                   cfg.blockBytes);
    // Above the low 4 GiB, so tags use more than the set-index bits.
    constexpr Addr kBase = Addr{3} << 32;
    auto step = [&] {
        const Addr addr = kBase + Addr{rng.below(blocks)} * cfg.blockBytes;
        const bool write = (rng.nextU32() & 3) == 0;
        if (!cache.access(addr, write))
            benchmark::DoNotOptimize(cache.fill(addr, write));
    };
    // Warm up to the steady state: every set full, half the stream hot.
    for (std::uint32_t i = 0; i < 4 * blocks; ++i)
        step();
    cache.stats().reset();
    for (auto _ : state)
        step();
    state.counters["hit_pct"] =
        100.0 * (1.0 - cache.stats().missRate());
}

} // namespace

BENCHMARK_CAPTURE(cacheMix, l1_2way, HierarchyConfig{}.l1d);
BENCHMARK_CAPTURE(cacheMix, l2_16way, HierarchyConfig{}.l2);

BENCHMARK_MAIN();
