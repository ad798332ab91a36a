/**
 * @file
 * Tests for the deterministic RNG and Zipfian sampler.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/worker_pool.hh"

using namespace mcsim;

namespace {

/** FNV-1a over a generator's first 1,000 samples from a fixed seed. */
std::uint64_t
sampleChecksum(const ZipfianGenerator &zipf)
{
    Pcg32 rng(2026);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 1000; ++i) {
        h ^= zipf.sample(rng);
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct ZipfCase
{
    std::uint64_t n;
    double theta;
    std::uint64_t checksum; ///< Recorded before the normalizer memo.
};

} // namespace

TEST(Pcg32, DeterministicAcrossInstances)
{
    Pcg32 a(42, 7), b(42, 7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.nextU32(), b.nextU32());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.nextU32() == b.nextU32();
    EXPECT_LT(same, 5);
}

TEST(Pcg32, BelowRespectsBound)
{
    Pcg32 rng(123);
    for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1u << 30}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Pcg32, Below64RespectsBound)
{
    Pcg32 rng(321);
    for (std::uint64_t bound :
         {1ull, 3ull, 1ull << 33, (1ull << 40) + 12345}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below64(bound), bound);
    }
}

TEST(Pcg32, DoubleInUnitInterval)
{
    Pcg32 rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Pcg32, ChanceExtremes)
{
    Pcg32 rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Pcg32, BelowIsRoughlyUniform)
{
    Pcg32 rng(77);
    constexpr int kBuckets = 8;
    constexpr int kSamples = 80000;
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kSamples; ++i)
        ++counts[rng.below(kBuckets)];
    for (int c : counts) {
        EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
    }
}

TEST(Zipfian, UniformWhenThetaZero)
{
    ZipfianGenerator zipf(16, 0.0);
    Pcg32 rng(4);
    std::vector<int> counts(16, 0);
    for (int i = 0; i < 64000; ++i)
        ++counts[zipf.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 4000, 600);
}

TEST(Zipfian, HotItemDominatesWithHighTheta)
{
    ZipfianGenerator zipf(1024, 0.99);
    Pcg32 rng(4);
    std::vector<int> counts(1024, 0);
    constexpr int kSamples = 50000;
    for (int i = 0; i < kSamples; ++i)
        ++counts[zipf.sample(rng)];
    // Item 0 is the hottest and far above the uniform share.
    EXPECT_GT(counts[0], kSamples / 1024 * 20);
    EXPECT_GT(counts[0], counts[512]);
}

TEST(Zipfian, SamplesInRange)
{
    for (double theta : {0.0, 0.5, 0.9, 0.99}) {
        ZipfianGenerator zipf(37, theta); // Non-power-of-two n.
        Pcg32 rng(11);
        for (int i = 0; i < 2000; ++i)
            ASSERT_LT(zipf.sample(rng), 37u);
    }
}

TEST(Zipfian, SingleItem)
{
    ZipfianGenerator zipf(1, 0.9);
    Pcg32 rng(2);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipfian, NormalizerMemoIsExact)
{
    // The exact zeta prefix is summed once per (min(n, 2^20), theta)
    // and reused; the tail integral stays per generator. (2^20, 0.2)
    // and (2^26, 0.2) share a prefix, and (2^26, 0.2) and (2^26, 0.99)
    // share an n, so a key that drops either part shows up here.
    const ZipfCase cases[] = {
        {37, 0.5, 0x88cc6ef7a6cf7ac2ULL},
        {65536, 0.85, 0x6b3838af76792630ULL},
        {1ull << 20, 0.2, 0x17368115704f1cb0ULL},
        {1ull << 26, 0.2, 0xbca96bdc833fbd0cULL},
        {1ull << 26, 0.99, 0x928dd4b23a8d021bULL},
    };
    for (int pass = 0; pass < 2; ++pass) { // Pass 1 hits the memo.
        for (const ZipfCase &c : cases) {
            const ZipfianGenerator zipf(c.n, c.theta);
            EXPECT_EQ(sampleChecksum(zipf), c.checksum)
                << "n=" << c.n << " theta=" << c.theta << " pass "
                << pass;
        }
    }
}

TEST(Zipfian, ConcurrentConstructionIsExact)
{
    // Sweep workers build generators concurrently: every task builds
    // one shared key and one key of its own, all absent from the
    // other tests so the summations race here.
    const ZipfCase shared{1ull << 22, 0.61, 0xa8a1a41d378a10abULL};
    const ZipfCase own[] = {
        {1ull << 21, 0.3, 0xb07b473bfe2286d8ULL},
        {1ull << 21, 0.4, 0x247bfb1e35a92901ULL},
        {1ull << 21, 0.5, 0x4d8c9a6edab911c9ULL},
        {1ull << 21, 0.6, 0x5c96c99ecc6ba39cULL},
    };
    constexpr unsigned kTasks = 4;
    std::vector<std::uint64_t> sharedSums(kTasks), ownSums(kTasks);
    WorkerPool pool(kTasks - 1);
    pool.run(kTasks, [&](unsigned t) {
        sharedSums[t] =
            sampleChecksum(ZipfianGenerator(shared.n, shared.theta));
        ownSums[t] = sampleChecksum(ZipfianGenerator(own[t].n, own[t].theta));
    });
    for (unsigned t = 0; t < kTasks; ++t) {
        EXPECT_EQ(sharedSums[t], shared.checksum) << "task " << t;
        EXPECT_EQ(ownSums[t], own[t].checksum) << "task " << t;
    }
}

/** Property sweep: skew increases head concentration monotonically. */
class ZipfSkew : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfSkew, HeadShareGrowsWithTheta)
{
    const double theta = GetParam();
    ZipfianGenerator zipf(4096, theta);
    ZipfianGenerator flat(4096, 0.0);
    Pcg32 rng(31);
    int zipfHead = 0, flatHead = 0;
    for (int i = 0; i < 20000; ++i) {
        zipfHead += zipf.sample(rng) < 64;
        flatHead += flat.sample(rng) < 64;
    }
    EXPECT_GT(zipfHead, flatHead);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ZipfSkew,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9, 0.99));
