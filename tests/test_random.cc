/**
 * @file
 * Tests for the deterministic RNG and Zipfian sampler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/worker_pool.hh"
#include "workload/presets.hh"

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

/** FNV-1a-style fold of 64-bit words. */
struct Fold
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        h ^= v;
        h *= 0x100000001b3ULL;
    }
};

/** One Pcg32 stream's pinned output: a fold per draw method, each
 *  taken from a fresh generator (recorded before the two-step
 *  nextU64). */
struct PcgCase
{
    std::uint64_t seed;
    std::uint64_t stream;
    std::uint64_t u32, u64, dbl, below, below64;
};

/** The folds PcgCase pins, for generator (seed, stream). */
PcgCase
pcgFolds(std::uint64_t seed, std::uint64_t stream)
{
    PcgCase c{seed, stream, 0, 0, 0, 0, 0};
    Fold f;
    Pcg32 rng(seed, stream);
    for (int i = 0; i < 1000; ++i)
        f.add(rng.nextU32());
    c.u32 = f.h;

    f = Fold{};
    rng.reseed(seed, stream);
    for (int i = 0; i < 1000; ++i)
        f.add(rng.nextU64());
    c.u64 = f.h;

    f = Fold{};
    rng.reseed(seed, stream);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        f.add(bits);
    }
    c.dbl = f.h;

    f = Fold{};
    rng.reseed(seed, stream);
    for (std::uint32_t bound : {1u, 7u, 1000u, (1u << 31) + 1, ~0u}) {
        for (int i = 0; i < 200; ++i)
            f.add(rng.below(bound));
    }
    c.below = f.h;

    f = Fold{};
    rng.reseed(seed, stream);
    for (std::uint64_t bound : {3ull, 1ull << 32, (1ull << 32) + 1,
                                (1ull << 40) + 12345, (1ull << 63) + 1,
                                ~0ull}) {
        for (int i = 0; i < 200; ++i)
            f.add(rng.below64(bound));
    }
    c.below64 = f.h;
    return c;
}

/**
 * Test-local copy of ZipfianGenerator's closed form (Gray et al.) as
 * it stood before the bucket memo, normalizer included: the item for
 * the 53-bit draw `bits`.
 */
class ClosedFormZipf
{
  public:
    ClosedFormZipf(std::uint64_t n, double theta)
        : n_(n), halfPowTheta_(std::pow(0.5, theta)),
          zetan_(zeta(n, theta)), alpha_(1.0 / (1.0 - theta))
    {
        const double zeta2 = zeta(std::min<std::uint64_t>(n, 2), theta);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan_);
    }

    std::uint64_t
    item(std::uint64_t bits) const
    {
        const double u = bits * (1.0 / 9007199254740992.0);
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + halfPowTheta_)
            return 1;
        const auto idx = static_cast<std::uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return std::min(idx, n_ - 1);
    }

  private:
    static double
    zeta(std::uint64_t n, double theta)
    {
        const std::uint64_t exact = std::min<std::uint64_t>(n, 1u << 20);
        double s = 0.0;
        for (std::uint64_t i = 1; i <= exact; ++i)
            s += 1.0 / std::pow(static_cast<double>(i), theta);
        if (n > exact) {
            const double a = static_cast<double>(exact);
            const double b = static_cast<double>(n);
            s += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
                 (1.0 - theta);
        }
        return s;
    }

    std::uint64_t n_;
    double halfPowTheta_;
    double zetan_;
    double alpha_;
    double eta_ = 0.0;
};

} // namespace

TEST(Pcg32, MatchesPinnedStream)
{
    // The default stream, a small seed/stream pair, and the seed a
    // SyntheticWorkload core gets (WS, core 3).
    const PcgCase cases[] = {
        {0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL,
         0xb2d65c0247ae6297ULL, 0x5f072c30aff33cf0ULL,
         0x8a6a6b39acb01517ULL, 0xab8595e26942302dULL,
         0x5552b898b48c6c8cULL},
        {42, 7, 0xe2f8f68f73c7e3e3ULL, 0xb66d502e89a3b204ULL,
         0xb03dffc089958d3dULL, 0x980a6d3579d2b543ULL,
         0x933f23d83b1573d6ULL},
        {105 * 0x51ed27f1ULL + 3, 4, 0xad58314ca93c869bULL,
         0x875d01f5b5bc68afULL, 0x1c46a008f456ffa0ULL,
         0x8d711a1e95386519ULL, 0x9167f81536a8a4f6ULL},
    };
    for (const PcgCase &want : cases) {
        const PcgCase got = pcgFolds(want.seed, want.stream);
        SCOPED_TRACE(::testing::Message()
                     << std::hex << "seed 0x" << want.seed << " stream 0x"
                     << want.stream << ": got {0x" << got.u32 << ", 0x"
                     << got.u64 << ", 0x" << got.dbl << ", 0x"
                     << got.below << ", 0x" << got.below64 << "}");
        EXPECT_EQ(got.u32, want.u32);
        EXPECT_EQ(got.u64, want.u64);
        EXPECT_EQ(got.dbl, want.dbl);
        EXPECT_EQ(got.below, want.below);
        EXPECT_EQ(got.below64, want.below64);
    }
}

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

TEST(Zipfian, BucketMemoMatchesClosedForm)
{
    // Every skewed shape the presets draw from (hot and cold regions,
    // code streams), plus small, odd and huge n at low, middle and high
    // skew. The memo must engage on the hot regions and code streams
    // and stay off the cold regions.
    std::set<std::pair<std::uint64_t, double>> shapes, memoOn, memoOff;
    for (const WorkloadId id : kAllWorkloads) {
        const WorkloadParams p = workloadPreset(id);
        const std::pair<std::uint64_t, double> code{
            SyntheticWorkload::blocksFor(p.codeFootprintBytes),
            p.codeZipfTheta};
        shapes.insert(code);
        memoOn.insert(code);
        for (const RegionSpec &r : p.regions) {
            if (r.seqBurstBlocks > 0)
                continue;
            const std::pair<std::uint64_t, double> region{
                SyntheticWorkload::blocksFor(r.footprintBytes *
                                             r.spreadFactor) /
                    r.spreadFactor,
                r.zipfTheta};
            shapes.insert(region);
            (r.zipfTheta > 0.5 ? memoOn : memoOff).insert(region);
        }
    }
    for (const std::uint64_t n : {2ull, 3ull, 37ull, 1ull << 26}) {
        for (const double theta : {0.01, 0.5, 0.99})
            shapes.insert({n, theta});
    }
    ASSERT_FALSE(memoOff.empty());

    constexpr std::uint64_t kTop = (1ull << 53) - 1;
    constexpr int kBucketShift = 53 - 12;
    for (const auto &[n, theta] : shapes) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " theta="
                                          << theta);
        const ZipfianGenerator zipf(n, theta);
        const ClosedFormZipf ref(n, theta);
        if (memoOn.count({n, theta})) {
            EXPECT_TRUE(zipf.memoized());
        }
        if (memoOff.count({n, theta})) {
            EXPECT_FALSE(zipf.memoized());
        }
        // Each bucket's edges and their neighbours, in two passes, so
        // the second reads the classification the first one stored.
        for (int pass = 0; pass < 2; ++pass) {
            for (std::uint64_t b = 0; b < (1u << 12); ++b) {
                const std::uint64_t lo = b << kBucketShift;
                const std::uint64_t hi = ((b + 1) << kBucketShift) - 1;
                for (const std::uint64_t bits :
                     {lo, lo + 1, hi - 1, hi, lo == 0 ? lo : lo - 1,
                      hi == kTop ? hi : hi + 1}) {
                    ASSERT_EQ(zipf.itemAt(bits), ref.item(bits))
                        << "bits " << bits;
                }
            }
        }
        Pcg32 rng(n, static_cast<std::uint64_t>(theta * 100));
        for (int i = 0; i < 1000000; ++i) {
            const std::uint64_t bits = rng.nextU64() >> 11;
            ASSERT_EQ(zipf.itemAt(bits), ref.item(bits)) << "bits " << bits;
        }
        // sample() is itemAt() of the same draw.
        Pcg32 a(7), b(7);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(zipf.sample(a), ref.item(b.nextU64() >> 11));
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
