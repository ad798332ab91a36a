/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * Every stochastic component in the simulator draws from its own
 * seeded Pcg32 stream so that simulations are bit-reproducible for a
 * given seed regardless of configuration changes elsewhere.
 */

#ifndef CLOUDMC_COMMON_RANDOM_HH
#define CLOUDMC_COMMON_RANDOM_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "log.hh"

namespace mcsim {

/**
 * PCG32 (XSH-RR variant) pseudo-random generator. Small state, good
 * statistical quality, and fully deterministic across platforms.
 */
class Pcg32
{
  public:
    /** Construct from a seed and an optional stream selector. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        reseed(seed, stream);
    }

    /** Re-initialize the generator state. */
    void
    reseed(std::uint64_t seed, std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state_ = 0;
        inc_ = (stream << 1) | 1u;
        inc2_ = inc_ * (kMult + 1);
        nextU32();
        state_ += seed;
        nextU32();
    }

    /** Next raw 32-bit value. */
    std::uint32_t
    nextU32()
    {
        const std::uint64_t old = state_;
        state_ = old * kMult + inc_;
        return output(old);
    }

    /**
     * Next raw 64-bit value: two nextU32() outputs, the first in the
     * high half. Both states follow from the current one (s1 = a*s0 + c,
     * s2 = a^2*s0 + c*(a+1)), so the two multiplies run side by side
     * instead of one after the other.
     */
    std::uint64_t
    nextU64()
    {
        const std::uint64_t s0 = state_;
        state_ = s0 * kMult2 + inc2_;
        const std::uint64_t s1 = s0 * kMult + inc_;
        return (static_cast<std::uint64_t>(output(s0)) << 32) | output(s1);
    }

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        mc_assert(bound > 0, "below() requires a positive bound");
        std::uint64_t m = std::uint64_t{nextU32()} * bound;
        auto lo = static_cast<std::uint32_t>(m);
        if (lo < bound) {
            const std::uint32_t threshold = -bound % bound;
            while (lo < threshold) {
                m = std::uint64_t{nextU32()} * bound;
                lo = static_cast<std::uint32_t>(m);
            }
        }
        return static_cast<std::uint32_t>(m >> 32);
    }

    /** Uniform 64-bit integer in [0, bound). */
    std::uint64_t
    below64(std::uint64_t bound)
    {
        mc_assert(bound > 0, "below64() requires a positive bound");
        if (bound <= 0xFFFFFFFFull)
            return below(static_cast<std::uint32_t>(bound));
        // Rejection sampling over the smallest covering power of two.
        const int shift = 64 - __builtin_clzll(bound - 1);
        const std::uint64_t mask =
            shift >= 64 ? ~0ull : ((1ull << shift) - 1);
        std::uint64_t v;
        do {
            v = nextU64() & mask;
        } while (v >= bound);
        return v;
    }

    /** Uniform double in [0, 1). */
    double nextDouble() { return toUnit(nextU64() >> 11); }

    /** The double nextDouble() returns for the 53 drawn bits @p bits. */
    static double
    toUnit(std::uint64_t bits)
    {
        return static_cast<double>(bits) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return nextDouble() < p; }

  private:
    static constexpr std::uint64_t kMult = 6364136223846793005ULL;
    static constexpr std::uint64_t kMult2 = kMult * kMult; ///< mod 2^64

    /** XSH-RR output permutation of the pre-step state @p old. */
    static std::uint32_t
    output(std::uint64_t old)
    {
        const auto xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        const auto rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31));
    }

    std::uint64_t state_ = 0;
    std::uint64_t inc_ = 0;
    std::uint64_t inc2_ = 0; ///< inc_ * (kMult + 1), two steps' increment.
};

/**
 * Zipfian sampler over [0, n) with skew parameter theta, using the
 * Gray et al. computation popularized by YCSB. Item 0 is the hottest.
 *
 * A skewed draw maps 53 uniform bits to an item through one std::pow.
 * Where the distribution is steep enough for whole 1/4096 slices of
 * the unit interval to map to one item, a bucket memo answers those
 * draws without the pow; see itemAt(). The memo fills on first touch
 * from const sample(), so one generator serves one thread at a time,
 * like the Pcg32 streams it is drawn with.
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n     Number of items (must be >= 1).
     * @param theta Skew in [0, 1); 0.99 is the YCSB default. Larger is
     *              more skewed. theta == 0 degenerates to uniform.
     */
    ZipfianGenerator(std::uint64_t n, double theta);

    /** Draw one item index in [0, n). */
    std::uint64_t sample(Pcg32 &rng) const;

    /**
     * The item a skewed generator (theta > 0) returns for the 53-bit
     * uniform draw @p bits; sample() passes rng.nextU64() >> 11.
     */
    std::uint64_t itemAt(std::uint64_t bits) const;

    double theta() const { return theta_; }
    /** Whether skewed draws consult the bucket memo. */
    bool memoized() const { return memoized_; }

  private:
    /** The memo keys on the top kBucketBits of the 53 drawn bits. */
    static constexpr int kBucketBits = 12;
    static constexpr int kBucketShift = 53 - kBucketBits;
    static constexpr std::uint32_t kUnclassified = ~0u;
    static constexpr std::uint32_t kImpure = ~0u - 1;

    static double zeta(std::uint64_t n, double theta);
    /** n * (eta*u - eta + 1)^alpha, the closed form before flooring. */
    double scaledPow(double u) const;
    /** Gray et al.'s formula for the draw @p bits, without the memo. */
    std::uint64_t closedForm(std::uint64_t bits) const;
    /** The one item every draw of @p bucket maps to, else kImpure. */
    std::uint32_t classify(std::uint64_t bucket) const;

    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double halfPowTheta_; ///< pow(0.5, theta), hoisted out of sample().
    bool memoized_ = false;
    /** Per-bucket item, kUnclassified or kImpure; allocated by the
     *  first draw, so construction pays nothing for it. */
    mutable std::vector<std::uint32_t> memo_;
};

} // namespace mcsim

#endif // CLOUDMC_COMMON_RANDOM_HH
