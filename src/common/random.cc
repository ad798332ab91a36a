#include "random.hh"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

namespace mcsim {

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    mc_assert(n >= 1, "Zipfian needs at least one item");
    mc_assert(theta >= 0.0 && theta < 1.0,
              "Zipfian theta must be in [0,1), got ", theta);
    halfPowTheta_ = std::pow(0.5, theta_);
    if (theta_ == 0.0) {
        alpha_ = zetan_ = eta_ = 0.0;
        return;
    }
    zetan_ = zeta(n_, theta_);
    const double zeta2 = zeta(std::min<std::uint64_t>(n_, 2), theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
    // A bucket can map to one item only where items are about a bucket
    // wide. Items shrink with rank, so ask item 2 (the first the closed
    // form computes) to hold two buckets' mass; flat, large regions
    // fail this and never allocate or consult the memo.
    memoized_ = std::pow(3.0, -theta_) / zetan_ >=
                2.0 / static_cast<double>(1u << kBucketBits);
}

double
ZipfianGenerator::zeta(std::uint64_t n, double theta)
{
    // Exact summation is O(n); cap the exact prefix and integrate the
    // tail, which is accurate to well under 0.1% for the sizes we use.
    constexpr std::uint64_t kExactPrefix = 1u << 20;
    const std::uint64_t exact = std::min(n, kExactPrefix);

    // Up to 2^20 std::pow terms dominate System set-up, and every
    // System builds its generators anew, so each (prefix, theta) is
    // summed once per process. Sweep workers construct generators
    // concurrently: the map lookup is locked, the summation runs
    // under the key's own once_flag, so distinct keys never wait on
    // each other and equal keys wait for the one summation.
    struct Prefix
    {
        std::once_flag once;
        double sum = 0.0;
    };
    static std::mutex memoMutex;
    static std::map<std::pair<std::uint64_t, double>, Prefix> memo;
    Prefix *prefix;
    {
        const std::lock_guard<std::mutex> lock(memoMutex);
        prefix = &memo[{exact, theta}]; // Map nodes never move.
    }
    std::call_once(prefix->once, [prefix, exact, theta] {
        double s = 0.0;
        for (std::uint64_t i = 1; i <= exact; ++i)
            s += 1.0 / std::pow(static_cast<double>(i), theta);
        prefix->sum = s;
    });

    double sum = prefix->sum;
    if (n > exact) {
        // Integral of x^-theta from exact to n.
        const double a = static_cast<double>(exact);
        const double b = static_cast<double>(n);
        sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
               (1.0 - theta);
    }
    return sum;
}

std::uint64_t
ZipfianGenerator::sample(Pcg32 &rng) const
{
    if (n_ == 1)
        return 0;
    if (theta_ == 0.0)
        return rng.below64(n_);
    return itemAt(rng.nextU64() >> 11);
}

std::uint64_t
ZipfianGenerator::itemAt(std::uint64_t bits) const
{
    if (memoized_) {
        if (memo_.empty())
            memo_.assign(std::size_t{1} << kBucketBits, kUnclassified);
        std::uint32_t &item = memo_[bits >> kBucketShift];
        if (item == kUnclassified)
            item = classify(bits >> kBucketShift);
        if (item != kImpure)
            return item;
    }
    return closedForm(bits);
}

double
ZipfianGenerator::scaledPow(double u) const
{
    return static_cast<double>(n_) *
           std::pow(eta_ * u - eta_ + 1.0, alpha_);
}

std::uint64_t
ZipfianGenerator::closedForm(std::uint64_t bits) const
{
    const double u = Pcg32::toUnit(bits);
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + halfPowTheta_)
        return 1;
    const auto idx = static_cast<std::uint64_t>(scaledPow(u));
    return std::min(idx, n_ - 1);
}

std::uint32_t
ZipfianGenerator::classify(std::uint64_t bucket) const
{
    // The bucket's draws run from lo to hi. u * zetan and
    // eta * u - eta + 1 are monotone in u (every IEEE operation is), so
    // closedForm()'s item-0 and item-1 tests hold for the whole bucket
    // when they hold at both edges. Past them the item is the floor of
    // n * x^alpha: the exact power is monotone in x and glibc's pow is
    // within 1 ULP, so each draw's value lies within a few ULPs of
    // [a, b], far inside kMargin; when both edges, widened by kMargin,
    // floor to one item, every draw in between does too.
    constexpr double kMargin = 1e-12;
    const double lo = Pcg32::toUnit(bucket << kBucketShift);
    const double hi = Pcg32::toUnit(((bucket + 1) << kBucketShift) - 1);
    const double loz = lo * zetan_;
    const double hiz = hi * zetan_;
    if (hiz < 1.0)
        return 0;
    if (loz >= 1.0 && hiz < 1.0 + halfPowTheta_)
        return 1;
    if (loz < 1.0 + halfPowTheta_)
        return kImpure; // Straddles closedForm()'s branches.
    const double a = scaledPow(lo);
    const double b = scaledPow(hi);
    if (!(a > 0.0) || !(b < kImpure)) // Also refuses NaN.
        return kImpure;
    const double item = std::floor(a * (1.0 - kMargin));
    if (item != std::floor(b * (1.0 + kMargin)))
        return kImpure;
    return static_cast<std::uint32_t>(
        std::min(static_cast<std::uint64_t>(item), n_ - 1));
}

} // namespace mcsim
