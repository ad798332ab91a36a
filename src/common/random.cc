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
    const double u = rng.nextDouble();
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

} // namespace mcsim
