#include "common/random.hh"

#include <cmath>

namespace mcd
{

namespace
{

/** Acklam's rational approximation to the inverse normal CDF. */
double
inverseNormalCdf(double p)
{
    static const double a[] = {
        -3.969683028665376e+01, 2.209460984245205e+02,
        -2.759285104469687e+02, 1.383577518672690e+02,
        -3.066479806614716e+01, 2.506628277459239e+00
    };
    static const double b[] = {
        -5.447609879822406e+01, 1.615858368580409e+02,
        -1.556989798598866e+02, 6.680131188771972e+01,
        -1.328068155288572e+01
    };
    static const double c[] = {
        -7.784894002430293e-03, -3.223964580411365e-01,
        -2.400758277161838e+00, -2.549732539343734e+00,
        4.374664141464968e+00, 2.938163982698783e+00
    };
    static const double d[] = {
        7.784695709041462e-03, 3.224671290700398e-01,
        2.445134137142996e+00, 3.754408661907416e+00
    };
    const double p_low = 0.02425;
    const double p_high = 1 - p_low;

    if (p < p_low) {
        double q = std::sqrt(-2 * std::log(p));
        return (((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5]) /
               ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1);
    }
    if (p <= p_high) {
        double q = p - 0.5;
        double r = q * q;
        return (((((a[0]*r + a[1])*r + a[2])*r + a[3])*r + a[4])*r + a[5])*q /
               (((((b[0]*r + b[1])*r + b[2])*r + b[3])*r + b[4])*r + 1);
    }
    double q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5]) /
           ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1);
}

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

const double *
Rng::normalQuantiles()
{
    // Built on first use and shared by all Rng instances.
    static const auto table = [] {
        std::array<double, NORMAL_TABLE_SIZE + 1> t{};
        for (std::uint32_t i = 0; i <= NORMAL_TABLE_SIZE; ++i) {
            // Clamp the tails so the table stays finite; the extreme
            // quantiles map to about +/- 3.7 sigma, which is ample for
            // jitter modeling.
            double p = (i + 0.5) / (NORMAL_TABLE_SIZE + 1.0);
            t[i] = inverseNormalCdf(p);
        }
        return t;
    }();
    return table.data();
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
    // All-zero state is invalid for xoshiro; splitmix64 of any seed
    // cannot produce four zero words, but be defensive anyway.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
        state_[0] = 1;
}

} // namespace mcd
