/**
 * @file
 * Rejection-inversion Zipf sampling (see zipf.hh).
 */

#include "serve/zipf.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace pluto::serve
{

namespace
{

/** log1p(x)/x, continuous through x = 0. */
double
helperLog(double x)
{
    if (std::abs(x) > 1e-8)
        return std::log1p(x) / x;
    return 1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25));
}

/** expm1(x)/x, continuous through x = 0. */
double
helperExp(double x)
{
    if (std::abs(x) > 1e-8)
        return std::expm1(x) / x;
    return 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + x * 0.25));
}

} // namespace

ZipfSampler::ZipfSampler(u64 n, double s) : n_(n), s_(s)
{
    PLUTO_ASSERT(n >= 1);
    PLUTO_ASSERT(s > 0.0);
    hIntegralX1_ = hIntegral(1.5) - 1.0;
    hIntegralN_ = hIntegral(static_cast<double>(n) + 0.5);
    cut_ = 2.0 - hIntegralInverse(hIntegral(2.5) - h(2.0));

    // Decision edges in u-space: rank edges k + 0.5 between ranks
    // and shortcut edges k - cut_, those strictly inside the domain.
    for (u64 k = 1; k <= n; ++k) {
        const double kd = static_cast<double>(k);
        for (const double x : {kd + 0.5, kd - cut_}) {
            const double u = hIntegral(x);
            if (u > hIntegralX1_ && u < hIntegralN_)
                edges_.push_back(u);
        }
    }
    std::sort(edges_.begin(), edges_.end());
    edges_.erase(std::unique(edges_.begin(), edges_.end()),
                 edges_.end());

    // One verdict per interval, from the formula at its midpoint.
    const std::size_t m = edges_.size();
    cells_.resize(m + 1);
    for (std::size_t i = 0; i <= m; ++i) {
        const double lo = i > 0 ? edges_[i - 1] : hIntegralX1_;
        const double hi = i < m ? edges_[i] : hIntegralN_;
        const double mid = lo + 0.5 * (hi - lo);
        const double g = guard(mid);
        if ((i > 0 && mid - lo <= g) || (i < m && hi - mid <= g))
            continue; // too narrow: the formula decides (rank 0)
        bool outright = false;
        Cell &c = cells_[i];
        c.rank = rankAt(mid, outright);
        c.acceptFrom = outright
                           ? -std::numeric_limits<double>::infinity()
                           : acceptFrom(c.rank);
    }
}

double
ZipfSampler::hIntegral(double x) const
{
    const double logX = std::log(x);
    return helperExp((1.0 - s_) * logX) * logX;
}

double
ZipfSampler::h(double x) const
{
    return std::exp(-s_ * std::log(x));
}

double
ZipfSampler::hIntegralInverse(double x) const
{
    double t = x * (1.0 - s_);
    if (t < -1.0)
        t = -1.0; // Guard round-off below the h(x) singularity.
    return std::exp(helperLog(t) * x);
}

u64
ZipfSampler::rankAt(double u, bool &outright) const
{
    const double x = hIntegralInverse(u);
    u64 k = static_cast<u64>(x + 0.5);
    if (k < 1)
        k = 1;
    else if (k > n_)
        k = n_;
    // Ranks within `cut_` of the envelope (always 1 and 2) are
    // accepted outright; the rest pay one more integral check.
    outright = static_cast<double>(k) - x <= cut_;
    return k;
}

double
ZipfSampler::acceptFrom(u64 k) const
{
    return hIntegral(static_cast<double>(k) + 0.5) -
           h(static_cast<double>(k));
}

u64
ZipfSampler::drawDirect(double u) const
{
    bool outright = false;
    const u64 k = rankAt(u, outright);
    return outright || u >= acceptFrom(k) ? k : 0;
}

u64
ZipfSampler::draw(double u) const
{
    const auto i = static_cast<std::size_t>(
        std::upper_bound(edges_.begin(), edges_.end(), u) -
        edges_.begin());
    const Cell &c = cells_[i];
    const double g = guard(u);
    if (c.rank == 0 || (i > 0 && u - edges_[i - 1] <= g) ||
        (i < edges_.size() && edges_[i] - u <= g))
        return drawDirect(u);
    return u >= c.acceptFrom ? c.rank : 0;
}

u64
ZipfSampler::sample(Rng &rng) const
{
    for (;;)
        if (const u64 k = draw(point(rng.uniform())))
            return k;
}

u64
ZipfSampler::sampleDirect(Rng &rng) const
{
    for (;;)
        if (const u64 k = drawDirect(point(rng.uniform())))
            return k;
}

} // namespace pluto::serve
