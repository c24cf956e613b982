/**
 * @file
 * Seeded Zipf(n, s) sampler for skewed tenant traffic.
 *
 * Rejection-inversion sampling after Hörmann & Derflinger (1996):
 * draw from the continuous envelope of the discrete Zipf mass by
 * inverting the integral of h(x) = 1/x^s, then accept/reject the
 * rounded rank. An expected constant (< 2) number of uniform draws
 * per sample for every exponent s > 0 — including s <= 1, where the
 * classic inverse-CDF table would need all n entries.
 *
 * One attempt maps a uniform to an inversion point u, inverts the
 * envelope integral to x = H^-1(u), rounds x to the rank k, and
 * accepts k outright when k - x <= cut_ or else when u >= H(k + 0.5)
 * - h(k). The verdict (rank, outright or checked) changes only where
 * x crosses a rank edge k + 0.5 or a shortcut edge k - cut_. The
 * constructor maps those edges to u-space, u = H(edge), and records
 * the verdict of every interval between them by running the formula
 * once at the interval's midpoint, along with the rank's acceptance
 * bound. A draw then binary-searches its interval and compares u with
 * the bound: two table reads instead of a log1p, an exp and, on the
 * checked path, another log, expm1 and exp.
 *
 * Exactness: the table answers as the formula would, bit for bit.
 * The formula computes H^-1(u) to within a few ulps (relative ~1e-15),
 * and the edges in u-space carry the same relative error. A draw whose
 * u lies farther than guard(u) = 1e-9 (1 + |u|) from every edge
 * therefore has an exact x at a relative distance of about
 * 1e-9 x^(s-1) (1 + |u|) from every x-space edge, orders of magnitude
 * beyond the formula's error: the formula lands on the same side of
 * every edge as the midpoint did, so it gives the same verdict. A
 * draw within the guard, or in an interval too narrow to hold a point
 * outside it, runs the formula itself. The acceptance bound is the
 * same expression on the same rank, so it is the same double. Either
 * path consumes the same uniforms and returns the same rank; the test
 * suite checks both against the formula on every edge and at one ulp
 * and just beyond the guard on either side of it.
 *
 * Memory: two edges and one table entry per rank, O(n) for n tenants.
 *
 * Determinism contract: a sample sequence is a pure function of
 * (n, s, Rng state); the sampler itself holds no RNG, so callers
 * control seeding and draw order.
 */

#ifndef PLUTO_SERVE_ZIPF_HH
#define PLUTO_SERVE_ZIPF_HH

#include <cmath>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace pluto::serve
{

/** Zipf(n, s) rank sampler: P(k) proportional to 1/k^s, k in [1, n]. */
class ZipfSampler
{
  public:
    /**
     * @param n number of ranks (>= 1)
     * @param s skew exponent (> 0); larger = more skew toward rank 1
     */
    ZipfSampler(u64 n, double s);

    /** Draw one rank in [1, n] using uniforms from `rng`. */
    u64 sample(Rng &rng) const;

    /** sample() through the formula alone: the table's oracle. */
    u64 sampleDirect(Rng &rng) const;

    /** @return the inversion point of one uniform in [0, 1). */
    double point(double uniform) const
    {
        return hIntegralN_ + uniform * (hIntegralX1_ - hIntegralN_);
    }

    /** @return the rank accepted at inversion point `u`, or 0 when
     *  the attempt is rejected: from the table, or from the formula
     *  within the guard of an edge. */
    u64 draw(double u) const;

    /** @return draw(u) computed by the formula alone. */
    u64 drawDirect(double u) const;

    /** @return the decision edges in u-space, ascending. */
    const std::vector<double> &edges() const { return edges_; }

    /** @return the half-width of the guard band around an edge. */
    static double guard(double u) { return 1e-9 * (1.0 + std::abs(u)); }

    u64 ranks() const { return n_; }
    double skew() const { return s_; }

  private:
    /** Verdict of one interval between consecutive edges. */
    struct Cell
    {
        /** Lowest accepted u: -inf when the rank is taken outright. */
        double acceptFrom = 0.0;
        /** The interval's rank; 0 when the formula must decide. */
        u64 rank = 0;
    };

    /** Integral of h(x) = x^-s from 1 to x (shifted so H(1) = 0). */
    double hIntegral(double x) const;
    /** The envelope density h(x) = x^-s. */
    double h(double x) const;
    /** Inverse of hIntegral. */
    double hIntegralInverse(double x) const;
    /** The formula's rank at `u`; `outright` tells whether it is
     *  accepted without the integral check. */
    u64 rankAt(double u, bool &outright) const;
    /** The acceptance bound of rank k. */
    double acceptFrom(u64 k) const;

    u64 n_ = 1;
    double s_ = 1.0;
    /** hIntegral(1.5) - 1: upper bound of the inversion domain. */
    double hIntegralX1_ = 0.0;
    /** hIntegral(n + 0.5): lower bound of the inversion domain. */
    double hIntegralN_ = 0.0;
    /** Acceptance shortcut threshold (covers ranks 1 and 2). */
    double cut_ = 0.0;
    /** Edges inside the domain, ascending. */
    std::vector<double> edges_;
    /** cells_[i] covers [edges_[i - 1], edges_[i]) (unbounded at the
     *  ends); edges_.size() + 1 entries. */
    std::vector<Cell> cells_;
};

} // namespace pluto::serve

#endif // PLUTO_SERVE_ZIPF_HH
