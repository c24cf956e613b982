/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * Every stochastic component of the simulator (workload input
 * generation, Monte Carlo circuit runs, synthetic MNIST digits) draws
 * from an explicitly seeded Rng so results are reproducible run to run.
 */

#ifndef PLUTO_COMMON_RANDOM_HH
#define PLUTO_COMMON_RANDOM_HH

#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pluto
{

/** xoshiro256** generator with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(u64 seed = 0x5eed5eed5eed5eedULL);

    /** @return next 64 uniformly random bits (inline: the serving
     *  load generator draws several per request). */
    u64 next()
    {
        const u64 result = rotl(s_[1] * 5, 7) * 9;
        const u64 t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /**
     * @return uniform integer in [0, bound). bound must be > 0.
     * Rejection sampling avoids modulo bias. Inline so constant
     * bounds fold their divisions; a power-of-two bound never
     * rejects (its threshold is 0), so it takes the low bits
     * directly and draws the same sequence.
     */
    u64 below(u64 bound)
    {
        PLUTO_ASSERT(bound > 0);
        if ((bound & (bound - 1)) == 0)
            return next() & (bound - 1);
        const u64 threshold = (0 - bound) % bound;
        for (;;) {
            const u64 r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** @return uniform double in [0, 1). */
    double uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return standard normal deviate (Box-Muller). */
    double gaussian();

    /** Fill `n` bytes with uniform random values. */
    std::vector<u8> bytes(u64 n);

    /** @return `n` uniform values each below `bound`. */
    std::vector<u64> values(u64 n, u64 bound);

  private:
    static constexpr u64 rotl(u64 x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    u64 s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace pluto

#endif // PLUTO_COMMON_RANDOM_HH
