#include "common/random.hh"

#include <cmath>

namespace pluto
{

namespace
{

u64
splitmix64(u64 &state)
{
    u64 z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(u64 seed)
{
    u64 sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    haveSpare_ = true;
    return u * m;
}

std::vector<u8>
Rng::bytes(u64 n)
{
    std::vector<u8> out(n);
    for (auto &b : out)
        b = static_cast<u8>(next());
    return out;
}

std::vector<u64>
Rng::values(u64 n, u64 bound)
{
    std::vector<u64> out(n);
    for (auto &v : out)
        v = below(bound);
    return out;
}

} // namespace pluto
