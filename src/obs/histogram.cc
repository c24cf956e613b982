/**
 * @file
 * Exactly mergeable log-bucketed histogram (see histogram.hh).
 */

#include "obs/histogram.hh"

#include <algorithm>
#include <cmath>
#include <cstring>


namespace pluto::obs
{

namespace
{

constexpr i32 kSubCount = 1 << Histogram::kSubBits;

} // namespace

i32
Histogram::bucketOf(double v)
{
    if (!(v > 0.0))
        return kUnderflowBucket; // <= 0, -inf and NaN
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    const i32 exp = static_cast<i32>((bits >> 52) & 0x7ff);
    if (exp == 0)
        return kUnderflowBucket; // subnormal: below any latency scale
    const i32 sub = static_cast<i32>((bits >> (52 - kSubBits)) &
                                     (kSubCount - 1));
    return (exp << kSubBits) | sub; // kOverflowBucket when exp=0x7ff
}

double
Histogram::bucketLo(i32 idx)
{
    const i32 exp = idx >> kSubBits;
    const i32 sub = idx & (kSubCount - 1);
    return std::ldexp(1.0 + static_cast<double>(sub) / kSubCount,
                      exp - 1023);
}

double
Histogram::bucketHi(i32 idx)
{
    const i32 exp = idx >> kSubBits;
    const i32 sub = idx & (kSubCount - 1);
    return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubCount,
                      exp - 1023);
}

void
Histogram::addCount(double v, u64 n)
{
    if (n == 0)
        return;
    buckets_.at(bucketOf(v)) += n;
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    count_ += n;
    sum_ += v * static_cast<double>(n);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    other.forEachBucket([&](i32 idx, u64 n) { buckets_.at(idx) += n; });
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

void
Histogram::clear()
{
    buckets_.clear();
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    const i32 idx = rankBucket(q);
    double rep;
    if (idx == kUnderflowBucket)
        rep = std::min(min_, 0.0);
    else if (idx >= kOverflowBucket)
        rep = max_;
    else
        rep = 0.5 * (bucketLo(idx) + bucketHi(idx));
    return std::clamp(rep, min_, max_);
}

i32
Histogram::rankBucket(double q) const
{
    if (count_ == 0)
        return kUnderflowBucket;
    q = std::clamp(q, 0.0, 1.0);
    const u64 rank = std::max<u64>(
        1, static_cast<u64>(
               std::ceil(q * static_cast<double>(count_))));
    u64 seen = 0;
    return buckets_.findIf([&](i32, u64 n) {
        seen += n;
        return seen >= rank;
    }); // never -1: counts sum to count_
}

std::map<i32, u64>
Histogram::buckets() const
{
    std::map<i32, u64> out;
    forEachBucket([&](i32 idx, u64 n) { out.emplace(idx, n); });
    return out;
}

} // namespace pluto::obs
