/**
 * @file
 * obs::Histogram: a log-bucketed (HDR-style) latency histogram, the
 * one quantile estimator of the simulator. Every latency quantile it
 * reports (service tenant and pool digests, time-series windows,
 * --metrics-out digests) comes from one of these.
 *
 * Merges are *exact*: merging two histograms and then asking for p99
 * yields bit-identical buckets to recording every sample into one
 * histogram, in any merge order. That is the property sharded
 * campaigns need: per-task/per-shard digests fold at the forEachTask
 * join (and across cache shards) without approximation drift.
 *
 * Bucketing comes straight from the IEEE-754 double bits: the biased
 * exponent selects the octave and the top kSubBits mantissa bits
 * select one of 64 linear sub-buckets inside it, so every bucket
 * spans at most a 1/64 relative width (quantile lookups are within
 * ~0.8% of the exact sample). Bucket indices grow with the value, so
 * "bucket >= rankBucket(q)" selects every sample at or above the
 * q-quantile's bucket. Bucket counts are u64 and the sparse bucket
 * map is keyed by the derived index, so merge = per-key sum, which
 * is associative and commutative exactly. The `sum` field is a
 * double and therefore order-sensitive at ulp level in general;
 * campaign folds always run in deterministic task order, so rendered
 * bytes stay stable anyway.
 *
 * Values <= 0 (and subnormals/NaN) land in a dedicated underflow
 * bucket; +/-inf in the overflow bucket. Quantile answers are bucket
 * midpoints clamped into [min, max], so they never leave the
 * observed range.
 */

#ifndef PLUTO_OBS_HISTOGRAM_HH
#define PLUTO_OBS_HISTOGRAM_HH

#include <map>
#include <vector>

#include "common/codec.hh"

namespace pluto::obs
{

/** Exactly mergeable log-bucketed histogram (see file comment). */
class Histogram
{
  public:
    /** Mantissa bits per octave: 2^6 = 64 linear sub-buckets. */
    static constexpr int kSubBits = 6;
    /** Bucket of values <= 0, subnormal or NaN. */
    static constexpr i32 kUnderflowBucket = 0;
    /** First bucket of +/-inf (biased exponent 0x7ff). */
    static constexpr i32 kOverflowBucket = 0x7ff << kSubBits;

    /** Record one sample. */
    void add(double v) { addCount(v, 1); }

    /** Record `n` samples of value `v`. */
    void addCount(double v, u64 n);

    /** Fold `other` into this (bucket counts sum exactly). */
    void merge(const Histogram &other);

    /** Reset to empty. */
    void clear();

    /** @return recorded sample count. */
    u64 count() const { return count_; }

    /** @return true when no sample has been recorded. */
    bool empty() const { return count_ == 0; }

    /** @return exact sum of recorded samples (0 when empty). */
    double sum() const { return count_ ? sum_ : 0.0; }

    /** @return exact mean (0 when empty). */
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** @return exact minimum recorded sample (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** @return exact maximum recorded sample (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * Nearest-rank quantile lookup: the midpoint of the bucket
     * holding sample rank ceil(q * count), clamped into [min, max].
     * `q` outside [0, 1] clamps; 0 when empty.
     */
    double quantile(double q) const;

    /**
     * @return the index of the bucket holding sample rank
     * ceil(q * count) (at least 1): the bucket quantile(q) answers
     * from. `q` clamps into [0, 1]; kUnderflowBucket when empty.
     */
    i32 rankBucket(double q) const;

    /** @return the sparse bucket map (index -> count), key-ascending. */
    const std::map<i32, u64> &buckets() const { return buckets_; }

    /** @return the bucket index a value lands in. */
    static i32 bucketOf(double v);

    /** @return inclusive lower bound of a regular bucket. */
    static double bucketLo(i32 idx);

    /** @return exclusive upper bound of a regular bucket. */
    static double bucketHi(i32 idx);

    /**
     * Codec fields (common/codec.hh): the scalar digest, then the
     * sparse buckets as positional [idx, n] pairs. Decoding rebuilds
     * the histogram and rejects buckets that do not sum to count.
     */
    template <typename V, RecordOf<Histogram> H>
    friend void
    fields(V &v, H &h)
    {
        std::vector<Bucket> buckets;
        for (const auto &[idx, n] : h.buckets_)
            buckets.push_back({idx, n});
        u64 count = h.count_;
        double sum = h.sum(), mn = h.min(), mx = h.max();
        v("count", count);
        v("sum", sum);
        v("min", mn);
        v("max", mx);
        v.tuples("buckets", buckets);
        if constexpr (!std::is_const_v<H>) {
            h.clear();
            for (const Bucket &b : buckets) {
                h.buckets_[b.idx] += b.n;
                h.count_ += b.n;
            }
            v.check(h.count_ == count);
            if (count > 0) {
                h.sum_ = sum;
                h.min_ = mn;
                h.max_ = mx;
            }
        }
    }

  private:
    /** One (bucket index, sample count) pair of the encoding. */
    struct Bucket
    {
        i32 idx = 0;
        u64 n = 0;

        template <typename V, RecordOf<Bucket> B>
        friend void
        fields(V &v, B &b)
        {
            v("idx", b.idx);
            v("n", b.n);
        }
    };

    std::map<i32, u64> buckets_;
    u64 count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace pluto::obs

#endif // PLUTO_OBS_HISTOGRAM_HH
