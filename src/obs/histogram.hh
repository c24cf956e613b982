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
 * q-quantile's bucket. Bucket counts are u64 keyed by the derived
 * index, so merge = per-index sum, which is associative and
 * commutative exactly. The `sum` field is a double and therefore
 * order-sensitive at ulp level in general; campaign folds always run
 * in deterministic task order, so rendered bytes stay stable anyway.
 *
 * Storage is flat (Histogram::Slots): a dense count array over the
 * occupied range of regular buckets plus separate underflow and
 * overflow counters, so a sample costs an index computation and an
 * add, never a tree insert. A new extreme extends the dense range at
 * least geometrically (doubling toward a new minimum, std::vector
 * growth toward a new maximum), so recording stays amortized O(1);
 * the range is the occupied span plus that slack, 64 slots of 8 B
 * per octave (a few KiB for a latency spread of several octaves),
 * and never exceeds the 2046 x 64 regular indices (~1 MiB). The
 * sparse encoding, iteration order, merge and quantile answers are
 * those of a sparse index -> count map; decoding rejects any index
 * outside the three index ranges, so hostile input cannot size the
 * store.
 *
 * Values <= 0 (and -inf, subnormals, NaN) land in a dedicated
 * underflow bucket; +inf in the overflow bucket. Quantile answers are
 * bucket midpoints clamped into [min, max], so they never leave the
 * observed range.
 */

#ifndef PLUTO_OBS_HISTOGRAM_HH
#define PLUTO_OBS_HISTOGRAM_HH

#include <algorithm>
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
    /** Lowest regular bucket (biased exponent 1, sub-bucket 0). */
    static constexpr i32 kFirstRegularBucket = 1 << kSubBits;
    /** Bucket of +inf (biased exponent 0x7ff); above every regular
     *  bucket. */
    static constexpr i32 kOverflowBucket = 0x7ff << kSubBits;

    /**
     * Per-bucket values in flat storage: a dense array over the
     * occupied regular range (see file comment) plus an underflow
     * and an overflow slot. Holds the histogram's counts, and any
     * per-bucket state that must fold in bucket order (service tail
     * blame).
     */
    template <typename T>
    class Slots
    {
      public:
        /** @return true for the three index ranges a bucket can have. */
        static bool valid(i32 idx)
        {
            return idx == kUnderflowBucket || idx == kOverflowBucket ||
                   (idx >= kFirstRegularBucket && idx < kOverflowBucket);
        }

        /** @return the slot of valid bucket `idx`, growing the dense
         *  range to cover it. */
        T &at(i32 idx)
        {
            if (idx == kUnderflowBucket)
                return under_;
            if (idx == kOverflowBucket)
                return over_;
            if (dense_.empty())
                lo_ = idx;
            if (idx < lo_) {
                // At least double toward the new minimum: a falling
                // stream of extremes stays amortized O(1).
                const i32 size = static_cast<i32>(dense_.size());
                const i32 lo = std::max(kFirstRegularBucket,
                                        std::min(idx, lo_ - size));
                dense_.insert(dense_.begin(),
                              static_cast<std::size_t>(lo_ - lo), T{});
                lo_ = lo;
            }
            const auto off = static_cast<std::size_t>(idx - lo_);
            if (off >= dense_.size())
                dense_.resize(off + 1);
            return dense_[off];
        }

        /**
         * Visit (index, value) in ascending index order — underflow,
         * the dense range, overflow — until `fn` returns true.
         * Untouched slots hold T{} and are visited too.
         * @return the index `fn` stopped at, or -1.
         */
        template <typename Fn>
        i32 findIf(Fn &&fn) const
        {
            if (fn(kUnderflowBucket, under_))
                return kUnderflowBucket;
            for (std::size_t i = 0; i < dense_.size(); ++i)
                if (fn(lo_ + static_cast<i32>(i), dense_[i]))
                    return lo_ + static_cast<i32>(i);
            if (fn(kOverflowBucket, over_))
                return kOverflowBucket;
            return -1;
        }

        /** Visit every (index, value) in ascending index order. */
        template <typename Fn>
        void forEach(Fn &&fn) const
        {
            findIf([&](i32 idx, const T &x) {
                fn(idx, x);
                return false;
            });
        }

        /** Reset every slot, keeping the dense capacity. */
        void clear()
        {
            under_ = T{};
            over_ = T{};
            dense_.clear();
        }

      private:
        T under_{};
        T over_{};
        /** Bucket index of dense_[0] (when non-empty). */
        i32 lo_ = kFirstRegularBucket;
        std::vector<T> dense_;
    };

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

    /** Visit every occupied (index, count) bucket, index-ascending. */
    template <typename Fn>
    void forEachBucket(Fn &&fn) const
    {
        buckets_.forEach([&](i32 idx, u64 n) {
            if (n > 0)
                fn(idx, n);
        });
    }

    /** @return the occupied buckets as a sparse index -> count map
     *  (a copy, for tests and diagnostics). */
    std::map<i32, u64> buckets() const;

    /** @return the bucket index a value lands in. */
    static i32 bucketOf(double v);

    /** @return inclusive lower bound of a regular bucket. */
    static double bucketLo(i32 idx);

    /** @return exclusive upper bound of a regular bucket. */
    static double bucketHi(i32 idx);

    /**
     * Codec fields (common/codec.hh): the scalar digest, then the
     * occupied buckets as positional [idx, n] pairs, index-ascending.
     * Decoding rebuilds the histogram and rejects a bucket with an
     * index outside the three bucket ranges or a zero count, and
     * buckets that do not sum to count.
     */
    template <typename V, RecordOf<Histogram> H>
    friend void
    fields(V &v, H &h)
    {
        std::vector<Bucket> buckets;
        h.forEachBucket(
            [&](i32 idx, u64 n) { buckets.push_back({idx, n}); });
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
                v.check(Slots<u64>::valid(b.idx) && b.n > 0);
                if (!v.ok())
                    return;
                h.buckets_.at(b.idx) += b.n;
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

    Slots<u64> buckets_;
    u64 count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace pluto::obs

#endif // PLUTO_OBS_HISTOGRAM_HH
