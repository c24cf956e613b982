/**
 * @file
 * obs::TimeSeries: fixed-interval virtual-time windows of a
 * simulation, the time-resolved companion to the whole-run counters
 * in obs::Registry. A series is declared once with a column schema
 * (each column sums, keeps a maximum, or accumulates a latency
 * Histogram per window) and then recorded into by timestamp; window
 * index = floor(t / interval), windows materialize densely on first
 * touch so export order is trivially deterministic.
 *
 * Merging two series with the same schema is window-wise and uses
 * the column's own fold (sum / max / exact histogram merge), so
 * per-shard series fold to the same windows a single cold run
 * records — the property the serve campaign's --timeseries export
 * relies on.
 */

#ifndef PLUTO_OBS_TIMESERIES_HH
#define PLUTO_OBS_TIMESERIES_HH

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "obs/histogram.hh"

namespace pluto::obs
{

/** Per-window fold of one time-series column. */
enum class SeriesAgg
{
    /** Values sum within a window (arrivals, busy time). */
    Sum,
    /** Window keeps the maximum recorded value (queue depth). */
    Max,
    /** Values accumulate into a per-window Histogram (latencies). */
    Hist,
};

/** One declared column of a TimeSeries. */
struct SeriesCol
{
    std::string name;
    SeriesAgg agg = SeriesAgg::Sum;
};

/** Fixed-interval virtual-time windows (see file comment). */
class TimeSeries
{
  public:
    /** Hard window cap: later timestamps clamp into the last window
     *  instead of growing without bound (still deterministic). */
    static constexpr std::size_t kMaxWindows = 1u << 20;

    TimeSeries() = default;

    /** `intervalNs` > 0; `cols` fixes the schema. */
    TimeSeries(double intervalNs, std::vector<SeriesCol> cols);

    /** Record `v` into column `col` at time `tNs`. */
    void record(double tNs, std::size_t col, double v)
    {
        add(window(tNs), col, v);
    }

    /**
     * @return the index of the window holding `tNs`, materializing
     * windows up to it. Computed once, it serves every add() of one
     * event; a repeat of the last timestamp (several records of one
     * instant) skips the division.
     */
    std::size_t window(double tNs)
    {
        if (tNs == lastT_)
            return lastWin_;
        std::size_t idx = 0;
        if (tNs > 0.0)
            idx = static_cast<std::size_t>(tNs / intervalNs_);
        idx = std::min(idx, kMaxWindows - 1);
        if (idx >= windows_)
            grow(idx + 1);
        lastT_ = tNs;
        lastWin_ = idx;
        return idx;
    }

    /** Fold `v` into column `col` of window `win` (from window()). */
    void add(std::size_t win, std::size_t col, double v)
    {
        PLUTO_ASSERT(win < windows_ && col < cols_.size());
        const std::size_t slot = slot_[col];
        switch (cols_[col].agg) {
          case SeriesAgg::Sum:
            vals_[win * valCols_ + slot] += v;
            break;
          case SeriesAgg::Max:
            vals_[win * valCols_ + slot] =
                std::max(vals_[win * valCols_ + slot], v);
            break;
          case SeriesAgg::Hist:
            hists_[win * histCols_ + slot].add(v);
            break;
        }
    }

    /**
     * Spread `v` (a Sum column) over [t0, t1) proportionally to the
     * overlap with each window — device busy time across windows.
     * No-op when t1 <= t0.
     */
    void recordSpan(double t0, double t1, std::size_t col, double v);

    /** Window-wise fold of `other` (schemas must match). */
    void merge(const TimeSeries &other);

    /** @return number of materialized windows. */
    std::size_t windows() const { return windows_; }

    /** @return window width in ns. */
    double intervalNs() const { return intervalNs_; }

    /** @return the declared column schema. */
    const std::vector<SeriesCol> &cols() const { return cols_; }

    /** @return Sum/Max value of (window, col); 0 when untouched. */
    double value(std::size_t win, std::size_t col) const;

    /** @return the Histogram of a Hist column in `win`. */
    const Histogram &hist(std::size_t win, std::size_t col) const;

  private:
    /** Materialize windows up to `count`. */
    void grow(std::size_t count);

    double intervalNs_ = 1e6;
    std::vector<SeriesCol> cols_;
    /** col -> slot in a window's histograms (Hist cols) or values. */
    std::vector<std::size_t> slot_;
    std::size_t histCols_ = 0;
    std::size_t valCols_ = 0;
    std::size_t windows_ = 0;
    /** window()'s last timestamp and answer (NaN: none yet). */
    double lastT_ = std::numeric_limits<double>::quiet_NaN();
    std::size_t lastWin_ = 0;
    /** Sum/Max values, window-major: window w's are at
     *  [w * valCols, (w + 1) * valCols). */
    std::vector<double> vals_;
    /** Hist columns, window-major likewise. */
    std::vector<Histogram> hists_;
};

} // namespace pluto::obs

#endif // PLUTO_OBS_TIMESERIES_HH
