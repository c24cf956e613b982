/**
 * @file
 * Fixed-interval virtual-time windows (see timeseries.hh).
 */

#include "obs/timeseries.hh"

#include <algorithm>

namespace pluto::obs
{

TimeSeries::TimeSeries(double intervalNs, std::vector<SeriesCol> cols)
    : intervalNs_(intervalNs), cols_(std::move(cols))
{
    PLUTO_ASSERT(intervalNs_ > 0.0);
    slot_.reserve(cols_.size());
    for (const auto &c : cols_)
        slot_.push_back(c.agg == SeriesAgg::Hist ? histCols_++
                                                 : valCols_++);
}

void
TimeSeries::grow(std::size_t count)
{
    windows_ = count;
    vals_.resize(windows_ * valCols_, 0.0);
    hists_.resize(windows_ * histCols_);
}

void
TimeSeries::recordSpan(double t0, double t1, std::size_t col,
                       double v)
{
    PLUTO_ASSERT(col < cols_.size() &&
                 cols_[col].agg == SeriesAgg::Sum);
    if (!(t1 > t0) || v == 0.0)
        return;
    const double span = t1 - t0;
    double cur = t0;
    while (cur < t1) {
        const std::size_t idx = window(cur);
        double end = static_cast<double>(idx + 1) * intervalNs_;
        if (idx == kMaxWindows - 1 || end > t1)
            end = t1;
        add(idx, col, v * ((end - cur) / span));
        cur = end;
    }
}

void
TimeSeries::merge(const TimeSeries &other)
{
    PLUTO_ASSERT(cols_.size() == other.cols_.size() &&
                 intervalNs_ == other.intervalNs_);
    if (other.windows_ > windows_)
        grow(other.windows_);
    for (std::size_t c = 0; c < cols_.size(); ++c)
        PLUTO_ASSERT(cols_[c].agg == other.cols_[c].agg);
    for (std::size_t i = 0; i < other.windows_; ++i) {
        for (std::size_t c = 0; c < cols_.size(); ++c) {
            switch (cols_[c].agg) {
              case SeriesAgg::Sum:
                vals_[i * valCols_ + slot_[c]] +=
                    other.vals_[i * valCols_ + slot_[c]];
                break;
              case SeriesAgg::Max: {
                double &x = vals_[i * valCols_ + slot_[c]];
                x = std::max(x, other.vals_[i * valCols_ + slot_[c]]);
                break;
              }
              case SeriesAgg::Hist:
                hists_[i * histCols_ + slot_[c]].merge(
                    other.hists_[i * histCols_ + slot_[c]]);
                break;
            }
        }
    }
}

double
TimeSeries::value(std::size_t win, std::size_t col) const
{
    PLUTO_ASSERT(win < windows_ && col < cols_.size() &&
                 cols_[col].agg != SeriesAgg::Hist);
    return vals_[win * valCols_ + slot_[col]];
}

const Histogram &
TimeSeries::hist(std::size_t win, std::size_t col) const
{
    PLUTO_ASSERT(win < windows_ && col < cols_.size() &&
                 cols_[col].agg == SeriesAgg::Hist);
    return hists_[win * histCols_ + slot_[col]];
}

} // namespace pluto::obs
