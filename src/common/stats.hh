/**
 * @file
 * Lightweight named statistics registry used by the simulator to count
 * DRAM commands and accumulate time/energy, plus small numeric helpers
 * (geometric mean) shared by the bench harnesses. Distributions and
 * quantiles live in obs/histogram.
 */

#ifndef PLUTO_COMMON_STATS_HH
#define PLUTO_COMMON_STATS_HH

#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace pluto
{

/** A bag of named scalar counters. */
class StatSet
{
  public:
    /** Add `delta` to counter `name` (creating it at zero). */
    void add(const std::string &name, double delta);

    /** Increment counter `name` by one. */
    void inc(const std::string &name) { add(name, 1.0); }

    /** @return value of counter `name`, or 0 if absent. */
    double get(const std::string &name) const;

    /** Merge all counters of `other` into this set. */
    void merge(const StatSet &other);

    /** Reset all counters. */
    void clear() { counters_.clear(); }

    /** @return all counters in name order. */
    const std::map<std::string, double> &counters() const
    {
        return counters_;
    }

    /**
     * Render as "name = value" lines. Values go through
     * fmtDoubleExact so the text round-trips the doubles exactly and
     * is locale/stream-state independent.
     */
    std::string format() const;

    /**
     * Render as a flat JSON object {"name": value, ...} in name
     * order, values via fmtDoubleExact.
     */
    std::string formatJson() const;

  private:
    std::map<std::string, double> counters_;
};

/** Geometric mean of positive values. Returns 0 for an empty input. */
double geomean(const std::vector<double> &values);

} // namespace pluto

#endif // PLUTO_COMMON_STATS_HH
