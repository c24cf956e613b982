#include "common/stats.hh"

#include <cmath>

#include "common/digest.hh"
#include "common/logging.hh"

namespace pluto
{

void
StatSet::add(const std::string &name, double delta)
{
    counters_[name] += delta;
}

double
StatSet::get(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

void
StatSet::merge(const StatSet &other)
{
    for (const auto &[name, value] : other.counters_)
        counters_[name] += value;
}

std::string
StatSet::format() const
{
    std::string out;
    for (const auto &[name, value] : counters_) {
        out += name;
        out += " = ";
        out += fmtDoubleExact(value);
        out += "\n";
    }
    return out;
}

std::string
StatSet::formatJson() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        out += first ? "\"" : ",\"";
        first = false;
        out += name;
        out += "\":";
        out += fmtDoubleExact(value);
    }
    out += "}";
    return out;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values) {
        PLUTO_ASSERT(v > 0.0);
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace pluto
