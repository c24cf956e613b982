/**
 * @file
 * Hierarchical counter registry (see registry.hh).
 */

#include "obs/registry.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/digest.hh"

namespace pluto::obs
{

namespace
{

/** The calling thread's bound shard (null = unbound/disabled). */
thread_local CounterShard *t_shard = nullptr;

/** `name` with every '.' turned into a path separator. */
std::string
pathify(const std::string &prefix, const std::string &name)
{
    std::string out;
    out.reserve(prefix.size() + 1 + name.size());
    out += prefix;
    out += '/';
    for (const char c : name)
        out += (c == '.') ? '/' : c;
    return out;
}

/** One node of the rendered hierarchy. */
struct Node
{
    /** Leaf value; a node may carry both a value and children
     *  ("pluto/lut_reload" count + "pluto/lut_reload/ns" time), in
     *  which case the value renders under the key "total". */
    std::optional<double> value;
    std::map<std::string, Node> kids;
};

void
insert(Node &root, const std::string &path, double value)
{
    Node *n = &root;
    std::size_t begin = 0;
    while (begin <= path.size()) {
        const std::size_t sep = path.find('/', begin);
        const std::string seg = path.substr(
            begin,
            sep == std::string::npos ? std::string::npos : sep - begin);
        n = &n->kids[seg];
        if (sep == std::string::npos)
            break;
        begin = sep + 1;
    }
    // Duplicate leaves cannot occur (shard maps are keyed by path);
    // last-wins keeps the renderer total anyway.
    n->value = value;
}

void
render(std::string &out, const Node &n, int indent)
{
    const std::string pad(2 * indent, ' ');
    out += "{";
    bool first = true;
    const auto emitKey = [&](const std::string &k) {
        out += first ? "\n" : ",\n";
        first = false;
        out += pad + "  \"" + jsonEscape(k) + "\": ";
    };
    if (n.value && !n.kids.empty()) {
        emitKey("total");
        out += fmtDoubleExact(*n.value);
    }
    for (const auto &[seg, kid] : n.kids) {
        emitKey(seg);
        if (kid.value && kid.kids.empty())
            out += fmtDoubleExact(*kid.value);
        else
            render(out, kid, indent + 1);
    }
    out += first ? "}" : "\n" + pad + "}";
}

} // namespace

void
CounterShard::gaugeMax(const std::string &path, double v)
{
    auto [it, inserted] = gauges_.emplace(path, v);
    if (!inserted)
        it->second = std::max(it->second, v);
}

void
CounterShard::absorb(const std::string &prefix, const StatSet &stats)
{
    for (const auto &[name, value] : stats.counters())
        counters_[pathify(prefix, name)] += value;
}

void
CounterShard::merge(const CounterShard &other)
{
    for (const auto &[path, value] : other.counters_)
        counters_[path] += value;
    for (const auto &[path, value] : other.gauges_)
        gaugeMax(path, value);
    for (const auto &[path, h] : other.hists_)
        hists_[path].merge(h);
}

void
CounterShard::clear()
{
    counters_.clear();
    gauges_.clear();
    hists_.clear();
}

Registry &
Registry::get()
{
    static Registry instance;
    return instance;
}

void
Registry::enable(bool on)
{
    enabled_ = on;
    t_shard = on ? &root_ : nullptr;
}

void
Registry::reset()
{
    root_.clear();
    for (auto &w : tasks_)
        w.clear();
}

void
Registry::ensureTaskShards(std::size_t n)
{
    while (tasks_.size() < n)
        tasks_.emplace_back();
}

void
Registry::bindThread(std::size_t idx)
{
    t_shard = &tasks_.at(idx);
}

void
Registry::bindThreadToRoot()
{
    t_shard = &root_;
}

void
Registry::mergeTaskShards()
{
    for (auto &w : tasks_) {
        root_.merge(w);
        w.clear();
    }
}

CounterShard
Registry::snapshot() const
{
    CounterShard merged = root_;
    for (const auto &w : tasks_)
        merged.merge(w);
    return merged;
}

std::string
Registry::renderJson(
    const std::vector<std::pair<std::string, std::string>> &header)
    const
{
    const CounterShard merged = snapshot();
    Node tree;
    std::size_t distinct = merged.counters().size();
    for (const auto &[path, value] : merged.counters())
        insert(tree, path, value);
    for (const auto &[path, value] : merged.gauges())
        if (!merged.counters().count(path)) {
            insert(tree, path, value);
            ++distinct;
        }

    std::string out = "{\n";
    for (const auto &[key, raw] : header)
        out += "  \"" + jsonEscape(key) + "\": " + raw + ",\n";
    out += "  \"distinct_counters\": " + std::to_string(distinct) +
           ",\n";
    out += "  \"counters\": ";
    render(out, tree, 1);
    // Histograms render flat (path -> digest): the quantiles are the
    // payload, not a nesting hierarchy, and the full bucket maps stay
    // in the campaign caches where exact merging happens.
    out += ",\n  \"distinct_histograms\": " +
           std::to_string(merged.hists().size());
    out += ",\n  \"histograms\": {";
    bool first = true;
    for (const auto &[path, h] : merged.hists()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(path) + "\": {";
        out += "\"count\": " + std::to_string(h.count());
        out += ", \"mean\": " + fmtDoubleExact(h.mean());
        out += ", \"p50\": " + fmtDoubleExact(h.quantile(0.50));
        out += ", \"p95\": " + fmtDoubleExact(h.quantile(0.95));
        out += ", \"p99\": " + fmtDoubleExact(h.quantile(0.99));
        out += ", \"p999\": " + fmtDoubleExact(h.quantile(0.999));
        out += ", \"max\": " + fmtDoubleExact(h.max());
        out += "}";
    }
    out += first ? "}" : "\n  }";
    out += "\n}\n";
    return out;
}

CounterShard *
shard()
{
    return t_shard;
}

} // namespace pluto::obs
