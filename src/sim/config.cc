/**
 * @file
 * Scenario-file parser (see config.hh): the field tables, one generic
 * section draft and one generic grid expansion.
 */

#include "sim/config.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/digest.hh"
#include "workloads/workload.hh"

namespace pluto::sim
{

namespace
{

/** Strip comments and surrounding whitespace. */
std::string
cleanLine(const std::string &raw)
{
    std::string s = raw;
    const auto hash = s.find_first_of("#;");
    if (hash != std::string::npos)
        s.erase(hash);
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return {};
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Parse a whole value: text verbatim, an unsigned decimal or a
 *  finite double. */
template <typename T>
bool
parseValue(const std::string &s, T &out)
{
    char *end = nullptr;
    errno = 0;
    if constexpr (std::is_same_v<T, std::string>) {
        out = s;
    } else if constexpr (std::is_floating_point_v<T>) {
        const double v = std::strtod(s.c_str(), &end);
        // Non-finite values (strtod accepts "inf"/"nan") are never
        // valid config inputs: an infinite rate or weight hangs the
        // serving simulation instead of failing with a diagnostic.
        if (s.empty() || end != s.c_str() + s.size() || !std::isfinite(v))
            return false;
        out = v;
    } else {
        // Digits only: strtoull would silently wrap "-1" to ULLONG_MAX.
        if (s.empty() ||
            s.find_first_not_of("0123456789") != std::string::npos)
            return false;
        const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
        if (errno == ERANGE || v > std::numeric_limits<T>::max())
            return false;
        out = static_cast<T>(v);
    }
    return true;
}

/** Append the canonical text of a value: bools as 0/1, integers in
 *  decimal, doubles exactly, text verbatim. */
template <typename T>
void
writeValue(const T &v, std::string &out)
{
    if constexpr (std::is_same_v<T, bool>)
        out += v ? '1' : '0';
    else if constexpr (std::is_integral_v<T>)
        out += std::to_string(v);
    else if constexpr (std::is_floating_point_v<T>)
        out += fmtDoubleExact(v);
    else
        out += v;
}

// ---- Number ranges (`value` fields) ----

bool anyValue(double) { return true; }
bool atLeastOne(double v) { return v >= 1.0; }
bool positive(double v) { return v > 0.0; }
bool nonNegative(double v) { return v >= 0.0; }
bool unitInterval(double v) { return v >= 0.0 && v <= 1.0; }
bool openUnitInterval(double v) { return v > 0.0 && v < 1.0; }
bool oneOrFour(double v) { return v == 1.0 || v == 4.0; }

// ---- Field factories ----

template <typename C, typename T>
C classOf(T C::*);

template <typename C, typename T>
T typeOf(T C::*);

template <auto M>
using ClassOf = decltype(classOf(M));

template <auto M>
using TypeOf = decltype(typeOf(M));

/** One accepted spelling of a named-value field. */
template <typename T>
struct Word
{
    const char *text;
    T value;
};

/** @return the first spelling of `value` ("?" when it has none). */
template <typename T, std::size_t N>
const char *
spelling(const Word<T> (&words)[N], T value)
{
    for (const auto &w : words)
        if (w.value == value)
            return w.text;
    return "?";
}

/** A text or number field; numbers must satisfy `Ok`. */
template <auto M, bool (*Ok)(double) = anyValue>
constexpr Field<ClassOf<M>>
value(const char *key, const char *hint, unsigned flags)
{
    using S = ClassOf<M>;
    return {key, hint, flags,
            [](S &s, const std::string &t) {
                TypeOf<M> v{};
                if (!parseValue(t, v))
                    return false;
                if constexpr (std::is_arithmetic_v<TypeOf<M>>)
                    if (!Ok(static_cast<double>(v)))
                        return false;
                s.*M = std::move(v);
                return true;
            },
            [](const S &s, std::string &out) { writeValue(s.*M, out); }};
}

/** A named-value field accepting the spellings in `Words`. */
template <auto M, const auto &Words>
constexpr Field<ClassOf<M>>
oneOf(const char *key, const char *hint, unsigned flags)
{
    using S = ClassOf<M>;
    return {key, hint, flags,
            [](S &s, const std::string &t) {
                for (const auto &w : Words)
                    if (t == w.text) {
                        s.*M = w.value;
                        return true;
                    }
                return false;
            },
            [](const S &s, std::string &out) {
                if constexpr (std::is_same_v<TypeOf<M>, bool>)
                    writeValue(s.*M, out);
                else
                    out += spelling(Words, s.*M);
            }};
}

// ---- Spellings ----

using dram::MemoryKind;
using runtime::DeviceConfig;

constexpr Word<MemoryKind> kMemories[] = {
    {"ddr4", MemoryKind::Ddr4},
    {"3ds", MemoryKind::Hmc3ds},
    {"hmc3ds", MemoryKind::Hmc3ds},
};

constexpr Word<core::Design> kDesigns[] = {
    {"bsa", core::Design::Bsa},
    {"gsa", core::Design::Gsa},
    {"gmc", core::Design::Gmc},
};

constexpr Word<bool> kSwitch[] = {
    {"on", true},   {"true", true},   {"1", true},
    {"off", false}, {"false", false}, {"0", false},
};

constexpr Word<core::LutLoadMethod> kLoadMethods[] = {
    {"generate", core::LutLoadMethod::FirstTimeGeneration},
    {"memory", core::LutLoadMethod::FromMemory},
    {"storage", core::LutLoadMethod::FromStorage},
};

constexpr Word<bool> kLoops[] = {{"open", false}, {"closed", true}};

constexpr Word<bool> kArrivals[] = {{"poisson", false},
                                    {"uniform", true}};

constexpr Word<BatchPolicyKind> kPolicies[] = {
    {"immediate", BatchPolicyKind::Immediate},
    {"fixed", BatchPolicyKind::FixedSize},
    {"window", BatchPolicyKind::TimeWindow},
    {"adaptive", BatchPolicyKind::Adaptive},
};

constexpr Word<MemoMode> kMemoModes[] = {
    {"on", MemoMode::On},
    {"off", MemoMode::Off},
    {"verify", MemoMode::Verify},
};

// ---- Field tables ----

constexpr unsigned kGrid = kSweepable | kKeyed;
using Dev = DeviceConfig;
using Work = WorkloadSpec;
using Svc = ServiceSpec;

constexpr Field<SimConfig> kScenarioTable[] = {
    value<&SimConfig::name>("name", "string", 0),
    value<&SimConfig::outDir>("out_dir", "path", 0),
    value<&SimConfig::repeats, atLeastOne>("repeats", "integer >= 1", 0),
};

// Every device field is keyed through deviceDescriptor().
constexpr Field<Dev> kDeviceTable[] = {
    oneOf<&Dev::memory, kMemories>("memory", "ddr4 | 3ds", kGrid),
    oneOf<&Dev::design, kDesigns>("design", "bsa | gsa | gmc", kGrid),
    value<&Dev::salp>("salp", "unsigned integer", kGrid),
    value<&Dev::fawScale, unitInterval>("faw", "0..1", kGrid),
    oneOf<&Dev::modelRefresh, kSwitch>("refresh", "on | off", kGrid),
    oneOf<&Dev::loadMethod, kLoadMethods>(
        "load_method", "generate | memory | storage", kGrid),
};

// Keyed order is the order of a request class in the serve key.
constexpr Field<Work> kWorkloadTable[] = {
    value<&Work::elements, atLeastOne>("elements", "integer >= 1", kGrid),
    value<&Work::seed>("seed", "unsigned integer", kGrid),
    value<&Work::repeats, atLeastOne>("repeats", "integer >= 1", 0),
    value<&Work::tenant>("tenant", "unsigned integer", kKeyed),
    value<&Work::weight, positive>("weight", "> 0", kKeyed),
    value<&Work::sloMs, nonNegative>("slo_ms", "ms >= 0; 0 = service SLO",
                                     kKeyed),
};

// Keyed order is the serve key's; outcomes do not depend on `memo`.
constexpr Field<Svc> kServiceTable[] = {
    oneOf<&Svc::closedLoop, kLoops>("mode", "open | closed", kGrid),
    oneOf<&Svc::uniformArrivals, kArrivals>("arrivals",
                                            "poisson | uniform", kGrid),
    value<&Svc::ratePerSec, positive>("rate", "requests/s > 0", kGrid),
    value<&Svc::durationMs, positive>("duration_ms", "ms > 0", kGrid),
    value<&Svc::clients, atLeastOne>("clients", "integer >= 1", kGrid),
    value<&Svc::thinkMs, nonNegative>("think_ms", "ms >= 0", kGrid),
    oneOf<&Svc::policy, kPolicies>(
        "policy", "immediate | fixed | window | adaptive", kGrid),
    value<&Svc::batch, atLeastOne>("batch", "integer >= 1", kGrid),
    value<&Svc::windowMs, nonNegative>("window_ms", "ms >= 0", kGrid),
    value<&Svc::devices, atLeastOne>("devices", "integer >= 1", kGrid),
    value<&Svc::lanes, atLeastOne>("lanes", "integer >= 1", kGrid),
    value<&Svc::seed>("seed", "unsigned integer", kGrid),
    value<&Svc::sloMs, nonNegative>("slo_ms", "ms >= 0; 0 = off", kGrid),
    value<&Svc::sloTarget, openUnitInterval>("slo_target", "0 < q < 1",
                                             kGrid),
    value<&Svc::tailQuantile, openUnitInterval>("tail_quantile",
                                                "0 < q < 1", kGrid),
    value<&Svc::timeseriesMs, positive>("timeseries_ms", "ms > 0", kGrid),
    value<&Svc::tenantSkew, nonNegative>(
        "tenant_skew", "Zipf exponent >= 0; 0 = uniform", kGrid),
    oneOf<&Svc::memo, kMemoModes>("memo", "on | off | verify", kSweepable),
};

constexpr Field<NnSpec> kNnTable[] = {
    value<&NnSpec::bits, oneOrFour>("bits", "1 | 4", kGrid),
    value<&NnSpec::images, atLeastOne>("images", "integer >= 1", kGrid),
    value<&NnSpec::seed>("seed", "unsigned integer", kGrid),
};

// ---- Generic section draft and grid expansion ----

/** One `sweep KEY = v1, v2, ...` line, kept until expansion. */
template <typename S>
struct Sweep
{
    const Field<S> *field;
    std::vector<std::string> values;
};

/** A section before grid expansion. */
template <typename S>
struct Draft
{
    std::string name;
    S spec;
    /** Keys plainly assigned here (they override inherited
     *  [device]-level sweeps). */
    std::vector<std::string> assigned;
    std::vector<Sweep<S>> sweeps;
    int lineno = 0;
};

/** A section kind: its field table, diagnostic nouns and drafts. */
template <typename S>
struct Section
{
    std::span<const Field<S>> fields;
    /** Noun of key diagnostics ("unknown device key 'x'"). */
    const char *keyNoun;
    /** Noun of cell diagnostics ("duplicate variant 'x'"). */
    const char *cellNoun;
    /** Cells are named base/key=value/... and must be unique
     *  (workload names are registry names instead). */
    bool uniqueNames;
    std::vector<Draft<S>> drafts = {};
};

bool
contains(const std::vector<std::string> &v, const std::string &s)
{
    return std::find(v.begin(), v.end(), s) != v.end();
}

template <typename S>
bool
swept(const Draft<S> &d, const Field<S> *f)
{
    return std::any_of(d.sweeps.begin(), d.sweeps.end(),
                       [f](const Sweep<S> &s) { return s.field == f; });
}

/** Open draft `name` of `sec`. @return error text or empty. */
template <typename S>
std::string
openDraft(Section<S> &sec, const std::string &name, const S &spec,
          int lineno)
{
    for (const auto &d : sec.drafts)
        if (sec.uniqueNames && d.name == name)
            return "duplicate " + std::string(sec.cellNoun) + " '" +
                   name + "'";
    sec.drafts.push_back({name, spec, {}, {}, lineno});
    return {};
}

/**
 * Apply one `key = value` line (`sweep` null) or `sweep key = ...`
 * line to draft `d` of `sec`. @return error text or empty.
 */
template <typename S>
std::string
applyLine(const Section<S> &sec, Draft<S> &d, const std::string &key,
          const std::string &value, const std::vector<std::string> *sweep)
{
    const std::string noun = sec.keyNoun;
    const auto f =
        std::find_if(sec.fields.begin(), sec.fields.end(),
                     [&](const Field<S> &x) { return key == x.key; });
    const bool declared = f != sec.fields.end();
    const auto bad = [&](const std::string &v) {
        return "bad " + key + " '" + v + "' (" + f->hint + ")";
    };
    const std::string both =
        "'" + key + "' is both set and swept in this section";
    if (!sweep) {
        if (!declared)
            return "unknown " + noun + " key '" + key + "'";
        if (swept(d, &*f))
            return both;
        if (!f->parse(d.spec, value))
            return bad(value);
        if (!contains(d.assigned, key))
            d.assigned.push_back(key);
        return {};
    }
    if (!declared || !f->sweepable()) {
        std::string allowed;
        for (const Field<S> &x : sec.fields)
            if (x.sweepable())
                allowed += (allowed.empty() ? "" : " | ") + std::string(x.key);
        if (allowed.empty())
            return "sweep is not allowed in [" + noun + "]";
        const bool every = std::all_of(
            sec.fields.begin(), sec.fields.end(),
            [](const Field<S> &x) { return x.sweepable(); });
        if (every)
            return "unknown " + noun + " key '" + key + "'";
        return "cannot sweep " + noun + " key '" + key + "' (" +
               allowed + ")";
    }
    if (swept(d, &*f))
        return "duplicate sweep key '" + key + "'";
    if (contains(d.assigned, key))
        return both;
    // Validate every grid value now, so a bad cell fails with this
    // line's number.
    for (const auto &v : *sweep) {
        S scratch = d.spec;
        if (!f->parse(scratch, v))
            return bad(v);
    }
    d.sweeps.push_back({&*f, *sweep});
    return {};
}

/** @return a "line N: msg" diagnostic. */
std::string
atLine(int lineno, const std::string &msg)
{
    return "line " + std::to_string(lineno) + ": " + msg;
}

/**
 * Expand draft `d` of `sec` over `grid` (first-declared key varies
 * slowest) and hand every cell to `emit(name, spec)`; `names`
 * collects the cell names of the section kind. @return a "line N:"
 * error or empty.
 */
template <typename S, typename Emit>
std::string
expandGrid(const Section<S> &sec, const Draft<S> &d,
           const std::vector<Sweep<S>> &grid,
           std::vector<std::string> &names, Emit emit)
{
    const std::string cell = std::string(sec.cellNoun) + " '";
    u64 combos = 1;
    for (const auto &s : grid) {
        if (s.values.size() > 4096 / combos)
            return atLine(d.lineno, "sweep grid of " + cell + d.name +
                                        "' exceeds 4096 combinations");
        combos *= s.values.size();
    }
    for (u64 c = 0; c < combos; ++c) {
        S spec = d.spec;
        std::string name = d.name;
        u64 span = combos;
        for (const auto &s : grid) {
            span /= s.values.size();
            const std::string &v = s.values[(c / span) % s.values.size()];
            s.field->parse(spec, v); // validated when the line was read
            if (sec.uniqueNames)
                name.append("/").append(s.field->key).append("=").append(v);
        }
        if (sec.uniqueNames && contains(names, name))
            return atLine(d.lineno, "duplicate " + cell + name +
                                        "' after grid expansion");
        names.push_back(name);
        emit(std::move(name), std::move(spec));
    }
    return {};
}

/** Expand every draft of a section whose spec carries its name. */
template <typename S>
std::string
expandAll(const Section<S> &sec, std::vector<S> &out)
{
    std::vector<std::string> names;
    std::string err;
    for (const auto &d : sec.drafts)
        if (err.empty())
            err = expandGrid(sec, d, d.sweeps, names,
                             [&](std::string name, S spec) {
                                 spec.name = std::move(name);
                                 out.push_back(std::move(spec));
                             });
    return err;
}

/**
 * Split a comma-separated sweep value list. @return error text or
 * empty; values are trimmed and non-empty on success.
 */
std::string
splitSweepValues(const std::string &text,
                 std::vector<std::string> &out)
{
    std::size_t start = 0;
    while (true) {
        const auto comma = text.find(',', start);
        const std::string raw = text.substr(start, comma - start);
        const auto b = raw.find_first_not_of(" \t");
        if (b == std::string::npos)
            return "empty value in sweep list";
        out.push_back(raw.substr(b, raw.find_last_not_of(" \t") - b + 1));
        if (comma == std::string::npos)
            return {};
        start = comma + 1;
    }
}

} // namespace

const std::span<const Field<SimConfig>> kScenarioFields = kScenarioTable;
const std::span<const Field<Dev>> kDeviceFields = kDeviceTable;
const std::span<const Field<Work>> kWorkloadFields = kWorkloadTable;
const std::span<const Field<Svc>> kServiceFields = kServiceTable;
const std::span<const Field<NnSpec>> kNnFields = kNnTable;

const char *
batchPolicyName(BatchPolicyKind kind)
{
    return spelling(kPolicies, kind);
}

const char *
memoModeName(MemoMode mode)
{
    return spelling(kMemoModes, mode);
}

u64
SimConfig::totalRuns() const
{
    u64 per_variant = 0;
    for (const auto &w : workloads)
        per_variant += static_cast<u64>(w.repeats) * repeats;
    return per_variant * devices.size();
}

u64
SimConfig::totalServiceRuns() const
{
    return static_cast<u64>(devices.size()) * services.size();
}

u64
SimConfig::totalNnRuns() const
{
    return static_cast<u64>(devices.size()) * nnCells.size();
}

std::optional<SimConfig>
SimConfig::parse(const std::string &text, std::string &error)
{
    Section<SimConfig> scenario{kScenarioFields, "scenario", "", false};
    Section<Dev> device{kDeviceFields, "device", "variant", true};
    Section<Dev> variants = device;
    Section<Work> workloads{kWorkloadFields, "workload", "workload", false};
    Section<Svc> services{kServiceFields, "service", "service", true};
    Section<NnSpec> nnCells{kNnFields, "nn", "nn cell", true};
    // [scenario] and [device] are single drafts, however often opened.
    scenario.drafts.emplace_back();
    device.drafts.emplace_back();

    // Applies one line to the current section's newest draft.
    std::function<std::string(const std::string &, const std::string &,
                              const std::vector<std::string> *)>
        apply;
    const auto into = [&apply](auto &sec) {
        apply = [&sec](const auto &...line) {
            return applyLine(sec, sec.drafts.back(), line...);
        };
    };
    int lineno = 0;
    const auto fail = [&](const std::string &msg) {
        error = atLine(lineno, msg);
        return std::nullopt;
    };

    std::istringstream in(text);
    std::string raw;
    while (std::getline(in, raw)) {
        ++lineno;
        const std::string line = cleanLine(raw);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                return fail("unterminated section header");
            const std::string inner = line.substr(1, line.size() - 2);
            const auto sp = inner.find_first_of(" \t");
            const std::string head = inner.substr(0, sp);
            const auto b = inner.find_first_not_of(" \t", sp);
            const std::string arg =
                b == std::string::npos ? "" : inner.substr(b);
            std::string err;
            if ((head == "scenario" || head == "device") && !arg.empty())
                return fail("[" + head + "] takes no argument");
            if ((head == "variant" || head == "workload") && arg.empty())
                return fail("[" + head + "] needs a name");
            if (head == "scenario") {
                into(scenario);
            } else if (head == "device") {
                if (!variants.drafts.empty())
                    return fail(
                        "[device] must precede [variant] sections");
                into(device);
            } else if (head == "variant") {
                err = openDraft(variants, arg, device.drafts[0].spec,
                                lineno);
                into(variants);
            } else if (head == "workload") {
                if (!workloads::createWorkload(arg))
                    return fail("unknown workload '" + arg +
                                "' (available: " +
                                workloads::workloadNamesJoined() +
                                ")");
                err = openDraft(workloads, arg, {}, lineno);
                into(workloads);
            } else if (head == "service") {
                err = openDraft(services, arg.empty() ? "service" : arg,
                                {}, lineno);
                into(services);
            } else if (head == "nn") {
                err = openDraft(nnCells, arg.empty() ? "nn" : arg, {},
                                lineno);
                into(nnCells);
            } else {
                return fail("unknown section [" + head + "]");
            }
            if (!err.empty())
                return fail(err);
            continue;
        }

        const auto eq = line.find('=');
        if (eq == std::string::npos)
            return fail("expected 'key = value'");
        std::string key = cleanLine(line.substr(0, eq));
        const std::string value = cleanLine(line.substr(eq + 1));
        if (key.empty())
            return fail("empty key");
        if (value.empty())
            return fail("empty value for '" + key + "'");

        // Grid lines: `sweep KEY = v1, v2, ...`.
        if (key == "sweep")
            return fail("sweep needs a key (sweep KEY = v1, v2, ...)");
        std::vector<std::string> grid;
        const bool isSweep = key.rfind("sweep", 0) == 0 &&
                             (key[5] == ' ' || key[5] == '\t');
        // `key` is trimmed, so a sweep line names a non-empty key.
        if (isSweep)
            key = cleanLine(key.substr(6));
        std::string err = isSweep ? splitSweepValues(value, grid) : "";
        if (err.empty() && !apply)
            err = "'" + key + "' outside any section";
        if (err.empty())
            err = apply(key, value, isSweep ? &grid : nullptr);
        if (!err.empty())
            return fail(err);
    }

    // [workload] sections feed batch and service mode; an nn-only
    // scenario legitimately has none.
    if (workloads.drafts.empty() && nnCells.drafts.empty()) {
        error = "scenario declares no [workload] or [nn] sections";
        return std::nullopt;
    }
    const Draft<DeviceConfig> &defaults = device.drafts[0];
    if (variants.drafts.empty())
        openDraft(variants, "default", defaults.spec, lineno);

    // ---- Grid expansion ----

    SimConfig cfg = scenario.drafts[0].spec;
    std::vector<std::string> names;
    for (const auto &v : variants.drafts) {
        // [device]-level sweeps are inherited unless the variant set
        // or swept the key itself; variant sweeps follow, in order.
        std::vector<Sweep<DeviceConfig>> grid;
        for (const auto &s : defaults.sweeps)
            if (!contains(v.assigned, s.field->key) && !swept(v, s.field))
                grid.push_back(s);
        grid.insert(grid.end(), v.sweeps.begin(), v.sweeps.end());
        error = expandGrid(variants, v, grid, names,
                           [&](std::string name, DeviceConfig c) {
                               cfg.devices.push_back(
                                   {std::move(name), std::move(c)});
                           });
        if (!error.empty())
            return std::nullopt;
    }
    error = expandAll(workloads, cfg.workloads);
    if (error.empty())
        error = expandAll(services, cfg.services);
    if (error.empty())
        error = expandAll(nnCells, cfg.nnCells);
    if (!error.empty())
        return std::nullopt;
    return cfg;
}

std::optional<SimConfig>
SimConfig::load(const std::string &path, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open scenario file '" + path + "'";
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str(), error);
}

} // namespace pluto::sim
