/**
 * @file
 * SimConfig: the scenario-file model shared by every campaign mode.
 *
 * A scenario file is a small INI document describing one experiment
 * campaign (line oriented; '#' and ';' start comments):
 *
 *   [scenario]            global settings (name, out_dir, repeats)
 *   [device]              defaults inherited by every variant
 *   [variant NAME]        one device configuration (overrides [device])
 *   [workload NAME]       one workload (NAME is a registry name); in
 *                         --service mode also one request class
 *   [service NAME]        one serving experiment (--service mode)
 *   [nn NAME]             one quantized LeNet-5 cell (--nn mode)
 *
 * Inside a section, `KEY = VALUE` sets a key and `sweep KEY = v1, v2`
 * sweeps it. Each section expands into the cross product of its sweep
 * lists (declaration order, first key slowest); expanded variants,
 * services and nn cells are named `base/key=value/...`. [device]-level
 * sweeps are inherited by every variant that neither sets nor sweeps
 * the same key itself. [workload] sections are required only when a
 * mode that consumes them (batch, service) will run.
 *
 * Every key is declared once, in one Field table per section kind
 * (config.cc; see Field below): its INI name, the spec member it
 * sets, the values it accepts (with the hint its diagnostic quotes),
 * whether it may be swept and whether it is part of the cache content
 * key of the cells it shapes. The parser, the grid expansion and the
 * serve/nn cache keys all walk these tables.
 *
 * Parsing is total and non-fatal: malformed input (including bad
 * grid syntax, empty sweep lists and duplicate sweep keys) yields an
 * error message with a line number, never an exit.
 */

#ifndef PLUTO_SIM_CONFIG_HH
#define PLUTO_SIM_CONFIG_HH

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runtime/device.hh"

namespace pluto::sim
{

/** One named device configuration (a scenario variant). */
struct DeviceSpec
{
    /** Variant label used in reports ("bsa-ddr4", ...). */
    std::string name;
    /** Full device construction parameters. */
    runtime::DeviceConfig config;
};

/** One workload entry of a scenario. */
struct WorkloadSpec
{
    /** Registry name ("CRC-8", "ColorGrade", ...). */
    std::string name;
    /** Input size; 0 = the workload's paper-scale default. */
    u64 elements = 0;
    /** Runs of this workload per variant. */
    u32 repeats = 1;
    /** Input-generation seed (0 = the historical fixed inputs). */
    u64 seed = 0;
    /** Service mode: tenant this request class is attributed to. */
    u32 tenant = 0;
    /** Service mode: relative weight in the request mix. */
    double weight = 1.0;
    /** Service mode: per-class SLO override, ms (0 = service SLO). */
    double sloMs = 0.0;
};

/** Batching policy of a service section. */
enum class BatchPolicyKind
{
    /** No batching: serve one request at a time. */
    Immediate,
    /** Wait until `batch` same-class requests queue, then serve. */
    FixedSize,
    /** Serve once the oldest queued request waited `window_ms`. */
    TimeWindow,
    /** Drain the whole eligible queue prefix, up to `batch`. */
    Adaptive,
};

/** @return the INI spelling of a batching policy. */
const char *batchPolicyName(BatchPolicyKind kind);

/** Batch-signature memoization mode of a service section. */
enum class MemoMode
{
    /** Replay the recorded delta bundle on every signature hit. */
    On,
    /** Execute the real device scheduler for every batch (oracle). */
    Off,
    /** Replay, but re-execute a deterministic 1-in-N sample of hits
        and abort if the fresh bundle differs from the cached one. */
    Verify,
};

/** @return the INI spelling of a memoization mode. */
const char *memoModeName(MemoMode mode);

/**
 * One request-level serving experiment (a [service NAME] section).
 * Runs against every device variant of the scenario; the scenario's
 * [workload] entries are the request mix.
 */
struct ServiceSpec
{
    /** Service label used in reports ("sat/rate=2000", ...). */
    std::string name;
    /** Closed-loop (clients + think time) vs open-loop arrivals. */
    bool closedLoop = false;
    /** Open loop: deterministic uniform spacing vs seeded Poisson. */
    bool uniformArrivals = false;
    /** Open loop: offered arrival rate, requests per second. */
    double ratePerSec = 1000.0;
    /** Open loop: arrival window, simulated milliseconds. */
    double durationMs = 100.0;
    /** Closed loop: client population. */
    u32 clients = 8;
    /** Closed loop: mean think time, simulated milliseconds. */
    double thinkMs = 1.0;
    /** Batching policy of every device queue. */
    BatchPolicyKind policy = BatchPolicyKind::Immediate;
    /** Fixed batch size / adaptive and window batch cap. */
    u32 batch = 8;
    /** TimeWindow policy: max wait of the oldest request, ms. */
    double windowMs = 0.05;
    /** Simulated device pool size. */
    u32 devices = 1;
    /** SALP lanes one request occupies in a lock-step wave. */
    u32 lanes = 16;
    /** Load-generation seed (arrival draws and mix choices). */
    u64 seed = 1;
    /** Latency SLO, ms (0 = no SLO tracking). Sweepable. */
    double sloMs = 0.0;
    /** SLO attainment target in (0,1); feeds the burn rate. */
    double sloTarget = 0.99;
    /** Tail-blame cutoff quantile in (0,1) (--tail-report). */
    double tailQuantile = 0.99;
    /**
     * Zipf exponent of the tenant draw (0 = uniform weight draw).
     * With skew s > 0, the distinct tenant ids of the mix are ranked
     * ascending (lowest id = hottest) and a request's tenant is drawn
     * Zipf(s) over the ranks before the class draw within the tenant.
     */
    double tenantSkew = 0.0;
    /** Virtual-time series window, ms (--timeseries). */
    double timeseriesMs = 1.0;
    /** Batch-signature memoization mode (`memo = on|off|verify`). */
    MemoMode memo = MemoMode::On;
};

/**
 * One quantized-NN inference experiment (an [nn NAME] section). Runs
 * against every device variant of the scenario in `pluto_sim --nn`
 * mode: a batch of `images` synthetic MNIST digits is classified by
 * a quantized LeNet-5 and the inference cost is charged through the
 * device's query engine. Every key is sweepable, so one file
 * expresses a batch-size x quantization x device grid.
 */
struct NnSpec
{
    /** Cell label used in reports ("lenet5/bits=1", ...). */
    std::string name;
    /** Quantization width: 1 (binary) or 4. */
    u32 bits = 1;
    /** Images classified per cell (the inference batch size). */
    u32 images = 8;
    /** Weight- and image-generation seed. */
    u64 seed = 5;
};

/** A parsed scenario. */
struct SimConfig
{
    /** Campaign name; prefixes every output file. */
    std::string name = "scenario";
    /** Directory receiving CSV/JSON outputs. */
    std::string outDir = "results";
    /** Global repeat multiplier applied to every workload. */
    u32 repeats = 1;
    /** Device variants (at least one after a successful parse). */
    std::vector<DeviceSpec> devices;
    /** Workload list (at least one after a successful parse). */
    std::vector<WorkloadSpec> workloads;
    /** Serving experiments (may be empty; used by --service mode). */
    std::vector<ServiceSpec> services;
    /** NN inference experiments (may be empty; used by --nn mode). */
    std::vector<NnSpec> nnCells;

    /** @return total number of runs the scenario describes. */
    u64 totalRuns() const;

    /** @return variant x service cell count of --service mode. */
    u64 totalServiceRuns() const;

    /** @return variant x nn cell count of --nn mode. */
    u64 totalNnRuns() const;

    /**
     * Parse scenario `text`. On failure @return std::nullopt and set
     * `error` to a "line N: ..." diagnostic.
     */
    static std::optional<SimConfig> parse(const std::string &text,
                                          std::string &error);

    /** Load and parse the file at `path`. */
    static std::optional<SimConfig> load(const std::string &path,
                                         std::string &error);
};

// ---- Field tables: one declaration per INI key ----

/** Flags of a declared field. */
enum FieldFlags : unsigned
{
    /** Accepted in `sweep KEY = ...` lines. */
    kSweepable = 1,
    /** Part of the cache content key of the cells it shapes. */
    kKeyed = 2,
};

/** One INI key of a section whose values land in spec type S. */
template <typename S>
struct Field
{
    /** INI key. */
    const char *key;
    /** Accepted values, as quoted by "bad KEY 'VALUE' (hint)". */
    const char *hint;
    /** FieldFlags. */
    unsigned flags;
    /** Parse `text` into the field of `spec`. @return false when
     *  `text` is not an accepted value (`spec` is then unchanged). */
    bool (*parse)(S &spec, const std::string &text);
    /** Append the field's canonical text to `out`: bools as 0/1,
     *  numbers exactly, named values by their first spelling. */
    void (*write)(const S &spec, std::string &out);

    bool sweepable() const { return flags & kSweepable; }
    bool keyed() const { return flags & kKeyed; }
};

/** The field table of each section kind. */
extern const std::span<const Field<SimConfig>> kScenarioFields;
extern const std::span<const Field<runtime::DeviceConfig>> kDeviceFields;
extern const std::span<const Field<WorkloadSpec>> kWorkloadFields;
extern const std::span<const Field<ServiceSpec>> kServiceFields;
extern const std::span<const Field<NnSpec>> kNnFields;

/**
 * @return the canonical text of every keyed field of `spec`, in
 * table order, joined by `sep`: the spec part of a cache content
 * key, so a keyed field cannot be left out of it.
 */
template <typename S>
std::string
keyedFields(std::span<const Field<S>> table, const S &spec, char sep)
{
    std::string out;
    bool first = true;
    for (const Field<S> &f : table) {
        if (!f.keyed())
            continue;
        if (!first)
            out += sep;
        first = false;
        f.write(spec, out);
    }
    return out;
}

} // namespace pluto::sim

#endif // PLUTO_SIM_CONFIG_HH
