/**
 * @file
 * ScenarioRunner: the batch campaign mode — a thin client of the
 * generic campaign core (campaign/runner.hh).
 *
 * Each run is fully independent: it owns a freshly constructed
 * PlutoDevice (and therefore its own Module, CommandScheduler and
 * Controller) and a freshly constructed workload, and all stochastic
 * input generation is seeded per workload — so runs are embarrassingly
 * parallel, wall-clock drops near-linearly with cores, and the
 * *simulated* timing/energy of every run is bit-identical regardless
 * of thread count or completion order. This mode supplies the task
 * list (variants x workloads x repeats, with each workload's element
 * count resolved per variant), the RunCache key, the run labels and
 * the per-run compute; the campaign core owns sharding, cache replay,
 * hit accounting, the wall rule and the thread-pool fan-out.
 */

#ifndef PLUTO_SIM_RUNNER_HH
#define PLUTO_SIM_RUNNER_HH

#include <string>

#include "campaign/runner.hh"
#include "sim/cache.hh"
#include "sim/config.hh"

namespace pluto::sim
{

/** Execution options of one campaign (shared by every mode). */
using RunOptions = campaign::RunOptions;

/** Result of one (variant, workload, repeat) run. */
struct RunRecord
{
    /** Variant label from the scenario file. */
    std::string variant;
    /** Workload registry name. */
    std::string workload;
    /** Repeat index within (variant, workload), 0-based. */
    u32 repeat = 0;
    /** Input-generation seed of the workload entry. */
    u64 seed = 0;
    /** Host baseline rates of the workload (for speedup columns). */
    workloads::BaselineRates rates;
    /** Simulated outcome and host wall-clock (the cached part). */
    RunOutcome out;
    /** Result was replayed from the run cache. */
    bool fromCache = false;
};

/** All runs of a scenario (or one shard of it), variant-major then
 *  workload then repeat. */
using ScenarioReport = campaign::Report<RunRecord>;

/** Batch executor for one scenario. */
class ScenarioRunner
{
  public:
    /** Called after each finished run (serialized; for progress). */
    using Progress = campaign::Progress<RunRecord>;

    explicit ScenarioRunner(SimConfig cfg);

    /** @return the scenario being run. */
    const SimConfig &config() const { return cfg_; }

    /**
     * Execute this process's shard of the scenario under `opt`
     * (which must validate()). @return the aggregated report of the
     * executed shard.
     */
    ScenarioReport run(const RunOptions &opt,
                       const Progress &progress = nullptr) const;

  private:
    SimConfig cfg_;
};

} // namespace pluto::sim

#endif // PLUTO_SIM_RUNNER_HH
