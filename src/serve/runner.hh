/**
 * @file
 * ServiceRunner: the --service campaign mode — every (variant,
 * service) cell of a scenario as a thin client of the campaign core
 * (campaign/runner.hh).
 *
 * Cells are fully independent (each owns its own device pool and
 * load generator). This mode supplies the task list, the
 * ServiceCache key, the record labels and the compute (a lazily
 * calibrated, per-variant ServeSimulator run); the core owns
 * sharding, cache replay, hit accounting and result ordering — so a
 * sharded campaign plus a merge pass emits the same bytes as a cold
 * unsharded run. Service outcomes cache no wall-clock:
 * `loopHostMs` is diagnostic only and replays as 0.
 */

#ifndef PLUTO_SERVE_RUNNER_HH
#define PLUTO_SERVE_RUNNER_HH

#include "campaign/runner.hh"
#include "serve/metrics.hh"
#include "sim/config.hh"

namespace pluto::serve
{

/** All cells of one --service campaign (or one shard), variant-major
 *  then service. */
using ServiceReport = campaign::Report<ServiceRunRecord>;

/** Batch executor for a scenario's service experiments. */
class ServiceRunner
{
  public:
    /** Called after each finished cell (serialized; for progress). */
    using Progress = campaign::Progress<ServiceRunRecord>;

    explicit ServiceRunner(sim::SimConfig cfg);

    /** @return the scenario being run. */
    const sim::SimConfig &config() const { return cfg_; }

    /**
     * Execute this process's shard of the variant x service grid
     * under `opt` (which must validate()).
     */
    ServiceReport run(const campaign::RunOptions &opt,
                      const Progress &progress = nullptr) const;

  private:
    sim::SimConfig cfg_;
};

} // namespace pluto::serve

#endif // PLUTO_SERVE_RUNNER_HH
