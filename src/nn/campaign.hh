/**
 * @file
 * The NN campaign mode: quantized LeNet-5 inference (the paper's
 * Table 7 flagship workload) as a thin client of the generic
 * campaign core — the third mode after batch sim and serving, and
 * the existence proof that adding a scenario kind no longer pays a
 * full-stack tax.
 *
 * One cell is (device variant, [nn] spec): a batch of `images`
 * synthetic MNIST digits is classified by a `bits`-bit LeNet-5 and
 * the inference cost is charged through the device's query engine
 * (one LUT load per batch, then query waves across all SALP lanes),
 * so batch size amortizes LUT loading and the timing/energy follow
 * the active design's Table 1 formulas. This file supplies the task
 * list, the NnCache key, the labels and the compute (functional
 * re-verification + chargeBatch); sharding, cache replay, hit
 * accounting and the wall rule are the campaign core's, so outcomes
 * are bit-identical across thread counts, shards and cache replays,
 * exactly like the other modes.
 */

#ifndef PLUTO_NN_CAMPAIGN_HH
#define PLUTO_NN_CAMPAIGN_HH

#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/runner.hh"
#include "sim/config.hh"

namespace pluto::nn
{

/** Simulated outcome of one (variant, nn spec) cell. */
struct NnOutcome
{
    /** Images classified (the batch size). */
    u64 images = 0;
    /** Multiply-accumulates per inference. */
    u64 macs = 0;
    /** Simulated batch total (LUT load + query waves + host), ns. */
    double timeNs = 0.0;
    /** Simulated batch energy, pJ. */
    double energyPj = 0.0;
    /** Fraction of images classified as their synthetic label. */
    double accuracy = 0.0;
    /** Re-inference with a fresh net reproduced every prediction. */
    bool verified = false;
    /** Host wall-clock of the run that computed the result. */
    double wallMs = 0.0;

    /** @return simulated time per inference, ns. */
    double nsPerInference() const
    {
        return images ? timeNs / static_cast<double>(images) : 0.0;
    }

    /** @return simulated energy per inference, pJ. */
    double pjPerInference() const
    {
        return images ? energyPj / static_cast<double>(images) : 0.0;
    }
};

/** One --nn run: labels + spec echo + outcome. */
struct NnRunRecord
{
    std::string variant;
    /** Cell label from the scenario file ("lenet5/bits=1", ...). */
    std::string cell;
    u32 bits = 0;
    u64 seed = 0;
    NnOutcome out;
    /** Outcome was replayed from the nn cache. */
    bool fromCache = false;
};

/** All cells of one --nn campaign (or one shard), variant-major then
 *  nn-spec. */
using NnReport = campaign::Report<NnRunRecord>;

/** Codec fields of an NnOutcome (see common/codec.hh). */
template <typename V, RecordOf<NnOutcome> O>
void
fields(V &v, O &out)
{
    v("images", out.images);
    v("macs", out.macs);
    v("time_ns", out.timeNs);
    v("energy_pj", out.energyPj);
    v("accuracy", out.accuracy);
    v("verified", out.verified);
    v("wall_ms", out.wallMs);
}

/** Cache mode of nn outcomes (see campaign/cache.hh). */
struct NnCacheCodec
{
    static constexpr const char *kKind = "nn";
};

/** Append-only JSONL outcome cache for one scenario's nn runs. */
class NnCache
    : public campaign::JsonlCache<NnOutcome, NnCacheCodec>
{
  public:
    using JsonlCache::JsonlCache;

    /** @return the content key of one (variant, nn spec) cell. */
    static std::string key(const runtime::DeviceConfig &cfg,
                           const sim::NnSpec &spec);
};

/** Batch executor for a scenario's nn experiments. */
class NnRunner
{
  public:
    /** Called after each finished cell (serialized; for progress). */
    using Progress = campaign::Progress<NnRunRecord>;

    explicit NnRunner(sim::SimConfig cfg);

    /** @return the scenario being run. */
    const sim::SimConfig &config() const { return cfg_; }

    /**
     * Execute this process's shard of the variant x nn grid under
     * `opt` (which must validate()).
     */
    NnReport run(const campaign::RunOptions &opt,
                 const Progress &progress = nullptr) const;

  private:
    sim::SimConfig cfg_;
};

/** Output writer for --nn mode results. */
class NnMetricsSink
{
  public:
    /** Column names of the nn CSV, in order. */
    static std::vector<std::string> csvColumns();

    /** @return the per-cell CSV document. */
    static std::string renderCsv(const sim::SimConfig &cfg,
                                 const NnReport &report);

    /** @return the JSON summary document. */
    static std::string renderJson(const sim::SimConfig &cfg,
                                  const NnReport &report);

    /**
     * Write `<outDir>/<name><suffix>_nn_runs.csv` and
     * `<outDir>/<name><suffix>_nn_summary.json`. On success @return
     * empty string and append both paths to `written`.
     */
    static std::string write(const sim::SimConfig &cfg,
                             const NnReport &report,
                             std::vector<std::string> &written,
                             const std::string &suffix = {});
};

} // namespace pluto::nn

#endif // PLUTO_NN_CAMPAIGN_HH
