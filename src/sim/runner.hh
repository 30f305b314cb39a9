/**
 * @file
 * Parallel experiment runner: executes a batch of independent
 * ExperimentSpecs on a pool of worker threads.
 *
 * Every figure and table in the paper is a sweep of dozens of
 * (workload x design x capacity x knob) points, and each point is a
 * self-contained simulation with its own RNG seed, System and caches.
 * That makes the sweep embarrassingly parallel: results are
 * bit-identical whether a spec runs on one thread or sixteen, which a
 * ctest enforces (runner_test.cpp).
 */

#ifndef UNISON_SIM_RUNNER_HH
#define UNISON_SIM_RUNNER_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/experiment.hh"

namespace unison {

/** Called after each experiment completes, under an internal lock (so
 *  plain fprintf progress reporting is safe). `index` is the spec's
 *  position in the input vector. */
using ExperimentCallback =
    std::function<void(std::size_t index, const SimResult &result)>;

/**
 * Result-cache seam: a store of completed results shared across runs
 * and grids (store/result_store.hh). Before simulating, the runner
 * offers every spec to tryLoad and *skips* the hits -- on_done fires
 * for them without simulating, with byte-identical results. After
 * each fresh completion it calls record (serialized by the runner),
 * before on_done: a point reported done has been offered to the
 * store. record() is best-effort -- implementations warn and drop
 * instead of ending the run -- and a killed sweep resumes by running
 * again over the same store.
 */
class ResultCacheHook
{
  public:
    virtual ~ResultCacheHook() = default;

    /** Replay a completed result for spec `index`; false = simulate. */
    virtual bool tryLoad(std::size_t index, SimResult &out) = 0;

    /** Publish a freshly computed result for spec `index`. */
    virtual void record(std::size_t index, const SimResult &result) = 0;
};

/**
 * Persistent warm-checkpoint store, keyed by warmPrefixKey. tryLoad
 * must be all-or-nothing (a miss on any integrity doubt -- the runner
 * then warms up cold, which is always correct); save is best-effort
 * and must never fail the run.
 */
class CheckpointStore
{
  public:
    virtual ~CheckpointStore() = default;

    virtual bool tryLoad(const std::string &warm_key,
                         WarmCheckpoint &out) = 0;
    virtual void save(const std::string &warm_key,
                      const WarmCheckpoint &ck) = 0;
};

/** Optional hooks; value-semantics bag of non-owning pointers
 *  (nullptr = feature off). */
struct RunHooks
{
    CheckpointStore *checkpoints = nullptr;
    ResultCacheHook *cache = nullptr;
};

/**
 * Run every spec and return the results in input order.
 *
 * @param specs    independent experiment specifications
 * @param threads  worker threads; <= 1 runs serially on the calling
 *                 thread, 0 means std::thread::hardware_concurrency()
 * @param on_done  optional per-experiment completion hook
 * @param hooks    optional hooks: result-cache hits are never
 *                 simulated (on_done still fires for them, first and
 *                 in index order), and warm checkpoints are loaded
 *                 from / saved to the store when profitable
 *
 * Results are bit-identical for any thread count -- and, with a
 * result cache, for any interruption/rerun history: each experiment
 * owns its workload RNG (seeded from the spec), its System and its
 * caches; the only shared state is the immutable Zipf sampler cache.
 */
std::vector<SimResult>
runExperiments(const std::vector<ExperimentSpec> &specs, int threads = 1,
               const ExperimentCallback &on_done = nullptr,
               const RunHooks &hooks = {});

} // namespace unison

#endif // UNISON_SIM_RUNNER_HH
