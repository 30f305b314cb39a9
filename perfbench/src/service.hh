/**
 * @file
 * The service side of the benchmark: a `unison_sim serve` child
 * process, the sweep-serve closed loop of client connections, and the
 * traced probes of the spec_json, store and serve layers.
 */

#ifndef PERFBENCH_SERVICE_HH
#define PERFBENCH_SERVICE_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench {

/** One `unison_sim serve` process on a fresh socket; the destructor
 *  kills and reaps it if shutdown() did not run. */
class ServerProcess
{
  public:
    ServerProcess(const Options &opts, const std::string &store_dir,
                  int threads);
    ~ServerProcess();

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** Poll with pings until the server answers; false on timeout or
     *  when the process died. */
    bool waitReady(double timeout_s);

    /** Graceful stop; true when the process exited with status 0. */
    bool shutdown();

    const std::string &socket() const { return socket_; }
    pid_t pid() const { return pid_; }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** How the served points of a set of submits were resolved. */
struct ServeCounts
{
    std::uint64_t points = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t peerHits = 0;
    std::uint64_t simulated = 0;
};

/** A grid with the results it should produce. */
struct KnownPoints
{
    std::vector<unison::GridPoint> grid;
    std::vector<unison::SimResult> results;
};

/**
 * The traced run's spec_json, store, serve and runner metrics, measured
 * on `known` (a grid whose results are already computed). `counts` is
 * how the workload's own submits were resolved, or null when the
 * workload has none (then the probe's all-hit submit stands in).
 */
void serviceProbe(const Options &opts, const KnownPoints &known, int threads,
                  const ServeCounts *counts, double runner_points_per_s,
                  Report &report);

/** The sweep-serve workload, untraced or traced. */
std::string runSweepServe(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_SERVICE_HH
