/**
 * @file
 * The benchmark's inputs, generated from the run seed in this process:
 * the specs of the three simulation workloads and the grids the
 * sweep-serve clients submit. The simulator only ever sees the
 * generated specs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep.hh"

namespace perfbench {

/** A workload that runs its specs one at a time on one thread. */
struct SimWorkload
{
    std::string name;
    std::vector<unison::ExperimentSpec> specs;
};

/** unison-paper, dram-bound or datacenter-256; false if unknown. */
bool simWorkload(const std::string &name, std::uint64_t seed,
                 SimWorkload &out);

/**
 * The sweep-serve traffic: each client submits a sequence of small
 * fig6-shaped grids (design x capacity x preset points with a short
 * `accesses`). Submit k of client c holds
 *
 *  - kNewPerSubmit points no earlier submit asked for (simulated and
 *    inserted into the store),
 *  - one point both clients ask for at the same k (the first to claim
 *    it simulates; the other waits on it or finds it in the store),
 *  - kRepeatsPerSubmit points this client received before (store hits).
 */
class SweepTraffic
{
  public:
    static constexpr int kClients = 2;
    static constexpr int kServerThreads = 1;
    static constexpr int kNewPerSubmit = 2;
    static constexpr int kRepeatsPerSubmit = 3;
    static constexpr int kWarmupPoints = 6;
    /** Accesses simulated per point (every point has the same). */
    static constexpr std::uint64_t kPointAccesses = 120'000;

    explicit SweepTraffic(std::uint64_t seed) : seed_(seed) {}

    /** The untimed first grid of client `client`: kWarmupPoints new
     *  points, which also seed the pool that repeats draw from. */
    std::vector<unison::GridPoint> warmupGrid(int client) const;

    /** Grid `k` of client `client`; `history` is every point the client
     *  has received so far (repeats are drawn from it). */
    std::vector<unison::GridPoint>
    submitGrid(int client, std::uint64_t k,
               const std::vector<unison::ExperimentSpec> &history) const;

  private:
    /** A point no other (client, k, slot) triple produces. */
    unison::ExperimentSpec freshSpec(std::uint64_t key) const;

    std::uint64_t seed_;
};

/** A grid document with its points re-indexed in order. */
std::vector<unison::GridPoint>
labelled(std::vector<std::pair<std::string, unison::ExperimentSpec>> points);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
