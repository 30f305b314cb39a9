/**
 * @file
 * Shared pieces of the perfbench harness: run options, the report
 * every workload fills in (metrics plus attempted/failed counts), the
 * output checks applied to every simulated result, and the digest two
 * commits compare exactly.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
#include "sim/spec_json.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string unisonSim; //!< path of the `unison_sim` binary
    std::string workDir;   //!< scratch directory owned by this run
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one benchmark run prints as its last line. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    /** Record a metric; a value that is not finite counts as a failure. */
    void add(const std::string &name, double value, const std::string &unit);

    /** Count one failed operation and say why on stderr. */
    void fail(const std::string &why);

    /** The final `{"correct", "attempted", "failed", "metrics"}` line. */
    std::string json() const;
};

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> values);

/**
 * The host's speed, measured with a fixed reference kernel that is part
 * of the benchmark, not of the simulator: LRU lookups in an 8-way tag
 * array of 576 KiB, the inner loop of any cache model. The array fits
 * in a core's L2, and each slice refills it before its clock starts,
 * so what the workload left in the caches barely moves the probe. A
 * shared host slows this kernel and the simulator together (by up to
 * 60% for minutes at a time), so the timing metrics are reported at a
 * reference speed: a rate is multiplied by slowdown() and a time
 * divided by it. A change to the simulator cannot move the kernel, so
 * it moves the scaled metrics as much as the raw ones.
 */
class HostProbe
{
  public:
    HostProbe();

    /** Time one slice of the kernel (a few ms) on this thread's CPU
     *  clock, so time spent descheduled does not count. */
    void sample();

    /** Median slice time over kReferenceNs; 1 if nothing was sampled. */
    double slowdown() const;

    std::size_t samples() const { return sliceNs_.size(); }

    /** The reference speed: a fixed slice time, a little under the
     *  fastest run median (4.3 ms) seen on a shared 2.1 GHz Xeon
     *  (Sapphire Rapids) vCPU. */
    static constexpr double kReferenceNs = 4.0e6;

  private:
    void lookups(std::uint64_t n);

    static constexpr std::size_t kSets = 1 << 13, kWays = 8;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> ages_;
    std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
    std::vector<double> sliceNs_;
};

/** Raw host-time readings of a run's five timing metrics. */
struct Timings
{
    double accPerS = 0.0;
    double p50Ms = 0.0;
    double p90Ms = 0.0;
    double pointsPerS = 0.0;
    double setupS = 0.0;
};

/**
 * Add sim_acc_per_s, submit_p50_ms, submit_p90_ms, points_per_s and
 * setup_s at the reference host's speed (see HostProbe), and print the
 * raw readings and the slowdown on stderr.
 */
void addTimings(Report &report, const Timings &raw, const HostProbe &probe);

/**
 * setup_s: the median time of `setup(rep)`, repeated at least 9 times
 * and until 1 s has passed (64 times at most), so that a set-up of a
 * millisecond is still the median of many samples. Short set-ups are
 * spaced out over that second rather than taken back to back, so the
 * median spans the host's sub-second swings in speed instead of one
 * moment of them. Whatever `setup` returns is released after its
 * sample is taken, outside the timing.
 */
template <typename Fn>
double
medianSetupSeconds(Fn &&setup)
{
    constexpr std::size_t kMinReps = 9, kMaxReps = 64;
    constexpr double kMinSeconds = 1.0;
    std::vector<double> samples;
    const auto start = Clock::now();
    while (samples.size() < kMinReps ||
           (samples.size() < kMaxReps && secondsSince(start) < kMinSeconds)) {
        const auto t0 = Clock::now();
        {
            [[maybe_unused]] auto kept = setup(samples.size());
            samples.push_back(secondsSince(t0));
        }
        const auto slot_end =
            start + std::chrono::duration<double>(kMinSeconds / kMaxReps *
                                                  samples.size());
        if (slot_end > Clock::now())
            std::this_thread::sleep_until(slot_end);
    }
    return median(std::move(samples));
}

/** Nearest-rank percentile, p in (0, 100]. */
double percentile(std::vector<double> values, double p);

/** Peak resident set (VmHWM) of process `pid` ("self" by default), MiB. */
double peakRssMiB(const std::string &pid = "self");

/**
 * The conservation identities every SimResult must obey: hits plus
 * misses equal reads plus writes, and under the fast backend the
 * off-chip pool's reads and writes equal the design's fetched and
 * written-back blocks. Returns "" when all hold, else what broke.
 */
std::string conservationError(const unison::ExperimentSpec &spec,
                              const unison::SimResult &result);

/** FNV-1a over `bytes`, continuing from `h`. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** Digest of a list of results: FNV-1a over their canonical JSON. */
std::uint64_t simDigest(const std::vector<unison::SimResult> &results);

std::string hex64(std::uint64_t value);

/** References a run of `spec` issues, warm-up included. */
inline std::uint64_t
accessesOf(const unison::ExperimentSpec &spec)
{
    return spec.accesses != 0
               ? spec.accesses
               : unison::defaultAccessCount(spec.capacityBytes, spec.quick);
}

/** Run-derived seed for input `index` of a workload. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t index);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
