/**
 * @file
 * The traced run's measurements of the simulation layers, taken from
 * outside the program: wrappers the benchmark owns around the design
 * and the off-chip backend inside a full System::run, and isolated
 * replays of what those wrappers recorded through fresh instances of
 * each layer (access source, SRAM hierarchy, fast and detailed DRAM
 * backends, the scheduler with stand-in source and design).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <vector>

#include "bench.hh"

namespace perfbench {

/** Sums over every traced spec; per-layer metrics are ratios of these. */
struct LayerTotals
{
    // Whole traced run.
    std::uint64_t accesses = 0;  //!< references issued, warm-up included
    double runNs = 0.0;          //!< System::run with the wrappers in
    double tracedWallNs = 0.0;   //!< construction + traced run
    double untracedWallNs = 0.0; //!< runExperiment over the same specs

    // trace: fresh source, tight loop in the recorded core order.
    std::uint64_t traceCalls = 0;
    double traceNs = 0.0;

    // cache: fresh hierarchy, recorded references.
    std::uint64_t cacheCalls = 0;
    double cacheNs = 0.0;
    std::uint64_t l1Hits = 0, l2Hits = 0, beyond = 0;

    // design (inside the traced run; a sample of requests is timed).
    std::uint64_t requests = 0;
    std::uint64_t sampledRequests = 0;
    double sampledNs = 0.0; //!< their off-chip calls included
    std::uint64_t dcAccesses = 0, dcHits = 0;
    std::uint64_t offchipBlocks = 0;
    std::uint64_t fpFetched = 0, fpFetchedUntouched = 0;
    double wpAccuracySum = 0.0;
    int wpSpecs = 0;

    // dram: off-chip wrapper (calls inside sampled requests are timed),
    // then replays of its recorded calls.
    std::uint64_t offchipCalls = 0;
    std::uint64_t timedCalls = 0;
    double timedCallNs = 0.0;
    std::uint64_t replayCalls = 0;
    double fastNs = 0.0, detailedNs = 0.0;
    std::uint64_t rowHits = 0, rowTotal = 0, writeDrains = 0;

    // sim engine: the scheduler with stand-in source and design.
    std::uint64_t schedCalls = 0;
    double schedNs = 0.0;

    // Cost of one of the wrappers' clock reads.
    double clockReadNs = 0.0;
};

/**
 * Run every spec through a traced System (wrappers in), replay what
 * was recorded through the isolated layers, and accumulate the sums.
 * `results` receives the traced results (design-owned statistics read
 * from the wrapped design), in spec order, for the digest check.
 */
void traceSpecs(const std::vector<unison::ExperimentSpec> &specs,
                LayerTotals &totals,
                std::vector<unison::SimResult> &results);

/** Add the trace/cache/design/dram/sim per-layer metrics. */
void addLayerMetrics(const LayerTotals &t, Report &report);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
