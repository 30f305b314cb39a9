/**
 * @file
 * Synthetic server-workload model.
 *
 * The paper evaluates on CloudSuite + TPC-H traces captured with
 * Flexus/Simics; those traces are not redistributable, so this module
 * synthesizes streams with the properties the three DRAM-cache designs
 * actually sense:
 *
 *  - *code-correlated spatial footprints*: a set of "functions" (PCs)
 *    each touch a characteristic subset of blocks within a 2 KB region,
 *    which is exactly the correlation the footprint predictor (and its
 *    (PC, offset) keying) exploits;
 *  - *skewed temporal reuse* over a large dataset (Zipf region
 *    popularity), which determines block-level reuse (what Alloy Cache
 *    lives on) and page conflict pressure;
 *  - *singleton and pointer-chase traffic* (accesses that touch one
 *    block of a region), which the singleton predictor filters;
 *  - *multi-core interleaving*, which stresses the way predictor.
 *
 * Every knob is a WorkloadParams field; the six presets in presets.hh
 * are calibrated against the paper's Table V accuracies and the
 * miss-ratio/performance shapes of Figs. 5-8.
 */

#ifndef UNISON_TRACE_WORKLOAD_HH
#define UNISON_TRACE_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/access.hh"

namespace unison {

/** Generator region: footprints are defined over 2 KB (32-block) spans. */
constexpr std::uint32_t kRegionBlocks = 32;
constexpr std::uint32_t kRegionBytes = kRegionBlocks * kBlockBytes;

/** All tunables of the synthetic workload model. */
struct WorkloadParams
{
    std::string name = "custom";

    /** Total touchable memory; must exceed the caches under study. */
    std::uint64_t datasetBytes = 8ull << 30;

    int numCores = 16;

    /** Distinct data-access functions (PC values) in the hot code. */
    int numFunctions = 512;

    /** Popularity skew of functions (0 = uniform). */
    double functionZipfAlpha = 0.9;

    /** Popularity skew of regions; controls temporal reuse distance. */
    double regionZipfAlpha = 0.6;

    /**
     * Probability that an episode on a region is executed by the
     * region's *owning* function (data structures are touched by the
     * code that owns them). The remainder are foreign visits by
     * Zipf-random functions, which is what makes footprints of shared
     * pages noisy.
     */
    double ownerAffinity = 0.85;

    /** Mean blocks (of 32) in a non-singleton function's footprint. */
    double meanFootprintBlocks = 12.0;

    /** Spread of footprint sizes across functions. */
    double footprintStddev = 6.0;

    /** Fraction of functions with contiguous (scan-like) footprints. */
    double contiguousFraction = 0.5;

    /**
     * Mean length of scan episodes, in multiples of the function's
     * footprint. Values above 1 make scan-like functions stream
     * across region boundaries (posting lists, column scans).
     */
    double scanStretchMean = 1.0;

    /** Fraction of functions whose footprint is a single block. */
    double singletonFunctionFraction = 0.10;

    /**
     * Fraction of episodes that are pointer chases: one access to one
     * random block of a random region, from a dedicated chase PC.
     */
    double pointerChaseFraction = 0.05;

    /** Per-episode probability of dropping a footprint block. */
    double footprintNoiseDrop = 0.05;

    /** Per-episode probability of adding a non-footprint block. */
    double footprintNoiseAdd = 0.02;

    /** Fraction of references that are stores. */
    double writeFraction = 0.20;

    /** Mean references per touched block (>1 adds L1-absorbed reuse). */
    double blockRepeatMean = 1.2;

    /** Episodes a core keeps in flight (interleaving depth). */
    int episodesPerCore = 3;

    /** References emitted from one episode before rotating. */
    int burstLength = 4;

    /** Non-memory instructions per reference (timing model input). */
    double instrsPerMemRef = 3.0;

    /** Number of 2 KB regions in the dataset. */
    std::uint64_t numRegions() const { return datasetBytes / kRegionBytes; }
};

/**
 * The synthetic stream generator. Deterministic for a given
 * (params, seed) pair.
 */
class SyntheticWorkload final : public AccessSource
{
  public:
    SyntheticWorkload(const WorkloadParams &params, std::uint64_t seed);

    bool next(int core, MemoryAccess &out) override;
    std::size_t nextBatch(int core, MemoryAccess *out,
                          std::size_t max) override;
    int numCores() const override { return params_.numCores; }
    AccessSourceKind kind() const override
    {
        return AccessSourceKind::Synthetic;
    }

    bool checkpointable() const override { return true; }

    /** Mutable stream state: the RNG and each core's in-flight
     *  episodes. Functions/samplers are immutable after construction
     *  and rebuilt identically from (params, seed). */
    void
    saveState(StateWriter &out) const override
    {
        out.pod(rng_);
        for (const CoreState &core : cores_) {
            out.podVector(core.episodes);
            out.pod(core.slot);
            out.pod(core.burstLeft);
        }
    }

    void
    loadState(StateReader &in) override
    {
        in.pod(rng_);
        for (CoreState &core : cores_) {
            in.podVectorExact(core.episodes);
            in.pod(core.slot);
            in.pod(core.burstLeft);
        }
    }

    const WorkloadParams &params() const { return params_; }

    /** Canonical footprint mask of function f (test hook). */
    std::uint32_t functionMask(int f) const;

    /** PC assigned to function f (test hook). */
    Pc functionPc(int f) const;

  private:
    /**
     * A code location with a characteristic access pattern. The
     * pattern is *relative to the first touched block* (bit 0 is
     * always set); each episode places it at a fresh alignment, which
     * is exactly the alignment diversity the predictor's (PC, offset)
     * keying exists to absorb (Sec. III-A.1).
     */
    struct Function
    {
        Pc pc = 0;
        std::uint32_t pattern = 1; //!< relative footprint bits
        std::uint8_t width = 1;    //!< highest pattern bit + 1
        bool contiguous = false;   //!< scan-like (stretchable)
        bool singleton = false;
    };

    /** One in-flight traversal of a placed pattern or scan run. */
    struct Episode
    {
        std::uint64_t startBlock = 0;  //!< first block of the placement
        std::uint32_t pendingMask = 0; //!< pattern blocks still to touch
        std::uint32_t scanLeft = 0;    //!< blocks left (scan mode)
        std::uint32_t scanNext = 0;    //!< next block offset (scan mode)
        Pc pc = 0;
        std::uint8_t repeatsLeft = 0;  //!< extra refs to current block
        std::uint8_t currentBit = 0;
        bool scan = false;
        bool active = false;
    };

    struct CoreState
    {
        std::vector<Episode> episodes;
        int slot = 0;       //!< episode being drained
        int burstLeft = 0;  //!< refs before rotating episodes
    };

    void buildFunctions();
    void startEpisode(Episode &ep);
    std::uint64_t pickRegion();
    std::uint32_t applyNoise(std::uint32_t mask, std::uint32_t width);
    bool emitFromEpisode(Episode &ep, int core, MemoryAccess &out);
    void emitBlock(const Episode &ep, std::uint64_t block, int core,
                   MemoryAccess &out);
    bool generate(CoreState &core, int core_idx, MemoryAccess &out);

    WorkloadParams params_;
    Rng rng_;
    /** Shared immutable O(1) samplers (see sharedZipfSampler). */
    std::shared_ptr<const ZipfAliasSampler> functionZipf_;
    std::shared_ptr<const ZipfAliasSampler> regionZipf_;
    std::vector<Function> functions_;
    std::vector<CoreState> cores_;
    Pc chasePcBase_ = 0;
    std::uint32_t writeThresh24_ = 0; //!< writeFraction in 2^-24 units
    std::uint32_t instrSpan_ = 1;     //!< instrsBefore drawn from [1, span]
    /** Precomputed log1p(-1/blockRepeatMean): the geometric repeat
     *  draw runs once per distinct block, and the denominator log1p
     *  is invariant (see Rng::geometricDenom). */
    double geomDenom_ = 0.0;
    bool geomRepeat_ = false; //!< blockRepeatMean > 1
};

/**
 * Process-wide caches of immutable Zipf samplers keyed by
 * (domain, alpha). The tables are identical for every experiment on
 * the same preset, so concurrent sweeps share one copy and pay the
 * construction pow-loop once rather than per experiment. Thread-safe
 * (one mutex per cache, taken only at experiment setup).
 *
 * Both caches are *bounded* to kSharedSamplerCacheCapacity entries
 * with FIFO eviction: a long-running `serve` session sees an
 * unbounded stream of distinct (n, alpha) pairs, and resident sampler
 * tables must stay O(1), not O(session length). Experiments holding
 * an evicted sampler keep it alive via their shared_ptr.
 *
 * The ...CacheSize() accessors expose the live entry count so tests
 * (and operators debugging memory) can observe the bound.
 */
inline constexpr std::size_t kSharedSamplerCacheCapacity = 64;

std::shared_ptr<const ZipfAliasSampler>
sharedZipfSampler(std::uint64_t n, double alpha);
std::size_t sharedZipfSamplerCacheSize();

/** Hierarchical sampler for the datacenter-scale keyspaces (millions
 *  of keys); see TwoLevelZipfSampler in common/rng.hh. */
std::shared_ptr<const TwoLevelZipfSampler>
sharedTwoLevelZipfSampler(std::uint64_t n, double alpha);
std::size_t sharedTwoLevelZipfSamplerCacheSize();

} // namespace unison

#endif // UNISON_TRACE_WORKLOAD_HH
