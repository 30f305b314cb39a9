/**
 * @file
 * A generic set-associative, write-back, write-allocate SRAM cache
 * model with true LRU. Used for the per-core L1s and the shared L2
 * (Table III), and reused by tests as a reference cache.
 *
 * Only tags and state are modelled (no data payloads): the simulator
 * studies miss behaviour and timing, not values.
 */

#ifndef UNISON_CACHE_SRAM_CACHE_HH
#define UNISON_CACHE_SRAM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/set_scan.hh"
#include "cache/set_scan_simd.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace unison {

/** Geometry of one SRAM cache. */
struct SramCacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t blockBytes = kBlockBytes;
};

/** Statistic counters for one SRAM cache. */
struct SramCacheStats
{
    Counter accesses;
    Counter hits;
    Counter misses;
    Counter evictions;
    Counter writebacks; //!< dirty evictions

    void
    reset()
    {
        accesses.reset();
        hits.reset();
        misses.reset();
        evictions.reset();
        writebacks.reset();
    }
};

/** Outcome of one access (allocate-on-miss). */
struct SramAccessResult
{
    bool hit = false;
    bool writeback = false; //!< a dirty victim was evicted
    Addr writebackAddr = 0; //!< block address of that victim
};

/**
 * A generic set-associative write-back SRAM cache with LRU replacement
 * -- the building block of the L1/L2 hierarchy.
 *
 * The per-way metadata is struct-of-arrays: one contiguous array of
 * packed tag words (valid/dirty in the top bits, tag in the low bits;
 * an 8-way set's tags are 64 contiguous bytes, which straddle two host
 * lines because the vector is only 16-byte aligned) and a
 * parallel array of LRU stamps, both indexed `set * assoc + way`.
 * These are the simulator's hottest arrays by far, and the tag scan is
 * a branch-reduced compare over the packed words (see set_scan.hh),
 * entered through a most-recently-hit way hint.
 */
class SetAssocCache
{
  public:
    /** Packed tag word layout (the shared set_scan.hh positions). */
    static constexpr std::uint64_t kValid = kWayValidBit;
    static constexpr std::uint64_t kDirty = kWayDirtyBit;
    static constexpr std::uint64_t kTagMask = kWayTagMask;

    explicit SetAssocCache(const SramCacheConfig &config);

    /**
     * Access (and on miss, allocate) the block containing `addr`.
     * Writes mark the block dirty. Defined inline: this is the first
     * thing every simulated reference does, and it must inline into
     * the timing loop even without LTO.
     */
    SramAccessResult
    access(Addr addr, bool is_write)
    {
        ++stats_.accesses;
        const std::uint64_t block = addr >> blockShift_;
        const std::uint64_t set = block & (numSets_ - 1);
        const std::uint64_t tag = block >> setShift_;
        const std::uint64_t key = kValid | tag;
        const std::size_t base = set * config_.assoc;
        std::uint64_t *const tags = &meta_[base];

        SramAccessResult result;
        // MRU fast path. A hit on the hinted way needs no restamp: the
        // most recently touched way of a set by construction holds the
        // set's maximum LRU stamp, and victim selection compares
        // stamps only within a set, so skipping the write (and the
        // global counter bump) leaves every eviction decision
        // bit-identical while touching one cache line instead of two.
        const std::uint32_t mru = mru_[set];
        if ((tags[mru] & ~kDirty) == key) {
            ++stats_.hits;
            if (is_write)
                tags[mru] |= kDirty;
            result.hit = true;
            return result;
        }

        // One fused sweep finds the hit way and, failing that, the
        // victim the miss path needs (invalid first, else LRU).
        int way;
        std::uint32_t victim;
        scanSetFast(tags, &lastUse_[base], config_.assoc, ~kDirty, key,
                    kValid, way, victim);
        if (way >= 0) {
            ++stats_.hits;
            lastUse_[base + way] = ++useCounter_;
            if (is_write)
                tags[way] |= kDirty;
            mru_[set] = static_cast<std::uint8_t>(way);
            result.hit = true;
            return result;
        }
        const std::uint64_t old = tags[victim];
        if (old != 0) {
            ++stats_.evictions;
            if ((old & kDirty) != 0) {
                ++stats_.writebacks;
                result.writeback = true;
                const std::uint64_t victim_block =
                    ((old & kTagMask) << setShift_) | set;
                result.writebackAddr = victim_block << blockShift_;
            }
        }
        ++stats_.misses;
        tags[victim] = key | (is_write ? kDirty : 0);
        lastUse_[base + victim] = ++useCounter_;
        mru_[set] = static_cast<std::uint8_t>(victim);
        return result;
    }

    /** True if the block is resident (no state change). */
    bool probe(Addr addr) const;

    /** Drop the block if resident; returns true if it was dirty. */
    bool invalidate(Addr addr);

    /** Serialize / restore the full replacement state (tags, stamps,
     *  MRU hints, the stamp counter) for warm-state checkpoints.
     *  Statistics are not part of a checkpoint: measurement runs reset
     *  them at the warm boundary anyway. */
    void
    saveState(StateWriter &out) const
    {
        out.podVector(meta_);
        out.podVector(lastUse_);
        out.podVector(mru_);
        out.pod(useCounter_);
    }

    void
    loadState(StateReader &in)
    {
        in.podVectorExact(meta_);
        in.podVectorExact(lastUse_);
        in.podVectorExact(mru_);
        in.pod(useCounter_);
    }

    const SramCacheConfig &config() const { return config_; }
    const SramCacheStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    std::uint32_t numSets() const { return numSets_; }

  private:
    SramCacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t blockShift_;
    std::uint32_t setShift_; //!< log2(numSets_), hoisted off the hot path
    /** Packed tag words, `set * assoc + way` (kValid | kDirty | tag). */
    std::vector<std::uint64_t> meta_;
    /** LRU stamps, same indexing. 32 bits bound one cache instance to
     *  ~4.2G accesses, far beyond the longest configured run. */
    std::vector<std::uint32_t> lastUse_;
    /** Most-recently-hit way per set: probed first on access. */
    std::vector<std::uint8_t> mru_;
    std::uint32_t useCounter_ = 0;
    SramCacheStats stats_;
};

} // namespace unison

#endif // UNISON_CACHE_SRAM_CACHE_HH
