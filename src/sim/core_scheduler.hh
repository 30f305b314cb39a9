/**
 * @file
 * Min-time core scheduling: always advance the core whose clock is
 * furthest behind, so DRAM requests arrive in near-global time order
 * and queueing behaves realistically.
 *
 * Non-negative IEEE doubles order identically to their bit patterns,
 * so each clock becomes an integer key with the core id packed into
 * the low (mantissa) bits: the min key yields both the laggard and, on
 * (quantized) ties, the lowest id. The id field is 8 bits up to 256
 * cores -- which keeps every historical (<= 256-core) run's tie
 * quantization, and therefore its output, byte-identical -- and widens
 * to the next power of two beyond that (kMaxCores = 1024 uses 10 of
 * the 52 mantissa bits; the coarser tie quantization is still ~2^-42
 * relative).
 *
 * The min is a two-level reduction. Keys sit in groups of G (a power
 * of two near sqrt(cores), at least 4: 4 at 16 cores, 16 at 256, 32
 * at 1024), and a second array holds each group's minimum. pick()
 * scans the group minima; only the advanced core's clock changes per
 * access, so update() recomputes one key and rescans its group alone.
 * Per access that is about 2 sqrt(cores) compares instead of cores,
 * and the minimum found is the same key a flat scan finds, so the same
 * core wins. Both scans are branchless min-reductions (four
 * independent cmov chains) over arrays padded with the all-ones key,
 * which never beats a real clock key (real keys carry a finite or +inf
 * clock pattern, never all-ones). (Two other schedulers were tried and
 * measured slower at 16 cores: a log-depth tournament tree serializes
 * on store-to-load forwarding, and a cached-runner-up scheme
 * pessimizes the whole loop with its rescan branch.)
 */

#ifndef UNISON_SIM_CORE_SCHEDULER_HH
#define UNISON_SIM_CORE_SCHEDULER_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace unison {

class CoreScheduler
{
  public:
    /** Schedules cores [0, cores) by clocks[0, cores): every clock
     *  non-negative (+inf parks a core), at least one of them finite
     *  whenever pick() is called. The clocks are read, never written,
     *  and must outlive the scheduler. */
    CoreScheduler(const double *clocks, int cores)
        : clocks_(clocks), cores_(cores),
          idMask_(cores <= 256
                      ? 255ull
                      : std::bit_ceil(static_cast<std::uint64_t>(cores)) -
                            1),
          groupShift_(groupShiftFor(cores)),
          groupWidth_(std::size_t{1} << groupShift_),
          numGroups_(((cores - 1) >> groupShift_) + 1),
          keys_(numGroups_ * groupWidth_, ~0ull),
          groupMin_((numGroups_ + 3) & ~std::size_t{3}, ~0ull)
    {
        rebuild();
    }

    /** The group width G used for `cores` cores. */
    static int groupWidthFor(int cores) { return 1 << groupShiftFor(cores); }

    /** The core with the lowest clock; the lowest id on ties. */
    int
    pick() const
    {
        return static_cast<int>(minOf(groupMin_.data(), groupMin_.size()) &
                                idMask_);
    }

    /** Refresh after `core`'s clock changed (and no other's). */
    void
    update(int core)
    {
        const auto c = static_cast<std::size_t>(core);
        keys_[c] = keyOf(core);
        groupMin_[c >> groupShift_] =
            minOf(&keys_[c & ~(groupWidth_ - 1)], groupWidth_);
    }

    /** Refresh after any number of clocks changed. */
    void
    rebuild()
    {
        for (int c = 0; c < cores_; ++c)
            keys_[static_cast<std::size_t>(c)] = keyOf(c);
        for (std::size_t g = 0; g < numGroups_; ++g)
            groupMin_[g] = minOf(&keys_[g * groupWidth_], groupWidth_);
    }

  private:
    /** log2 of G: half of log2(bit_ceil(cores)), rounded down, and at
     *  least 2 so every scan is whole chunks of four. */
    static int
    groupShiftFor(int cores)
    {
        const int half =
            std::bit_width(static_cast<unsigned>(cores - 1)) / 2;
        return half < 2 ? 2 : half;
    }

    std::uint64_t
    keyOf(int core) const
    {
        return (std::bit_cast<std::uint64_t>(clocks_[core]) & ~idMask_) |
               static_cast<std::uint64_t>(core);
    }

    /** Minimum of k[0, n), n a positive multiple of four. */
    static std::uint64_t
    minOf(const std::uint64_t *k, std::size_t n)
    {
        std::uint64_t b0 = k[0];
        std::uint64_t b1 = k[1];
        std::uint64_t b2 = k[2];
        std::uint64_t b3 = k[3];
        for (std::size_t i = 4; i < n; i += 4) {
            b0 = k[i] < b0 ? k[i] : b0;
            b1 = k[i + 1] < b1 ? k[i + 1] : b1;
            b2 = k[i + 2] < b2 ? k[i + 2] : b2;
            b3 = k[i + 3] < b3 ? k[i + 3] : b3;
        }
        b0 = b1 < b0 ? b1 : b0;
        b2 = b3 < b2 ? b3 : b2;
        return b2 < b0 ? b2 : b0;
    }

    const double *clocks_;
    int cores_;
    std::uint64_t idMask_;
    int groupShift_;
    std::size_t groupWidth_; //!< G
    std::size_t numGroups_;
    std::vector<std::uint64_t> keys_;     //!< numGroups_ * G, padded
    std::vector<std::uint64_t> groupMin_; //!< per group, padded to 4
};

} // namespace unison

#endif // UNISON_SIM_CORE_SCHEDULER_HH
