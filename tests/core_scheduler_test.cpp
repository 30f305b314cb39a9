/**
 * @file
 * CoreScheduler against a brute-force reference: the lowest clock
 * (quantized by the id field) wins, and the lowest id breaks ties. The
 * core counts straddle every group-width and id-field boundary,
 * including widths that do not divide the core count and the id field
 * widening past 256 cores.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "sim/core_scheduler.hh"

namespace unison {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const int kCoreCounts[] = {1,  2,  3,   4,   5,   15,  16,  17,  63,
                           64, 65, 255, 256, 257, 511, 513, 1000, 1024};

/** The low mantissa bits that hold the core id: 8 up to 256 cores,
 *  then enough for the next power of two. */
std::uint64_t
idBits(int cores)
{
    return cores <= 256
               ? 255ull
               : std::bit_ceil(static_cast<std::uint64_t>(cores)) - 1;
}

/** The clock bits a tie is decided on: the id field masked away. */
std::uint64_t
quantized(double clock, int cores)
{
    return std::bit_cast<std::uint64_t>(clock) & ~idBits(cores);
}

int
referencePick(const std::vector<double> &clocks)
{
    const int cores = static_cast<int>(clocks.size());
    int best = -1;
    for (int c = 0; c < cores; ++c)
        if (best < 0 ||
            quantized(clocks[c], cores) < quantized(clocks[best], cores))
            best = c;
    return best;
}

TEST(CoreScheduler, GroupWidthIsAboutTheSquareRoot)
{
    EXPECT_EQ(CoreScheduler::groupWidthFor(1), 4);
    EXPECT_EQ(CoreScheduler::groupWidthFor(16), 4);
    EXPECT_EQ(CoreScheduler::groupWidthFor(64), 8);
    EXPECT_EQ(CoreScheduler::groupWidthFor(256), 16);
    EXPECT_EQ(CoreScheduler::groupWidthFor(300), 16);
    EXPECT_EQ(CoreScheduler::groupWidthFor(1024), 32);
}

TEST(CoreScheduler, InitialPickIsTheLowestClock)
{
    std::mt19937_64 rng(1);
    std::uniform_real_distribution<double> clock(0.0, 1e6);
    for (int cores : kCoreCounts) {
        SCOPED_TRACE(cores);
        std::vector<double> clocks(static_cast<std::size_t>(cores));
        for (double &t : clocks)
            t = clock(rng);
        const CoreScheduler sched(clocks.data(), cores);
        EXPECT_EQ(sched.pick(), referencePick(clocks));
    }
}

TEST(CoreScheduler, RandomUpdatesTrackTheReference)
{
    // Advance the picked core like the engine does, and now and then
    // move an arbitrary core either way, as a test of update() alone.
    std::mt19937_64 rng(2);
    for (int cores : kCoreCounts) {
        SCOPED_TRACE(cores);
        std::vector<double> clocks(static_cast<std::size_t>(cores), 0.0);
        CoreScheduler sched(clocks.data(), cores);
        for (int step = 0; step < 4000; ++step) {
            const int core = sched.pick();
            ASSERT_EQ(core, referencePick(clocks)) << "step " << step;
            clocks[core] += static_cast<double>(rng() % 500) + 0.25;
            sched.update(core);
            if (step % 7 == 0) {
                const int other = static_cast<int>(rng() % cores);
                clocks[other] = static_cast<double>(rng() % 100'000);
                sched.update(other);
            }
        }
    }
}

TEST(CoreScheduler, ExactTiesGoToTheLowestId)
{
    std::mt19937_64 rng(3);
    for (int cores : kCoreCounts) {
        SCOPED_TRACE(cores);
        // Every clock equal: the ids come out in order as each is
        // advanced past the rest.
        std::vector<double> clocks(static_cast<std::size_t>(cores), 42.0);
        CoreScheduler sched(clocks.data(), cores);
        for (int c = 0; c < cores; ++c) {
            ASSERT_EQ(sched.pick(), c);
            clocks[c] = 43.0;
            sched.update(c);
        }
        // A random subset tied at the minimum.
        for (double &t : clocks)
            t = 10.0 + static_cast<double>(rng() % 3 == 0 ? 0 : rng() % 9 + 1);
        sched.rebuild();
        EXPECT_EQ(sched.pick(), referencePick(clocks));
    }
}

TEST(CoreScheduler, TiesAreDecidedAboveTheIdBits)
{
    // Clocks that differ only inside the id field tie, so the lowest
    // id wins even against a smaller raw clock; one step above the id
    // field is a real difference.
    std::mt19937_64 rng(4);
    for (int cores : kCoreCounts) {
        SCOPED_TRACE(cores);
        const std::uint64_t id_bits = idBits(cores);
        const std::uint64_t base = std::bit_cast<std::uint64_t>(1234.5);
        std::vector<double> clocks(static_cast<std::size_t>(cores));
        for (double &t : clocks)
            t = std::bit_cast<double>((base & ~id_bits) | (rng() & id_bits));
        CoreScheduler sched(clocks.data(), cores);
        EXPECT_EQ(sched.pick(), 0);
        EXPECT_EQ(referencePick(clocks), 0);

        if (cores == 1)
            continue;
        // Core 0 one quantum above everyone: the next lowest id wins.
        clocks[0] =
            std::bit_cast<double>((base & ~id_bits) + id_bits + 1);
        sched.update(0);
        EXPECT_EQ(sched.pick(), 1);
        // The last core one quantum below the rest: it wins.
        const int last = cores - 1;
        clocks[last] = std::bit_cast<double>((base & ~id_bits) - 1);
        sched.update(last);
        EXPECT_EQ(sched.pick(), last);
        EXPECT_EQ(referencePick(clocks), last);
    }
}

TEST(CoreScheduler, ParkedCoresAreNeverPicked)
{
    // A core whose budget ran out parks at +inf; the engine runs until
    // every core is parked, so pick() is only asked while one is live.
    std::mt19937_64 rng(5);
    for (int cores : kCoreCounts) {
        SCOPED_TRACE(cores);
        std::vector<double> clocks(static_cast<std::size_t>(cores), 0.0);
        std::vector<int> budget(static_cast<std::size_t>(cores));
        for (int &b : budget)
            b = static_cast<int>(rng() % 6) + 1;
        int live = cores;
        CoreScheduler sched(clocks.data(), cores);
        while (live > 0) {
            const int core = sched.pick();
            ASSERT_EQ(core, referencePick(clocks));
            ASSERT_NE(clocks[core], kInf);
            if (--budget[core] == 0) {
                clocks[core] = kInf;
                --live;
            } else {
                clocks[core] += static_cast<double>(rng() % 50 + 1);
            }
            sched.update(core);
        }
    }
}

TEST(CoreScheduler, RebuildFollowsWholesaleClockChanges)
{
    // The warm-checkpoint resume path overwrites every clock at once
    // and rebuilds.
    std::mt19937_64 rng(6);
    for (int cores : kCoreCounts) {
        SCOPED_TRACE(cores);
        std::vector<double> clocks(static_cast<std::size_t>(cores), 0.0);
        CoreScheduler sched(clocks.data(), cores);
        for (int round = 0; round < 20; ++round) {
            for (double &t : clocks)
                t = rng() % 4 == 0 ? kInf
                                   : static_cast<double>(rng() % 1000);
            clocks[rng() % cores] = static_cast<double>(rng() % 1000);
            sched.rebuild();
            ASSERT_EQ(sched.pick(), referencePick(clocks));
        }
    }
}

} // namespace
} // namespace unison
