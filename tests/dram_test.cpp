/**
 * @file
 * Unit tests for the DRAM timing substrate: parameter conversion,
 * row-buffer state machine identities, activate-window limits, bus
 * serialization, and loaded/unloaded latency sanity.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "dram/channel.hh"
#include "dram/dram.hh"
#include "dram/timing.hh"

namespace unison {
namespace {

DramTimingCpu
stackedCpu()
{
    return DramTimingCpu::fromParams(stackedDramTiming());
}

DramTimingCpu
offchipCpu()
{
    return DramTimingCpu::fromParams(offChipDramTiming());
}

TEST(DramTiming, ClockConversion)
{
    const DramTimingCpu st = stackedCpu();
    // 1.6 GHz DRAM under a 3 GHz CPU: 1.875 CPU cycles per DRAM cycle.
    EXPECT_DOUBLE_EQ(st.cpuPerDramCycle, 3000.0 / 1600.0);
    // tCAS = 11 DRAM cycles -> ceil(20.625) = 21 CPU cycles.
    EXPECT_EQ(st.cas, 21u);
    EXPECT_EQ(st.rcd, 21u);
    EXPECT_EQ(st.rp, 21u);

    const DramTimingCpu oc = offchipCpu();
    EXPECT_DOUBLE_EQ(oc.cpuPerDramCycle, 3.75);
    // tCAS = 11 -> ceil(41.25) = 42 CPU cycles.
    EXPECT_EQ(oc.cas, 42u);
}

TEST(DramTiming, BurstCycles)
{
    const DramTimingCpu st = stackedCpu();
    // 128-bit DDR bus at 1.6 GHz: 32 B per DRAM cycle. A 64 B block is
    // 2 DRAM cycles = 4 CPU cycles (paper: "12 cycles ... to transfer
    // extra ways" = 3 ways x 4).
    EXPECT_EQ(st.burstCycles(64), 4u);
    // The 32 B tag burst is 1 DRAM cycle = 2 CPU cycles (Sec. III-A.6).
    EXPECT_EQ(st.burstCycles(32), 2u);

    const DramTimingCpu oc = offchipCpu();
    // 64-bit DDR3-1600: 16 B per DRAM cycle -> 64 B = 4 -> 15 CPU.
    EXPECT_EQ(oc.burstCycles(64), 15u);
}

/** The float formula every burst came from before the table. */
Cycle
formulaBurst(const DramTimingParams &p, std::uint32_t bytes)
{
    const std::uint32_t dram_cycles =
        (bytes + p.busBytesPerCycle - 1) / p.busBytesPerCycle;
    return static_cast<Cycle>(std::llround(
        std::ceil(dram_cycles * (kCpuClockMhz / p.clockMhz))));
}

TEST(DramTiming, BurstTableMatchesFormulaExactly)
{
    DramTimingParams odd_a = offChipDramTiming();
    odd_a.clockMhz = 1333.0;
    odd_a.busBytesPerCycle = 8;
    DramTimingParams odd_b = offChipDramTiming();
    odd_b.clockMhz = 1066.0;
    odd_b.busBytesPerCycle = 16;
    // A bus width that is not a power of two takes the divide path.
    DramTimingParams odd_c = stackedDramTiming();
    odd_c.clockMhz = 933.0;
    odd_c.busBytesPerCycle = 24;

    for (const DramTimingParams &p :
         {stackedDramTiming(), offChipDramTiming(), odd_a, odd_b, odd_c}) {
        const DramTimingCpu t = DramTimingCpu::fromParams(p);
        // Every transfer up to one row is a table lookup ...
        for (std::uint32_t bytes = 1; bytes <= kRowBytes; ++bytes)
            ASSERT_EQ(t.burstCycles(bytes), formulaBurst(p, bytes))
                << p.clockMhz << " MHz, " << p.busBytesPerCycle
                << " B bus, " << bytes << " B";
        // ... and longer ones fall back to the formula itself.
        for (std::uint32_t bytes :
             {kRowBytes + 1, kRowBytes + p.busBytesPerCycle,
              2 * kRowBytes + 7, 16 * kRowBytes, 1u << 30})
            ASSERT_EQ(t.burstCycles(bytes), formulaBurst(p, bytes))
                << p.clockMhz << " MHz, " << bytes << " B";
    }
}

TEST(DramChannel, RowHitLatency)
{
    const DramTimingCpu t = stackedCpu();
    DramChannel ch(t, 8);

    // First access activates (row empty): rcd + cas + burst.
    DramAccessTiming a = ch.access(0, 7, 64, false, 1000);
    EXPECT_FALSE(a.rowHit);
    EXPECT_EQ(a.completion, 1000 + t.rcd + t.cas + t.burstCycles(64));

    // Second access to the same row far in the future: pure row hit.
    DramAccessTiming b = ch.access(0, 7, 64, false, 5000);
    EXPECT_TRUE(b.rowHit);
    EXPECT_EQ(b.completion, 5000 + t.cas + t.burstCycles(64));
}

TEST(DramChannel, RowConflictLatency)
{
    const DramTimingCpu t = stackedCpu();
    DramChannel ch(t, 8);

    ch.access(0, 7, 64, false, 1000);
    // Conflict long after: precharge + activate + column.
    DramAccessTiming c = ch.access(0, 9, 64, false, 50000);
    EXPECT_FALSE(c.rowHit);
    EXPECT_EQ(c.completion,
              50000 + t.rp + t.rcd + t.cas + t.burstCycles(64));
}

TEST(DramChannel, ActivationCounting)
{
    DramChannel ch(stackedCpu(), 8);
    ch.access(0, 1, 64, false, 0);      // activate
    ch.access(0, 1, 64, false, 10000);  // row hit
    ch.access(0, 2, 64, false, 20000);  // conflict -> activate
    ch.access(1, 2, 64, false, 30000);  // other bank -> activate
    EXPECT_EQ(ch.stats().activations.value(), 3u);
    EXPECT_EQ(ch.stats().rowHits.value(), 1u);
    EXPECT_EQ(ch.stats().rowConflicts.value(), 1u);
    EXPECT_EQ(ch.stats().rowEmpty.value(), 2u);
}

TEST(DramChannel, BusSerializesBackToBackReads)
{
    const DramTimingCpu t = stackedCpu();
    DramChannel ch(t, 8);

    // Two reads to the same open row issued at the same cycle: the
    // second's data follows the first's on the bus (tag+data overlap
    // of Sec. III-A: completion gap == one burst).
    ch.access(0, 3, 64, false, 0); // open the row
    const Cycle base = 100000;
    DramAccessTiming first = ch.access(0, 3, 32, false, base);
    DramAccessTiming second = ch.access(0, 3, 64, false, base);
    EXPECT_TRUE(first.rowHit);
    EXPECT_TRUE(second.rowHit);
    EXPECT_EQ(second.completion - first.completion, t.burstCycles(64));
}

TEST(DramChannel, TfawLimitsActivateRate)
{
    const DramTimingCpu t = stackedCpu();
    DramChannel ch(t, 8);

    // Five activates to distinct banks, all requested at cycle 0: the
    // fifth must wait for the tFAW window.
    Cycle completions[5];
    for (int b = 0; b < 5; ++b)
        completions[b] = ch.access(b, 1, 64, false, 0).completion;
    // Activates 0..3 are spaced by tRRD; activate 4 waits until
    // activate 0 + tFAW.
    const Cycle act4_earliest = t.faw; // activate 0 was at cycle 0
    EXPECT_GE(completions[4],
              act4_earliest + t.rcd + t.cas + t.burstCycles(64));
}

/**
 * Exact timing params for the activate-window tests: 1:1 clock (no
 * rounding), a 64-byte bus (one-cycle bursts), and tRRD/tFAW far above
 * tRC so the channel-wide gates dominate the per-bank ones and every
 * activate lands on an exactly predictable cycle.
 */
DramTimingParams
activateWindowParams()
{
    DramTimingParams p;
    p.clockMhz = kCpuClockMhz; // conv() is the identity
    p.tCAS = 2;
    p.tRCD = 3;
    p.tRP = 2;
    p.tRAS = 4;
    p.tRC = 5;
    p.tWR = 2;
    p.tWTR = 2;
    p.tRTP = 2;
    p.tRRD = 10;
    p.tFAW = 100;
    p.tREFI = 0;
    p.busBytesPerCycle = 64;
    return p;
}

TEST(DramChannel, TfawWindowBoundaryIsExact)
{
    const DramTimingParams params = activateWindowParams();
    const DramTimingCpu t = DramTimingCpu::fromParams(params);
    DramChannel ch(t, 8);

    // Six activates to distinct idle banks, all requested at cycle 0.
    // Every activate first clears the per-bank phantom gate
    // activatedAt(=0) + tRC = 5; the first four are then spaced by
    // tRRD alone -- the tFAW ring still holds construction-time
    // zeros, which must NOT impose a 0 + tFAW gate (that would push
    // activate 0 from cycle 5 to cycle 100).
    Cycle completions[6];
    for (int b = 0; b < 6; ++b)
        completions[b] = ch.access(b, 1, 64, false, 0).completion;

    const Cycle tail = t.rcd + t.cas + t.burstCycles(64); // 3 + 2 + 1
    // Activates at 5, 15, 25, 35: tRRD chain from the first.
    EXPECT_EQ(completions[0], 5 + tail);
    EXPECT_EQ(completions[1], 15 + tail);
    EXPECT_EQ(completions[2], 25 + tail);
    EXPECT_EQ(completions[3], 35 + tail);
    // The fifth activate waits for the window: exactly the first
    // activate (cycle 5) plus tFAW, not a cycle more.
    EXPECT_EQ(completions[4], 5 + t.faw + tail);
    // The sixth slides the window: second activate (15) + tFAW.
    EXPECT_EQ(completions[5], 15 + t.faw + tail);
}

TEST(DramChannel, TfawWindowIsHalfOpen)
{
    const DramTimingParams params = activateWindowParams();
    const DramTimingCpu t = DramTimingCpu::fromParams(params);
    DramChannel ch(t, 8);

    // Four activates at 5, 15, 25, 35 (as above), then a fifth
    // requested exactly when the oldest turns tFAW old: it must issue
    // on that very cycle -- the window is half-open, so "four
    // activates in any tFAW window" is not violated by an activate
    // landing on the boundary itself.
    for (int b = 0; b < 4; ++b)
        ch.access(b, 1, 64, false, 0);
    const Cycle boundary = 5 + t.faw;
    const DramAccessTiming fifth = ch.access(4, 1, 64, false, boundary);
    EXPECT_EQ(fifth.completion,
              boundary + t.rcd + t.cas + t.burstCycles(64));
}

TEST(DramChannel, WriteToReadTurnaround)
{
    const DramTimingCpu t = stackedCpu();
    DramChannel ch(t, 8);

    ch.access(0, 1, 64, false, 0); // open row
    const Cycle base = 10000;
    DramAccessTiming wr = ch.access(0, 1, 64, true, base);
    DramAccessTiming rd = ch.access(1, 1, 64, false, wr.completion);
    // The read (other bank) must respect tWTR after the write burst.
    EXPECT_GE(rd.completion,
              wr.completion + t.wtr);
}

TEST(DramModule, RowInterleavingAcrossChannels)
{
    DramModule dram(stackedDramOrganization(), stackedDramTiming());
    // Consecutive rows land on different channels: issuing four
    // accesses to rows 0..3 at once should overlap substantially
    // compared to four accesses to the same row's bank.
    Cycle last_parallel = 0;
    for (std::uint64_t r = 0; r < 4; ++r)
        last_parallel = std::max(
            last_parallel, dram.rowAccess(r, 64, false, 0).completion);

    DramModule dram2(stackedDramOrganization(), stackedDramTiming());
    Cycle last_serial = 0;
    for (int i = 0; i < 4; ++i)
        last_serial = dram2.rowAccess(0, 64, false, last_serial)
                          .completion; // dependent chain, same bank
    EXPECT_LT(last_parallel, last_serial);
}

TEST(DramModule, UnloadedLatencySanity)
{
    DramModule stacked(stackedDramOrganization(), stackedDramTiming());
    // Row-conflict read of 64 B: rp + rcd + cas + burst ~ 67 cycles.
    EXPECT_LE(stacked.unloadedRowConflictLatency(64), 70u);
    EXPECT_GE(stacked.unloadedRowConflictLatency(64), 50u);

    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    // Off-chip conflict: ~141 CPU cycles at 3 GHz.
    EXPECT_LE(offchip.unloadedRowConflictLatency(64), 150u);
    EXPECT_GE(offchip.unloadedRowConflictLatency(64), 120u);
}

/**
 * Loaded-latency probe: at a modest injection rate the stacked pool
 * must service random single-block reads near its unloaded latency.
 * This guards against queueing-model bugs (requests parking behind
 * far-future bus reservations).
 */
TEST(DramModule, ModestLoadKeepsLatencyNearUnloaded)
{
    DramModule dram(stackedDramOrganization(), stackedDramTiming());
    Rng rng(7);
    const std::uint64_t num_rows = 1_GiB / kRowBytes;

    double total_latency = 0.0;
    const int n = 20000;
    // One read every 20 cycles = 0.05 accesses/cycle, well under the
    // pool's activate-rate capacity (~0.35/cycle).
    for (int i = 0; i < n; ++i) {
        const Cycle at = static_cast<Cycle>(i) * 20;
        const std::uint64_t row = rng.below(num_rows);
        const DramAccessTiming res = dram.rowAccess(row, 64, false, at);
        total_latency += static_cast<double>(res.completion - at);
    }
    const double avg = total_latency / n;
    // Unloaded conflict latency is ~67; allow moderate queueing.
    EXPECT_LT(avg, 150.0);
    EXPECT_GT(avg, 20.0);
}

} // namespace
} // namespace unison

namespace unison {
namespace {

TEST(DramRefresh, DisabledByDefault)
{
    DramModule dram(stackedDramOrganization(), stackedDramTiming());
    dram.rowAccess(1, 64, false, 1'000'000);
    EXPECT_EQ(dram.stats().refreshes, 0u);
}

TEST(DramRefresh, PeriodicWindowsBlockAndCloseRows)
{
    DramTimingParams params = offChipDramTiming();
    params.tREFI = 6240; // JEDEC 7.8us at 800 MHz
    DramOrganization org = offChipDramOrganization();
    DramModule dram(org, params);
    const DramTimingCpu t = DramTimingCpu::fromParams(params);

    // Touch one row, then access it again right after a refresh
    // boundary: the refresh closes the row (conflict-free activate
    // path, i.e. not a row hit) and delays the access by up to tRFC.
    dram.rowAccess(5, 64, false, 0);
    const Cycle after_refresh = t.refi + 1;
    const DramAccessTiming res =
        dram.rowAccess(5, 64, false, after_refresh);
    EXPECT_FALSE(res.rowHit) << "refresh must close open rows";
    EXPECT_GE(res.completion, t.refi + t.rfc);
    EXPECT_GE(dram.stats().refreshes, 1u);
}

TEST(DramRefresh, RateMatchesInterval)
{
    DramTimingParams params = offChipDramTiming();
    params.tREFI = 6240;
    DramModule dram(offChipDramOrganization(), params);
    const DramTimingCpu t = DramTimingCpu::fromParams(params);
    // Span 100 refresh intervals with sparse accesses.
    for (int i = 1; i <= 100; ++i)
        dram.rowAccess(i, 64, false, static_cast<Cycle>(i) * t.refi);
    EXPECT_NEAR(static_cast<double>(dram.stats().refreshes), 100.0, 2.0);
}

TEST(DramRefresh, LongIdleGapCatchUpIsClosedFormIdentical)
{
    // A years-long idle gap (simulated time) must account every missed
    // refresh window and produce the same timing as stepping windows
    // one at a time -- the catch-up is computed in closed form, so
    // this also has to return instantly rather than walk ~5 billion
    // windows.
    DramTimingParams params = offChipDramTiming();
    params.tREFI = 6240;
    DramOrganization org = offChipDramOrganization();
    const DramTimingCpu t = DramTimingCpu::fromParams(params);

    DramModule dram(org, params);
    dram.rowAccess(7, 64, false, 0); // open a row, start the clock

    const std::uint64_t windows = 5'000'000'000ull;
    const Cycle idle_until = static_cast<Cycle>(windows) * t.refi + 17;
    const DramAccessTiming after =
        dram.rowAccess(7, 64, false, idle_until);

    // Exactly `windows` boundaries elapsed in (0, idle_until].
    EXPECT_EQ(dram.stats().refreshes, windows);
    // The refresh closed the open row: not a row hit, and the access
    // starts no earlier than the last window's tRFC shadow.
    EXPECT_FALSE(after.rowHit);
    EXPECT_GE(after.completion, idle_until);

    // Same end state as a channel that slept through the same gap in
    // two shorter hops (each hop catches up its own windows).
    DramModule hops(org, params);
    hops.rowAccess(7, 64, false, 0);
    hops.rowAccess(9, 64, false,
                   static_cast<Cycle>(windows / 2) * t.refi + 5);
    const DramAccessTiming hop_after =
        hops.rowAccess(7, 64, false, idle_until);
    EXPECT_EQ(hops.stats().refreshes, windows);
    EXPECT_EQ(hop_after.completion, after.completion);
    EXPECT_EQ(hop_after.rowHit, after.rowHit);
}

} // namespace
} // namespace unison
