/**
 * @file
 * DRAM timing parameters (Table III of the paper) and their conversion
 * from DRAM-clock to CPU-clock cycles.
 *
 * Both DRAM pools use the same JEDEC-style timing numbers; they differ
 * in clock (stacked: 1.6 GHz DDR-like; off-chip: DDR3-1600 at 800 MHz),
 * channel count (4 vs 1) and bus width (128-bit vs 64-bit). The CPU
 * runs at 3 GHz, so one stacked-DRAM cycle is 1.875 CPU cycles and one
 * off-chip DRAM cycle is 3.75 CPU cycles.
 */

#ifndef UNISON_DRAM_TIMING_HH
#define UNISON_DRAM_TIMING_HH

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace unison {

/** Raw timing numbers in DRAM clock cycles (Table III). */
struct DramTimingParams
{
    std::uint32_t tCAS = 11;  //!< column access strobe latency
    std::uint32_t tRCD = 11;  //!< row-to-column delay
    std::uint32_t tRP = 11;   //!< row precharge
    std::uint32_t tRAS = 28;  //!< row active time (activate->precharge)
    std::uint32_t tRC = 39;   //!< row cycle (activate->activate, bank)
    std::uint32_t tWR = 12;   //!< write recovery (data end->precharge)
    std::uint32_t tWTR = 6;   //!< write-to-read turnaround
    std::uint32_t tRTP = 6;   //!< read-to-precharge
    std::uint32_t tRRD = 5;   //!< activate-to-activate (channel)
    std::uint32_t tFAW = 24;  //!< four-activate window

    /**
     * Refresh interval in DRAM cycles (0 disables refresh). JEDEC
     * tREFI is 7.8 us; at 800 MHz that is 6240 cycles. Disabled by
     * default so unit tests see exact latencies; System-level studies
     * can enable it.
     */
    std::uint32_t tREFI = 0;
    std::uint32_t tRFC = 208; //!< refresh cycle time (~260 ns)

    /** Data-bus payload per DRAM clock (DDR: 2 transfers/cycle). */
    std::uint32_t busBytesPerCycle = 16;

    /** DRAM clock in MHz (for the CPU-cycle conversion). */
    double clockMhz = 800.0;
};

/** CPU clock frequency assumed by the whole simulator (Table III). */
constexpr double kCpuClockMhz = 3000.0;

/** Timing of one DRAM pool, pre-converted to CPU cycles. */
struct DramTimingCpu
{
    Cycle cas, rcd, rp, ras, rc, wr, wtr, rtp, rrd, faw;
    Cycle refi = 0; //!< 0 = refresh disabled
    Cycle rfc = 0;
    double cpuPerDramCycle = 1.0;
    std::uint32_t busBytesPerDramCycle = 16;

    /** Construct from DRAM-clock parameters. */
    static DramTimingCpu fromParams(const DramTimingParams &p);

    /**
     * CPU cycles to move `bytes` over the data bus:
     * llround(ceil(dram_cycles * cpuPerDramCycle)). Every transfer up
     * to one row is a lookup in a table fromParams fills with that
     * same expression, indexed by a shift on power-of-two buses; only
     * longer transfers evaluate it in floating point.
     */
    Cycle
    burstCycles(std::uint32_t bytes) const
    {
        const std::uint32_t dram_cycles =
            busShift_ >= 0
                ? (bytes + busBytesPerDramCycle - 1) >> busShift_
                : (bytes + busBytesPerDramCycle - 1) /
                      busBytesPerDramCycle;
        if (dram_cycles < burstTableSize_)
            return burstTable_[dram_cycles];
        return dramToCpuCycles(dram_cycles);
    }

    /** The conversion every timing field and burst goes through. */
    Cycle
    dramToCpuCycles(std::uint32_t dram_cycles) const
    {
        return static_cast<Cycle>(
            std::llround(std::ceil(dram_cycles * cpuPerDramCycle)));
    }

  private:
    /** Burst cycles for 0..burstTableSize_-1 DRAM cycles; shared by
     *  every copy (each channel holds one), never written after
     *  fromParams. */
    std::shared_ptr<const std::vector<Cycle>> burstOwner_;
    const Cycle *burstTable_ = nullptr;
    std::uint32_t burstTableSize_ = 0;
    int busShift_ = -1; //!< log2(bus width); -1 if not a power of two
};

/**
 * Which timing implementation a DRAM pool runs behind the
 * MemoryBackend seam (dram/backend.hh): the analytic open-page model
 * or the cycle-accurate FR-FCFS controller.
 */
enum class MemoryBackendKind : std::uint8_t
{
    Fast,     //!< analytic open-page model (DramModule)
    Detailed, //!< FR-FCFS controller with write queues (DetailedBackend)
};

/**
 * Physical organization of one DRAM pool (channels x banks x rows).
 */
struct DramOrganization
{
    std::string name = "dram";
    int numChannels = 1;
    int banksPerChannel = 8;
    std::uint32_t rowBytes = kRowBytes;

    /** Timing implementation behind the MemoryBackend seam. */
    MemoryBackendKind backend = MemoryBackendKind::Fast;

    /**
     * Depth of the per-bank recently-open-row window. The channel
     * model processes requests in arrival order; a real FR-FCFS
     * scheduler would reorder row hits ahead of conflicts, letting one
     * stream's row survive another stream's interleaved conflict.
     * Treating the last `openRowWindow` rows of a bank as hittable
     * approximates that reordering without an event queue. 1 = strict
     * single open row (no reordering).
     */
    int openRowWindow = 4;
};

/** Die-stacked DRAM configuration (Table III). */
DramTimingParams stackedDramTiming();
DramOrganization stackedDramOrganization();

/** Off-chip DDR3-1600 configuration (Table III). */
DramTimingParams offChipDramTiming();
DramOrganization offChipDramOrganization();

} // namespace unison

#endif // UNISON_DRAM_TIMING_HH
