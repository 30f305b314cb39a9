#include "dram/timing.hh"

#include <bit>

namespace unison {

DramTimingCpu
DramTimingCpu::fromParams(const DramTimingParams &p)
{
    DramTimingCpu t;
    t.cpuPerDramCycle = kCpuClockMhz / p.clockMhz;
    t.cas = t.dramToCpuCycles(p.tCAS);
    t.rcd = t.dramToCpuCycles(p.tRCD);
    t.rp = t.dramToCpuCycles(p.tRP);
    t.ras = t.dramToCpuCycles(p.tRAS);
    t.rc = t.dramToCpuCycles(p.tRC);
    t.wr = t.dramToCpuCycles(p.tWR);
    t.wtr = t.dramToCpuCycles(p.tWTR);
    t.rtp = t.dramToCpuCycles(p.tRTP);
    t.rrd = t.dramToCpuCycles(p.tRRD);
    t.faw = t.dramToCpuCycles(p.tFAW);
    t.refi = t.dramToCpuCycles(p.tREFI);
    t.rfc = t.dramToCpuCycles(p.tRFC);
    t.busBytesPerDramCycle = p.busBytesPerCycle;

    const std::uint32_t bus = p.busBytesPerCycle;
    if (std::has_single_bit(bus))
        t.busShift_ = std::countr_zero(bus);
    // One entry per DRAM-cycle count of a transfer up to one row.
    const std::uint32_t row_cycles = (kRowBytes + bus - 1) / bus;
    auto table = std::make_shared<std::vector<Cycle>>(row_cycles + 1);
    for (std::uint32_t d = 0; d <= row_cycles; ++d)
        (*table)[d] = t.dramToCpuCycles(d);
    t.burstTable_ = table->data();
    t.burstTableSize_ = row_cycles + 1;
    t.burstOwner_ = std::move(table);
    return t;
}

DramTimingParams
stackedDramTiming()
{
    DramTimingParams p;            // Table III values
    p.clockMhz = 1600.0;           // DDR-like interface at 1.6 GHz
    p.busBytesPerCycle = 32;       // 128-bit DDR bus: 2 x 16 B / cycle
    return p;
}

DramOrganization
stackedDramOrganization()
{
    DramOrganization org;
    org.name = "stacked";
    org.numChannels = 4;
    org.banksPerChannel = 8;
    org.rowBytes = kRowBytes;
    return org;
}

DramTimingParams
offChipDramTiming()
{
    DramTimingParams p;            // DDR3-1600: 800 MHz clock
    p.clockMhz = 800.0;
    p.busBytesPerCycle = 16;       // 64-bit DDR bus: 2 x 8 B / cycle
    return p;
}

DramOrganization
offChipDramOrganization()
{
    DramOrganization org;
    org.name = "offchip";
    org.numChannels = 1;
    // Table III: 8 banks per rank; a 16-32 GB DDR3 DIMM population is
    // two ranks, giving 16 scheduler-visible banks on the channel.
    org.banksPerChannel = 16;
    org.rowBytes = kRowBytes;
    return org;
}

} // namespace unison
