/**
 * @file
 * Tests for the MemoryBackend seam (dram/backend.hh): backend
 * registry/factory behaviour, fast-vs-detailed zero-contention
 * equivalence, and the detailed controller's FR-FCFS invariants
 * (posted writes, drain watermarks, the starvation cap).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "dram/backend.hh"
#include "dram/detailed.hh"
#include "dram/dram.hh"
#include "dram/timing.hh"

namespace unison {
namespace {

DramTimingCpu
stackedCpu()
{
    return DramTimingCpu::fromParams(stackedDramTiming());
}

// ------------------------------------------------- registry / factory

TEST(BackendRegistry, IdsRoundTrip)
{
    const std::vector<std::string> &ids = memoryBackendIds();
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], "fast");
    EXPECT_EQ(ids[1], "detailed");

    for (MemoryBackendKind kind :
         {MemoryBackendKind::Fast, MemoryBackendKind::Detailed}) {
        MemoryBackendKind parsed;
        ASSERT_TRUE(memoryBackendFromId(memoryBackendId(kind), parsed));
        EXPECT_EQ(parsed, kind);
        EXPECT_FALSE(memoryBackendSummary(kind).empty());
    }

    MemoryBackendKind parsed;
    EXPECT_FALSE(memoryBackendFromId("analytic", parsed));
    EXPECT_FALSE(memoryBackendFromId("", parsed));
}

TEST(BackendRegistry, FactorySelectsByOrganization)
{
    DramOrganization org = stackedDramOrganization();

    org.backend = MemoryBackendKind::Fast;
    auto fast = makeMemoryBackend(org, stackedDramTiming());
    EXPECT_NE(dynamic_cast<DramModule *>(fast.get()), nullptr);
    EXPECT_FALSE(fast->queueStats().any());

    org.backend = MemoryBackendKind::Detailed;
    auto detailed = makeMemoryBackend(org, stackedDramTiming());
    EXPECT_NE(dynamic_cast<DetailedBackend *>(detailed.get()), nullptr);

    // Both map a row index identically (shared interleaving in the
    // base class) and report the same unloaded latencies.
    EXPECT_EQ(fast->rowOfAddr(123456789), detailed->rowOfAddr(123456789));
    EXPECT_EQ(fast->unloadedRowHitLatency(64),
              detailed->unloadedRowHitLatency(64));
    EXPECT_EQ(fast->unloadedRowConflictLatency(64),
              detailed->unloadedRowConflictLatency(64));
}

// ---------------------------------- fast == detailed (reads, no load)

/**
 * With a strict single open row (openRowWindow=1) and no writes in
 * flight, the detailed controller must time every read cycle-for-cycle
 * like the analytic channel: the bank/bus/refresh arithmetic is shared
 * by construction, and the write queue is empty so FR-FCFS never
 * reorders anything.
 */
TEST(BackendEquivalence, ReadSinglesMatchCycleForCycle)
{
    const DramTimingCpu t = stackedCpu();
    DramChannel fast(t, 8, /*open_row_window=*/1);
    DetailedChannel detailed(t, 8);

    // Row empty, row hit, row conflict -- the three service paths.
    const struct
    {
        std::uint64_t row;
        Cycle earliest;
    } singles[] = {{7, 1000}, {7, 5000}, {9, 50000}};

    for (const auto &s : singles) {
        const DramAccessTiming a = fast.access(0, s.row, 64, false,
                                               s.earliest);
        const DramAccessTiming b = detailed.access(0, s.row, 64, false,
                                                   s.earliest);
        EXPECT_EQ(a.completion, b.completion) << "row " << s.row;
        EXPECT_EQ(a.rowHit, b.rowHit) << "row " << s.row;
    }
}

TEST(BackendEquivalence, RandomReadStreamMatches)
{
    const DramTimingCpu t = stackedCpu();
    DramChannel fast(t, 8, /*open_row_window=*/1);
    DetailedChannel detailed(t, 8);

    Rng rng(321);
    Cycle at = 0;
    for (int i = 0; i < 5000; ++i) {
        const int bank = static_cast<int>(rng.below(8));
        const std::uint64_t row = rng.below(64);
        at += rng.below(40);
        const DramAccessTiming a = fast.access(bank, row, 64, false, at);
        const DramAccessTiming b =
            detailed.access(bank, row, 64, false, at);
        ASSERT_EQ(a.completion, b.completion) << "access " << i;
        ASSERT_EQ(a.rowHit, b.rowHit) << "access " << i;
    }
    EXPECT_EQ(fast.stats().rowHits.value(),
              detailed.stats().rowHits.value());
    EXPECT_EQ(fast.stats().activations.value(),
              detailed.stats().activations.value());
}

TEST(BackendEquivalence, PoolReadStreamMatches)
{
    DramOrganization org = stackedDramOrganization();
    org.openRowWindow = 1;
    DramModule fast(org, stackedDramTiming());
    DetailedBackend detailed(org, stackedDramTiming());

    Rng rng(11);
    Cycle at = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t row = rng.below(4096);
        at += rng.below(25);
        const DramAccessTiming a = fast.rowAccess(row, 64, false, at);
        const DramAccessTiming b = detailed.rowAccess(row, 64, false, at);
        ASSERT_EQ(a.completion, b.completion) << "access " << i;
        ASSERT_EQ(a.rowHit, b.rowHit) << "access " << i;
    }
    EXPECT_EQ(fast.stats().reads, detailed.stats().reads);
    EXPECT_EQ(fast.stats().rowHits, detailed.stats().rowHits);
    EXPECT_EQ(fast.stats().rowConflicts, detailed.stats().rowConflicts);
}

// --------------------------------------- FR-FCFS controller invariants

TEST(DetailedChannel, PostedWriteCompletesAtAcceptance)
{
    DetailedChannel ch(stackedCpu(), 8);
    const DramAccessTiming w = ch.access(0, 5, 64, true, 1234);
    EXPECT_EQ(w.completion, 1234u);
    EXPECT_FALSE(w.rowHit);
    EXPECT_EQ(ch.writeQueueSize(), 1);
    // Traffic counters count at drain time, not at acceptance.
    EXPECT_EQ(ch.stats().writes.value(), 0u);
}

TEST(DetailedChannel, WatermarksBoundTheWriteQueue)
{
    DetailedChannel ch(stackedCpu(), 8);

    Cycle at = 0;
    std::uint64_t enqueues = 0;
    for (int i = 0; i < 100; ++i) {
        at += 50;
        ch.access(i % 8, static_cast<std::uint64_t>(100 + i), 64, true,
                  at);
        ++enqueues;
        // Crossing the high watermark drains down to the low one
        // before the call returns, so the queue never sits at or
        // above the high mark between accesses.
        EXPECT_LT(ch.writeQueueSize(),
                  DetailedChannel::kWriteHighWatermark);
    }

    const MemoryQueueStats &q = ch.queueStats();
    // 24 writes trigger the first episode (24 -> 16), then every 8th
    // write triggers another: 10 episodes over 100 writes.
    EXPECT_EQ(q.writeDrains, 10u);
    EXPECT_EQ(q.drainedWrites,
              10u * (DetailedChannel::kWriteHighWatermark -
                     DetailedChannel::kWriteLowWatermark));
    EXPECT_EQ(ch.writeQueueSize(),
              static_cast<int>(enqueues - q.drainedWrites));
    EXPECT_EQ(ch.stats().writes.value(), q.drainedWrites);

    // Every enqueue sampled the occupancy histogram exactly once.
    std::uint64_t samples = 0;
    for (std::uint64_t bucket : q.occupancy)
        samples += bucket;
    EXPECT_EQ(samples, enqueues);
}

TEST(DetailedChannel, FrFcfsDrainPrefersOpenRow)
{
    DetailedChannel ch(stackedCpu(), 8);

    // Open row 5 in bank 0, then queue 23 writes to bank 1 and one to
    // the open (bank 0, row 5). The 24th enqueue crosses the high
    // watermark; the first drain must skip ahead to the row-hit write
    // even though it is the youngest entry.
    ch.access(0, 5, 64, false, 0);
    Cycle at = 1000;
    for (int i = 0; i < 23; ++i) {
        at += 50;
        ch.access(1, static_cast<std::uint64_t>(100 + i), 64, true, at);
    }
    EXPECT_EQ(ch.queueStats().frfcfsReorders, 0u);
    ch.access(0, 5, 64, true, at + 50);

    const MemoryQueueStats &q = ch.queueStats();
    EXPECT_EQ(q.writeDrains, 1u);
    EXPECT_EQ(q.drainedWrites, 8u);
    // Exactly one drain found a row hit deeper in the queue; the other
    // seven retire the oldest entry (bank 1's rows were all closed).
    EXPECT_EQ(q.frfcfsReorders, 1u);
    EXPECT_EQ(ch.writeQueueSize(), DetailedChannel::kWriteLowWatermark);
}

TEST(DetailedChannel, StarvationCapBoundsWriteBypasses)
{
    DetailedChannel ch(stackedCpu(), 8);

    ch.access(0, 1, 64, true, 0); // the write that would starve
    Cycle at = 100;
    for (int i = 0; i < 40; ++i) {
        at += 200;
        ch.access(1, 2, 64, false, at);
        // No queued write is ever left at or beyond the cap once a
        // read has been serviced.
        EXPECT_LT(ch.maxQueuedBypasses(),
                  static_cast<std::uint32_t>(
                      DetailedChannel::kStarvationCap));
    }
    // The 16th bypassing read forced the drain.
    EXPECT_EQ(ch.queueStats().starvationDrains, 1u);
    EXPECT_EQ(ch.writeQueueSize(), 0);
    EXPECT_EQ(ch.stats().writes.value(), 1u);
}

TEST(DetailedChannel, StateRoundTripResumesIdentically)
{
    const DramTimingCpu t = stackedCpu();
    DetailedChannel a(t, 8);

    // History: reads and queued writes (the queue must survive the
    // checkpoint -- it is timing state, not statistics).
    Rng rng(99);
    Cycle at = 0;
    for (int i = 0; i < 300; ++i) {
        at += rng.below(60);
        const bool is_write = rng.below(3) == 0;
        a.access(static_cast<int>(rng.below(8)), rng.below(32), 64,
                 is_write, at);
    }
    ASSERT_GT(a.writeQueueSize(), 0);

    StateWriter out;
    a.saveState(out);
    const std::vector<std::uint8_t> bytes = std::move(out).take();

    DetailedChannel b(t, 8);
    StateReader in(bytes);
    b.loadState(in);
    EXPECT_EQ(b.writeQueueSize(), a.writeQueueSize());

    // Identical futures from the restored state.
    for (int i = 0; i < 300; ++i) {
        at += rng.below(60);
        const bool is_write = rng.below(3) == 0;
        const int bank = static_cast<int>(rng.below(8));
        const std::uint64_t row = rng.below(32);
        const DramAccessTiming ra = a.access(bank, row, 64, is_write, at);
        const DramAccessTiming rb = b.access(bank, row, 64, is_write, at);
        ASSERT_EQ(ra.completion, rb.completion) << "access " << i;
        ASSERT_EQ(ra.rowHit, rb.rowHit) << "access " << i;
    }
}

// ------------------------- O(1) read path == the O(queue) controller

/**
 * The detailed channel as it was before its read path became O(1):
 * every read bumps every queued write's bypass count, and the
 * starvation check scans the whole queue. Same timing arithmetic,
 * same checkpoint image, kept here as the executable reference.
 */
class ScanningDetailedChannel
{
  public:
    ScanningDetailedChannel(const DramTimingCpu &timing, int num_banks)
        : timing_(timing), banks_(num_banks)
    {
        nextRefreshAt_ = timing_.refi;
    }

    DramAccessTiming
    access(int bank_idx, std::uint64_t row, std::uint32_t bytes,
           bool is_write, Cycle earliest)
    {
        if (is_write) {
            if (wqSize_ == DetailedChannel::kWriteQueueDepth) {
                ++qstats_.writeDrains;
                drainOne(earliest);
            }
            WriteEntry &entry = wq_[wqSize_++];
            entry.row = row;
            entry.bank = static_cast<std::uint32_t>(bank_idx);
            entry.bytes = bytes;
            entry.bypasses = 0;
            int bucket = 0;
            for (int size = wqSize_;
                 size > 0 &&
                 bucket < MemoryQueueStats::kOccupancyBuckets - 1;
                 size >>= 1)
                ++bucket;
            ++qstats_.occupancy[bucket];
            if (wqSize_ >= DetailedChannel::kWriteHighWatermark) {
                ++qstats_.writeDrains;
                while (wqSize_ > DetailedChannel::kWriteLowWatermark)
                    drainOne(earliest);
            }
            DramAccessTiming result;
            result.completion = earliest;
            return result;
        }
        for (int i = 0; i < wqSize_; ++i)
            ++wq_[i].bypasses;
        while (maxQueuedBypasses() >= kCap) {
            ++qstats_.starvationDrains;
            drainStarved(earliest);
        }
        return performCommand(bank_idx, row, bytes, false, earliest);
    }

    std::uint32_t
    maxQueuedBypasses() const
    {
        std::uint32_t max_bypasses = 0;
        for (int i = 0; i < wqSize_; ++i)
            max_bypasses = std::max(max_bypasses, wq_[i].bypasses);
        return max_bypasses;
    }

    /** Bypass counts never grow from the oldest queued write on. */
    bool
    bypassesNonIncreasing() const
    {
        for (int i = 1; i < wqSize_; ++i) {
            if (wq_[i].bypasses > wq_[i - 1].bypasses)
                return false;
        }
        return true;
    }

    int writeQueueSize() const { return wqSize_; }
    const DramChannelStats &stats() const { return stats_; }
    const MemoryQueueStats &queueStats() const { return qstats_; }

    void
    saveState(StateWriter &out) const
    {
        out.podVector(banks_);
        out.pod(busFreeAt_);
        out.pod(lastBurstWasWrite_);
        out.pod(lastActivate_);
        out.pod(nextRefreshAt_);
        out.pod(refreshBusyUntil_);
        out.pod(actWindow_);
        out.pod(actWindowIdx_);
        out.pod(actCount_);
        out.pod(wq_);
        out.pod(wqSize_);
    }

    void
    loadState(StateReader &in)
    {
        in.podVectorExact(banks_);
        in.pod(busFreeAt_);
        in.pod(lastBurstWasWrite_);
        in.pod(lastActivate_);
        in.pod(nextRefreshAt_);
        in.pod(refreshBusyUntil_);
        in.pod(actWindow_);
        in.pod(actWindowIdx_);
        in.pod(actCount_);
        in.pod(wq_);
        in.pod(wqSize_);
    }

  private:
    static constexpr std::uint64_t kNoRow = ~0ull;
    static constexpr std::uint32_t kCap = DetailedChannel::kStarvationCap;

    struct BankState
    {
        std::uint64_t openRow = kNoRow;
        Cycle busyUntil = 0;
        Cycle activatedAt = 0;
        Cycle prechargeOkAt = 0;
    };

    struct WriteEntry
    {
        std::uint64_t row = 0;
        std::uint32_t bank = 0;
        std::uint32_t bytes = 0;
        std::uint32_t bypasses = 0;
        std::uint32_t pad = 0;
    };

    Cycle
    activateAllowedAt(Cycle t) const
    {
        Cycle allowed = t;
        if (actCount_ >= 1)
            allowed = std::max(allowed, lastActivate_ + timing_.rrd);
        if (actCount_ >= 4)
            allowed =
                std::max(allowed, actWindow_[actWindowIdx_] + timing_.faw);
        return allowed;
    }

    void
    noteActivate(Cycle t)
    {
        lastActivate_ = t;
        actWindow_[actWindowIdx_] = t;
        actWindowIdx_ = (actWindowIdx_ + 1) % 4;
        ++actCount_;
        ++stats_.activations;
    }

    Cycle
    applyRefresh(Cycle t)
    {
        if (timing_.refi == 0 || nextRefreshAt_ > t)
            return t;
        const std::uint64_t elapsed =
            (t - nextRefreshAt_) / timing_.refi + 1;
        const Cycle last_window =
            nextRefreshAt_ + (elapsed - 1) * timing_.refi;
        refreshBusyUntil_ = last_window + timing_.rfc;
        nextRefreshAt_ = last_window + timing_.refi;
        stats_.refreshes += elapsed;
        for (BankState &bank : banks_) {
            bank.openRow = kNoRow;
            bank.busyUntil = std::max(bank.busyUntil, refreshBusyUntil_);
        }
        return std::max(t, refreshBusyUntil_);
    }

    DramAccessTiming
    performCommand(int bank_idx, std::uint64_t row, std::uint32_t bytes,
                   bool is_write, Cycle now)
    {
        BankState &bank = banks_[bank_idx];
        const Cycle start = applyRefresh(std::max(now, bank.busyUntil));
        DramAccessTiming result;
        Cycle col_ready;
        if (bank.openRow == row) {
            result.rowHit = true;
            ++stats_.rowHits;
            col_ready = start;
        } else if (bank.openRow == kNoRow) {
            ++stats_.rowEmpty;
            const Cycle act = activateAllowedAt(
                std::max(start, bank.activatedAt + timing_.rc));
            noteActivate(act);
            bank.activatedAt = act;
            col_ready = act + timing_.rcd;
            bank.openRow = row;
        } else {
            ++stats_.rowConflicts;
            const Cycle pre = std::max({start,
                                        bank.activatedAt + timing_.ras,
                                        bank.prechargeOkAt});
            const Cycle act = activateAllowedAt(
                std::max(pre + timing_.rp, bank.activatedAt + timing_.rc));
            noteActivate(act);
            bank.activatedAt = act;
            col_ready = act + timing_.rcd;
            bank.openRow = row;
        }
        Cycle bus_ready = busFreeAt_;
        if (!is_write && lastBurstWasWrite_)
            bus_ready += timing_.wtr;
        const Cycle data_start =
            std::max(col_ready + timing_.cas, bus_ready);
        const Cycle burst = timing_.dramToCpuCycles(
            (bytes + timing_.busBytesPerDramCycle - 1) /
            timing_.busBytesPerDramCycle);
        const Cycle data_end = data_start + burst;
        busFreeAt_ = data_end;
        lastBurstWasWrite_ = is_write;
        bank.busyUntil = col_ready + burst;
        if (is_write) {
            bank.prechargeOkAt = data_end + timing_.wr;
            ++stats_.writes;
            stats_.bytesWritten += bytes;
        } else {
            bank.prechargeOkAt = col_ready + timing_.rtp;
            ++stats_.reads;
            stats_.bytesRead += bytes;
        }
        result.completion = data_end;
        return result;
    }

    void
    removeQueued(int idx)
    {
        for (int i = idx; i + 1 < wqSize_; ++i)
            wq_[i] = wq_[i + 1];
        --wqSize_;
    }

    void
    drainOne(Cycle now)
    {
        int pick = 0;
        for (int i = 0; i < wqSize_; ++i) {
            if (banks_[wq_[i].bank].openRow == wq_[i].row) {
                pick = i;
                break;
            }
        }
        if (pick != 0)
            ++qstats_.frfcfsReorders;
        const WriteEntry entry = wq_[pick];
        removeQueued(pick);
        performCommand(static_cast<int>(entry.bank), entry.row,
                       entry.bytes, true, now);
        ++qstats_.drainedWrites;
    }

    void
    drainStarved(Cycle now)
    {
        for (int i = 0; i < wqSize_; ++i) {
            if (wq_[i].bypasses < kCap)
                continue;
            if (i != 0)
                ++qstats_.frfcfsReorders;
            const WriteEntry entry = wq_[i];
            removeQueued(i);
            performCommand(static_cast<int>(entry.bank), entry.row,
                           entry.bytes, true, now);
            ++qstats_.drainedWrites;
            return;
        }
    }

    DramTimingCpu timing_;
    std::vector<BankState> banks_;
    Cycle busFreeAt_ = 0;
    bool lastBurstWasWrite_ = false;
    Cycle lastActivate_ = 0;
    Cycle nextRefreshAt_ = 0;
    Cycle refreshBusyUntil_ = 0;
    Cycle actWindow_[4] = {0, 0, 0, 0};
    int actWindowIdx_ = 0;
    std::uint64_t actCount_ = 0;
    std::array<WriteEntry, DetailedChannel::kWriteQueueDepth> wq_{};
    int wqSize_ = 0;
    DramChannelStats stats_;
    MemoryQueueStats qstats_;
};

template <typename Channel>
std::vector<std::uint8_t>
imageOf(const Channel &ch)
{
    StateWriter out;
    ch.saveState(out);
    return std::move(out).take();
}

template <typename To>
void
restore(To &ch, const std::vector<std::uint8_t> &bytes)
{
    StateReader in(bytes);
    ch.loadState(in);
    ASSERT_TRUE(in.ok());
    in.expectEnd();
    ASSERT_TRUE(in.ok());
}

#define SAME_FIELD(T, name) same = same && a.name.value() == b.name.value();

bool
sameStats(const DramChannelStats &a, const DramChannelStats &b)
{
    bool same = true;
    UNISON_DRAM_TRAFFIC_FIELDS(SAME_FIELD, )
    return same;
}
#undef SAME_FIELD

bool
sameQueueStats(const MemoryQueueStats &a, const MemoryQueueStats &b)
{
    return a.writeDrains == b.writeDrains &&
           a.drainedWrites == b.drainedWrites &&
           a.frfcfsReorders == b.frfcfsReorders &&
           a.starvationDrains == b.starvationDrains &&
           std::equal(std::begin(a.occupancy), std::end(a.occupancy),
                      std::begin(b.occupancy));
}

/** One seeded request stream's shape. */
struct StreamShape
{
    std::uint64_t seed;
    int writeOneIn;      //!< a write every ~N requests
    std::uint64_t banks; //!< drawn from [0, banks)
    std::uint64_t rows;  //!< drawn from [0, rows)
    std::uint64_t gap;   //!< inter-arrival drawn from [0, gap)
    bool refresh;
};

class DetailedVsScanning : public ::testing::TestWithParam<StreamShape>
{
};

TEST_P(DetailedVsScanning, EveryStepMatchesTheReference)
{
    const StreamShape shape = GetParam();
    DramTimingParams params = stackedDramTiming();
    if (shape.refresh)
        params.tREFI = 3120;
    const DramTimingCpu t = DramTimingCpu::fromParams(params);
    constexpr int kBanks = 8;
    DetailedChannel fast(t, kBanks);
    ScanningDetailedChannel ref(t, kBanks);

    const std::uint32_t sizes[] = {32, 64, 64, 64, 128, 960, 4096};
    Rng rng(shape.seed);
    Cycle at = 0;
    int mid_queue_checks = 0;
    for (int i = 0; i < 20000; ++i) {
        const bool is_write =
            rng.below(static_cast<std::uint64_t>(shape.writeOneIn)) == 0;
        const int bank = static_cast<int>(rng.below(shape.banks));
        const std::uint64_t row = rng.below(shape.rows);
        const std::uint32_t bytes = sizes[rng.below(7)];
        at += rng.below(shape.gap);

        const DramAccessTiming a = fast.access(bank, row, bytes,
                                               is_write, at);
        const DramAccessTiming b = ref.access(bank, row, bytes,
                                              is_write, at);
        ASSERT_EQ(a.completion, b.completion) << "access " << i;
        ASSERT_EQ(a.rowHit, b.rowHit) << "access " << i;
        ASSERT_EQ(fast.writeQueueSize(), ref.writeQueueSize());
        ASSERT_EQ(fast.maxQueuedBypasses(), ref.maxQueuedBypasses());
        ASSERT_TRUE(ref.bypassesNonIncreasing()) << "access " << i;
        const std::vector<std::uint8_t> image = imageOf(fast);
        ASSERT_EQ(image, imageOf(ref)) << "access " << i;
        ASSERT_TRUE(sameStats(fast.stats(), ref.stats())) << "access " << i;
        ASSERT_TRUE(sameQueueStats(fast.queueStats(), ref.queueStats()))
            << "access " << i;

        // Mid-queue checkpoints, both ways: the reference's image
        // resumes in the new channel and the new channel's in the
        // reference, and each continues in step with the original.
        if (i % 997 == 0 && fast.writeQueueSize() > 0) {
            ++mid_queue_checks;
            DetailedChannel fast_resumed(t, kBanks);
            restore(fast_resumed, imageOf(ref));
            ScanningDetailedChannel ref_resumed(t, kBanks);
            restore(ref_resumed, image);
            Rng tail = rng;
            Cycle tail_at = at;
            DetailedChannel fast_copy = fast;
            for (int k = 0; k < 500; ++k) {
                const bool w = tail.below(static_cast<std::uint64_t>(
                                   shape.writeOneIn)) == 0;
                const int bk = static_cast<int>(tail.below(shape.banks));
                const std::uint64_t r = tail.below(shape.rows);
                const std::uint32_t by = sizes[tail.below(7)];
                tail_at += tail.below(shape.gap);
                const Cycle want =
                    fast_copy.access(bk, r, by, w, tail_at).completion;
                ASSERT_EQ(fast_resumed.access(bk, r, by, w, tail_at)
                              .completion,
                          want)
                    << "resumed at " << i << ", step " << k;
                ASSERT_EQ(ref_resumed.access(bk, r, by, w, tail_at)
                              .completion,
                          want)
                    << "resumed at " << i << ", step " << k;
            }
            ASSERT_EQ(imageOf(fast_resumed), imageOf(fast_copy));
            ASSERT_EQ(imageOf(ref_resumed), imageOf(fast_copy));
        }
    }
    EXPECT_GT(mid_queue_checks, 0);
    // The streams must reach the paths under test.
    EXPECT_GT(fast.queueStats().drainedWrites, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, DetailedVsScanning,
    ::testing::Values(
        // Read-heavy: starvation drains dominate.
        StreamShape{1, 12, 8, 64, 40, false},
        // Write-heavy: watermark drains dominate.
        StreamShape{2, 2, 8, 64, 40, false},
        // Few rows: FR-FCFS reorders find open rows deep in the queue.
        StreamShape{3, 3, 4, 3, 20, false},
        // Back-to-back arrivals under periodic refresh.
        StreamShape{4, 4, 8, 16, 4, true},
        // Balanced, one bank.
        StreamShape{5, 2, 1, 8, 60, true}));

} // namespace
} // namespace unison
