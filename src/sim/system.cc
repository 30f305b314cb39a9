#include "sim/system.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/state_io.hh"
#include "baselines/alloy_cache.hh"
#include "baselines/footprint_cache.hh"
#include "baselines/ideal_cache.hh"
#include "baselines/lohhill_cache.hh"
#include "baselines/naive_block_fp.hh"
#include "baselines/naive_tagged_page.hh"
#include "baselines/no_cache.hh"
#include "core/alloy_fp.hh"
#include "core/unison_cache.hh"
#include "core/unison_wp.hh"
#include "sim/core_scheduler.hh"
#include "trace/mix.hh"
#include "trace/scenarios.hh"
#include "trace/tracefile.hh"
#include "trace/workload.hh"

namespace unison {

namespace {

/** The off-chip pool obeys the system-wide backend selection. */
DramOrganization
offchipOrgWithBackend(const SystemConfig &config)
{
    DramOrganization org = config.offchipOrg;
    org.backend = config.memoryBackend;
    return org;
}

} // namespace

System::System(const SystemConfig &config, const CacheFactory &factory)
    : config_(config),
      offchip_(makeMemoryBackend(offchipOrgWithBackend(config),
                                 config.offchipTiming)),
      hierarchy_(std::make_unique<CacheHierarchy>(config.numCores,
                                                  config.hierarchy))
{
    UNISON_ASSERT(config_.numCores >= 1, "system needs cores");
    UNISON_ASSERT(config_.maxOutstandingMisses >= 1,
                  "need at least one outstanding miss");
    UNISON_ASSERT(config_.warmFraction >= 0.0 &&
                      config_.warmFraction <= 1.0,
                  "warmFraction outside [0, 1]");
    cache_ = factory(offchip_.get());
    UNISON_ASSERT(cache_ != nullptr, "cache factory returned null");
}

void
System::resetAllStats()
{
    hierarchy_->resetStats();
    cache_->resetStats();
    offchip_->resetStats();
}

SimResult
System::run(AccessSource &source, std::uint64_t total_accesses)
{
    // First dispatch stage: specialize the hot loop on the concrete
    // source type, turning the per-access virtual next() into a
    // direct, inlinable call -- the dispatch happens once per run
    // instead of once per access. The kind() tag replaces the earlier
    // dynamic_cast chain: a new source type cannot compile without
    // declaring a kind, and a new kind value makes this switch warn
    // (-Wswitch) until it is routed explicitly.
    switch (source.kind()) {
      case AccessSourceKind::Synthetic:
        return dispatchCache(static_cast<SyntheticWorkload &>(source),
                             total_accesses);
      case AccessSourceKind::Mixed:
        return dispatchCache(static_cast<MixedWorkload &>(source),
                             total_accesses);
      case AccessSourceKind::TraceFile:
        return dispatchCache(static_cast<TraceReader &>(source),
                             total_accesses);
      case AccessSourceKind::Scenario:
      case AccessSourceKind::Other:
        // Explicitly virtual: single-core scenarios are driven through
        // MixedWorkload in practice, and Other is the opt-in slow path.
        return dispatchCache(source, total_accesses);
    }
    panic("unhandled AccessSourceKind");
}

SimResult
System::run(AccessSource &source, std::uint64_t total_accesses,
            const WarmCheckpoint *resume_from, WarmCheckpoint *capture_to)
{
    if ((resume_from != nullptr || capture_to != nullptr) &&
        !checkpointSupported(source))
        fatal("design '", cache_->name(),
              "' or the access source does not support warm-state "
              "checkpoints");
    resumeFrom_ = resume_from;
    captureTo_ = capture_to;
    SimResult result = run(source, total_accesses);
    resumeFrom_ = nullptr;
    captureTo_ = nullptr;
    return result;
}

template <typename Source>
SimResult
System::dispatchCache(Source &source, std::uint64_t total_accesses)
{
    // Second dispatch stage: monomorphize on the concrete cache type.
    // Every design makeCacheFactory can build is covered here, and all
    // the concrete classes are final, so cache.access(req) in the loop
    // body compiles to a direct (inlinable) call -- zero virtual calls
    // per simulated access for built-in designs.
    DramCache &cache = *cache_;
    switch (cache.kind()) {
      case DramCacheKind::Unison:
        return runLoop(source, static_cast<UnisonCache &>(cache),
                       total_accesses);
      case DramCacheKind::Alloy:
        return runLoop(source, static_cast<AlloyCache &>(cache),
                       total_accesses);
      case DramCacheKind::Footprint:
        return runLoop(source, static_cast<FootprintCache &>(cache),
                       total_accesses);
      case DramCacheKind::LohHill:
        return runLoop(source, static_cast<LohHillCache &>(cache),
                       total_accesses);
      case DramCacheKind::NaiveBlockFp:
        return runLoop(source, static_cast<NaiveBlockFpCache &>(cache),
                       total_accesses);
      case DramCacheKind::NaiveTaggedPage:
        return runLoop(source,
                       static_cast<NaiveTaggedPageCache &>(cache),
                       total_accesses);
      case DramCacheKind::Ideal:
        return runLoop(source, static_cast<IdealCache &>(cache),
                       total_accesses);
      case DramCacheKind::NoCache:
        return runLoop(source, static_cast<NoCache &>(cache),
                       total_accesses);
      case DramCacheKind::AlloyFp:
        return runLoop(source, static_cast<AlloyFpCache &>(cache),
                       total_accesses);
      case DramCacheKind::UnisonWp:
        return runLoop(source, static_cast<UnisonWpCache &>(cache),
                       total_accesses);
      case DramCacheKind::Other:
        return runLoop(source, cache, total_accesses);
    }
    panic("unhandled DramCacheKind");
}

template <typename Source, typename Cache>
SimResult
System::runLoop(Source &source, Cache &cache,
                std::uint64_t total_accesses)
{
    UNISON_ASSERT(total_accesses > 0, "empty simulation");
    UNISON_ASSERT(source.numCores() <= config_.numCores,
                  "trace has more cores than the system");
    UNISON_ASSERT(source.numCores() <= kMaxCores,
                  "scheduler supports at most ", kMaxCores, " cores");

    std::vector<double> core_time(config_.numCores, 0.0);
    // The scheduler's view of the clocks: mirrors core_time, except a
    // core that exhausted its access budget parks at +inf so the
    // scheduler below never selects it again.
    std::vector<double> sched_time(config_.numCores, 0.0);

    // Per-core ring of in-flight DRAM-level load completions: issuing
    // beyond maxOutstandingMisses stalls until the oldest resolves.
    // One flat allocation (core-major) instead of a vector-of-vectors.
    const int window = config_.maxOutstandingMisses;
    std::vector<double> inflight(
        static_cast<std::size_t>(config_.numCores) * window, 0.0);
    std::vector<int> inflight_head(config_.numCores, 0);

    // Warm-up window: [0, warm_count) only warms state; every
    // statistic resets at the boundary so measurement covers exactly
    // [warm_count, end). An explicit warmupAccesses overrides the
    // fractional default.
    const std::uint64_t warm_count =
        config_.warmupAccesses != 0
            ? config_.warmupAccesses
            : static_cast<std::uint64_t>(
                  static_cast<double>(total_accesses) *
                  config_.warmFraction);
    bool measuring = warm_count == 0;

    PerCoreStats per_core(config_.numCores);
    std::vector<double> warm_base(config_.numCores, 0.0);

    // Demand DRAM-cache latency bookkeeping (reads reaching it).
    double dc_latency_sum = 0.0;
    std::uint64_t dc_latency_samples = 0;
    double miss_latency_sum = 0.0;
    std::uint64_t miss_latency_samples = 0;

    const int src_cores = source.numCores();

    // Per-core reference budgets (0 = unlimited): the run drains when
    // every core has issued its share, which pins each program of a
    // mix to the same amount of work regardless of relative speed.
    const bool budgeted = config_.perCoreAccessBudget != 0;
    std::vector<std::uint64_t> budget_left(
        config_.numCores,
        budgeted ? config_.perCoreAccessBudget
                 : std::numeric_limits<std::uint64_t>::max());
    int active_cores = src_cores;

    // Unbudgeted runs (the common case) schedule straight off
    // core_time and skip the budget bookkeeping entirely, keeping the
    // hot loop identical to the budget-free engine.
    const double *const clocks =
        budgeted ? sched_time.data() : core_time.data();

    const auto reset_measurement = [&]() {
        resetAllStats();
        warm_base = core_time;
        per_core.reset();
        dc_latency_sum = 0.0;
        dc_latency_samples = 0;
        miss_latency_sum = 0.0;
        miss_latency_samples = 0;
    };

    // Min-time scheduling (sim/core_scheduler.hh): the laggard core
    // goes next, the lowest id on ties.
    CoreScheduler sched(clocks, src_cores);

    // Warm-checkpoint resume: deserialize the exact state a cold run
    // has when i reaches warm_count (the snapshot below is taken at
    // that point, before the boundary reset), then enter the loop at
    // i = warm_count with measuring still false -- the boundary branch
    // fires the same reset_measurement() a cold run would, so the two
    // paths are byte-identical from the boundary on.
    std::uint64_t first_access = 0;
    if (resumeFrom_ != nullptr) {
        const WarmCheckpoint &ck = *resumeFrom_;
        if (!ck.valid() || ck.warmAccesses != warm_count ||
            warm_count == 0 || total_accesses <= warm_count)
            throwCorrupt("checkpoint boundary ", ck.warmAccesses,
                         " does not match the run's warm-up window ",
                         warm_count, " of ", total_accesses,
                         " accesses");
        StateReader in(ck.bytes);
        source.loadState(in);
        hierarchy_->loadState(in);
        cache_->loadState(in);
        offchip_->loadState(in);
        in.podVectorExact(core_time);
        in.podVectorExact(sched_time);
        in.podVectorExact(inflight);
        in.podVectorExact(inflight_head);
        in.podVectorExact(budget_left);
        in.pod(active_cores);
        in.expectEnd();
        // A snapshot that does not deserialize cleanly must never be
        // half-trusted: surface it as a classified error and let the
        // experiment layer rebuild the System and run the warm-up
        // cold (runExperimentCk catches this).
        in.throwIfFailed();
        // podVectorExact filled the vectors in place, so the `clocks`
        // alias above is still valid; only the scheduler's keys, which
        // are derived from the clocks, need rebuilding.
        sched.rebuild();
        first_access = warm_count;
    }

    CacheHierarchy &hier = *hierarchy_;
    MemoryAccess acc;
    for (std::uint64_t i = first_access;
         i < total_accesses && active_cores > 0; ++i) {
        if (i == warm_count && !measuring) {
            // End of warm-up, before access warm_count is processed:
            // nothing from [0, warm_count) leaks into measurement.
            if (captureTo_ != nullptr) {
                // Snapshot the pre-reset state: what a resumed run
                // restores is exactly what the reset below acts on.
                StateWriter out;
                source.saveState(out);
                hierarchy_->saveState(out);
                cache_->saveState(out);
                offchip_->saveState(out);
                out.podVector(core_time);
                out.podVector(sched_time);
                out.podVector(inflight);
                out.podVector(inflight_head);
                out.podVector(budget_left);
                out.pod(active_cores);
                captureTo_->warmAccesses = warm_count;
                captureTo_->bytes = std::move(out).take();
            }
            reset_measurement();
            measuring = true;
        }

        const int core = sched.pick();

        double &now = core_time[core];
        if (!source.next(core, acc)) {
            // Finite sources (trace files) may drain one core's stream
            // slightly before the requested total: stop measuring.
            if (i == 0)
                fatal("access source produced no references");
            break;
        }
        now += acc.instrsBefore * config_.cpiBase;

        const HierarchyOutcome outcome =
            hier.access(core, acc.addr, acc.isWrite);

        double load_latency = outcome.sramLatency;

        if (outcome.level == HierarchyOutcome::Level::Beyond) {
            DramCacheRequest req;
            req.addr = acc.addr;
            req.pc = acc.pc;
            req.core = core;
            req.isWrite = acc.isWrite;
            req.cycle = static_cast<Cycle>(now) + outcome.sramLatency;

            const DramCacheResult res = cache.access(req);
            const double dram_latency =
                static_cast<double>(res.doneAt - req.cycle);
            if (!acc.isWrite) {
                load_latency += dram_latency;
                dc_latency_sum += dram_latency;
                ++dc_latency_samples;
                if (!res.hit) {
                    miss_latency_sum += dram_latency;
                    ++miss_latency_samples;
                }
                // Overlap the miss with up to `window` others: stall
                // only when the MSHR window is exhausted.
                double *const ring =
                    &inflight[static_cast<std::size_t>(core) * window];
                int &head = inflight_head[core];
                const double completion =
                    static_cast<double>(res.doneAt);
                now = std::max(now + outcome.sramLatency, ring[head]);
                ring[head] = completion;
                head = head + 1 == window ? 0 : head + 1;
            }
        } else if (!acc.isWrite) {
            now += outcome.sramLatency;
        }

        // Dirty SRAM victims flow down to the DRAM-cache level too.
        for (int w = 0; w < outcome.numWritebacks; ++w) {
            DramCacheRequest wb;
            wb.addr = outcome.writebackAddr[w];
            wb.pc = acc.pc;
            wb.core = core;
            wb.isWrite = true;
            wb.cycle = static_cast<Cycle>(now) + outcome.sramLatency;
            cache.access(wb);
        }

        if (acc.isWrite) {
            // Stores retire through the store buffer: charge only the
            // L1 issue slot.
            now += 1.0;
        }

        CoreWindowStats &cw = per_core[core];
        cw.instructions += acc.instrsBefore + 1;
        ++cw.references;
        if (!acc.isWrite) {
            ++cw.loads;
            cw.loadLatencySum += load_latency;
        }

        if (budgeted) {
            if (--budget_left[core] == 0) {
                sched_time[core] =
                    std::numeric_limits<double>::infinity();
                --active_cores;
            } else {
                sched_time[core] = now;
            }
        }

        // Only this core's clock moved.
        sched.update(core);
    }

    if (!measuring) {
        // The stream (or the budgets) drained inside the warm-up
        // window: the measured window is empty, not the whole run.
        reset_measurement();
    }

    SimResult result;
    result.designName = cache_->name();

    double max_elapsed = 0.0;
    for (int c = 0; c < config_.numCores; ++c)
        max_elapsed = std::max(max_elapsed, core_time[c] - warm_base[c]);
    result.cycles = static_cast<Cycle>(max_elapsed);
    result.instructions = per_core.totalInstructions();
    result.references = per_core.totalReferences();
    result.uipc = max_elapsed > 0.0
                      ? static_cast<double>(result.instructions) /
                            (max_elapsed * config_.numCores)
                      : 0.0;

    result.perCore.resize(static_cast<std::size_t>(src_cores));
    for (int c = 0; c < src_cores; ++c) {
        const CoreWindowStats &cw = per_core[c];
        CoreSimResult &out = result.perCore[static_cast<std::size_t>(c)];
        const double elapsed = core_time[c] - warm_base[c];
        out.instructions = cw.instructions;
        out.references = cw.references;
        out.cycles = static_cast<Cycle>(elapsed);
        out.uipc = elapsed > 0.0
                       ? static_cast<double>(cw.instructions) / elapsed
                       : 0.0;
        out.amatCycles = cw.amatCycles();
    }

    // SRAM hierarchy miss rates (L1 aggregated over cores).
    std::uint64_t l1_acc = 0, l1_miss = 0;
    for (int c = 0; c < config_.numCores; ++c) {
        l1_acc += hier.l1(c).stats().accesses.value();
        l1_miss += hier.l1(c).stats().misses.value();
    }
    result.l1MissPercent = percent(l1_miss, l1_acc);
    result.l2MissPercent =
        percent(hier.l2().stats().misses.value(),
                hier.l2().stats().accesses.value());

    result.cache = cache_->stats();
    result.offchip = offchip_->stats();
    result.offchipQueue = offchip_->queueStats();
    if (cache_->stackedDram() != nullptr) {
        result.stacked = cache_->stackedDram()->stats();
        result.stackedQueue = cache_->stackedDram()->queueStats();
    }

    result.avgDramCacheLatency =
        dc_latency_samples ? dc_latency_sum / dc_latency_samples : 0.0;
    result.avgMemLatency =
        miss_latency_samples ? miss_latency_sum / miss_latency_samples
                             : 0.0;

    fillPredictorStats(result);
    return result;
}

void
System::fillPredictorStats(SimResult &result) const
{
    // Design-specific accuracy fields, recovered through the kind tag
    // (dynamic_cast only for out-of-tree subclasses).
    const UnisonCache *uc = nullptr;
    const UnisonWpCache *wc = nullptr;
    const AlloyCache *ac = nullptr;
    switch (cache_->kind()) {
      case DramCacheKind::Unison:
        uc = static_cast<const UnisonCache *>(cache_.get());
        break;
      case DramCacheKind::UnisonWp:
        wc = static_cast<const UnisonWpCache *>(cache_.get());
        break;
      case DramCacheKind::Alloy:
        ac = static_cast<const AlloyCache *>(cache_.get());
        break;
      case DramCacheKind::Other:
        uc = dynamic_cast<const UnisonCache *>(cache_.get());
        ac = dynamic_cast<const AlloyCache *>(cache_.get());
        break;
      default:
        break;
    }
    if (uc != nullptr) {
        result.wpAccuracyPercent =
            uc->wayPredictorStats().accuracyPercent();
        if (uc->missPredictor() != nullptr) {
            result.mpAccuracyPercent =
                uc->missPredictor()->stats().accuracyPercent();
            result.mpOverfetchPercent =
                uc->missPredictor()->stats().overfetchPercent();
        }
    } else if (wc != nullptr) {
        result.wpAccuracyPercent =
            wc->wayPredictorStats().accuracyPercent();
        if (wc->missPredictor() != nullptr) {
            result.mpAccuracyPercent =
                wc->missPredictor()->stats().accuracyPercent();
            result.mpOverfetchPercent =
                wc->missPredictor()->stats().overfetchPercent();
        }
    } else if (ac != nullptr) {
        if (ac->missPredictor() != nullptr) {
            result.mpAccuracyPercent =
                ac->missPredictor()->stats().accuracyPercent();
            result.mpOverfetchPercent =
                ac->missPredictor()->stats().overfetchPercent();
        }
    }
}

} // namespace unison
