#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <span>

#include "baselines/alloy_cache.hh"
#include "core/unison_cache.hh"
#include "core/unison_wp.hh"
#include "trace/mix.hh"
#include "trace/workload.hh"

namespace perfbench {

using namespace unison;

namespace {

/** References (and off-chip calls) each traced spec records for the
 *  isolated replays; the window starts a quarter into the run so the
 *  replays see warm-ish behaviour rather than the first cold fills. */
constexpr std::size_t kRecordCap = std::size_t{1} << 20;

struct OffchipCall
{
    std::uint64_t row = 0;
    Cycle earliest = 0;
    std::uint32_t bytes = 0;
    bool write = false;
};

/** The off-chip pool as the design sees it: forwards every call to the
 *  System's backend, times it while `timing` is set, and records it
 *  while `recording` is set. */
class TimedBackend final : public MemoryBackend
{
  public:
    TimedBackend(MemoryBackend &inner, const DramTimingParams &params)
        : MemoryBackend(inner.organization(), params), inner_(inner)
    {
    }

    DramAccessTiming
    rowAccess(std::uint64_t row_idx, std::uint32_t bytes, bool is_write,
              Cycle earliest) override
    {
        ++calls;
        if (recording && recorded.size() < kRecordCap)
            recorded.push_back({row_idx, earliest, bytes, is_write});
        if (!timing)
            return inner_.rowAccess(row_idx, bytes, is_write, earliest);
        const auto t0 = Clock::now();
        const DramAccessTiming res =
            inner_.rowAccess(row_idx, bytes, is_write, earliest);
        timedNs += nsBetween(t0, Clock::now());
        ++timedCalls;
        return res;
    }

    DramPoolStats stats() const override { return inner_.stats(); }
    void resetStats() override { inner_.resetStats(); }
    MemoryQueueStats queueStats() const override
    {
        return inner_.queueStats();
    }
    void saveState(StateWriter &out) const override { inner_.saveState(out); }
    void loadState(StateReader &in) override { inner_.loadState(in); }

    std::uint64_t calls = 0;
    std::uint64_t timedCalls = 0;
    double timedNs = 0.0;
    bool timing = false;
    bool recording = false;
    std::vector<OffchipCall> recorded;

  private:
    MemoryBackend &inner_;
};

/** The registry-built design behind a timing wrapper. `Other` kind, so
 *  System drives it through virtual dispatch. Every kSampleEvery-th
 *  request is timed, together with the off-chip calls it makes, which
 *  keeps the clock reads (tens of ns each on virtual machines) from
 *  swamping what they measure. */
class TimedDesign final : public DramCache
{
  public:
    static constexpr std::uint64_t kSampleEvery = 8;

    TimedDesign(std::unique_ptr<TimedBackend> offchip,
                std::unique_ptr<DramCache> inner)
        : DramCache(offchip.get()), offchipWrap_(std::move(offchip)),
          inner_(std::move(inner))
    {
    }

    DramCacheResult
    access(const DramCacheRequest &req) override
    {
        if (requests++ % kSampleEvery != 0)
            return inner_->access(req);
        offchipWrap_->timing = true;
        const auto t0 = Clock::now();
        const DramCacheResult res = inner_->access(req);
        sampledNs += nsBetween(t0, Clock::now());
        offchipWrap_->timing = false;
        ++sampled;
        return res;
    }

    std::string name() const override { return inner_->name(); }
    std::uint64_t capacityBytes() const override
    {
        return inner_->capacityBytes();
    }
    MemoryBackend *stackedDram() override { return inner_->stackedDram(); }
    void resetStats() override { inner_->resetStats(); }

    const DramCache &inner() const { return *inner_; }
    TimedBackend &offchip() { return *offchipWrap_; }

    std::uint64_t requests = 0;
    std::uint64_t sampled = 0;
    double sampledNs = 0.0; //!< off-chip calls inside included

  private:
    std::unique_ptr<TimedBackend> offchipWrap_; // outlives inner_
    std::unique_ptr<DramCache> inner_;
};

/** Forwards to the workload's source and records a window of it. */
class RecordingSource final : public AccessSource
{
  public:
    RecordingSource(AccessSource &inner, std::uint64_t total,
                    TimedBackend &offchip)
        : inner_(inner), windowStart_(total / 4), offchip_(offchip)
    {
        recorded.reserve(std::min<std::uint64_t>(kRecordCap,
                                                 total - windowStart_));
    }

    AccessSourceKind kind() const override { return AccessSourceKind::Other; }
    int numCores() const override { return inner_.numCores(); }

    bool
    next(int core, MemoryAccess &out) override
    {
        if (!inner_.next(core, out))
            return false;
        const bool in_window =
            issued >= windowStart_ && recorded.size() < kRecordCap;
        if (in_window) {
            out.core = static_cast<std::uint16_t>(core);
            recorded.push_back(out);
        }
        offchip_.recording = in_window;
        ++issued;
        return true;
    }

    std::uint64_t issued = 0;
    std::vector<MemoryAccess> recorded;

  private:
    AccessSource &inner_;
    std::uint64_t windowStart_;
    TimedBackend &offchip_;
};

/** Plays recorded references back, each core its own recorded stream;
 *  ends (like a drained trace) when a core runs out. */
class ReplaySource final : public AccessSource
{
  public:
    ReplaySource(const std::vector<MemoryAccess> &recorded, int cores)
        : perCore_(static_cast<std::size_t>(cores))
    {
        for (const MemoryAccess &acc : recorded)
            perCore_[acc.core].push_back(acc);
    }

    AccessSourceKind kind() const override { return AccessSourceKind::Other; }
    int numCores() const override
    {
        return static_cast<int>(perCore_.size());
    }

    bool
    next(int core, MemoryAccess &out) override
    {
        std::deque<MemoryAccess> &q = perCore_[core];
        if (q.empty())
            return false;
        out = q.front();
        q.pop_front();
        ++consumed;
        return true;
    }

    std::uint64_t consumed = 0;

  private:
    std::vector<std::deque<MemoryAccess>> perCore_;
};

/** A design that always hits after a fixed delay: the scheduler run's
 *  stand-in, so that run's time is the engine's own. */
class NullDesign final : public DramCache
{
  public:
    NullDesign() : DramCache(nullptr) {}

    DramCacheResult
    access(const DramCacheRequest &req) override
    {
        ++requests;
        return {req.cycle + 50, true};
    }
    std::string name() const override { return "null"; }
    std::uint64_t capacityBytes() const override { return 0; }

    std::uint64_t requests = 0;
};

/** The statistics System reads from the design itself. With the design
 *  wrapped they must come from the inner instance; this mirrors
 *  System::fillPredictorStats for the designs the workloads use. */
void
fillDesignOwnedStats(const DramCache &design, SimResult &r)
{
    r.cache = design.stats();
    r.wpAccuracyPercent = r.mpAccuracyPercent = r.mpOverfetchPercent = 0.0;
    const MissPredictor *mp = nullptr;
    switch (design.kind()) {
      case DramCacheKind::Unison: {
        const auto &uc = static_cast<const UnisonCache &>(design);
        r.wpAccuracyPercent = uc.wayPredictorStats().accuracyPercent();
        mp = uc.missPredictor();
        break;
      }
      case DramCacheKind::UnisonWp: {
        const auto &wc = static_cast<const UnisonWpCache &>(design);
        r.wpAccuracyPercent = wc.wayPredictorStats().accuracyPercent();
        mp = wc.missPredictor();
        break;
      }
      case DramCacheKind::Alloy:
        mp = static_cast<const AlloyCache &>(design).missPredictor();
        break;
      default:
        break;
    }
    if (mp != nullptr) {
        r.mpAccuracyPercent = mp->stats().accuracyPercent();
        r.mpOverfetchPercent = mp->stats().overfetchPercent();
    }
}

/** Mean cost of one Clock::now() call. */
double
clockCostNs()
{
    constexpr int kCalls = 200'000;
    const auto t0 = Clock::now();
    auto last = t0;
    for (int i = 0; i < kCalls; ++i)
        last = Clock::now();
    return nsBetween(t0, last) / kCalls;
}

/** Keeps the replay loops' results observable to the optimiser. */
volatile std::uint64_t g_sink = 0;

template <typename Source>
double
timeSourceLoop(Source &source, std::span<const MemoryAccess> recorded)
{
    MemoryAccess acc;
    std::uint64_t sum = 0;
    const auto t0 = Clock::now();
    for (const MemoryAccess &r : recorded) {
        source.next(r.core, acc);
        sum += acc.addr;
    }
    const double ns = nsBetween(t0, Clock::now());
    g_sink = g_sink + sum;
    return ns;
}

/** Builds the spec's source exactly as runExperiment does, hands it to
 *  `fn` (by concrete type), and returns the per-core labels. */
template <typename Fn>
std::vector<std::string>
withSource(const ExperimentSpec &spec, Fn &&fn)
{
    std::vector<std::string> labels;
    if (!spec.mix.empty()) {
        MixedWorkload source(spec.mix, spec.system.numCores, spec.seed);
        fn(source);
        for (int c = 0; c < spec.system.numCores; ++c)
            labels.push_back(source.coreLabel(c));
        return labels;
    }
    WorkloadParams params = spec.customWorkload
                                ? *spec.customWorkload
                                : workloadParams(spec.workload);
    params.numCores = spec.system.numCores;
    SyntheticWorkload source(params, spec.seed);
    fn(source);
    labels.assign(static_cast<std::size_t>(spec.system.numCores),
                  params.name);
    return labels;
}

void
traceOne(const ExperimentSpec &spec, LayerTotals &t, SimResult &result)
{
    const std::uint64_t n = accessesOf(spec);

    // --- Full traced run: design and off-chip wrappers in place.
    const CacheFactory inner_factory = makeCacheFactory(spec);
    const auto wall0 = Clock::now();
    System system(spec.system, [&](MemoryBackend *offchip) {
        auto timed = std::make_unique<TimedBackend>(
            *offchip, spec.system.offchipTiming);
        auto inner = inner_factory(timed.get());
        return std::make_unique<TimedDesign>(std::move(timed),
                                             std::move(inner));
    });
    auto &design = static_cast<TimedDesign &>(system.cache());

    std::vector<MemoryAccess> recorded;
    std::uint64_t issued = 0;
    double run_ns = 0.0;
    const std::vector<std::string> labels =
        withSource(spec, [&](AccessSource &source) {
            RecordingSource rec(source, n, design.offchip());
            const auto t0 = Clock::now();
            result = system.run(rec, n);
            run_ns = nsBetween(t0, Clock::now());
            issued = rec.issued;
            recorded = std::move(rec.recorded);
        });
    t.tracedWallNs += nsBetween(wall0, Clock::now());
    fillDesignOwnedStats(design.inner(), result);
    for (std::size_t c = 0; c < result.perCore.size(); ++c)
        result.perCore[c].sourceName = labels[c];

    t.accesses += issued;
    t.runNs += run_ns;
    t.requests += design.requests;
    t.sampledRequests += design.sampled;
    t.sampledNs += design.sampledNs;
    t.offchipCalls += design.offchip().calls;
    t.timedCalls += design.offchip().timedCalls;
    t.timedCallNs += design.offchip().timedNs;
    t.dcAccesses += result.cache.accesses();
    t.dcHits += result.cache.hits.value();
    t.offchipBlocks += result.cache.offchipFetchedBlocks() +
                       result.cache.offchipWritebackBlocks.value();
    t.fpFetched += result.cache.fpFetched.value();
    t.fpFetchedUntouched += result.cache.fpFetchedUntouched.value();
    if (result.wpAccuracyPercent > 0.0) {
        t.wpAccuracySum += result.wpAccuracyPercent / 100.0;
        ++t.wpSpecs;
    }
    t.rowHits += result.offchip.rowHits;
    t.rowTotal += result.offchip.rowHits + result.offchip.rowConflicts +
                  result.offchip.rowEmpty;
    t.writeDrains += result.offchipQueue.writeDrains;

    // --- trace: a fresh source, pulled in the recorded core order.
    withSource(spec, [&](auto &source) {
        t.traceNs += timeSourceLoop(source, recorded);
    });
    t.traceCalls += recorded.size();

    // --- cache: the recorded references through a fresh hierarchy.
    double cache_ns = 0.0;
    {
        CacheHierarchy hier(spec.system.numCores, spec.system.hierarchy);
        std::uint64_t l1 = 0, l2 = 0, beyond = 0, wbs = 0;
        const auto t0 = Clock::now();
        for (const MemoryAccess &acc : recorded) {
            const HierarchyOutcome out =
                hier.access(acc.core, acc.addr, acc.isWrite);
            l1 += out.level == HierarchyOutcome::Level::L1;
            l2 += out.level == HierarchyOutcome::Level::L2;
            beyond += out.level == HierarchyOutcome::Level::Beyond;
            wbs += static_cast<std::uint64_t>(out.numWritebacks);
        }
        cache_ns = nsBetween(t0, Clock::now());
        g_sink = g_sink + wbs;
        t.cacheNs += cache_ns;
        t.cacheCalls += recorded.size();
        t.l1Hits += l1;
        t.l2Hits += l2;
        t.beyond += beyond;
    }

    // --- dram: the recorded off-chip calls through fresh backends.
    const std::vector<OffchipCall> &calls = design.offchip().recorded;
    for (MemoryBackendKind kind :
         {MemoryBackendKind::Fast, MemoryBackendKind::Detailed}) {
        DramOrganization org = spec.system.offchipOrg;
        org.backend = kind;
        std::unique_ptr<MemoryBackend> be =
            makeMemoryBackend(org, spec.system.offchipTiming);
        Cycle sum = 0;
        const auto t0 = Clock::now();
        for (const OffchipCall &c : calls)
            sum += be->rowAccess(c.row, c.bytes, c.write, c.earliest)
                       .completion;
        (kind == MemoryBackendKind::Fast ? t.fastNs : t.detailedNs) +=
            nsBetween(t0, Clock::now());
        g_sink = g_sink + sum;
    }
    t.replayCalls += calls.size();

    // --- sim engine: the scheduler loop over the recorded streams with
    // a stand-in design, minus the stand-ins' own isolated cost and the
    // hierarchy's isolated cost.
    if (!recorded.empty()) {
        SystemConfig cfg = spec.system;
        cfg.warmupAccesses = 0;
        cfg.perCoreAccessBudget = 0;
        cfg.engineThreads = 1;
        NullDesign *null_design = nullptr;
        System stripped(cfg, [&](MemoryBackend *) {
            auto d = std::make_unique<NullDesign>();
            null_design = d.get();
            return d;
        });
        ReplaySource replay(recorded, spec.system.numCores);
        const auto t0 = Clock::now();
        stripped.run(replay, recorded.size());
        const double stripped_ns = nsBetween(t0, Clock::now());
        const std::uint64_t consumed = replay.consumed;

        ReplaySource replay2(recorded, spec.system.numCores);
        const double replay_ns =
            timeSourceLoop(static_cast<AccessSource &>(replay2),
                           std::span(recorded).first(consumed));

        NullDesign null2;
        DramCache &null_ref = null2;
        DramCacheRequest req;
        const auto d0 = Clock::now();
        for (std::uint64_t i = 0; i < null_design->requests; ++i) {
            req.cycle = i;
            g_sink = g_sink + null_ref.access(req).doneAt;
        }
        const double null_ns = nsBetween(d0, Clock::now());

        const double cache_share =
            cache_ns * static_cast<double>(consumed) /
            static_cast<double>(recorded.size());
        t.schedNs += stripped_ns - replay_ns - null_ns - cache_share;
        t.schedCalls += consumed;
    }
}

} // namespace

void
traceSpecs(const std::vector<ExperimentSpec> &specs, LayerTotals &totals,
           std::vector<SimResult> &results)
{
    totals.clockReadNs = clockCostNs();
    for (const ExperimentSpec &spec : specs) {
        SimResult r;
        traceOne(spec, totals, r);
        results.push_back(std::move(r));
    }
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
addLayerMetrics(const LayerTotals &t, Report &report)
{
    const double n = static_cast<double>(t.accesses);
    const double c = t.clockReadNs;
    const double calls = static_cast<double>(t.offchipCalls);
    const double requests = static_cast<double>(t.requests);
    const double sampled = static_cast<double>(t.sampledRequests);
    const double timed_calls = static_cast<double>(t.timedCalls);

    // From the sampled requests, less the clock reads inside each timed
    // interval (one of its own, plus two per nested off-chip call).
    const double per_call = ratio(t.timedCallNs - timed_calls * c, timed_calls);
    const double per_request_incl =
        ratio(t.sampledNs - sampled * c - timed_calls * 2.0 * c, sampled);
    const double per_request =
        per_request_incl - per_call * ratio(timed_calls, sampled);
    const double offchip_ns = per_call * calls;
    const double design_self_ns = per_request * requests;
    const double clock_ns = 2.0 * c * (sampled + timed_calls);

    const double total_pa = ratio(t.runNs, n);
    const double trace_pa = ratio(t.traceNs, t.traceCalls);
    const double cache_pa = ratio(t.cacheNs, t.cacheCalls);
    const double design_pa = ratio(design_self_ns, n);
    const double offchip_pa = ratio(offchip_ns, n);
    const double sched_pa = ratio(t.schedNs, t.schedCalls);
    const double clock_pa = ratio(clock_ns, n);
    const double unattributed_pa = total_pa - trace_pa - cache_pa -
                                   design_pa - offchip_pa - sched_pa -
                                   clock_pa;
    const double unattributed_pct = 100.0 * ratio(unattributed_pa, total_pa);

    std::fprintf(stderr,
                 "perfbench: one clock read costs %.1f ns\n"
                 "perfbench: traced run, ns per access (%llu accesses)\n"
                 "  trace (isolated source)        %8.2f\n"
                 "  cache (isolated L1/L2 replay)  %8.2f\n"
                 "  design self time (in run)      %8.2f\n"
                 "  off-chip backend (in run)      %8.2f\n"
                 "  sim engine (stand-in run)      %8.2f\n"
                 "  wrappers' clock reads          %8.2f\n"
                 "  unattributed                   %8.2f  (%.1f%%)\n"
                 "  traced total                   %8.2f\n",
                 c, static_cast<unsigned long long>(t.accesses), trace_pa,
                 cache_pa, design_pa, offchip_pa, sched_pa, clock_pa,
                 unattributed_pa, unattributed_pct, total_pa);
    if (unattributed_pct < -10.0)
        std::fprintf(stderr,
                     "perfbench: the isolated layer costs add up to %.1f%% "
                     "more than the traced run: inside the run the "
                     "out-of-order core overlaps one layer's memory stalls "
                     "with the next layer's work, which separate loops "
                     "cannot do\n",
                     -unattributed_pct);
    else if (unattributed_pct > 10.0)
        std::fprintf(stderr,
                     "perfbench: %.1f%% of the traced run lies outside the "
                     "measured layers: the wrappers' virtual dispatch and "
                     "recording, and host-cache interference between "
                     "layers that isolated loops do not see\n",
                     unattributed_pct);

    const double cache_n = static_cast<double>(t.cacheCalls);
    report.add("trace.ns_per_access", trace_pa, "ns");
    report.add("cache.ns_per_access", cache_pa, "ns");
    report.add("cache.l1_hit_ratio", ratio(t.l1Hits, cache_n), "fraction");
    report.add("cache.l2_hit_ratio",
               ratio(t.l2Hits, cache_n - static_cast<double>(t.l1Hits)),
               "fraction");
    report.add("cache.beyond_per_access", ratio(t.beyond, cache_n),
               "fraction");
    report.add("design.ns_per_request", per_request, "ns");
    report.add("design.hit_ratio", ratio(t.dcHits, t.dcAccesses),
               "fraction");
    report.add("design.wp_accuracy", ratio(t.wpAccuracySum, t.wpSpecs),
               "fraction");
    report.add("design.fp_overfetch",
               ratio(t.fpFetchedUntouched, t.fpFetched), "fraction");
    report.add("design.offchip_blocks_per_request",
               ratio(t.offchipBlocks, t.dcAccesses), "blocks");
    report.add("dram.offchip_ns_per_call", per_call, "ns");
    report.add("dram.fast_ns_per_call", ratio(t.fastNs, t.replayCalls),
               "ns");
    report.add("dram.detailed_ns_per_call",
               ratio(t.detailedNs, t.replayCalls), "ns");
    report.add("dram.calls_per_access", ratio(calls, n), "calls");
    report.add("dram.row_hit_ratio", ratio(t.rowHits, t.rowTotal),
               "fraction");
    report.add("dram.write_drains", static_cast<double>(t.writeDrains),
               "count");
    report.add("sim.sched_ns_per_access", sched_pa, "ns");
    report.add("sim.unattributed_pct", unattributed_pct, "%");
    report.add("sim.trace_overhead_pct",
               100.0 * (ratio(t.tracedWallNs, t.untracedWallNs) - 1.0), "%");
    std::fprintf(stderr,
                 "perfbench: dram replay of %llu off-chip calls: fast "
                 "%.2f ns/call, detailed %.2f ns/call\n",
                 static_cast<unsigned long long>(t.replayCalls),
                 ratio(t.fastNs, t.replayCalls),
                 ratio(t.detailedNs, t.replayCalls));
}

} // namespace perfbench
