#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/json.hh"

namespace perfbench {

void
Report::fail(const std::string &why)
{
    ++failed;
    std::cerr << "perfbench: FAILED: " << why << "\n";
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not a finite number");
        value = 0.0;
    }
    metrics.push_back({name, value, unit});
}

std::string
Report::json() const
{
    using unison::json::Value;
    unison::json::Object metric_obj;
    for (const Metric &m : metrics) {
        unison::json::Object entry;
        entry.emplace_back("value", Value(m.value));
        entry.emplace_back("unit", Value(m.unit));
        metric_obj.emplace_back(m.name, Value(std::move(entry)));
    }
    unison::json::Object top;
    top.emplace_back("correct", Value(failed == 0));
    top.emplace_back("attempted", Value(attempted));
    top.emplace_back("failed", Value(failed));
    top.emplace_back("metrics", Value(std::move(metric_obj)));
    return unison::json::writeCompact(Value(std::move(top)));
}

namespace {

/** Keeps the probe's lookups observable. */
volatile std::uint64_t g_probeHits = 0;

} // namespace

HostProbe::HostProbe()
    : tags_(kSets * kWays, ~0ull), ages_(kSets * kWays, 0)
{
    sample(); // fills the table; not counted
    sliceNs_.clear();
}

void
HostProbe::sample()
{
    lookups(30'000);
    timespec t0, t1;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
    lookups(150'000);
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
    sliceNs_.push_back((t1.tv_sec - t0.tv_sec) * 1e9 +
                       (t1.tv_nsec - t0.tv_nsec));
}

void
HostProbe::lookups(std::uint64_t n)
{
    std::uint64_t x = state_, hits = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // 11 in 16 lookups go to a hot quarter of a footprint 1.5x the
        // table, like a cache model's mix of hits and misses.
        std::uint64_t addr = x % (kSets * kWays * 3 / 2);
        if ((x >> 60) < 11)
            addr %= kSets * kWays / 4;
        const std::uint64_t set = (addr * 0x9e3779b97f4a7c15ull >> 20) % kSets;
        std::uint64_t *tag = &tags_[set * kWays];
        std::uint8_t *age = &ages_[set * kWays];
        std::size_t way = kWays;
        for (std::size_t w = 0; w < kWays; ++w)
            if (tag[w] == addr) {
                way = w;
                break;
            }
        if (way < kWays) {
            ++hits;
        } else {
            way = 0;
            for (std::size_t w = 1; w < kWays; ++w)
                if (age[w] > age[way])
                    way = w;
            tag[way] = addr;
        }
        for (std::size_t w = 0; w < kWays; ++w)
            age[w] += age[w] < 255;
        age[way] = 0;
    }
    state_ = x;
    g_probeHits = g_probeHits + hits;
}

double
HostProbe::slowdown() const
{
    return sliceNs_.empty() ? 1.0 : median(sliceNs_) / kReferenceNs;
}

void
addTimings(Report &report, const Timings &raw, const HostProbe &probe)
{
    const double s = probe.slowdown();
    std::fprintf(stderr,
                 "perfbench: host slowdown %.4f (median of %zu probe "
                 "slices); raw: %.6g acc/s, p50 %.4f ms, p90 %.4f ms, "
                 "%.6g points/s, set-up %.6f s\n",
                 s, probe.samples(), raw.accPerS, raw.p50Ms, raw.p90Ms,
                 raw.pointsPerS, raw.setupS);
    report.add("sim_acc_per_s", raw.accPerS * s, "acc/s");
    report.add("submit_p50_ms", raw.p50Ms / s, "ms");
    report.add("submit_p90_ms", raw.p90Ms / s, "ms");
    report.add("points_per_s", raw.pointsPerS * s, "points/s");
    report.add("setup_s", raw.setupS / s, "s");
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * values.size());
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[idx - 1];
}

double
peakRssMiB(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::string
conservationError(const unison::ExperimentSpec &spec,
                  const unison::SimResult &r)
{
    std::ostringstream err;
    if (r.cache.hits.value() + r.cache.misses.value() !=
        r.cache.accesses())
        err << "hits+misses=" << r.cache.hits.value() + r.cache.misses.value()
            << " != reads+writes=" << r.cache.accesses() << "; ";
    if (spec.system.memoryBackend == unison::MemoryBackendKind::Fast) {
        if (r.offchip.reads != r.cache.offchipFetchedBlocks())
            err << "offchip.reads=" << r.offchip.reads
                << " != fetched blocks=" << r.cache.offchipFetchedBlocks()
                << "; ";
        if (r.offchip.writes != r.cache.offchipWritebackBlocks.value())
            err << "offchip.writes=" << r.offchip.writes
                << " != writeback blocks="
                << r.cache.offchipWritebackBlocks.value() << "; ";
    }
    return err.str();
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
simDigest(const std::vector<unison::SimResult> &results)
{
    std::uint64_t h = fnv1a("");
    for (const unison::SimResult &r : results)
        h = fnv1a(unison::json::writeCompact(unison::resultToJson(r)), h);
    return h;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t index)
{
    // splitmix64 finaliser over (seed, index).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench
