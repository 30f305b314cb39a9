#include "workloads.hh"

#include <algorithm>

#include "bench.hh"
#include "trace/mix.hh"
#include "trace/scenarios.hh"

namespace perfbench {

using namespace unison;

namespace {

// Simulated accesses per experiment (warm-up included). Sized so one
// round of a workload's specs takes one to two host seconds, which
// leaves a dozen or more rounds in a run for the medians.
constexpr std::uint64_t kPaperAccesses = 3'000'000;
constexpr std::uint64_t kDramBoundAccesses = 1'500'000;
constexpr std::uint64_t kDatacenterAccesses = 1'536'000; // 6000 per core

ExperimentSpec
unisonPaperSpec(Workload preset, std::uint64_t seed)
{
    ExperimentSpec spec;
    spec.workload = preset;
    spec.design = DesignKind::Unison; // 4-way, 960 B pages, predictors on
    spec.capacityBytes = 1_GiB;
    spec.accesses = kPaperAccesses;
    spec.seed = seed;
    return spec;
}

ExperimentSpec
dramBoundSpec(DesignKind design, std::uint64_t seed)
{
    ExperimentSpec spec;
    spec.mix = {mixScenario(ScenarioKind::RandomUpdate, 8),
                mixScenario(ScenarioKind::StreamScan, 8)};
    spec.design = design;
    spec.capacityBytes = 64_MiB;
    spec.accesses = kDramBoundAccesses;
    spec.seed = seed;
    spec.system.memoryBackend = MemoryBackendKind::Detailed;
    return spec;
}

/** The 256-core points of the datacenter figure grid, one per mix. */
ExperimentSpec
datacenterSpec(std::vector<MixPart> mix, std::uint64_t seed)
{
    constexpr int kCores = 256;
    ExperimentSpec spec;
    spec.mix = std::move(mix);
    spec.design = DesignKind::Unison;
    spec.capacityBytes = 512_MiB;
    spec.accesses = kDatacenterAccesses;
    spec.seed = seed;
    spec.system.numCores = kCores;
    spec.system.warmupAccesses = kDatacenterAccesses / 2;
    spec.system.perCoreAccessBudget = kDatacenterAccesses / kCores;
    return spec;
}

} // namespace

bool
simWorkload(const std::string &name, std::uint64_t seed, SimWorkload &out)
{
    out.name = name;
    out.specs.clear();
    if (name == "unison-paper") {
        std::uint64_t i = 0;
        for (Workload w : {Workload::DataServing, Workload::WebSearch,
                           Workload::TpchQueries})
            out.specs.push_back(unisonPaperSpec(w, deriveSeed(seed, i++)));
    } else if (name == "dram-bound") {
        out.specs.push_back(dramBoundSpec(DesignKind::Unison,
                                          deriveSeed(seed, 0)));
        out.specs.push_back(dramBoundSpec(DesignKind::Alloy,
                                          deriveSeed(seed, 1)));
    } else if (name == "datacenter-256") {
        out.specs.push_back(datacenterSpec(
            {mixScenario(ScenarioKind::YcsbKv, 256)}, deriveSeed(seed, 0)));
        out.specs.push_back(datacenterSpec(
            {mixScenario(ScenarioKind::YcsbKv, 128),
             mixScenario(ScenarioKind::FileServe, 128)},
            deriveSeed(seed, 1)));
    } else {
        return false;
    }
    return true;
}

ExperimentSpec
SweepTraffic::freshSpec(std::uint64_t key) const
{
    static const DesignKind kDesigns[] = {
        DesignKind::Alloy, DesignKind::Footprint, DesignKind::Unison};
    static const std::uint64_t kCapacities[] = {64_MiB, 128_MiB, 256_MiB};
    const std::uint64_t h = deriveSeed(seed_, key);
    const std::vector<Workload> &presets = allWorkloads();

    ExperimentSpec spec;
    spec.design = kDesigns[h % 3];
    spec.capacityBytes = kCapacities[(h / 3) % 3];
    spec.workload = presets[(h / 9) % presets.size()];
    spec.accesses = kPointAccesses;
    // The seed is what makes the point new: every key gets its own.
    spec.seed = deriveSeed(h, 0x5eed);
    return spec;
}

namespace {

// Key spaces of freshSpec: bits 60+ say what the point is for.
constexpr std::uint64_t kWarmupKey = 1ull << 60;
constexpr std::uint64_t kNewKey = 2ull << 60;
constexpr std::uint64_t kSharedKey = 3ull << 60;

std::uint64_t
pointKey(std::uint64_t space, int client, std::uint64_t k, int slot)
{
    return space | (static_cast<std::uint64_t>(client) << 48) |
           (k << 8) | static_cast<std::uint64_t>(slot);
}

} // namespace

std::vector<GridPoint>
labelled(std::vector<std::pair<std::string, ExperimentSpec>> points)
{
    std::vector<GridPoint> grid;
    for (auto &[label, spec] : points) {
        GridPoint p;
        p.label = label;
        p.index = grid.size();
        p.coords = {grid.size()};
        p.spec = std::move(spec);
        grid.push_back(std::move(p));
    }
    return grid;
}

std::vector<GridPoint>
SweepTraffic::warmupGrid(int client) const
{
    std::vector<std::pair<std::string, ExperimentSpec>> points;
    for (int slot = 0; slot < kWarmupPoints; ++slot)
        points.emplace_back("warm" + std::to_string(slot),
                            freshSpec(pointKey(kWarmupKey, client, 0, slot)));
    return labelled(std::move(points));
}

std::vector<GridPoint>
SweepTraffic::submitGrid(int client, std::uint64_t k,
                         const std::vector<ExperimentSpec> &history) const
{
    std::vector<std::pair<std::string, ExperimentSpec>> points;
    for (int slot = 0; slot < kNewPerSubmit; ++slot)
        points.emplace_back("new" + std::to_string(slot),
                            freshSpec(pointKey(kNewKey, client, k, slot)));
    points.emplace_back("shared", freshSpec(pointKey(kSharedKey, 0, k, 0)));

    // Repeats: distinct earlier points, drawn from the run seed.
    std::vector<std::size_t> picked;
    std::uint64_t draw = deriveSeed(seed_, pointKey(0, client, k, 0xff));
    while (picked.size() < static_cast<std::size_t>(kRepeatsPerSubmit) &&
           picked.size() < history.size()) {
        draw = deriveSeed(draw, picked.size());
        const std::size_t idx = draw % history.size();
        if (std::find(picked.begin(), picked.end(), idx) != picked.end())
            continue;
        picked.push_back(idx);
        points.emplace_back("repeat" + std::to_string(picked.size() - 1),
                            history[idx]);
    }
    return labelled(std::move(points));
}

} // namespace perfbench
