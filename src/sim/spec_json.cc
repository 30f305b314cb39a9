#include "sim/spec_json.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "common/version.hh"
#include "trace/workload.hh"

namespace unison {

namespace {

using json::Object;
using json::ObjectReader;
using json::Value;

// ------------------------------------------------------ small helpers

std::string
workloadToken(Workload w)
{
    return normalizedNameKey(workloadName(w));
}

/** workloadFromName fatal()s on a miss; schema errors must be
 *  json::Error so the CLI and tests can catch them. */
Workload
workloadFromToken(const std::string &token)
{
    const std::string key = normalizedNameKey(token);
    for (Workload w : allWorkloads())
        if (workloadToken(w) == key)
            return w;
    std::vector<std::string> known;
    for (Workload w : allWorkloads())
        known.push_back(workloadToken(w));
    throw json::Error("unknown workload '" + token +
                      "' (presets: " + commaJoin(known) + ")");
}

std::string
scenarioToken(ScenarioKind kind)
{
    return normalizedNameKey(scenarioName(kind));
}

ScenarioKind
scenarioFromToken(const std::string &token)
{
    ScenarioKind kind;
    if (!scenarioFromName(token, kind))
        throw json::Error("unknown scenario '" + token + "'");
    return kind;
}

int
asCount(const Value &v, const char *what, std::int64_t lo,
        std::int64_t hi)
{
    const std::int64_t n = v.asInt();
    if (n < lo || n > hi)
        throw json::Error(std::string(what) + " must be in [" +
                          std::to_string(lo) + ", " +
                          std::to_string(hi) + "], got " +
                          std::to_string(n));
    return static_cast<int>(n);
}

/** Core-count ceiling of a spec schema version. v3 and earlier were
 *  written (and validated) against a 256-core world; keeping their
 *  cap preserves those documents' exact validation behaviour. */
std::int64_t
coreCap(int version)
{
    return version >= 4 ? kMaxCores : 256;
}

// -------------------------------------------------- workload params

Value
workloadParamsToJson(const WorkloadParams &p)
{
    Value out{Object{}};
    out.set("name", p.name);
    out.set("datasetBytes", p.datasetBytes);
    out.set("numCores", static_cast<std::int64_t>(p.numCores));
    out.set("numFunctions", static_cast<std::int64_t>(p.numFunctions));
    out.set("functionZipfAlpha", p.functionZipfAlpha);
    out.set("regionZipfAlpha", p.regionZipfAlpha);
    out.set("ownerAffinity", p.ownerAffinity);
    out.set("meanFootprintBlocks", p.meanFootprintBlocks);
    out.set("footprintStddev", p.footprintStddev);
    out.set("contiguousFraction", p.contiguousFraction);
    out.set("scanStretchMean", p.scanStretchMean);
    out.set("singletonFunctionFraction", p.singletonFunctionFraction);
    out.set("pointerChaseFraction", p.pointerChaseFraction);
    out.set("footprintNoiseDrop", p.footprintNoiseDrop);
    out.set("footprintNoiseAdd", p.footprintNoiseAdd);
    out.set("writeFraction", p.writeFraction);
    out.set("blockRepeatMean", p.blockRepeatMean);
    out.set("episodesPerCore",
            static_cast<std::int64_t>(p.episodesPerCore));
    out.set("burstLength", static_cast<std::int64_t>(p.burstLength));
    out.set("instrsPerMemRef", p.instrsPerMemRef);
    return out;
}

WorkloadParams
workloadParamsFromJson(const Value &value, int version)
{
    ObjectReader r(value, "workload params");
    WorkloadParams p;
    p.name = r.req("name").asString();
    p.datasetBytes = r.req("datasetBytes").asUint();
    p.numCores =
        asCount(r.req("numCores"), "numCores", 1, coreCap(version));
    p.numFunctions =
        asCount(r.req("numFunctions"), "numFunctions", 1, 1 << 20);
    p.functionZipfAlpha = r.req("functionZipfAlpha").asDouble();
    p.regionZipfAlpha = r.req("regionZipfAlpha").asDouble();
    p.ownerAffinity = r.req("ownerAffinity").asDouble();
    p.meanFootprintBlocks = r.req("meanFootprintBlocks").asDouble();
    p.footprintStddev = r.req("footprintStddev").asDouble();
    p.contiguousFraction = r.req("contiguousFraction").asDouble();
    p.scanStretchMean = r.req("scanStretchMean").asDouble();
    p.singletonFunctionFraction =
        r.req("singletonFunctionFraction").asDouble();
    p.pointerChaseFraction = r.req("pointerChaseFraction").asDouble();
    p.footprintNoiseDrop = r.req("footprintNoiseDrop").asDouble();
    p.footprintNoiseAdd = r.req("footprintNoiseAdd").asDouble();
    p.writeFraction = r.req("writeFraction").asDouble();
    p.blockRepeatMean = r.req("blockRepeatMean").asDouble();
    p.episodesPerCore =
        asCount(r.req("episodesPerCore"), "episodesPerCore", 1, 4096);
    p.burstLength =
        asCount(r.req("burstLength"), "burstLength", 1, 1 << 20);
    p.instrsPerMemRef = r.req("instrsPerMemRef").asDouble();
    return p;
}

// ------------------------------------------------- scenario params

/** `version`: schema version of the enclosing spec. The datacenter
 *  generator knobs joined in v4; they are emitted and required only
 *  there, so every pre-v4 document round-trips byte-identically. */
Value
scenarioParamsToJson(const ScenarioParams &p, int version)
{
    Value out{Object{}};
    out.set("kind", scenarioToken(p.kind));
    out.set("footprintBytes", p.footprintBytes);
    out.set("hotSetBytes", p.hotSetBytes);
    out.set("hotFraction", p.hotFraction);
    out.set("writeFraction", p.writeFraction);
    out.set("instrsPerMemRef", p.instrsPerMemRef);
    out.set("strideBlocks", p.strideBlocks);
    if (version >= 4) {
        out.set("numKeys", p.numKeys);
        out.set("keyZipfAlpha", p.keyZipfAlpha);
        out.set("recordBlocks", p.recordBlocks);
        out.set("requestBlocksMean", p.requestBlocksMean);
        out.set("numTables", p.numTables);
        out.set("lookupsPerTable", p.lookupsPerTable);
    }
    return out;
}

ScenarioParams
scenarioParamsFromJson(const Value &value, int version)
{
    ObjectReader r(value, "scenario params");
    ScenarioParams p;
    p.kind = scenarioFromToken(r.req("kind").asString());
    p.footprintBytes = r.req("footprintBytes").asUint();
    p.hotSetBytes = r.req("hotSetBytes").asUint();
    p.hotFraction = r.req("hotFraction").asDouble();
    p.writeFraction = r.req("writeFraction").asDouble();
    p.instrsPerMemRef = r.req("instrsPerMemRef").asDouble();
    p.strideBlocks = static_cast<std::uint32_t>(
        asCount(r.req("strideBlocks"), "strideBlocks", 1, 1 << 20));
    if (version >= 4) {
        p.numKeys = r.req("numKeys").asUint();
        if (p.numKeys < 2 || p.numKeys > (1ull << 32))
            throw json::Error("numKeys must be in [2, 2^32], got " +
                              std::to_string(p.numKeys));
        p.keyZipfAlpha = r.req("keyZipfAlpha").asDouble();
        p.recordBlocks = static_cast<std::uint32_t>(asCount(
            r.req("recordBlocks"), "recordBlocks", 1, 1 << 20));
        p.requestBlocksMean = r.req("requestBlocksMean").asDouble();
        p.numTables = static_cast<std::uint32_t>(
            asCount(r.req("numTables"), "numTables", 1, 4096));
        p.lookupsPerTable = static_cast<std::uint32_t>(asCount(
            r.req("lookupsPerTable"), "lookupsPerTable", 1, 4096));
    } else if (scenarioIsDatacenter(p.kind)) {
        throw json::Error("scenario '" + scenarioToken(p.kind) +
                          "' requires spec schema " + kSpecSchema);
    }
    return p;
}

// ------------------------------------------------------ mix parts

Value
mixToJson(const std::vector<MixPart> &mix, int version)
{
    json::Array parts;
    for (const MixPart &part : mix) {
        Value p{Object{}};
        p.set("cores", static_cast<std::int64_t>(part.cores));
        if (part.preset)
            p.set("preset", workloadToken(*part.preset));
        if (part.custom)
            p.set("custom", workloadParamsToJson(*part.custom));
        if (part.scenario)
            p.set("scenario",
                  scenarioParamsToJson(*part.scenario, version));
        if (!part.tracePath.empty())
            p.set("trace", part.tracePath);
        parts.push_back(std::move(p));
    }
    return Value(std::move(parts));
}

std::vector<MixPart>
mixFromJson(const Value &value, int version)
{
    std::vector<MixPart> mix;
    for (const Value &entry : value.asArray()) {
        ObjectReader r(entry, "mix part");
        MixPart part;
        part.cores = asCount(r.req("cores"), "mix part cores", 1,
                             coreCap(version));
        if (const Value *preset = r.opt("preset"))
            part.preset = workloadFromToken(preset->asString());
        if (const Value *custom = r.opt("custom"))
            part.custom = workloadParamsFromJson(*custom, version);
        if (const Value *scenario = r.opt("scenario"))
            part.scenario = scenarioParamsFromJson(*scenario, version);
        if (const Value *trace = r.opt("trace"))
            part.tracePath = trace->asString();
        mix.push_back(std::move(part));
    }
    return mix;
}

// --------------------------------------------------- design config

Value
designToJson(const DesignConfig &design)
{
    const DesignInfo &info =
        DesignRegistry::instance().byKind(design.kind());
    Value out{Object{}};
    out.set("name", info.id);
    for (const DesignKnob &knob : info.knobs)
        out.set(knob.key, knob.get(design.variant()));
    return out;
}

DesignConfig
designFromJson(const Value &value)
{
    const Value &name = [&]() -> const Value & {
        const Value *n = value.find("name");
        if (n == nullptr)
            throw json::Error("design: missing required key 'name'");
        return *n;
    }();
    const DesignInfo *info =
        DesignRegistry::instance().find(name.asString());
    if (info == nullptr) {
        std::vector<std::string> known;
        for (const DesignInfo &candidate :
             DesignRegistry::instance().all())
            known.push_back(candidate.id);
        throw json::Error("unknown design '" + name.asString() +
                          "' (registered designs: " + commaJoin(known) +
                          ")");
    }

    ObjectReader r(value, "design '" + info->id + "'");
    r.req("name");
    DesignVariant config = info->defaults;
    for (const DesignKnob &knob : info->knobs)
        if (const Value *v = r.opt(knob.key))
            knob.set(config, *v);
    r.finish();
    return DesignConfig(std::move(config));
}

// -------------------------------------------------- system config

/** memoryBackendFromId returns false on a miss; schema errors must be
 *  json::Error so the CLI and tests can catch them. */
MemoryBackendKind
backendFromToken(const std::string &token)
{
    MemoryBackendKind kind;
    if (!memoryBackendFromId(token, kind))
        throw json::Error("unknown memory backend '" + token +
                          "' (registered backends: " +
                          commaJoin(memoryBackendIds()) + ")");
    return kind;
}

Value
systemToJson(const SystemConfig &sys)
{
    Value out{Object{}};
    out.set("numCores", static_cast<std::int64_t>(sys.numCores));
    out.set("cpiBase", sys.cpiBase);
    out.set("maxOutstandingMisses",
            static_cast<std::int64_t>(sys.maxOutstandingMisses));
    out.set("warmFraction", sys.warmFraction);
    out.set("warmupAccesses", sys.warmupAccesses);
    out.set("perCoreAccessBudget", sys.perCoreAccessBudget);
    out.set("engineThreads",
            static_cast<std::int64_t>(sys.engineThreads));
    out.set("memoryBackend", memoryBackendId(sys.memoryBackend));
    return out;
}

/** `version`: schema version of the enclosing spec. engineThreads
 *  joined in v2 and memoryBackend in v3; an older document neither
 *  carries the newer keys (unknown-key rejection still fires if it
 *  does) nor needs them -- absent means 1 and the fast backend, which
 *  is what every older spec ran. engineThreads is range-checked and
 *  round-tripped but ignored (SystemConfig::engineThreads). v4 raised
 *  the core cap from 256 to kMaxCores (coreCap above). */
SystemConfig
systemFromJson(const Value &value, int version)
{
    ObjectReader r(value, "system");
    SystemConfig sys;
    sys.numCores =
        asCount(r.req("numCores"), "numCores", 1, coreCap(version));
    sys.cpiBase = r.req("cpiBase").asDouble();
    sys.maxOutstandingMisses = asCount(r.req("maxOutstandingMisses"),
                                       "maxOutstandingMisses", 1,
                                       1 << 20);
    sys.warmFraction = r.req("warmFraction").asDouble();
    sys.warmupAccesses = r.req("warmupAccesses").asUint();
    sys.perCoreAccessBudget = r.req("perCoreAccessBudget").asUint();
    sys.engineThreads =
        version >= 2
            ? asCount(r.req("engineThreads"), "engineThreads", 1, 4096)
            : 1;
    sys.memoryBackend =
        version >= 3 ? backendFromToken(r.req("memoryBackend").asString())
                     : MemoryBackendKind::Fast;
    return sys;
}

// ------------------------------------------------ result sub-objects

/**
 * Counter-struct (de)serialization, generated from the same X-macro
 * field lists reset() iterates: keys are the field names, in
 * declaration order, so the schema can never drift from the structs.
 */
Value
cacheStatsToJson(const DramCacheStats &s)
{
    Value out{Object{}};
    s.forEachCounter([&](const char *name, const Counter &c) {
        out.set(name, c.value());
    });
    return out;
}

DramCacheStats
cacheStatsFromJson(const Value &value)
{
    ObjectReader r(value, "cache stats");
    DramCacheStats s;
    s.forEachCounter([&](const char *name, Counter &c) {
        c.reset();
        c += r.req(name).asUint();
    });
    return s;
}

Value
poolStatsToJson(const DramPoolStats &s)
{
    Value out{Object{}};
    s.forEachCounter([&](const char *name, const std::uint64_t &v) {
        out.set(name, v);
    });
    return out;
}

DramPoolStats
poolStatsFromJson(const Value &value)
{
    ObjectReader r(value, "DRAM pool stats");
    DramPoolStats s;
    s.forEachCounter([&](const char *name, std::uint64_t &v) {
        v = r.req(name).asUint();
    });
    return s;
}

Value
queueStatsToJson(const MemoryQueueStats &s)
{
    Value out{Object{}};
    out.set("writeDrains", s.writeDrains);
    out.set("drainedWrites", s.drainedWrites);
    out.set("frfcfsReorders", s.frfcfsReorders);
    out.set("starvationDrains", s.starvationDrains);
    json::Array occupancy;
    for (std::uint64_t bucket : s.occupancy)
        occupancy.push_back(Value(bucket));
    out.set("occupancy", Value(std::move(occupancy)));
    return out;
}

MemoryQueueStats
queueStatsFromJson(const Value &value)
{
    ObjectReader r(value, "memory queue stats");
    MemoryQueueStats s;
    s.writeDrains = r.req("writeDrains").asUint();
    s.drainedWrites = r.req("drainedWrites").asUint();
    s.frfcfsReorders = r.req("frfcfsReorders").asUint();
    s.starvationDrains = r.req("starvationDrains").asUint();
    const json::Array &occupancy = r.req("occupancy").asArray();
    if (occupancy.size() !=
        static_cast<std::size_t>(MemoryQueueStats::kOccupancyBuckets))
        throw json::Error("memory queue stats: occupancy must have " +
                          std::to_string(
                              MemoryQueueStats::kOccupancyBuckets) +
                          " buckets, got " +
                          std::to_string(occupancy.size()));
    for (std::size_t i = 0; i < occupancy.size(); ++i)
        s.occupancy[i] = occupancy[i].asUint();
    return s;
}

} // namespace

// ------------------------------------------------------------ spec

namespace {

/** Lowest schema version that expresses `spec`. Writing the lowest
 *  version keeps every document a pre-v4 study could have produced
 *  byte-identical to what it produced then. */
int
specSchemaVersion(const ExperimentSpec &spec)
{
    bool needs_v4 = spec.system.numCores > 256;
    if (spec.customWorkload && spec.customWorkload->numCores > 256)
        needs_v4 = true;
    for (const MixPart &part : spec.mix) {
        if (part.cores > 256)
            needs_v4 = true;
        if (part.custom && part.custom->numCores > 256)
            needs_v4 = true;
        if (part.scenario && scenarioIsDatacenter(part.scenario->kind))
            needs_v4 = true;
    }
    return needs_v4 ? 4 : 3;
}

} // namespace

json::Value
specToJson(const ExperimentSpec &spec)
{
    const int version = specSchemaVersion(spec);
    Value out{Object{}};
    out.set("schema", version >= 4 ? kSpecSchema : kSpecSchemaV3);
    out.set("workload", workloadToken(spec.workload));
    if (spec.customWorkload)
        out.set("customWorkload",
                workloadParamsToJson(*spec.customWorkload));
    if (!spec.mix.empty())
        out.set("mix", mixToJson(spec.mix, version));
    out.set("design", designToJson(spec.design));
    out.set("capacityBytes", spec.capacityBytes);
    out.set("accesses", spec.accesses);
    out.set("quick", spec.quick);
    out.set("seed", spec.seed);
    out.set("system", systemToJson(spec.system));
    return out;
}

ExperimentSpec
specFromJson(const json::Value &value)
{
    ObjectReader r(value, "spec");
    const std::string schema = r.req("schema").asString();
    int version = 0;
    if (schema == kSpecSchema)
        version = 4;
    else if (schema == kSpecSchemaV3)
        version = 3;
    else if (schema == kSpecSchemaV2)
        version = 2;
    else if (schema == kSpecSchemaV1)
        version = 1;
    else
        throw json::Error("unsupported spec schema '" + schema +
                          "' (this build reads " + kSpecSchema + ", " +
                          kSpecSchemaV3 + ", " + kSpecSchemaV2 +
                          " and " + kSpecSchemaV1 + ")");

    ExperimentSpec spec;
    spec.workload = workloadFromToken(r.req("workload").asString());
    if (const Value *custom = r.opt("customWorkload"))
        spec.customWorkload = workloadParamsFromJson(*custom, version);
    if (const Value *mix = r.opt("mix"))
        spec.mix = mixFromJson(*mix, version);
    spec.design = designFromJson(r.req("design"));
    spec.capacityBytes = r.req("capacityBytes").asUint();
    spec.accesses = r.req("accesses").asUint();
    spec.quick = r.req("quick").asBool();
    spec.seed = r.req("seed").asUint();
    spec.system = systemFromJson(r.req("system"), version);
    return spec;
}

// ---------------------------------------------------------- result

json::Value
resultToJson(const SimResult &result)
{
    Value out{Object{}};
    out.set("designName", result.designName);
    out.set("instructions", result.instructions);
    out.set("cycles", static_cast<std::uint64_t>(result.cycles));
    out.set("uipc", result.uipc);
    out.set("references", result.references);
    out.set("l1MissPercent", result.l1MissPercent);
    out.set("l2MissPercent", result.l2MissPercent);
    out.set("cache", cacheStatsToJson(result.cache));
    out.set("offchip", poolStatsToJson(result.offchip));
    out.set("stacked", poolStatsToJson(result.stacked));
    // Only the detailed backend produces queue activity; the keys are
    // omitted when all-zero so fast-backend results stay byte-stable.
    if (result.offchipQueue.any())
        out.set("offchipQueue", queueStatsToJson(result.offchipQueue));
    if (result.stackedQueue.any())
        out.set("stackedQueue", queueStatsToJson(result.stackedQueue));
    out.set("avgDramCacheLatency", result.avgDramCacheLatency);
    out.set("avgMemLatency", result.avgMemLatency);
    out.set("wpAccuracyPercent", result.wpAccuracyPercent);
    out.set("mpAccuracyPercent", result.mpAccuracyPercent);
    out.set("mpOverfetchPercent", result.mpOverfetchPercent);

    json::Array per_core;
    for (const CoreSimResult &core : result.perCore) {
        Value c{Object{}};
        c.set("sourceName", core.sourceName);
        c.set("instructions", core.instructions);
        c.set("references", core.references);
        c.set("cycles", static_cast<std::uint64_t>(core.cycles));
        c.set("uipc", core.uipc);
        c.set("amatCycles", core.amatCycles);
        per_core.push_back(std::move(c));
    }
    out.set("perCore", Value(std::move(per_core)));
    return out;
}

SimResult
resultFromJson(const json::Value &value)
{
    ObjectReader r(value, "result");
    SimResult result;
    result.designName = r.req("designName").asString();
    result.instructions = r.req("instructions").asUint();
    result.cycles = r.req("cycles").asUint();
    result.uipc = r.req("uipc").asDouble();
    result.references = r.req("references").asUint();
    result.l1MissPercent = r.req("l1MissPercent").asDouble();
    result.l2MissPercent = r.req("l2MissPercent").asDouble();
    result.cache = cacheStatsFromJson(r.req("cache"));
    result.offchip = poolStatsFromJson(r.req("offchip"));
    result.stacked = poolStatsFromJson(r.req("stacked"));
    if (const Value *queue = r.opt("offchipQueue"))
        result.offchipQueue = queueStatsFromJson(*queue);
    if (const Value *queue = r.opt("stackedQueue"))
        result.stackedQueue = queueStatsFromJson(*queue);
    result.avgDramCacheLatency =
        r.req("avgDramCacheLatency").asDouble();
    result.avgMemLatency = r.req("avgMemLatency").asDouble();
    result.wpAccuracyPercent = r.req("wpAccuracyPercent").asDouble();
    result.mpAccuracyPercent = r.req("mpAccuracyPercent").asDouble();
    result.mpOverfetchPercent =
        r.req("mpOverfetchPercent").asDouble();
    for (const Value &entry : r.req("perCore").asArray()) {
        ObjectReader c(entry, "perCore entry");
        CoreSimResult core;
        core.sourceName = c.req("sourceName").asString();
        core.instructions = c.req("instructions").asUint();
        core.references = c.req("references").asUint();
        core.cycles = c.req("cycles").asUint();
        core.uipc = c.req("uipc").asDouble();
        core.amatCycles = c.req("amatCycles").asDouble();
        result.perCore.push_back(std::move(core));
    }
    return result;
}

// ------------------------------------------------------------ grids

json::Value
gridToJson(const std::string &name,
           const std::vector<GridPoint> &points)
{
    Value out{Object{}};
    out.set("schema", kGridSchema);
    out.set("name", name);
    json::Array array;
    for (const GridPoint &point : points) {
        Value p{Object{}};
        p.set("label", point.label);
        p.set("spec", specToJson(point.spec));
        array.push_back(std::move(p));
    }
    out.set("points", Value(std::move(array)));
    return out;
}

GridFile
gridFromJson(const json::Value &value)
{
    const Value *schema = value.find("schema");
    if (schema == nullptr)
        throw json::Error("document has no 'schema' field");

    GridFile grid;
    if (schema->asString() == kSpecSchema ||
        schema->asString() == kSpecSchemaV3 ||
        schema->asString() == kSpecSchemaV2 ||
        schema->asString() == kSpecSchemaV1) {
        // A bare spec is a one-point grid labelled by its design.
        GridPoint point;
        point.spec = specFromJson(value);
        point.label = designId(point.spec.designKind());
        point.index = 0;
        grid.name = "spec";
        grid.points.push_back(std::move(point));
        return grid;
    }

    ObjectReader r(value, "grid");
    const std::string kind = r.req("schema").asString();
    if (kind != kGridSchema)
        throw json::Error("unsupported grid schema '" + kind +
                          "' (this build reads " + kGridSchema + ")");
    grid.name = r.req("name").asString();
    for (const Value &entry : r.req("points").asArray()) {
        ObjectReader p(entry, "grid point");
        GridPoint point;
        point.label = p.req("label").asString();
        point.spec = specFromJson(p.req("spec"));
        point.index = grid.points.size();
        grid.points.push_back(std::move(point));
    }
    return grid;
}

// ---------------------------------------------------------- results

json::Value
resultsToJson(const std::string &grid_name, const std::string &shard,
              const std::string &grid_hash,
              std::vector<ResultPoint> points)
{
    std::sort(points.begin(), points.end(),
              [](const ResultPoint &a, const ResultPoint &b) {
                  return a.index < b.index;
              });
    Value out{Object{}};
    out.set("schema", kResultsSchema);
    out.set("name", grid_name);
    out.set("codeVersion", kSimCodeVersion);
    if (!grid_hash.empty())
        out.set("gridHash", grid_hash);
    if (!shard.empty())
        out.set("shard", shard);
    json::Array array;
    for (const ResultPoint &point : points) {
        Value p{Object{}};
        p.set("index", static_cast<std::uint64_t>(point.index));
        p.set("label", point.label);
        p.set("spec", specToJson(point.spec));
        p.set("result", resultToJson(point.result));
        array.push_back(std::move(p));
    }
    out.set("points", Value(std::move(array)));
    return out;
}

std::vector<ResultPoint>
resultsFromJson(const json::Value &value, std::string *grid_name,
                std::string *shard, std::string *grid_hash,
                std::string *code_version)
{
    ObjectReader r(value, "results");
    const std::string schema = r.req("schema").asString();
    if (schema != kResultsSchema)
        throw json::Error("unsupported results schema '" + schema +
                          "' (this build reads " + kResultsSchema +
                          ")");
    if (grid_name != nullptr)
        *grid_name = r.req("name").asString();
    else
        r.req("name");
    // Documents written before the stamp existed read back as "".
    const Value *version_value = r.opt("codeVersion");
    if (code_version != nullptr)
        *code_version =
            version_value != nullptr ? version_value->asString() : "";
    const Value *hash_value = r.opt("gridHash");
    if (grid_hash != nullptr)
        *grid_hash = hash_value != nullptr ? hash_value->asString()
                                           : "";
    const Value *shard_value = r.opt("shard");
    if (shard != nullptr)
        *shard = shard_value != nullptr ? shard_value->asString() : "";

    std::vector<ResultPoint> points;
    for (const Value &entry : r.req("points").asArray()) {
        ObjectReader p(entry, "results point");
        ResultPoint point;
        point.index = p.req("index").asUint();
        point.label = p.req("label").asString();
        point.spec = specFromJson(p.req("spec"));
        point.result = resultFromJson(p.req("result"));
        points.push_back(std::move(point));
    }
    return points;
}

std::string
fnvFingerprint(const std::string &text)
{
    // FNV-1a, 64-bit: cheap, dependency-free, and stable across
    // platforms -- this is a consistency check, not cryptography.
    std::uint64_t hash = 14695981039346656037ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
gridFingerprint(const std::string &grid_json)
{
    return fnvFingerprint(grid_json);
}

std::string
specFingerprint(const ExperimentSpec &spec)
{
    return fnvFingerprint(json::write(specToJson(spec)));
}

} // namespace unison
