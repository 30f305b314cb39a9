/**
 * @file
 * The contracts of the declarative experiment API's serialization
 * layer: JSON spec/result round trips are byte-exact, unknown keys are
 * rejected loudly, the design registry is the single source of design
 * names/knobs/factories, and a spec that went through JSON reproduces
 * the design_contract_test golden counters bit-exactly.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/figures.hh"
#include "sim/spec_json.hh"
#include "trace/mix.hh"

namespace unison {
namespace {

std::string
roundTripOnce(const ExperimentSpec &spec)
{
    return json::write(specToJson(spec));
}

/** Replace `needle` (which must be present) with `replacement`. */
std::string
mutateDocument(std::string text, const std::string &needle,
               const std::string &replacement)
{
    const std::size_t at = text.find(needle);
    if (at == std::string::npos)
        throw std::logic_error("test needle not found: " + needle);
    text.replace(at, needle.size(), replacement);
    return text;
}

/** spec -> JSON -> spec -> JSON must be byte-stable. */
void
expectSpecRoundTrip(const ExperimentSpec &spec)
{
    const std::string first = roundTripOnce(spec);
    const ExperimentSpec reparsed = specFromJson(json::parse(first));
    const std::string second = roundTripOnce(reparsed);
    EXPECT_EQ(first, second);
}

TEST(SpecJson, EveryDesignRoundTrips)
{
    for (const DesignInfo &info : DesignRegistry::instance().all()) {
        SCOPED_TRACE(info.id);
        ExperimentSpec spec;
        spec.design = info.kind;
        spec.capacityBytes = 128_MiB;
        spec.accesses = 1000;
        expectSpecRoundTrip(spec);

        // Parsed spec keeps the design kind.
        const ExperimentSpec reparsed =
            specFromJson(json::parse(roundTripOnce(spec)));
        EXPECT_EQ(reparsed.designKind(), info.kind);
    }
}

TEST(SpecJson, KnobValuesSurviveTheRoundTrip)
{
    UnisonConfig config;
    config.pageBlocks = 31;
    config.assoc = 8;
    config.wayPolicy = UnisonWayPolicy::SerialTag;
    config.missPolicy = UnisonMissPolicy::MapI;
    config.footprintPredictionEnabled = false;
    config.fhtConfig.numEntries = 6 * 1024;
    config.wayPredictorIndexBits = 16;

    ExperimentSpec spec;
    spec.design = config;
    expectSpecRoundTrip(spec);

    const ExperimentSpec reparsed =
        specFromJson(json::parse(roundTripOnce(spec)));
    const UnisonConfig &u = reparsed.design.as<UnisonConfig>();
    EXPECT_EQ(u.pageBlocks, 31u);
    EXPECT_EQ(u.assoc, 8u);
    EXPECT_EQ(u.wayPolicy, UnisonWayPolicy::SerialTag);
    EXPECT_EQ(u.missPolicy, UnisonMissPolicy::MapI);
    EXPECT_FALSE(u.footprintPredictionEnabled);
    EXPECT_EQ(u.fhtConfig.numEntries, 6u * 1024u);
    EXPECT_EQ(u.wayPredictorIndexBits, 16u);
}

TEST(SpecJson, CustomWorkloadAndMixRoundTrip)
{
    ExperimentSpec custom;
    custom.customWorkload = workloadParams(Workload::DataServing);
    custom.customWorkload->regionZipfAlpha = 1.1;
    custom.customWorkload->name = "tweaked";
    expectSpecRoundTrip(custom);

    ExperimentSpec mixed;
    mixed.mix = parseMixSpec("webserving:8,chase:4,scan:4");
    mixed.system.numCores = 16;
    mixed.system.warmupAccesses = 1000;
    mixed.accesses = 4000;
    expectSpecRoundTrip(mixed);

    const ExperimentSpec reparsed =
        specFromJson(json::parse(roundTripOnce(mixed)));
    ASSERT_EQ(reparsed.mix.size(), 3u);
    EXPECT_EQ(reparsed.mix[0].cores, 8);
    EXPECT_TRUE(reparsed.mix[0].preset.has_value());
    EXPECT_TRUE(reparsed.mix[1].scenario.has_value());
}

TEST(SpecJson, Fig7GridRoundTripsByteExactly)
{
    FigureOptions opts;
    opts.quick = true;
    const std::vector<GridPoint> points = figureGrid("fig7", opts);
    ASSERT_FALSE(points.empty());

    const std::string first = json::write(gridToJson("fig7", points));
    const GridFile grid = gridFromJson(json::parse(first));
    EXPECT_EQ(grid.name, "fig7");
    ASSERT_EQ(grid.points.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(grid.points[i].label, points[i].label);

    const std::string second =
        json::write(gridToJson(grid.name, grid.points));
    EXPECT_EQ(first, second);
}

TEST(SpecJson, UnknownKeysAreRejected)
{
    ExperimentSpec spec;
    json::Value doc = specToJson(spec);
    doc.set("turboMode", true);
    EXPECT_THROW(specFromJson(doc), json::Error);
}

TEST(SpecJson, UnknownDesignKnobIsRejected)
{
    ExperimentSpec spec;
    // A typo'd Unison knob must not silently run defaults.
    const std::string bad =
        mutateDocument(roundTripOnce(spec), "\"assoc\"", "\"asocc\"");
    EXPECT_THROW(specFromJson(json::parse(bad)), json::Error);
}

TEST(SpecJson, UnknownWorkloadTokenThrowsInsteadOfExiting)
{
    ExperimentSpec spec;
    const std::string text =
        mutateDocument(roundTripOnce(spec), "\"workload\": \"webserving\"",
                       "\"workload\": \"webservng\"");
    EXPECT_THROW(specFromJson(json::parse(text)), json::Error);
}

TEST(SpecJson, UnknownDesignNameIsRejected)
{
    ExperimentSpec spec;
    const std::string text =
        mutateDocument(roundTripOnce(spec), "\"name\": \"unison\"",
                       "\"name\": \"warpdrive\"");
    EXPECT_THROW(specFromJson(json::parse(text)), json::Error);
}

TEST(SpecJson, KnobRangeViolationsAreActionable)
{
    ExperimentSpec spec;
    const std::string text = mutateDocument(
        roundTripOnce(spec), "\"assoc\": 4", "\"assoc\": 999");
    try {
        specFromJson(json::parse(text));
        FAIL() << "assoc=999 should have been rejected";
    } catch (const json::Error &e) {
        EXPECT_NE(std::string(e.what()).find("assoc"),
                  std::string::npos);
    }
}

TEST(SpecJson, DuplicateJsonKeysAreRejected)
{
    EXPECT_THROW(json::parse("{\"a\": 1, \"a\": 2}"), json::Error);
}

// ----------------------------------------------- schema versioning

TEST(SpecJson, MemoryBackendRoundTrips)
{
    ExperimentSpec spec;
    spec.system.memoryBackend = MemoryBackendKind::Detailed;
    expectSpecRoundTrip(spec);

    const std::string text = roundTripOnce(spec);
    EXPECT_NE(text.find("\"schema\": \"unison-spec/3\""),
              std::string::npos);
    EXPECT_NE(text.find("\"memoryBackend\": \"detailed\""),
              std::string::npos);
    const ExperimentSpec reparsed = specFromJson(json::parse(text));
    EXPECT_EQ(reparsed.system.memoryBackend,
              MemoryBackendKind::Detailed);
}

TEST(SpecJson, OlderSchemasStillParseAndReEmitAsV3)
{
    const std::string v3 = roundTripOnce(ExperimentSpec{});

    // A genuine v2 document: v3 minus the memoryBackend key. It must
    // parse to the fast backend (what every older spec ran) and
    // re-serialize as v3 byte-identically to a fresh spec.
    std::string v2 =
        mutateDocument(v3, "unison-spec/3", "unison-spec/2");
    v2 = mutateDocument(
        v2, ",\n    \"memoryBackend\": \"fast\"", "");
    const ExperimentSpec from_v2 = specFromJson(json::parse(v2));
    EXPECT_EQ(from_v2.system.memoryBackend, MemoryBackendKind::Fast);
    EXPECT_EQ(roundTripOnce(from_v2), v3);

    // And a genuine v1 document: v2 minus engineThreads.
    std::string v1 =
        mutateDocument(v2, "unison-spec/2", "unison-spec/1");
    v1 = mutateDocument(v1, ",\n    \"engineThreads\": 1", "");
    const ExperimentSpec from_v1 = specFromJson(json::parse(v1));
    EXPECT_EQ(from_v1.system.engineThreads, 1);
    EXPECT_EQ(from_v1.system.memoryBackend, MemoryBackendKind::Fast);
    EXPECT_EQ(roundTripOnce(from_v1), v3);

    // engineThreads is accepted and ignored: any value in range
    // parses, re-emits byte-identically, and runs exactly like 1.
    ExperimentSpec small;
    small.capacityBytes = 32_MiB;
    small.system.numCores = 4;
    small.accesses = 30'000;
    small.mix = {mixPreset(Workload::WebServing, 2),
                 mixPreset(Workload::DataServing, 2)};
    const std::string one = roundTripOnce(small);
    const std::string four = mutateDocument(
        one, "\"engineThreads\": 1", "\"engineThreads\": 4");
    const ExperimentSpec from_four = specFromJson(json::parse(four));
    EXPECT_EQ(from_four.system.engineThreads, 4);
    EXPECT_EQ(roundTripOnce(from_four), four);
    EXPECT_EQ(json::write(resultToJson(runExperiment(from_four))),
              json::write(resultToJson(runExperiment(small))));
}

TEST(SpecJson, NewerKeyInOlderSchemaIsRejected)
{
    // An unknown-key error, not a silent ignore: a v2 document has no
    // business carrying the v3 memoryBackend key.
    const std::string text = mutateDocument(
        roundTripOnce(ExperimentSpec{}), "unison-spec/3",
        "unison-spec/2");
    EXPECT_THROW(specFromJson(json::parse(text)), json::Error);
}

TEST(SpecJson, DatacenterScenarioFloatsTheSpecToV4)
{
    // The datacenter knobs are v4 keys; a spec that uses them must
    // write v4 (and round-trip byte-exactly there).
    ExperimentSpec spec;
    spec.system.numCores = 4;
    spec.mix = {mixScenario(ScenarioKind::YcsbKv, 4)};
    spec.accesses = 1000;
    expectSpecRoundTrip(spec);

    const std::string text = roundTripOnce(spec);
    EXPECT_NE(text.find("\"schema\": \"unison-spec/4\""),
              std::string::npos);
    EXPECT_NE(text.find("\"numKeys\""), std::string::npos);
    EXPECT_NE(text.find("\"keyZipfAlpha\""), std::string::npos);

    const ExperimentSpec reparsed = specFromJson(json::parse(text));
    ASSERT_EQ(reparsed.mix.size(), 1u);
    ASSERT_TRUE(reparsed.mix[0].scenario.has_value());
    EXPECT_EQ(reparsed.mix[0].scenario->numKeys, 1ull << 20);
    EXPECT_EQ(reparsed.mix[0].scenario->recordBlocks, 16u);
}

TEST(SpecJson, ManyCoreSystemsFloatToV4)
{
    ExperimentSpec spec;
    spec.system.numCores = 512;
    spec.mix = {mixScenario(ScenarioKind::StreamScan, 512)};
    spec.accesses = 1024;
    expectSpecRoundTrip(spec);

    const std::string text = roundTripOnce(spec);
    EXPECT_NE(text.find("\"schema\": \"unison-spec/4\""),
              std::string::npos);
    const ExperimentSpec reparsed = specFromJson(json::parse(text));
    EXPECT_EQ(reparsed.system.numCores, 512);
    ASSERT_EQ(reparsed.mix.size(), 1u);
    EXPECT_EQ(reparsed.mix[0].cores, 512);
}

TEST(SpecJson, V3DocumentsKeepThe256CoreCap)
{
    // A v3 document claiming 512 cores must fail with the pinned v3
    // range error, not silently adopt the wider v4 cap.
    ExperimentSpec spec;
    spec.system.numCores = 512;
    spec.mix = {mixScenario(ScenarioKind::StreamScan, 512)};
    const std::string text = mutateDocument(
        roundTripOnce(spec), "unison-spec/4", "unison-spec/3");
    try {
        specFromJson(json::parse(text));
        FAIL() << "512 cores in a v3 document must be rejected";
    } catch (const json::Error &e) {
        EXPECT_NE(std::string(e.what()).find("256"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SpecJson, DatacenterScenarioRequiresV4)
{
    // A v3 document (no v4 keys present) naming a datacenter scenario
    // gets an error pointing at the schema version it needs.
    ExperimentSpec spec;
    spec.system.numCores = 4;
    spec.mix = {mixScenario(ScenarioKind::StreamScan, 4)};
    const std::string text = mutateDocument(
        roundTripOnce(spec), "\"kind\": \"streamingscan\"",
        "\"kind\": \"ycsbkvserving\"");
    try {
        specFromJson(json::parse(text));
        FAIL() << "datacenter scenario in a v3 document must be "
                  "rejected";
    } catch (const json::Error &e) {
        EXPECT_NE(std::string(e.what()).find("unison-spec/4"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SpecJson, UnknownMemoryBackendTokenIsRejected)
{
    const std::string text = mutateDocument(
        roundTripOnce(ExperimentSpec{}), "\"memoryBackend\": \"fast\"",
        "\"memoryBackend\": \"cycleexact\"");
    try {
        specFromJson(json::parse(text));
        FAIL() << "memoryBackend=cycleexact should have been rejected";
    } catch (const json::Error &e) {
        const std::string what = e.what();
        // The error names the offending token and the registered
        // backends, so a typo is immediately actionable.
        EXPECT_NE(what.find("cycleexact"), std::string::npos) << what;
        EXPECT_NE(what.find("fast"), std::string::npos) << what;
        EXPECT_NE(what.find("detailed"), std::string::npos) << what;
    }
}

TEST(SpecJson, QueueStatsRoundTripAndStayAbsentWhenZero)
{
    // Fast-backend results carry no queue counters, and their JSON
    // must stay byte-identical to the pre-backend-seam format (the
    // goldens pin this); detailed results append both queue objects.
    SimResult r;
    r.designName = "unison";
    const std::string plain = json::write(resultToJson(r));
    EXPECT_EQ(plain.find("offchipQueue"), std::string::npos);
    EXPECT_EQ(plain.find("stackedQueue"), std::string::npos);

    r.offchipQueue.writeDrains = 3;
    r.offchipQueue.drainedWrites = 24;
    r.offchipQueue.frfcfsReorders = 2;
    r.offchipQueue.occupancy[4] = 7;
    r.stackedQueue.starvationDrains = 1;
    const std::string first = json::write(resultToJson(r));
    EXPECT_NE(first.find("offchipQueue"), std::string::npos);
    EXPECT_NE(first.find("stackedQueue"), std::string::npos);

    const SimResult reparsed = resultFromJson(json::parse(first));
    EXPECT_EQ(json::write(resultToJson(reparsed)), first);
    EXPECT_EQ(reparsed.offchipQueue.drainedWrites, 24u);
    EXPECT_EQ(reparsed.offchipQueue.occupancy[4], 7u);
    EXPECT_EQ(reparsed.stackedQueue.starvationDrains, 1u);
}

// ---------------------------------------------------------- results

TEST(SpecJson, ResultRoundTripsByteExactly)
{
    ExperimentSpec spec;
    spec.capacityBytes = 32_MiB;
    spec.accesses = 60'000;
    spec.system.numCores = 4;
    const SimResult result = runExperiment(spec);

    const std::string first = json::write(resultToJson(result));
    const SimResult reparsed = resultFromJson(json::parse(first));
    const std::string second = json::write(resultToJson(reparsed));
    EXPECT_EQ(first, second);

    EXPECT_EQ(reparsed.cycles, result.cycles);
    EXPECT_EQ(reparsed.uipc, result.uipc);
    EXPECT_EQ(reparsed.cache.hits.value(), result.cache.hits.value());
    EXPECT_EQ(reparsed.perCore.size(), result.perCore.size());
}

TEST(SpecJson, ResultsDocumentSortsByIndex)
{
    ExperimentSpec spec;
    spec.capacityBytes = 32_MiB;
    spec.accesses = 50'000;
    spec.system.numCores = 2;
    const SimResult result = runExperiment(spec);

    std::vector<ResultPoint> points(2);
    points[0].index = 1;
    points[0].label = "b";
    points[0].spec = spec;
    points[0].result = result;
    points[1].index = 0;
    points[1].label = "a";
    points[1].spec = spec;
    points[1].result = result;

    std::string grid_name, shard, hash;
    const std::vector<ResultPoint> reparsed = resultsFromJson(
        json::parse(json::write(
            resultsToJson("g", "1/2", "cafe0123", std::move(points)))),
        &grid_name, &shard, &hash);
    EXPECT_EQ(grid_name, "g");
    EXPECT_EQ(shard, "1/2");
    EXPECT_EQ(hash, "cafe0123");
    ASSERT_EQ(reparsed.size(), 2u);
    EXPECT_EQ(reparsed[0].index, 0u);
    EXPECT_EQ(reparsed[0].label, "a");
    EXPECT_EQ(reparsed[1].index, 1u);
}

// --------------------------------------------------------- registry

TEST(DesignRegistryTable, SingleSourceOfNames)
{
    const DesignRegistry &registry = DesignRegistry::instance();
    EXPECT_EQ(registry.all().size(), 10u);
    EXPECT_EQ(designName(DesignKind::Unison), "Unison Cache");
    EXPECT_EQ(designId(DesignKind::AlloyFp), "alloyfp");
    EXPECT_EQ(designId(DesignKind::UnisonWp), "unisonwp");
    EXPECT_EQ(designId(DesignKind::NoDramCache), "nocache");
    EXPECT_EQ(registry.byId("Unison Cache").id, "unison");
    EXPECT_EQ(registry.byId("ALLOY").kind, DesignKind::Alloy);
    EXPECT_EQ(registry.find("no-such-design"), nullptr);
}

TEST(DesignRegistryTable, DuplicateRegistrationThrows)
{
    DesignRegistry &registry = DesignRegistry::instance();
    DesignInfo dup = registry.byKind(DesignKind::Alloy);
    // Same id.
    EXPECT_THROW(registry.add(dup), std::invalid_argument);
    // Fresh id but an already-registered kind.
    dup.id = "alloytwo";
    dup.name = "Alloy Cache Two";
    dup.shortName = "Alloy2";
    EXPECT_THROW(registry.add(dup), std::invalid_argument);
}

TEST(DesignRegistryTable, RegistrationNeedsIdAndFactory)
{
    DesignInfo empty;
    EXPECT_THROW(DesignRegistry::instance().add(empty),
                 std::invalid_argument);
}

TEST(DesignRegistryTable, DefaultConfigMatchesKind)
{
    for (const DesignInfo &info : DesignRegistry::instance().all()) {
        const DesignConfig config(info.kind);
        EXPECT_EQ(config.kind(), info.kind);
    }
}

// ----------------------------------------------------- golden pins

/**
 * The design_contract_test golden counters, reproduced through a full
 * JSON round trip of each spec: serializing and reparsing a spec must
 * change nothing about the simulation it describes. The values are
 * the same pre-refactor pins design_contract_test.cpp carries.
 */
struct GoldenRow
{
    DesignKind kind;
    std::uint64_t cycles, hits, misses, offchipReads, stackedAccesses;
};

TEST(SpecJsonGolden, JsonRoundTrippedSpecsReproduceContractCounters)
{
    const GoldenRow golden[] = {
        {DesignKind::Unison, 263061ull, 3346ull, 1155ull, 13080ull,
         9591ull},
        {DesignKind::Alloy, 164157ull, 0ull, 4680ull, 3483ull,
         9364ull},
        {DesignKind::Footprint, 339164ull, 3739ull, 903ull, 21504ull,
         4411ull},
        {DesignKind::LohHill, 163555ull, 0ull, 4773ull, 3558ull,
         3558ull},
        {DesignKind::NaiveBlockFp, 268547ull, 3517ull, 1113ull,
         13495ull, 19986ull},
        {DesignKind::NaiveTaggedPage, 360971ull, 3716ull, 988ull,
         19346ull, 5274ull},
        {DesignKind::Ideal, 163669ull, 4707ull, 0ull, 0ull, 4707ull},
        {DesignKind::NoDramCache, 163567ull, 0ull, 4643ull, 3511ull,
         0ull},
    };

    for (const GoldenRow &g : golden) {
        ExperimentSpec spec;
        spec.design = g.kind;
        spec.capacityBytes = 64_MiB;
        spec.accesses = 300'000;
        spec.seed = 7;

        const ExperimentSpec reparsed =
            specFromJson(json::parse(json::write(specToJson(spec))));
        const SimResult r = runExperiment(reparsed);

        SCOPED_TRACE(designName(g.kind));
        EXPECT_EQ(r.cycles, g.cycles);
        EXPECT_EQ(r.cache.hits.value(), g.hits);
        EXPECT_EQ(r.cache.misses.value(), g.misses);
        EXPECT_EQ(r.offchip.reads, g.offchipReads);
        EXPECT_EQ(r.stacked.reads + r.stacked.writes,
                  g.stackedAccesses);
    }
}

} // namespace
} // namespace unison
