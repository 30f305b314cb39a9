/**
 * @file
 * Contracts of the content-addressed result store (store/result_store):
 *
 *  - insert/lookup round-trips a result byte-exactly, keyed by spec
 *    content (an equal-but-distinct spec value hits; any changed knob
 *    misses);
 *  - wired into runExperiments as RunHooks::cache, a warm store
 *    serves a repeated sweep with ZERO simulation and byte-identical
 *    results, across designs and both memory backends;
 *  - a store written by a different code version never serves this
 *    build (fresh simulation, not a wrong-numbers hit);
 *  - a corrupted object (injected via the FaultInjector read seam and
 *    via direct byte damage) is rejected with a structured warning
 *    and degrades to a miss -- never a half-trusted result;
 *  - an object truncated at EVERY byte offset, or with one byte
 *    flipped in each frame field class, is rejected (classified in
 *    the warning) and the runner re-simulates the point
 *    byte-identically and republishes a clean object;
 *  - a sweep rerun over the store of a killed run (some objects
 *    published, a torn temp file left behind) replays what landed and
 *    is byte-identical to the uninterrupted run, across designs and
 *    both memory backends;
 *  - an insert counts only once its directory entry is fsynced: a
 *    failed directory sync warns and is not counted;
 *  - gc() respects the byte budget, evicts oldest-first, and never
 *    evicts pinned (in-flight) objects, which is what makes a
 *    concurrent `store gc` safe under an active sweep.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <utime.h>

#include "common/fault_injection.hh"
#include "common/file_io.hh"
#include "common/version.hh"
#include "sim/runner.hh"
#include "sim/spec_json.hh"
#include "store/result_store.hh"

namespace unison {
namespace {

std::string
tempDir(const std::string &name)
{
    ::mkdir("store_test_tmp", 0777);
    const std::string dir = "store_test_tmp/" + name;
    // Fresh store per test: drop any objects a previous run left.
    [[maybe_unused]] const int rc =
        ::system(("rm -rf " + dir).c_str());
    return dir;
}

std::string
resultKey(const SimResult &result)
{
    return json::write(resultToJson(result));
}

ExperimentSpec
tinySpec(DesignKind design, std::uint64_t seed = 7,
         MemoryBackendKind backend = MemoryBackendKind::Fast)
{
    ExperimentSpec spec;
    spec.design = design;
    spec.capacityBytes = 32_MiB;
    spec.system.numCores = 4;
    spec.system.memoryBackend = backend;
    spec.accesses = 30'000;
    spec.seed = seed;
    return spec;
}

// ------------------------------------------------------- round trip

TEST(ResultStore, InsertLookupRoundTripsByteExactly)
{
    ResultStore store(tempDir("roundtrip"));
    const ExperimentSpec spec = tinySpec(DesignKind::Alloy);
    const SimResult fresh = runExperiment(spec);

    SimResult out;
    EXPECT_FALSE(store.lookup(spec, out)); // cold store
    EXPECT_EQ(store.misses(), 1u);

    store.insert(spec, fresh);
    EXPECT_EQ(store.inserts(), 1u);
    ASSERT_TRUE(store.lookup(spec, out));
    EXPECT_EQ(resultKey(out), resultKey(fresh));
    EXPECT_EQ(store.hits(), 1u);

    // Content addressing: an equal spec VALUE hits (identity is the
    // serialized content, not the object)...
    SimResult again;
    ExperimentSpec copy = spec;
    ASSERT_TRUE(store.lookup(copy, again));
    EXPECT_EQ(resultKey(again), resultKey(fresh));

    // ...and any knob change misses.
    copy.seed += 1;
    EXPECT_FALSE(store.lookup(copy, again));
}

// --------------------------------- runner seam: cache-hit sweeps

TEST(ResultStore, WarmStoreServesSweepWithZeroSimulation)
{
    // >= 3 designs x both memory backends, as one grid.
    std::vector<ExperimentSpec> specs;
    for (const DesignKind design :
         {DesignKind::Unison, DesignKind::Alloy, DesignKind::Footprint})
        for (const MemoryBackendKind backend :
             {MemoryBackendKind::Fast, MemoryBackendKind::Detailed})
            specs.push_back(tinySpec(design, /*seed=*/11, backend));

    ResultStore store(tempDir("sweep"));

    // Cold run: everything simulates, everything publishes.
    std::vector<SimResult> first;
    {
        StoreCacheHook hook(store, specs);
        RunHooks hooks;
        hooks.cache = &hook;
        first = runExperiments(specs, /*threads=*/2, nullptr, hooks);
        EXPECT_EQ(hook.hits(), 0u);
    }
    EXPECT_EQ(store.inserts(), specs.size());

    // Warm run: zero simulation (every point replays in the pre-pass,
    // so the hook's hit counter covers the whole grid), results
    // byte-identical.
    std::vector<SimResult> second;
    {
        StoreCacheHook hook(store, specs);
        RunHooks hooks;
        hooks.cache = &hook;
        std::size_t done_calls = 0;
        second = runExperiments(
            specs, /*threads=*/2,
            [&](std::size_t, const SimResult &) { ++done_calls; },
            hooks);
        EXPECT_EQ(hook.hits(), specs.size());
        EXPECT_EQ(done_calls, specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_TRUE(hook.wasHit(i));
    }
    EXPECT_EQ(store.inserts(), specs.size()); // no re-publish

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(resultKey(first[i]), resultKey(second[i])) << i;
}

// ------------------------------------------------- version isolation

TEST(ResultStore, StaleCodeVersionNeverServes)
{
    const std::string dir = tempDir("stale");
    const ExperimentSpec spec = tinySpec(DesignKind::Unison);
    const SimResult fresh = runExperiment(spec);

    {
        ResultStore old_build(dir, "unison-sim/0-ancient");
        old_build.insert(spec, fresh);
    }

    ResultStore store(dir); // current kSimCodeVersion
    SimResult out;
    EXPECT_FALSE(store.lookup(spec, out));

    // Same store dir, same build again: hits.
    ResultStore old_again(dir, "unison-sim/0-ancient");
    EXPECT_TRUE(old_again.lookup(spec, out));
    EXPECT_EQ(resultKey(out), resultKey(fresh));
}

// ------------------------------------------------ corruption rejection

TEST(ResultStore, CorruptedObjectIsRejectedNotTrusted)
{
    ResultStore store(tempDir("corrupt"));
    const ExperimentSpec spec = tinySpec(DesignKind::Alloy);
    store.insert(spec, runExperiment(spec));

    // Injected read-side corruption (the lying-disk seam): the frame
    // CRC catches it, lookup degrades to a miss.
    FaultPlan plan;
    plan.point = FaultPlan::Point::Read;
    plan.mode = FaultPlan::Mode::Corrupt;
    plan.pathSubstr = ".res";
    plan.offset = 20; // inside the payload
    FaultInjector::instance().arm(plan);
    SimResult out;
    EXPECT_FALSE(store.lookup(spec, out));
    FaultInjector::instance().disarm();

    // Undamaged on disk: the same object still serves.
    EXPECT_TRUE(store.lookup(spec, out));

    // Persistent damage: flip one payload byte on disk.
    const std::string path = store.objectPath(specFingerprint(spec));
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readFileBytes(path, bytes).ok());
    bytes[bytes.size() / 2] ^= 0x40;
    ASSERT_TRUE(writeFileBytes(path, bytes).ok());
    EXPECT_FALSE(store.lookup(spec, out));

    // A truncated (torn-looking) object is equally a miss.
    bytes[bytes.size() / 2] ^= 0x40; // restore
    bytes.resize(bytes.size() - 3);
    ASSERT_TRUE(writeFileBytes(path, bytes).ok());
    EXPECT_FALSE(store.lookup(spec, out));
}

TEST(ResultStore, MisplacedObjectIsRejectedByEmbeddedSpec)
{
    ResultStore store(tempDir("misplaced"));
    const ExperimentSpec a = tinySpec(DesignKind::Alloy, 1);
    const ExperimentSpec b = tinySpec(DesignKind::Alloy, 2);
    store.insert(a, runExperiment(a));

    // Simulate a hash collision / a mis-renamed file: b's address now
    // holds a's object. The recomputed fingerprint must refuse it.
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(
        readFileBytes(store.objectPath(specFingerprint(a)), bytes)
            .ok());
    ASSERT_TRUE(
        writeFileBytes(store.objectPath(specFingerprint(b)), bytes)
            .ok());
    SimResult out;
    EXPECT_FALSE(store.lookup(b, out));
    EXPECT_TRUE(store.lookup(a, out)); // the original is untouched
}

/** One spec through runExperiments over `store`: whether the store
 *  served it, and the result. */
SimResult
runThroughStore(ResultStore &store, const ExperimentSpec &spec,
                bool &served)
{
    const std::vector<ExperimentSpec> specs{spec};
    StoreCacheHook hook(store, specs);
    RunHooks hooks;
    hooks.cache = &hook;
    const SimResult result = runExperiments(specs, 1, nullptr, hooks)[0];
    served = hook.wasHit(0);
    return result;
}

TEST(ResultStore, SurvivesTruncationAtEveryByte)
{
    ResultStore store(tempDir("truncate"));
    ExperimentSpec spec = tinySpec(DesignKind::Alloy);
    spec.system.numCores = 1;
    spec.accesses = 2'000;
    const SimResult fresh = runExperiment(spec);
    store.insert(spec, fresh);
    const std::string path = store.objectPath(specFingerprint(spec));
    std::vector<std::uint8_t> full;
    ASSERT_TRUE(readFileBytes(path, full).ok());
    ASSERT_GT(full.size(), 100u);

    // The torn-object-after-a-crash matrix: every proper prefix of
    // the object. Each one is rejected; the runner then re-simulates
    // the point, matches the fresh result, and republishes the whole
    // object in place of the torn one.
    testing::internal::CaptureStderr();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        ASSERT_TRUE(writeFileBytes(
                        path, {full.begin(), full.begin() + cut})
                        .ok());
        bool served = true;
        const SimResult result = runThroughStore(store, spec, served);
        EXPECT_FALSE(served);
        EXPECT_EQ(resultKey(result), resultKey(fresh));
        std::vector<std::uint8_t> healed;
        ASSERT_TRUE(readFileBytes(path, healed).ok());
        EXPECT_EQ(healed, full);
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("[store-rejected]"), std::string::npos);
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.inserts(), 1 + full.size());

    // The untouched object serves.
    bool served = false;
    runThroughStore(store, spec, served);
    EXPECT_TRUE(served);
}

TEST(ResultStore, ClassifiesOneByteCorruptionInEveryFieldClass)
{
    ResultStore store(tempDir("flip"));
    const ExperimentSpec spec = tinySpec(DesignKind::Unison);
    const SimResult fresh = runExperiment(spec);
    store.insert(spec, fresh);
    const std::string path = store.objectPath(specFingerprint(spec));
    std::vector<std::uint8_t> good;
    ASSERT_TRUE(readFileBytes(path, good).ok());
    ASSERT_GT(good.size(), 100u);

    struct Case
    {
        const char *field;
        std::size_t offset; //!< byte flipped (SIZE_MAX: append one)
        const char *reason; //!< expected in the warning
    };
    // Record frame: u32 magic, u32 payload length, u32 CRC, payload.
    const std::vector<Case> cases = {
        {"magic", 0, "bad record magic"},
        {"length (high byte)", 7, "implausible record length"},
        {"crc", 8, "record CRC mismatch"},
        {"payload head", 12, "record CRC mismatch"},
        {"payload middle", good.size() / 2, "record CRC mismatch"},
        {"payload last byte", good.size() - 1, "record CRC mismatch"},
        {"trailing byte", SIZE_MAX, "trailing bytes"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.field);
        std::vector<std::uint8_t> damaged = good;
        if (c.offset == SIZE_MAX)
            damaged.push_back(0x55);
        else
            damaged[c.offset] ^= 0xff;
        ASSERT_TRUE(writeFileBytes(path, damaged).ok());

        testing::internal::CaptureStderr();
        SimResult out;
        const bool hit = store.lookup(spec, out);
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_FALSE(hit);
        EXPECT_NE(err.find("[store-rejected]"), std::string::npos)
            << err;
        EXPECT_NE(err.find(c.reason), std::string::npos) << err;

        // The runner re-simulates and republishes a clean object.
        testing::internal::CaptureStderr();
        bool served = true;
        const SimResult result = runThroughStore(store, spec, served);
        testing::internal::GetCapturedStderr();
        EXPECT_FALSE(served);
        EXPECT_EQ(resultKey(result), resultKey(fresh));
        std::vector<std::uint8_t> healed;
        ASSERT_TRUE(readFileBytes(path, healed).ok());
        EXPECT_EQ(healed, good);
    }
}

// ------------------------------------------------- resume identity

TEST(ResultStore, ResumeIsByteIdenticalAcrossDesignsAndBackends)
{
    for (const MemoryBackendKind backend :
         {MemoryBackendKind::Fast, MemoryBackendKind::Detailed}) {
        SCOPED_TRACE(backend == MemoryBackendKind::Fast ? "fast"
                                                        : "detailed");
        std::vector<ExperimentSpec> specs;
        std::uint64_t seed = 20;
        for (const DesignKind design :
             {DesignKind::Unison, DesignKind::Alloy,
              DesignKind::Footprint, DesignKind::NoDramCache})
            specs.push_back(tinySpec(design, seed++, backend));

        const std::vector<SimResult> uninterrupted =
            runExperiments(specs, 2);

        // "Crash" after two points: their objects are published, the
        // third died mid-publish and left half a temp file behind.
        const std::string name =
            backend == MemoryBackendKind::Fast ? "fast" : "detailed";
        ResultStore store(tempDir("resume_" + name));
        store.insert(specs[0], uninterrupted[0]);
        store.insert(specs[1], uninterrupted[1]);
        ResultStore scratch(tempDir("resume_scratch_" + name));
        scratch.insert(specs[2], uninterrupted[2]);
        std::vector<std::uint8_t> third;
        ASSERT_TRUE(
            readFileBytes(scratch.objectPath(specFingerprint(specs[2])),
                          third)
                .ok());
        third.resize(third.size() / 2);
        ASSERT_TRUE(
            writeFileBytes(store.dir() + "/objects/.tmp.1.0", third)
                .ok());

        // Rerun: two points replayed, two re-simulated; the merged
        // result set matches the uninterrupted run byte-for-byte.
        std::vector<SimResult> resumed;
        {
            StoreCacheHook hook(store, specs);
            RunHooks hooks;
            hooks.cache = &hook;
            resumed = runExperiments(specs, 2, nullptr, hooks);
            EXPECT_EQ(hook.hits(), 2u);
        }
        ASSERT_EQ(resumed.size(), uninterrupted.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(resultKey(resumed[i]),
                      resultKey(uninterrupted[i]))
                << "point " << i;

        // And a rerun of the completed sweep replays everything.
        StoreCacheHook complete(store, specs);
        RunHooks replay_hooks;
        replay_hooks.cache = &complete;
        const std::vector<SimResult> replayed =
            runExperiments(specs, 1, nullptr, replay_hooks);
        EXPECT_EQ(complete.hits(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(resultKey(replayed[i]),
                      resultKey(uninterrupted[i]));
    }
}

// ------------------------------------------------------------- gc

TEST(ResultStore, GcRespectsBudgetAndPins)
{
    ResultStore store(tempDir("gc"));
    std::vector<ExperimentSpec> specs;
    for (std::uint64_t seed = 0; seed < 4; ++seed)
        specs.push_back(tinySpec(DesignKind::Alloy, 200 + seed));
    std::vector<std::string> fps;
    std::vector<std::uint64_t> sizes;
    for (const ExperimentSpec &spec : specs) {
        store.insert(spec, runExperiment(spec));
        fps.push_back(specFingerprint(spec));
        sizes.push_back(fileSizeOrZero(store.objectPath(fps.back())));
    }

    // Age the objects deterministically: fps[0] oldest ... fps[3]
    // newest (mtime is the eviction order, and inserts above can all
    // land within one clock tick).
    for (std::size_t i = 0; i < fps.size(); ++i) {
        struct utimbuf times;
        times.actime = static_cast<time_t>(1000000 + i);
        times.modtime = static_cast<time_t>(1000000 + i);
        ASSERT_EQ(
            ::utime(store.objectPath(fps[i]).c_str(), &times), 0);
    }

    std::uint64_t total = 0;
    for (const std::uint64_t s : sizes)
        total += s;

    // Budget for roughly two objects: the two oldest go.
    const std::uint64_t budget = sizes[2] + sizes[3];
    const StoreGcSummary sum = store.gc(budget);
    EXPECT_EQ(sum.scanned, 4u);
    EXPECT_EQ(sum.bytesBefore, total);
    EXPECT_LE(sum.bytesAfter, budget);
    EXPECT_FALSE(fileExists(store.objectPath(fps[0])));
    EXPECT_FALSE(fileExists(store.objectPath(fps[1])));
    EXPECT_TRUE(fileExists(store.objectPath(fps[2])));
    EXPECT_TRUE(fileExists(store.objectPath(fps[3])));

    // A generous budget is a no-op.
    const StoreGcSummary idle = store.gc(total);
    EXPECT_EQ(idle.evicted, 0u);

    // Pinned objects survive even a zero budget -- the in-flight
    // guarantee. Unpinned ones do not.
    store.pin(fps[2]);
    const StoreGcSummary pinned = store.gc(0);
    EXPECT_TRUE(fileExists(store.objectPath(fps[2])));
    EXPECT_FALSE(fileExists(store.objectPath(fps[3])));
    EXPECT_EQ(pinned.pinnedKept, 1u);
    EXPECT_EQ(pinned.evicted, 1u);

    // Unpinned again, the last object is evictable.
    store.unpin(fps[2]);
    store.gc(0);
    EXPECT_FALSE(fileExists(store.objectPath(fps[2])));
}

TEST(ResultStore, HookPinsItsSpecsForItsLifetime)
{
    ResultStore store(tempDir("hookpin"));
    std::vector<ExperimentSpec> specs{tinySpec(DesignKind::Unison)};
    store.insert(specs[0], runExperiment(specs[0]));
    const std::string path =
        store.objectPath(specFingerprint(specs[0]));

    {
        StoreCacheHook hook(store, specs);
        store.gc(0); // in-flight: must survive a zero budget
        EXPECT_TRUE(fileExists(path));
    }
    store.gc(0); // hook gone, pin released
    EXPECT_FALSE(fileExists(path));
}

// ---------------------------------------------- insert degradation

TEST(ResultStore, FailedInsertDegradesToAWarning)
{
    ResultStore store(tempDir("failsave"));
    const ExperimentSpec spec = tinySpec(DesignKind::Alloy);
    const SimResult fresh = runExperiment(spec);

    FaultPlan plan;
    plan.point = FaultPlan::Point::Write;
    plan.mode = FaultPlan::Mode::Fail;
    plan.pathSubstr = ".tmp.";
    plan.offset = 10;
    FaultInjector::instance().arm(plan);
    store.insert(spec, fresh); // must not throw or exit
    FaultInjector::instance().disarm();

    EXPECT_EQ(store.inserts(), 0u);
    SimResult out;
    EXPECT_FALSE(store.lookup(spec, out)); // nothing half-published

    store.insert(spec, fresh); // and the path recovers
    EXPECT_TRUE(store.lookup(spec, out));
}

TEST(ResultStore, UnsyncedDirectoryIsNotCountedAsInserted)
{
    ResultStore store(tempDir("failsync"));
    const ExperimentSpec spec = tinySpec(DesignKind::Alloy);
    const SimResult fresh = runExperiment(spec);

    // The rename lands, but the directory fsync that makes it durable
    // fails: the insert must warn and not count.
    FaultPlan plan;
    plan.point = FaultPlan::Point::Sync;
    plan.mode = FaultPlan::Mode::Fail;
    plan.pathSubstr = "failsync/objects";
    plan.offset = 0;
    FaultInjector::instance().arm(plan);
    testing::internal::CaptureStderr();
    store.insert(spec, fresh); // must not throw or exit
    const std::string err = testing::internal::GetCapturedStderr();
    FaultInjector::instance().disarm();

    EXPECT_NE(err.find("[store-save-failed]"), std::string::npos) << err;
    EXPECT_NE(err.find("fsync of directory"), std::string::npos) << err;
    EXPECT_EQ(store.inserts(), 0u);

    store.insert(spec, fresh); // and the path recovers
    EXPECT_EQ(store.inserts(), 1u);
    SimResult out;
    EXPECT_TRUE(store.lookup(spec, out));
    EXPECT_EQ(resultKey(out), resultKey(fresh));
}

} // namespace
} // namespace unison
