/**
 * @file
 * Contracts of the durability building blocks the result store and
 * the checkpoint store sit on:
 *
 *  - the deterministic FaultInjector seam (fail / truncate / corrupt on
 *    writes and reads, fail on directory syncs) behaves as specified,
 *    and the CRC record frame catches whatever a lying disk leaves;
 *  - checkpoint files reject every injected damage class (magic,
 *    version skew, length, CRC, truncation, embedded-key mismatch)
 *    with a miss + structured warning, and a CRC-valid but
 *    shape-corrupt snapshot still degrades to a cold warm-up inside
 *    the runner with identical results;
 *  - the sticky-failing StateReader zero-fills and reports Corrupt;
 *  - results documents carry the code-version stamp.
 *
 * The `kill` fault mode (_exit at an exact byte) necessarily runs in a
 * separate process: cmake/unison_sim_resume_test.cmake kills unison_sim
 * while it publishes a store object and byte-compares the rerun's
 * output; CI additionally SIGKILLs a live run. The store's own damage
 * matrix (truncation at every byte, one flip per field class, resume
 * identity) lives in store_test.cpp.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "common/crc_frame.hh"
#include "common/fault_injection.hh"
#include "common/file_io.hh"
#include "common/state_io.hh"
#include "common/version.hh"
#include "sim/checkpoint_store.hh"
#include "sim/runner.hh"
#include "sim/spec_json.hh"

namespace unison {
namespace {

constexpr const char *kHash = "deadbeefdeadbeef";
constexpr std::uint32_t kTestMagic = 0x54534554u; // 'TEST'

std::string
tempPath(const std::string &name)
{
    ::mkdir("durability_test_tmp", 0777);
    const std::string path = "durability_test_tmp/" + name;
    std::remove(path.c_str());
    return path;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(readFileBytes(path, bytes).ok()) << path;
    return bytes;
}

void
spit(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    ASSERT_TRUE(writeFileBytes(path, bytes).ok()) << path;
}

std::string
resultKey(const SimResult &result)
{
    return json::write(resultToJson(result));
}

ExperimentSpec
tinySpec(DesignKind design, std::uint64_t seed = 7)
{
    ExperimentSpec spec;
    spec.design = design;
    spec.capacityBytes = 32_MiB;
    spec.system.numCores = 4;
    spec.accesses = 30'000;
    spec.seed = seed;
    return spec;
}

/** Two CRC record frames with distinct payloads; `boundary` is where
 *  the second starts. */
std::vector<std::uint8_t>
twoFrames(std::uint64_t &boundary)
{
    std::vector<std::uint8_t> bytes =
        encodeRecordFrame(kTestMagic, "first record payload");
    boundary = bytes.size();
    const std::string second = "second record payload, a bit longer";
    appendRecordFrame(bytes, kTestMagic, second.data(), second.size());
    return bytes;
}

/** Records of the clean frame prefix of `path`, and where it ends. */
std::size_t
cleanRecords(const std::string &path, std::uint64_t &valid_bytes,
             bool &torn)
{
    const std::vector<std::uint8_t> bytes = slurp(path);
    FrameWalker walker(bytes.data(), bytes.size(), kTestMagic);
    const std::uint8_t *payload = nullptr;
    std::size_t len = 0;
    std::size_t records = 0;
    while (walker.next(payload, len))
        ++records;
    valid_bytes = walker.validBytes();
    torn = walker.torn();
    return records;
}

// --------------------------------------------------- fault injection

TEST(FaultInjection, ParsesAndRejectsPlans)
{
    const FaultPlan plan =
        parseFaultPlan("write-kill@/objects/.tmp.:4096");
    EXPECT_EQ(plan.point, FaultPlan::Point::Write);
    EXPECT_EQ(plan.mode, FaultPlan::Mode::Kill);
    EXPECT_EQ(plan.pathSubstr, "/objects/.tmp.");
    EXPECT_EQ(plan.offset, 4096u);

    const FaultPlan sync = parseFaultPlan("sync-fail@/objects:2");
    EXPECT_EQ(sync.point, FaultPlan::Point::Sync);
    EXPECT_EQ(sync.mode, FaultPlan::Mode::Fail);
    EXPECT_EQ(sync.offset, 2u);

    for (const char *bad :
         {"", "write-kill", "write-kill@x", "write-kill@x:",
          "write-kill@x:12junk", "sideways-kill@x:1", "write-melt@x:1",
          "read-kill@x:1", "read-truncate@x:1", "sync-kill@x:1",
          "sync-corrupt@x:1"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(
            {
                try {
                    parseFaultPlan(bad);
                } catch (const SimError &e) {
                    EXPECT_EQ(e.code(), SimErrc::Usage);
                    throw;
                }
            },
            SimError);
    }
}

TEST(FaultInjection, FailModeIsStickyAndPersistsPrefix)
{
    const std::string path = tempPath("fail.frames");
    std::uint64_t boundary = 0;
    const std::vector<std::uint8_t> bytes = twoFrames(boundary);

    FaultPlan plan;
    plan.point = FaultPlan::Point::Write;
    plan.mode = FaultPlan::Mode::Fail;
    plan.pathSubstr = "fail.frames";
    plan.offset = boundary + 5; // dies 5 bytes into record 2
    FaultInjector::instance().arm(plan);

    const SimStatus first = writeFileBytes(path, bytes);
    EXPECT_FALSE(first.ok());
    EXPECT_EQ(first.code, SimErrc::Io);

    // The prefix that reached "disk" stays valid-prefix-recoverable.
    EXPECT_EQ(fileSizeOrZero(path), boundary + 5);
    std::uint64_t valid = 0;
    bool torn = false;
    EXPECT_EQ(cleanRecords(path, valid, torn), 1u);
    EXPECT_TRUE(torn);
    EXPECT_EQ(valid, boundary);

    // Sticky: later writes to the same path keep failing.
    const SimStatus second = writeFileBytes(path, bytes);
    EXPECT_FALSE(second.ok());
    FaultInjector::instance().disarm();
    EXPECT_TRUE(writeFileBytes(path, bytes).ok());
}

TEST(FaultInjection, TruncateModeIsALyingDisk)
{
    const std::string path = tempPath("lying.frames");
    std::uint64_t boundary = 0;
    const std::vector<std::uint8_t> bytes = twoFrames(boundary);

    FaultPlan plan;
    plan.point = FaultPlan::Point::Write;
    plan.mode = FaultPlan::Mode::Truncate;
    plan.pathSubstr = "lying.frames";
    plan.offset = boundary + 7;
    FaultInjector::instance().arm(plan);
    // The write *claims* success -- that is the point.
    EXPECT_TRUE(writeFileBytes(path, bytes).ok());
    FaultInjector::instance().disarm();

    EXPECT_EQ(fileSizeOrZero(path), boundary + 7);
    std::uint64_t valid = 0;
    bool torn = false;
    EXPECT_EQ(cleanRecords(path, valid, torn), 1u);
    EXPECT_TRUE(torn); // ...and the CRC frame catches it later
    EXPECT_EQ(valid, boundary);
}

TEST(FaultInjection, ReadCorruptionIsCaughtByTheFrame)
{
    const std::string path = tempPath("readcorrupt.frames");
    spit(path, encodeRecordFrame(kTestMagic, "one record payload"));

    FaultPlan plan;
    plan.point = FaultPlan::Point::Read;
    plan.mode = FaultPlan::Mode::Corrupt;
    plan.pathSubstr = "readcorrupt.frames";
    plan.offset = 14; // inside the payload
    FaultInjector::instance().arm(plan);
    std::uint64_t valid = 0;
    bool torn = false;
    const std::size_t records = cleanRecords(path, valid, torn);
    FaultInjector::instance().disarm();
    EXPECT_TRUE(torn);
    EXPECT_EQ(records, 0u);

    // Undamaged on disk: the same file reads clean once disarmed.
    EXPECT_EQ(cleanRecords(path, valid, torn), 1u);
    EXPECT_FALSE(torn);
}

TEST(FaultInjection, SyncFailureFiresAfterTheGivenCount)
{
    const std::string dir = tempPath("syncdir");
    ::mkdir(dir.c_str(), 0777);
    EXPECT_TRUE(syncDirectory(dir).ok());
    EXPECT_EQ(syncDirectory(dir + "/missing").code, SimErrc::Io);

    FaultPlan plan;
    plan.point = FaultPlan::Point::Sync;
    plan.mode = FaultPlan::Mode::Fail;
    plan.pathSubstr = "syncdir";
    plan.offset = 1; // the first sync succeeds, every later one fails
    FaultInjector::instance().arm(plan);
    EXPECT_TRUE(syncDirectory(dir).ok());
    const SimStatus second = syncDirectory(dir);
    EXPECT_EQ(second.code, SimErrc::Io);
    EXPECT_FALSE(syncDirectory(dir).ok());
    FaultInjector::instance().disarm();
    EXPECT_TRUE(syncDirectory(dir).ok());
}

// ------------------------------------------------- checkpoint files

TEST(CheckpointStore, RoundTripAndResumeIdentity)
{
    ExperimentSpec spec = tinySpec(DesignKind::Unison);
    spec.accesses = 120'000;
    spec.system.warmupAccesses = 60'000;

    WarmCheckpoint captured;
    const SimResult cold = runExperimentCk(spec, nullptr, &captured);
    ASSERT_TRUE(captured.valid());

    FileCheckpointStore store(tempPath("ckpt_roundtrip.dir"));
    const std::string key = warmPrefixKey(spec);
    store.save(key, captured);
    ASSERT_TRUE(fileExists(store.pathFor(key)));

    WarmCheckpoint loaded;
    ASSERT_TRUE(store.tryLoad(key, loaded));
    EXPECT_EQ(loaded.warmAccesses, captured.warmAccesses);
    EXPECT_EQ(loaded.bytes, captured.bytes);

    const SimResult resumed = runExperimentCk(spec, &loaded, nullptr);
    EXPECT_EQ(resultKey(resumed), resultKey(cold));
}

TEST(CheckpointStore, RejectsEveryDamageClass)
{
    ExperimentSpec spec = tinySpec(DesignKind::Alloy);
    spec.accesses = 120'000;
    spec.system.warmupAccesses = 60'000;
    WarmCheckpoint captured;
    runExperimentCk(spec, nullptr, &captured);
    ASSERT_TRUE(captured.valid());

    FileCheckpointStore store(tempPath("ckpt_damage.dir"));
    const std::string key = warmPrefixKey(spec);
    store.save(key, captured);
    const std::string path = store.pathFor(key);
    const std::vector<std::uint8_t> good = slurp(path);
    ASSERT_GT(good.size(), 21u);

    const auto expectMiss = [&](const char *what) {
        WarmCheckpoint out;
        EXPECT_FALSE(store.tryLoad(key, out)) << what;
        EXPECT_FALSE(out.valid()) << what;
    };

    // One flipped byte per header/payload field class.
    const std::vector<std::pair<const char *, std::size_t>> flips = {
        {"magic", 0},
        {"version", 4},
        {"payload length", 8},
        {"payload crc", 16},
        {"payload head", 20},
        {"payload middle", 20 + (good.size() - 20) / 2},
        {"payload tail", good.size() - 1},
    };
    for (const auto &[what, offset] : flips) {
        SCOPED_TRACE(what);
        std::vector<std::uint8_t> damaged = good;
        damaged[offset] ^= 0x01;
        spit(path, damaged);
        expectMiss(what);
    }

    // Truncation at a few representative lengths (short header,
    // mid-header, mid-payload, one byte short).
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{3}, std::size_t{12},
          good.size() / 2, good.size() - 1}) {
        SCOPED_TRACE("truncated to " + std::to_string(cut));
        spit(path, {good.begin(), good.begin() + cut});
        expectMiss("truncation");
    }

    // Trailing garbage after a valid frame.
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0x55);
    spit(path, padded);
    expectMiss("trailing bytes");

    // Embedded-key mismatch: a byte-identical file parked under a
    // different key's name must not resume that key.
    ExperimentSpec other = spec;
    other.seed = 999;
    const std::string other_key = warmPrefixKey(other);
    spit(store.pathFor(other_key), good);
    WarmCheckpoint out;
    EXPECT_FALSE(store.tryLoad(other_key, out));

    // The pristine file still loads (the store is not sticky-broken).
    spit(path, good);
    EXPECT_TRUE(store.tryLoad(key, out));
}

TEST(CheckpointStore, ShapeCorruptSnapshotFallsBackColdInRunner)
{
    // A frame whose CRC is valid but whose *state payload* is garbage
    // passes the store's checks and must be caught one layer down, by
    // the sticky StateReader inside System -- and the runner must then
    // deliver the same numbers as a store-less run.
    ExperimentSpec base = tinySpec(DesignKind::Unison);
    base.accesses = 90'000;
    base.system.warmupAccesses = 45'000;
    std::vector<ExperimentSpec> specs{base, base};
    specs[1].accesses = 120'000; // same warm prefix, longer window

    const std::vector<SimResult> plain = runExperiments(specs, 1);

    FileCheckpointStore store(tempPath("ckpt_shape.dir"));
    const std::string key = warmPrefixKey(specs[0]);
    WarmCheckpoint bogus;
    bogus.warmAccesses = specs[0].system.warmupAccesses;
    bogus.bytes.assign(512, 0xab); // not a System serialization
    store.save(key, bogus);
    ASSERT_TRUE(fileExists(store.pathFor(key)));

    RunHooks hooks;
    hooks.checkpoints = &store;
    const std::vector<SimResult> with_store =
        runExperiments(specs, 1, nullptr, hooks);
    ASSERT_EQ(with_store.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
        EXPECT_EQ(resultKey(with_store[i]), resultKey(plain[i]))
            << "point " << i;
}

TEST(CheckpointStore, RunnerPersistsAndReusesSnapshots)
{
    ExperimentSpec base = tinySpec(DesignKind::Alloy);
    base.accesses = 90'000;
    base.system.warmupAccesses = 45'000;
    const std::vector<ExperimentSpec> specs{base};

    const std::vector<SimResult> plain = runExperiments(specs, 1);

    FileCheckpointStore store(tempPath("ckpt_reuse.dir"));
    RunHooks hooks;
    hooks.checkpoints = &store;

    // First run: store miss, leader captures and persists.
    const std::vector<SimResult> first =
        runExperiments(specs, 1, nullptr, hooks);
    EXPECT_EQ(resultKey(first[0]), resultKey(plain[0]));
    const std::string key = warmPrefixKey(base);
    ASSERT_TRUE(fileExists(store.pathFor(key)));

    // Second run: store hit, warm-up skipped, identical numbers.
    const std::vector<SimResult> second =
        runExperiments(specs, 1, nullptr, hooks);
    EXPECT_EQ(resultKey(second[0]), resultKey(plain[0]));
}

// ------------------------------------------------------- state reader

TEST(StateReader, UnderrunZeroFillsAndReportsCorrupt)
{
    StateWriter w;
    w.pod(std::uint32_t{7});
    const std::vector<std::uint8_t> bytes = std::move(w).take();

    StateReader in(bytes);
    std::uint32_t first = 0;
    in.pod(first);
    EXPECT_EQ(first, 7u);
    EXPECT_TRUE(in.ok());

    std::uint64_t missing = 99;
    in.pod(missing);
    EXPECT_EQ(missing, 0u) << "failed read must not leave stale data";
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(in.status().code, SimErrc::Corrupt);
    EXPECT_THROW(in.throwIfFailed(), SimError);

    // Sticky: later reads zero-fill too, even if bytes remain.
    std::uint8_t after = 42;
    in.pod(after);
    EXPECT_EQ(after, 0u);
}

TEST(StateReader, ImplausibleVectorCountCannotAllocate)
{
    StateWriter w;
    w.pod(std::uint64_t{1} << 60); // claims 2^60 elements follow
    const std::vector<std::uint8_t> bytes = std::move(w).take();

    StateReader in(bytes);
    std::vector<std::uint64_t> v{1, 2, 3};
    in.podVectorResize(v); // must bounds-check BEFORE resizing
    EXPECT_FALSE(in.ok());
    EXPECT_TRUE(v.empty());
}

TEST(StateReader, ShapeMismatchZeroFillsInPlace)
{
    StateWriter w;
    const std::vector<std::uint32_t> saved{1, 2};
    w.podVector(saved);
    const std::vector<std::uint8_t> bytes = std::move(w).take();

    StateReader in(bytes);
    std::vector<std::uint32_t> v{9, 9, 9}; // component expects three
    const std::uint32_t *data = v.data();
    in.podVectorExact(v);
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v.data(), data) << "in-place fill must not reallocate";
    for (const std::uint32_t x : v)
        EXPECT_EQ(x, 0u);
}

TEST(StateReader, TrailingBytesAreCorrupt)
{
    StateWriter w;
    w.pod(std::uint16_t{1});
    w.pod(std::uint16_t{2});
    const std::vector<std::uint8_t> bytes = std::move(w).take();

    StateReader in(bytes);
    std::uint16_t only = 0;
    in.pod(only);
    in.expectEnd();
    EXPECT_FALSE(in.ok());
}

// ---------------------------------------------------- results schema

TEST(ResultsSchema, CarriesTheCodeVersionStamp)
{
    ResultPoint point;
    point.label = "point-0";
    point.spec = tinySpec(DesignKind::Alloy);
    point.result = runExperiment(point.spec);
    const json::Value doc = resultsToJson("smoke", "", kHash, {point});
    std::string name, shard, hash, version;
    resultsFromJson(doc, &name, &shard, &hash, &version);
    EXPECT_EQ(version, kSimCodeVersion);
    EXPECT_EQ(hash, kHash);
}

} // namespace
} // namespace unison
