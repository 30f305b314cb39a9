/**
 * @file
 * Contracts of the sweep-serving layer (serve/):
 *
 *  - the wire protocol round-trips every message kind through its
 *    single-line rendering (writeCompact -> parse -> identical value),
 *    and LineChannel frames documents correctly over a real socket
 *    pair, including split and coalesced reads;
 *  - SweepService resolves a repeated submission entirely from the
 *    store (zero simulation, byte-identical points);
 *  - CONCURRENT overlapping submissions never simulate the same
 *    fingerprint twice: one submission owns each point, the others
 *    wait and receive the identical result (the acceptance criterion
 *    of the serving subsystem);
 *  - a submission with an invalid point fails as SimError(Usage)
 *    without poisoning the in-flight table;
 *  - a long serve session holds threads for live connections only:
 *    finished client threads are joined on the next accept.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/sweep_service.hh"

namespace unison {
namespace {

using serve::LineChannel;
using serve::SubmitStats;
using serve::SweepService;

std::string
tempDir(const std::string &name)
{
    ::mkdir("serve_test_tmp", 0777);
    const std::string dir = "serve_test_tmp/" + name;
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

GridFile
makeGrid(const std::string &name,
         const std::vector<ExperimentSpec> &specs,
         std::size_t first_index = 0)
{
    GridFile grid;
    grid.name = name;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        GridPoint point;
        point.label = name + "-" + std::to_string(first_index + i);
        point.index = first_index + i;
        point.spec = specs[i];
        grid.points.push_back(std::move(point));
    }
    return grid;
}

// --------------------------------------------------------- protocol

TEST(ServeProtocol, MessagesRoundTripThroughOneLine)
{
    ResultPoint point;
    point.index = 3;
    point.label = "unison/1G";
    point.spec = tinySpec(DesignKind::Unison);
    point.result = runExperiment(point.spec);

    for (const json::Value &doc :
         {serve::submitRequest(specToJson(point.spec)),
          serve::pingRequest(), serve::shutdownRequest(),
          serve::pongReply(), serve::pointReply(point, "store"),
          serve::doneReply("grid", "feedfacefeedface", 4, 2, 1, 1),
          serve::errorReply(SimErrc::Corrupt, "spec line 3: bad")}) {
        const std::string line = json::writeCompact(doc);
        EXPECT_EQ(line.find('\n'), std::string::npos);
        EXPECT_EQ(json::writeCompact(json::parse(line)), line);
    }

    // A point reply carries the result byte-exactly.
    const json::Value wire =
        json::parse(json::writeCompact(serve::pointReply(point, "x")));
    EXPECT_EQ(resultKey(resultFromJson(*wire.find("result"))),
              resultKey(point.result));

    for (const SimErrc code :
         {SimErrc::Usage, SimErrc::Io, SimErrc::Corrupt})
        EXPECT_EQ(serve::errcFromName(simErrcName(code)), code);
}

TEST(ServeProtocol, LineChannelFramesOverASocketPair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineChannel a(fds[0]), b(fds[1]);

    // Several docs written before any read: the reader must split the
    // coalesced stream back into documents.
    ASSERT_TRUE(a.writeDoc(serve::pingRequest()));
    ASSERT_TRUE(a.writeDoc(serve::shutdownRequest()));
    json::Value doc;
    ASSERT_TRUE(b.readDoc(doc));
    EXPECT_EQ(doc.find("op")->asString(), "ping");
    ASSERT_TRUE(b.readDoc(doc));
    EXPECT_EQ(doc.find("op")->asString(), "shutdown");

    // Clean EOF is false, not an error.
    ::close(fds[0]);
    EXPECT_FALSE(b.readDoc(doc));
    ::close(fds[1]);
}

// ----------------------------------------------------- sweep service

TEST(SweepService, RepeatedSubmissionIsPureStoreHits)
{
    ResultStore store(tempDir("repeat"));
    SweepService service(store, /*threads=*/2);
    const GridFile grid = makeGrid(
        "repeat", {tinySpec(DesignKind::Unison, 1),
                   tinySpec(DesignKind::Alloy, 2)});

    std::vector<ResultPoint> first, second;
    std::string hash1, hash2;
    const SubmitStats cold = service.run(
        grid,
        [&](const ResultPoint &p, const char *) {
            first.push_back(p);
        },
        &hash1);
    EXPECT_EQ(cold.simulated, 2u);
    EXPECT_EQ(cold.storeHits, 0u);

    const SubmitStats warm = service.run(
        grid,
        [&](const ResultPoint &p, const char *source) {
            second.push_back(p);
            EXPECT_STREQ(source, "store");
        },
        &hash2);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.storeHits, 2u);
    EXPECT_EQ(hash1, hash2);

    // Points stream in completion order (cold) vs index order (warm
    // replay pass): compare documents, not stream positions -- the
    // same normalization the submit client applies.
    const auto by_index = [](const ResultPoint &a,
                             const ResultPoint &b) {
        return a.index < b.index;
    };
    std::sort(first.begin(), first.end(), by_index);
    std::sort(second.begin(), second.end(), by_index);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].label, second[i].label);
        EXPECT_EQ(resultKey(first[i].result),
                  resultKey(second[i].result));
    }
}

TEST(SweepService, ConcurrentOverlapNeverSimulatesTwice)
{
    ResultStore store(tempDir("overlap"));
    SweepService service(store, /*threads=*/1);

    // Three specs; both submissions share the middle one. 4 unique
    // fingerprints total, so across BOTH submissions exactly 4 points
    // may simulate -- any more is duplicated work.
    const ExperimentSpec shared = tinySpec(DesignKind::Unison, 50);
    const GridFile grid_a = makeGrid(
        "a", {tinySpec(DesignKind::Alloy, 51), shared,
              tinySpec(DesignKind::Alloy, 52)});
    const GridFile grid_b = makeGrid(
        "b", {tinySpec(DesignKind::Footprint, 53), shared});

    SubmitStats stats_a, stats_b;
    std::vector<ResultPoint> points_a, points_b;
    std::thread ta([&] {
        stats_a = service.run(grid_a, [&](const ResultPoint &p,
                                          const char *) {
            points_a.push_back(p);
        });
    });
    std::thread tb([&] {
        stats_b = service.run(grid_b, [&](const ResultPoint &p,
                                          const char *) {
            points_b.push_back(p);
        });
    });
    ta.join();
    tb.join();

    EXPECT_EQ(points_a.size(), 3u);
    EXPECT_EQ(points_b.size(), 2u);
    // The dedup invariant: unique work ran exactly once, somewhere.
    EXPECT_EQ(stats_a.simulated + stats_b.simulated, 4u);
    EXPECT_EQ(store.inserts(), 4u);

    // The shared point's result is identical wherever it surfaced.
    const std::string shared_fp = specFingerprint(shared);
    std::vector<std::string> shared_keys;
    for (const auto *points : {&points_a, &points_b})
        for (const ResultPoint &p : *points)
            if (specFingerprint(p.spec) == shared_fp)
                shared_keys.push_back(resultKey(p.result));
    ASSERT_EQ(shared_keys.size(), 2u);
    EXPECT_EQ(shared_keys[0], shared_keys[1]);
}

TEST(SweepService, InvalidPointFailsCleanly)
{
    ResultStore store(tempDir("invalid"));
    SweepService service(store, /*threads=*/1);

    ExperimentSpec bad = tinySpec(DesignKind::Unison);
    bad.capacityBytes = 0; // no cache at all: validation rejects it
    const GridFile grid = makeGrid("bad", {bad});
    try {
        service.run(grid, nullptr);
        FAIL() << "expected SimError(Usage)";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrc::Usage);
    }

    // The failure left no stuck claims: a valid submission proceeds.
    const GridFile ok =
        makeGrid("ok", {tinySpec(DesignKind::Alloy, 99)});
    const SubmitStats stats = service.run(ok, nullptr);
    EXPECT_EQ(stats.simulated, 1u);
}

// ------------------------------------------------------------ server

TEST(Server, FinishedClientThreadsAreReaped)
{
    const std::string dir = tempDir("reap");
    ::mkdir(dir.c_str(), 0777);
    serve::ServeOptions options;
    options.listenPath = dir + "/s.sock";
    options.storeDir = dir + "/store";
    options.threads = 1;
    serve::Server server(options);
    int rc = -1;
    std::thread serving([&] { rc = server.run(); });

    // Wait for the listener, then open and close 64 connections one
    // after another. Without reaping, every one would leave its
    // thread behind until shutdown.
    SimStatus ready = SimStatus::failure(SimErrc::Io, "not yet");
    for (int attempt = 0; attempt < 500 && !ready.ok(); ++attempt) {
        ready = serve::pingServer(options.listenPath);
        if (!ready.ok())
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(ready.ok()) << ready.message;
    for (int i = 0; i < 64; ++i)
        ASSERT_TRUE(serve::pingServer(options.listenPath).ok()) << i;
    EXPECT_LE(server.clientThreads(), 4u);

    serve::shutdownServer(options.listenPath);
    serving.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(server.clientThreads(), 0u);
}

} // namespace
} // namespace unison
