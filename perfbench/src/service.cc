#include "service.hh"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>

#include "layers.hh"
#include "serve/client.hh"
#include "serve/sweep_service.hh"
#include "sim/runner.hh"
#include "store/result_store.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench {

using namespace unison;

// ------------------------------------------------------------ server

ServerProcess::ServerProcess(const Options &opts,
                             const std::string &store_dir, int threads)
{
    static std::atomic<int> counter{0};
    socket_ = opts.workDir + "/serve" + std::to_string(counter++) + ".sock";
    const std::string log = opts.workDir + "/server.log";
    const std::string threads_arg = std::to_string(threads);
    std::vector<std::string> args = {opts.unisonSim, "serve",
                                     "--listen",     socket_,
                                     "--store",      store_dir,
                                     "--threads",    threads_arg};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    const int rc = posix_spawn(&pid_, opts.unisonSim.c_str(), &actions,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        pid_ = -1;
        throw std::runtime_error("cannot start " + opts.unisonSim);
    }
}

ServerProcess::~ServerProcess()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
    }
}

bool
ServerProcess::waitReady(double timeout_s)
{
    const auto t0 = Clock::now();
    while (secondsSince(t0) < timeout_s) {
        if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
            pid_ = -1;
            return false;
        }
        if (serve::pingServer(socket_).ok())
            return true;
        // Yield rather than sleep: the server shares this CPU, and an
        // idle vCPU wakes after a delay that depends on the host's load.
        std::this_thread::yield();
    }
    return false;
}

bool
ServerProcess::shutdown()
{
    if (pid_ <= 0)
        return false;
    try {
        serve::shutdownServer(socket_);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: shutdown request failed: " << e.what()
                  << "\n";
        return false; // the destructor kills it
    }
    int status = 0;
    const auto t0 = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (secondsSince(t0) > 60.0)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ------------------------------------------------------------- checks

namespace {

std::string
resultBytes(const SimResult &r)
{
    return json::writeCompact(resultToJson(r));
}

/** Every failure found in one submit's reply, one message per point. */
void
checkServed(const std::vector<GridPoint> &grid,
            const serve::SubmitOutcome &out,
            std::vector<std::string> &failures)
{
    std::vector<char> seen(grid.size(), 0);
    for (const ResultPoint &p : out.points) {
        if (p.index >= grid.size() || seen[p.index]) {
            failures.push_back("served point with bad index " +
                               std::to_string(p.index));
            continue;
        }
        seen[p.index] = 1;
        const GridPoint &asked = grid[p.index];
        if (specFingerprint(p.spec) != specFingerprint(asked.spec)) {
            failures.push_back("served spec differs for " + asked.label);
            continue;
        }
        const std::string err = conservationError(asked.spec, p.result);
        if (!err.empty())
            failures.push_back(asked.label + ": " + err);
    }
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (!seen[i])
            failures.push_back("point " + grid[i].label + " not served");
}

/** Keeps the probe loops' results observable. */
volatile std::uint64_t g_probeSink = 0;

json::Value
gridDoc(const std::vector<GridPoint> &grid)
{
    return gridToJson("sweep-serve", grid);
}

} // namespace

// -------------------------------------------------------------- probe

void
serviceProbe(const Options &opts, const KnownPoints &known, int threads,
             const ServeCounts *counts, double runner_points_per_s,
             Report &report)
{
    constexpr int kReps = 40;
    constexpr int kServeReps = 7;
    const std::size_t n = known.grid.size();
    std::uint64_t sink = 0;
    report.attempted += n;

    // spec_json: fingerprint, grid parse, result emit.
    std::vector<std::string> fps(n);
    auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep)
        for (std::size_t i = 0; i < n; ++i)
            fps[i] = specFingerprint(known.grid[i].spec);
    const double fingerprint_us =
        nsBetween(t0, Clock::now()) / (kReps * n) / 1e3;

    const json::Value doc = gridDoc(known.grid);
    const std::string text = json::write(doc);
    t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep)
        sink += gridFromJson(json::parse(text)).points.size();
    const double parse_us = nsBetween(t0, Clock::now()) / kReps / 1e3;

    t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep)
        for (const SimResult &r : known.results)
            sink += json::write(resultToJson(r)).size();
    const double emit_us = nsBetween(t0, Clock::now()) / (kReps * n) / 1e3;

    // store: fsync'd inserts and verified lookups in a fresh store.
    const std::string store_dir = opts.workDir + "/probe_store";
    ResultStore store(store_dir);
    std::vector<double> insert_us, lookup_us;
    std::uint64_t rejects = 0;
    for (std::size_t i = 0; i < n; ++i) {
        t0 = Clock::now();
        store.insertFp(fps[i], known.grid[i].spec, known.results[i]);
        insert_us.push_back(nsBetween(t0, Clock::now()) / 1e3);
    }
    for (int rep = 0; rep < kReps / 4; ++rep) {
        for (std::size_t i = 0; i < n; ++i) {
            SimResult out;
            t0 = Clock::now();
            const bool hit = store.lookupFp(fps[i], out);
            lookup_us.push_back(nsBetween(t0, Clock::now()) / 1e3);
            if (!hit)
                ++rejects;
            else if (rep == 0 &&
                     resultBytes(out) != resultBytes(known.results[i]))
                report.fail("store returned different bytes for " +
                            known.grid[i].label);
        }
    }

    // serve: the same all-hit grid over the socket and in process.
    ServeCounts probe_counts;
    std::vector<double> wire_ms, inproc_ms;
    {
        ServerProcess server(opts, store_dir, threads);
        if (!server.waitReady(30.0))
            throw std::runtime_error("probe server did not start");
        for (int rep = 0; rep < kServeReps; ++rep) {
            t0 = Clock::now();
            const serve::SubmitOutcome out =
                serve::submitGrid(server.socket(), doc, /*quiet=*/true);
            wire_ms.push_back(nsBetween(t0, Clock::now()) / 1e6);
            if (rep == 0) {
                probe_counts = {out.points.size(), out.storeHits,
                                out.peerHits, out.simulated};
                std::vector<std::string> failures;
                checkServed(known.grid, out, failures);
                for (const ResultPoint &p : out.points)
                    if (p.index < n &&
                        resultBytes(p.result) !=
                            resultBytes(known.results[p.index]))
                        failures.push_back("served bytes differ for " +
                                           known.grid[p.index].label);
                for (const std::string &f : failures)
                    report.fail(f);
            }
        }
        serve::SweepService service(store, threads);
        const GridFile grid = gridFromJson(doc);
        for (int rep = 0; rep < kServeReps; ++rep) {
            t0 = Clock::now();
            service.run(grid, [&](const ResultPoint &p, const char *) {
                sink += p.index;
            });
            inproc_ms.push_back(nsBetween(t0, Clock::now()) / 1e6);
        }
        if (!server.shutdown())
            report.fail("probe server did not shut down cleanly");
    }
    g_probeSink = sink;

    const ServeCounts &c = counts != nullptr ? *counts : probe_counts;
    const double points = static_cast<double>(std::max<std::uint64_t>(
        c.points, 1));
    report.add("runner.points_per_s", runner_points_per_s, "points/s");
    report.add("spec.fingerprint_us", fingerprint_us, "us");
    report.add("spec.grid_parse_us", parse_us, "us");
    report.add("spec.result_emit_us", emit_us, "us");
    report.add("store.lookup_us", median(lookup_us), "us");
    report.add("store.insert_us", median(insert_us), "us");
    report.add("store.hit_ratio", c.storeHits / points, "fraction");
    report.add("store.rejects", static_cast<double>(rejects), "count");
    report.add("serve.wire_ms", median(wire_ms) - median(inproc_ms), "ms");
    report.add("serve.peer_ratio", c.peerHits / points, "fraction");
    report.add("serve.simulated_points", static_cast<double>(c.simulated),
               "count");
    std::fprintf(stderr,
                 "perfbench: all-hit grid of %zu points: submit %.3f ms, "
                 "in-process SweepService::run %.3f ms (medians of %d)\n",
                 n, median(wire_ms), median(inproc_ms), kServeReps);
}

// ---------------------------------------------------------- sweep-serve

namespace {

struct ClientLog
{
    std::vector<double> latencyMs;
    ServeCounts counts;
    std::uint64_t attempted = 0;
    std::vector<GridPoint> samples; //!< points to byte-compare later
    std::vector<ResultPoint> served; //!< what the server sent for them
    std::vector<std::string> failures;
};

/** Submit `grid`, check the reply, and log it; false if it threw. */
bool
submitAndCheck(const ServerProcess &server,
               const std::vector<GridPoint> &grid, ClientLog &log,
               serve::SubmitOutcome &out)
{
    log.attempted += grid.size();
    const auto t0 = Clock::now();
    try {
        out = serve::submitGrid(server.socket(), gridDoc(grid), true);
    } catch (const std::exception &e) {
        for (const GridPoint &p : grid)
            log.failures.push_back("submit failed for " + p.label + ": " +
                                   e.what());
        return false;
    }
    log.latencyMs.push_back(nsBetween(t0, Clock::now()) / 1e6);
    log.counts.points += out.points.size();
    log.counts.storeHits += out.storeHits;
    log.counts.peerHits += out.peerHits;
    log.counts.simulated += out.simulated;
    checkServed(grid, out, log.failures);
    return true;
}

constexpr std::uint64_t kSampleEvery = 8;

} // namespace

std::string
runSweepServe(const Options &opts, Report &report)
{
    constexpr int kClients = SweepTraffic::kClients;
    const SweepTraffic traffic(opts.seed);

    // Set-up: build the inputs and start a server on a fresh store, up
    // to a successful ping. The timed server is then started afresh.
    std::vector<std::vector<GridPoint>> warm(kClients);
    const auto start_server = [&](const std::string &store) {
        for (int c = 0; c < kClients; ++c)
            warm[c] = traffic.warmupGrid(c);
        auto s = std::make_unique<ServerProcess>(
            opts, opts.workDir + "/" + store, SweepTraffic::kServerThreads);
        if (!s->waitReady(30.0))
            throw std::runtime_error("server did not answer a ping");
        return s;
    };
    const double setup_s = medianSetupSeconds([&](std::size_t rep) {
        return start_server("setup" + std::to_string(rep));
    });
    std::unique_ptr<ServerProcess> server = start_server("store");

    // Untimed warm-up round: each client's first grid, all new points.
    std::vector<ClientLog> logs(kClients);
    std::vector<serve::SubmitOutcome> warm_out(kClients);
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                submitAndCheck(*server, warm[c], logs[c], warm_out[c]);
            });
        for (std::thread &t : threads)
            t.join();
    }
    KnownPoints known;
    {
        std::vector<std::pair<std::string, ExperimentSpec>> points;
        for (int c = 0; c < kClients; ++c) {
            for (const ResultPoint &p : warm_out[c].points) {
                if (p.index >= warm[c].size())
                    continue; // counted by checkServed
                const GridPoint &asked = warm[c][p.index];
                points.emplace_back("c" + std::to_string(c) + "/" +
                                        asked.label,
                                    asked.spec);
                known.results.push_back(p.result);
            }
            logs[c].latencyMs.clear();
            logs[c].counts = {};
        }
        known.grid = labelled(std::move(points));
    }
    const std::uint64_t digest = simDigest(known.results);

    // Timed closed loop: each client submits its next grid as soon as
    // the previous one is done. Meanwhile this thread takes a host
    // probe slice every 100 ms on the same CPU.
    HostProbe probe;
    const auto start = Clock::now();
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                ClientLog &log = logs[c];
                std::vector<ExperimentSpec> history;
                for (const GridPoint &p : warm[c])
                    history.push_back(p.spec);
                for (std::uint64_t k = 0; secondsSince(start) < opts.seconds;
                     ++k) {
                    const std::vector<GridPoint> grid =
                        traffic.submitGrid(c, k, history);
                    serve::SubmitOutcome out;
                    if (!submitAndCheck(*server, grid, log, out))
                        break;
                    for (const GridPoint &p : grid)
                        if (p.label.rfind("repeat", 0) != 0)
                            history.push_back(p.spec);
                    if (k % kSampleEvery == 0)
                        for (const ResultPoint &p : out.points)
                            if (p.index == 0) {
                                log.samples.push_back(grid[0]);
                                log.served.push_back(p);
                            }
                }
            });
        while (secondsSince(start) < opts.seconds) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            probe.sample();
        }
        for (std::thread &t : threads)
            t.join();
    }
    const double elapsed = secondsSince(start);
    const double rss = peakRssMiB(std::to_string(server->pid()));
    if (!server->shutdown())
        report.fail("server did not shut down cleanly");
    server.reset();

    std::vector<double> latency;
    ServeCounts counts;
    std::uint64_t samples = 0;
    for (ClientLog &log : logs) {
        report.attempted += log.attempted;
        for (const std::string &f : log.failures)
            report.fail(f);
        latency.insert(latency.end(), log.latencyMs.begin(),
                       log.latencyMs.end());
        counts.points += log.counts.points;
        counts.storeHits += log.counts.storeHits;
        counts.peerHits += log.counts.peerHits;
        counts.simulated += log.counts.simulated;
        // Byte-compare the sampled served points with a direct run.
        for (std::size_t i = 0; i < log.samples.size(); ++i, ++samples)
            if (resultBytes(runExperiment(log.samples[i].spec)) !=
                resultBytes(log.served[i].result))
                report.fail("served result differs from a direct run (" +
                            log.samples[i].label + ")");
    }
    std::fprintf(stderr,
                 "perfbench: sweep-serve: %zu submits, %llu points "
                 "(%llu store, %llu peer, %llu simulated) in %.2f s; "
                 "%llu points byte-compared with a direct run\n",
                 latency.size(),
                 static_cast<unsigned long long>(counts.points),
                 static_cast<unsigned long long>(counts.storeHits),
                 static_cast<unsigned long long>(counts.peerHits),
                 static_cast<unsigned long long>(counts.simulated), elapsed,
                 static_cast<unsigned long long>(samples));

    if (!opts.trace) {
        addTimings(report,
                   {counts.simulated * SweepTraffic::kPointAccesses /
                        elapsed,
                    percentile(latency, 50), percentile(latency, 90),
                    counts.points / elapsed, setup_s},
                   probe);
        report.add("peak_rss_mb", rss, "MiB");
        return hex64(digest);
    }

    // Traced: the simulation layers over the warm-up points, which the
    // direct runs and the traced System must reproduce bit for bit.
    std::vector<ExperimentSpec> specs;
    for (const GridPoint &p : known.grid)
        specs.push_back(p.spec);
    LayerTotals totals;
    auto t0 = Clock::now();
    const std::vector<SimResult> direct = runExperiments(specs, 1);
    totals.untracedWallNs = nsBetween(t0, Clock::now());
    if (simDigest(direct) != digest)
        report.fail("direct runs do not reproduce the served results");

    t0 = Clock::now();
    runExperiments(specs, SweepTraffic::kServerThreads);
    const double runner_pps = specs.size() / secondsSince(t0);

    std::vector<SimResult> traced;
    traceSpecs(specs, totals, traced);
    if (simDigest(traced) != digest)
        report.fail("traced run changed a simulated statistic");
    addLayerMetrics(totals, report);
    serviceProbe(opts, known, SweepTraffic::kServerThreads, &counts,
                 runner_pps, report);
    return hex64(digest);
}

} // namespace perfbench
