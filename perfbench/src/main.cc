/**
 * @file
 * perfbench: the repository benchmark's measuring program (run.py
 * builds it and runs it; see README.md). One invocation runs one
 * workload for --seconds and prints, as its last stdout line, the
 * result object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
 * The line before it is `sim_digest <hex>`, a hash of the simulated
 * statistics that traced and untraced runs, and two commits that claim
 * to simulate the same thing, must agree on.
 */

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hh"
#include "layers.hh"
#include "service.hh"
#include "sim/runner.hh"
#include "workloads.hh"

using namespace perfbench;
using namespace unison;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "unison-paper|dram-bound|datacenter-256|sweep-serve "
                 "--seed N --seconds S --trace 0|1 --unison-sim PATH "
                 "--work-dir DIR\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        try {
            if (key == "--workload")
                opts.workload = value;
            else if (key == "--seed")
                opts.seed = std::stoull(value);
            else if (key == "--seconds")
                opts.seconds = std::stod(value);
            else if (key == "--trace")
                opts.trace = std::stoi(value) != 0;
            else if (key == "--unison-sim")
                opts.unisonSim = value;
            else if (key == "--work-dir")
                opts.workDir = value;
            else
                usage("unknown option " + key);
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (opts.workload.empty() || opts.workDir.empty() ||
        opts.unisonSim.empty() || !(opts.seconds > 0.0))
        usage("missing a required option");
    return opts;
}

/**
 * Pin to one CPU, the last allowed. sweep-serve's clients and its
 * server child (which inherits the mask) share it too: spread over
 * the vCPUs of a shared 4-vCPU VM, each submit waited on the slowest
 * of them and on cross-CPU wake-ups, and its rates spread 0.3-0.4
 * (interquartile range over median) between runs, against under 0.1
 * on one CPU.
 */
void
pinCpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            last = c;
    if (last < 0)
        return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(last, &mask);
    if (sched_setaffinity(0, sizeof mask, &mask) != 0)
        std::perror("perfbench: sched_setaffinity");
}

/** Check one round's results; returns its digest. */
std::uint64_t
checkRound(const SimWorkload &w, const std::vector<SimResult> &results,
           Report &report)
{
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string err = conservationError(w.specs[i], results[i]);
        if (!err.empty())
            report.fail(w.name + " spec " + std::to_string(i) + ": " + err);
    }
    return simDigest(results);
}

std::string
runSim(const Options &opts, Report &report)
{
    // Made first: allocated later, its table could sit above the set-up's
    // freed Systems on the heap, keep them from being trimmed, and so
    // raise peak_rss_mb.
    HostProbe probe;

    // Set-up: generate the specs and construct each one's System (the
    // design's tables and the SRAM hierarchy).
    SimWorkload w;
    const double setup_s = medianSetupSeconds([&](std::size_t) {
        if (!simWorkload(opts.workload, opts.seed, w))
            usage("unknown workload " + opts.workload);
        // One at a time, so set-up does not raise peak_rss_mb.
        for (const ExperimentSpec &spec : w.specs) {
            spec.validate();
            System system(spec.system, makeCacheFactory(spec));
        }
        return w.specs.size();
    });

    // Untimed warm-up: the first spec once.
    runExperiment(w.specs.front());

    if (opts.trace) {
        // Rounds of an untraced pass then a traced pass over every spec,
        // until the time is up: the passes pair up in time, and both
        // must reproduce the first round's digest.
        LayerTotals totals;
        std::vector<SimResult> direct;
        std::uint64_t digest = 0;
        std::size_t rounds = 0;
        const auto start = Clock::now();
        do {
            report.attempted += 2 * w.specs.size();
            const auto t0 = Clock::now();
            direct = runExperiments(w.specs, 1);
            totals.untracedWallNs += nsBetween(t0, Clock::now());
            const std::uint64_t round_digest = checkRound(w, direct, report);
            if (rounds == 0)
                digest = round_digest;
            else if (round_digest != digest)
                report.fail("a round did not reproduce the first round");

            std::vector<SimResult> traced;
            traceSpecs(w.specs, totals, traced);
            if (simDigest(traced) != digest)
                report.fail("traced run changed a simulated statistic");
            ++rounds;
        } while (secondsSince(start) < opts.seconds);
        std::fprintf(stderr, "perfbench: %s: %zu traced rounds\n",
                     w.name.c_str(), rounds);
        const double runner_pps = rounds * w.specs.size() /
                                  (totals.untracedWallNs * 1e-9);
        addLayerMetrics(totals, report);
        if (w.name == "dram-bound" && totals.writeDrains == 0)
            report.fail("the detailed backend never drained a write queue");

        KnownPoints known;
        std::vector<std::pair<std::string, ExperimentSpec>> points;
        for (std::size_t i = 0; i < w.specs.size(); ++i)
            points.emplace_back(w.name + "/" + std::to_string(i),
                                w.specs[i]);
        known.grid = labelled(std::move(points));
        known.results = direct;
        serviceProbe(opts, known, 1, nullptr, runner_pps, report);
        return hex64(digest);
    }

    // Timed rounds: every spec once per round, whole rounds only, until
    // the time is up. Each round must reproduce the first bit for bit.
    // A host probe slice follows every experiment, outside its timing.
    std::vector<double> round_rates, latency_ms;
    std::uint64_t first_digest = 0;
    std::size_t experiments = 0;
    double busy_s = 0.0;
    const auto start = Clock::now();
    while (secondsSince(start) < opts.seconds) {
        std::vector<SimResult> results;
        std::uint64_t accesses = 0;
        double round_s = 0.0;
        for (const ExperimentSpec &spec : w.specs) {
            const auto t0 = Clock::now();
            results.push_back(runExperiment(spec));
            const double s = secondsSince(t0);
            latency_ms.push_back(s * 1e3);
            round_s += s;
            accesses += accessesOf(spec);
            probe.sample();
        }
        round_rates.push_back(accesses / round_s);
        busy_s += round_s;
        report.attempted += w.specs.size();
        experiments += w.specs.size();
        const std::uint64_t digest = checkRound(w, results, report);
        if (round_rates.size() == 1)
            first_digest = digest;
        else if (digest != first_digest)
            report.fail("round " + std::to_string(round_rates.size()) +
                        " did not reproduce the first round's results");
    }
    std::fprintf(stderr,
                 "perfbench: %s: %zu rounds, %zu experiments in %.2f s\n",
                 w.name.c_str(), round_rates.size(), experiments, busy_s);

    addTimings(report,
               {median(round_rates), percentile(latency_ms, 50),
                percentile(latency_ms, 90), experiments / busy_s, setup_s},
               probe);
    report.add("peak_rss_mb", peakRssMiB(), "MiB");
    return hex64(first_digest);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const bool serve = opts.workload == "sweep-serve";
    pinCpus();

    Report report;
    std::string digest;
    try {
        digest = serve ? runSweepServe(opts, report) : runSim(opts, report);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload << " aborted: "
                  << e.what() << "\n";
        return 1;
    }
    if (!opts.trace) {
        const double attempted =
            static_cast<double>(std::max<std::uint64_t>(report.attempted, 1));
        report.add("success_rate",
                   (attempted - static_cast<double>(report.failed)) /
                       attempted,
                   "fraction");
    }
    std::cerr << "perfbench: sim_digest " << digest << "\n";
    std::cout << "sim_digest " << digest << "\n"
              << report.json() << std::endl;
    return 0;
}
