/**
 * @file
 * `unison_sim` -- the one driver for the declarative experiment API.
 * Any sweep the bench binaries run (and any spec a user writes) runs
 * from here, machine-readably:
 *
 *   unison_sim --list                          # designs, workloads,
 *                                              # scenarios, figures
 *   unison_sim --figure fig7 --threads 4       # re-run a paper figure
 *   unison_sim --figure fig7 --export-spec fig7.json
 *   unison_sim --spec specs/fig7.json --format json --out out.json
 *   unison_sim --spec specs/smoke.json --shard 0/2 --out s0.json
 *   unison_sim --merge s0.json,s1.json --out merged.json
 *
 * Sharding splits a grid round-robin by point index; a merge of all
 * shard result files is byte-identical to the unsharded run's output
 * (CI enforces this), so grids can spread across processes or hosts
 * with no coordination beyond the spec file.
 *
 * Crash safety: `--store DIR` publishes every completed point to a
 * content-addressed result store (durable before the point is
 * reported done), so rerunning a killed command with the same
 * `--store` re-simulates only the points it lost -- the final output
 * is byte-identical to an uninterrupted run. `--warm-ckpt-dir`
 * persists warm-up checkpoints across invocations. Exit codes are
 * classified: 2 = usage, 3 = I/O, 4 = corrupt input (1 is kept for
 * unclassified spec/config errors).
 *
 * Sweep serving (subcommands, dispatched on argv[1]):
 *
 *   unison_sim serve --listen sweep.sock --store store/
 *   unison_sim submit --connect sweep.sock --spec specs/smoke.json
 *   unison_sim submit --connect sweep.sock --ping       # readiness
 *   unison_sim submit --connect sweep.sock --shutdown
 *   unison_sim store gc --store store/ --max-bytes 256M
 *
 * The serve process owns a content-addressed result store; a submit
 * round-trips byte-identically with a local `--spec` run, and a
 * repeated submit is pure cache hits (zero simulation). A plain
 * `--figure`/`--spec` run with `--store DIR` shares the same objects
 * without a server.
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "bench/bench_common.hh"
#include "common/error.hh"
#include "common/version.hh"
#include "dram/backend.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/checkpoint_store.hh"
#include "sim/figures.hh"
#include "sim/spec_json.hh"
#include "stats/table.hh"
#include "store/result_store.hh"
#include "trace/scenarios.hh"

namespace {

using namespace unison;
using namespace unison::bench;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throwIo("cannot read ", path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeOutput(const std::string &path, const std::string &content)
{
    if (path.empty()) {
        std::fputs(content.c_str(), stdout);
        return;
    }
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throwIo("cannot write ", path);
    out << content;
    if (!out.flush())
        throwIo("short write to ", path);
    std::fprintf(stderr, "unison_sim: wrote %s\n", path.c_str());
}

/** `--shard i/n` -> (i, n); (0, 1) when absent. Rejects trailing
 *  garbage ("1x/2", "1/2,") instead of silently truncating it. */
void
parseShard(const std::string &text, std::size_t &shard,
           std::size_t &shards)
{
    shard = 0;
    shards = 1;
    if (text.empty())
        return;
    const char *begin = text.data();
    const char *end = begin + text.size();
    auto r = std::from_chars(begin, end, shard);
    if (r.ec != std::errc() || r.ptr == end || *r.ptr != '/')
        throwUsage("--shard must look like i/n, got '", text, "'");
    r = std::from_chars(r.ptr + 1, end, shards);
    if (r.ec != std::errc() || r.ptr != end)
        throwUsage("--shard must look like i/n, got '", text, "'");
    if (shards == 0 || shard >= shards)
        throwUsage("--shard needs 0 <= i < n, got ", shard, "/",
                   shards);
}

// ------------------------------------------------------------- list

void
listEverything()
{
    const DesignRegistry &registry = DesignRegistry::instance();
    std::printf("designs (--design ids for spec files):\n");
    for (const DesignInfo &info : registry.all()) {
        std::printf("  %-16s %s\n      %s\n", info.id.c_str(),
                    info.name.c_str(), info.summary.c_str());
        for (const DesignKnob &knob : info.knobs)
            std::printf("      knob %-22s %s\n", knob.key.c_str(),
                        knob.help.c_str());
    }

    std::printf("\nworkload presets:\n");
    for (Workload w : allWorkloads())
        std::printf("  %-16s %s\n",
                    normalizedNameKey(workloadName(w)).c_str(),
                    workloadName(w).c_str());

    std::printf("\nmix scenarios:\n");
    for (ScenarioKind kind :
         {ScenarioKind::PointerChase, ScenarioKind::StreamScan,
          ScenarioKind::RandomUpdate, ScenarioKind::ProducerConsumer})
        std::printf("  %-16s %s\n",
                    normalizedNameKey(scenarioName(kind)).c_str(),
                    scenarioName(kind).c_str());

    std::printf("\nfigures (--figure):\n");
    for (const std::string &name : figureNames())
        std::printf("  %-16s %s\n", name.c_str(),
                    figureSummary(name).c_str());

    std::printf(
        "\nmemory backends (--memory-backend / system.memoryBackend):\n");
    for (const std::string &id : memoryBackendIds()) {
        MemoryBackendKind kind;
        memoryBackendFromId(id, kind);
        std::printf("  %-16s %s\n", id.c_str(),
                    memoryBackendSummary(kind).c_str());
    }
}

/** `--list-backends`: the registered memory backends on their own,
 *  for scripts that only need the backend dimension. */
void
listBackends()
{
    for (const std::string &id : memoryBackendIds()) {
        MemoryBackendKind kind;
        memoryBackendFromId(id, kind);
        std::printf("%-12s %s\n", id.c_str(),
                    memoryBackendSummary(kind).c_str());
    }
}

// ------------------------------------------------------------ knobs

/** `--knobs <design>`: the registry's knob table for one design --
 *  name, type, default and valid range -- so the knobs used by the
 *  checked-in spec files are discoverable without reading source. */
void
listKnobs(const std::string &design_id)
{
    const DesignInfo &info =
        DesignRegistry::instance().byId(design_id);
    std::printf("%s (%s): %s\n", info.id.c_str(), info.name.c_str(),
                info.summary.c_str());
    if (info.knobs.empty()) {
        std::printf("  (no tunable knobs)\n");
    } else {
        Table t({"knob", "type", "default", "valid", "description"});
        for (const DesignKnob &knob : info.knobs) {
            std::string def = json::write(knob.get(info.defaults));
            while (!def.empty() &&
                   (def.back() == '\n' || def.back() == ' '))
                def.pop_back();
            t.beginRow();
            t.add(knob.key);
            t.add(knob.type);
            t.add(def);
            t.add(knob.range);
            t.add(knob.help);
        }
        t.print();
    }
    std::printf("system.memoryBackend (every design; also "
                "--memory-backend): %s\n",
                commaJoin(memoryBackendIds()).c_str());
}

// ------------------------------------------------------------ merge

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::string current;
    for (const char c : text) {
        if (c == ',') {
            if (!current.empty())
                out.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    if (!current.empty())
        out.push_back(current);
    return out;
}

void
mergeResults(const std::vector<std::string> &paths,
             const std::string &out_path)
{
    if (paths.size() < 2)
        throwUsage("--merge needs at least two result files");
    std::string grid_name, grid_hash, code_version;
    std::vector<ResultPoint> merged;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        std::string name, shard, hash, version;
        std::vector<ResultPoint> points =
            resultsFromJson(json::parse(readFile(paths[i])), &name,
                            &shard, &hash, &version);
        if (i == 0) {
            grid_name = name;
            grid_hash = hash;
            code_version = version;
        } else if (name != grid_name) {
            throwUsage("cannot merge ", paths[i], " (grid '", name,
                       "') with ", paths[0], " (grid '", grid_name,
                       "')");
        } else if (hash != grid_hash) {
            // Same grid name but a different fingerprint: the spec
            // file changed between shard runs.
            throwCorrupt(
                "cannot merge ", paths[i], " (grid fingerprint ",
                hash.empty() ? "(none)" : hash, ") with ", paths[0],
                " (", grid_hash.empty() ? "(none)" : grid_hash,
                "): the shards come from different runs of grid '",
                grid_name, "'");
        } else if (version != code_version) {
            // Identical grid, different simulator build: the numbers
            // are not comparable, refuse to splice them together.
            throwCorrupt(
                "cannot merge ", paths[i], " (code version ",
                version.empty() ? "(unstamped)" : version, ") with ",
                paths[0], " (",
                code_version.empty() ? "(unstamped)" : code_version,
                "): the shards were produced by different simulator "
                "builds");
        }
        for (ResultPoint &point : points)
            merged.push_back(std::move(point));
    }

    // The shards of one grid partition [0, n): after sorting, indexes
    // must be exactly 0..n-1 (no holes, no duplicates).
    std::sort(merged.begin(), merged.end(),
              [](const ResultPoint &a, const ResultPoint &b) {
                  return a.index < b.index;
              });
    for (std::size_t i = 0; i < merged.size(); ++i)
        if (merged[i].index != i)
            throwCorrupt(
                "merged shards do not cover the grid: expected point "
                "index ", i, ", found ", merged[i].index,
                " (missing or duplicated shard?)");

    // The output document is stamped by *this* build; merging shards
    // of an older (but internally consistent) build re-stamps them,
    // which deserves a trace in the log.
    if (code_version != kSimCodeVersion)
        structuredWarn("merge-version-restamp",
                       {{"inputVersion", code_version.empty()
                                             ? "(unstamped)"
                                             : code_version},
                        {"outputVersion", kSimCodeVersion}});

    writeOutput(out_path,
                json::write(resultsToJson(grid_name, "", grid_hash,
                                          std::move(merged))));
}

// ------------------------------------------------------------- runs

std::string
tableOutput(const std::vector<ResultPoint> &points, bool csv)
{
    Table t({"label", "design", "workload", "capacity", "miss%",
             "dc_lat", "uipc"});
    for (const ResultPoint &point : points) {
        const SimResult &r = point.result;
        t.beginRow();
        t.add(point.label);
        t.add(r.designName);
        t.add(specWorkloadName(point.spec));
        t.add(formatSize(point.spec.capacityBytes));
        t.add(r.missRatioPercent(), 2);
        t.add(r.avgDramCacheLatency, 0);
        t.add(r.uipc, 4);
    }
    return csv ? t.toCsv() : t.toString();
}

/** The persistence knobs of a run, bundled (all optional). */
struct DurabilityOptions
{
    std::string warmCkptDir; //!< --warm-ckpt-dir: checkpoint store
    std::string storeDir;    //!< --store: content-addressed results
};

int
runGrid(const std::string &grid_name, std::vector<GridPoint> points,
        const std::string &shard_text, int threads,
        const std::string &memory_backend, const std::string &format,
        const std::string &out_path, const DurabilityOptions &durable)
{
    // Apply the memory-backend override before the grid is
    // fingerprinted: shard result files then refuse to merge across
    // mismatched overrides.
    if (!memory_backend.empty()) {
        MemoryBackendKind kind;
        if (!memoryBackendFromId(memory_backend, kind))
            fatal("--memory-backend: unknown backend '", memory_backend,
                  "' (registered backends: ",
                  commaJoin(memoryBackendIds()), ")");
        for (GridPoint &point : points)
            point.spec.system.memoryBackend = kind;
    }

    std::size_t shard = 0, shards = 1;
    parseShard(shard_text, shard, shards);
    // Fingerprint the FULL grid (before sharding): every shard of one
    // grid carries the same hash, which is what lets --merge prove the
    // shard files belong together.
    const std::string grid_hash = gridFingerprint(
        json::write(gridToJson(grid_name, points)));
    if (shards > 1)
        points = shardPoints(points, shard, shards);
    if (points.empty())
        fatal("nothing to run: the grid (or this shard) is empty");

    // Validate everything up front: a bad point should fail before
    // hours of simulation, not mid-grid.
    for (const GridPoint &point : points) {
        const std::string err = point.spec.validationError();
        if (!err.empty())
            fatal("point '", point.label, "': ", err);
    }

    std::unique_ptr<FileCheckpointStore> checkpoints;
    if (!durable.warmCkptDir.empty())
        checkpoints = std::make_unique<FileCheckpointStore>(
            durable.warmCkptDir);

    // The content-addressed store is the cross-run cache and the
    // crash-resume path: points any previous run of the same spec and
    // build completed -- a killed run of this very command included --
    // replay from it, and fresh completions publish back durably
    // before they are reported done. The hook needs the specs in
    // runner order, alive for the whole run.
    std::unique_ptr<ResultStore> store;
    std::unique_ptr<StoreCacheHook> cache;
    std::vector<ExperimentSpec> specs;
    if (!durable.storeDir.empty()) {
        store = std::make_unique<ResultStore>(durable.storeDir);
        specs.reserve(points.size());
        for (const GridPoint &point : points)
            specs.push_back(point.spec);
        cache = std::make_unique<StoreCacheHook>(*store, specs);
    }

    RunHooks hooks;
    hooks.checkpoints = checkpoints.get();
    hooks.cache = cache.get();

    const std::vector<SimResult> results =
        runAll(points, threads, "unison_sim", hooks);

    if (store != nullptr)
        std::fprintf(stderr,
                     "unison_sim: store %s: %llu hit(s), %llu "
                     "insert(s)\n",
                     store->dir().c_str(),
                     static_cast<unsigned long long>(store->hits()),
                     static_cast<unsigned long long>(
                         store->inserts()));

    std::vector<ResultPoint> out;
    out.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        ResultPoint point;
        point.index = points[i].index;
        point.label = points[i].label;
        point.spec = points[i].spec;
        point.result = results[i];
        out.push_back(std::move(point));
    }

    if (format == "json") {
        writeOutput(out_path,
                    json::write(resultsToJson(grid_name, shard_text,
                                              grid_hash,
                                              std::move(out))));
    } else if (format == "csv" || format == "table") {
        writeOutput(out_path, tableOutput(out, format == "csv"));
    } else {
        fatal("--format must be table, csv or json, got '", format,
              "'");
    }
    return 0;
}

// ----------------------------------------------------- sweep serving

/** `unison_sim serve`: long-running sweep server over a unix socket
 *  and a content-addressed result store. */
int
serveCommand(int argc, char **argv)
{
    ArgParser args("unison_sim serve: accept spec submissions on a "
                   "unix socket, serve repeated points from a "
                   "content-addressed result store and simulate only "
                   "what no run has computed before");
    args.addOption("listen", "", "unix socket path to listen on");
    args.addOption("store", "",
                   "result store directory (created if missing)");
    addThreadsOption(args);
    args.parse(argc, argv);

    serve::ServeOptions options;
    options.listenPath = args.getString("listen");
    options.storeDir = args.getString("store");
    options.threads = parseThreads(args);
    if (options.listenPath.empty())
        throwUsage("serve needs --listen <socket-path>");
    if (options.storeDir.empty())
        throwUsage("serve needs --store <dir>");
    return serve::serveForever(options);
}

/** `unison_sim submit`: round-trip a spec through a serve process.
 *  The json output is byte-identical to a local `--spec` run of the
 *  same file (CI-enforced). */
int
submitCommand(int argc, char **argv)
{
    ArgParser args("unison_sim submit: send a spec/grid file to a "
                   "`unison_sim serve` process and write the results "
                   "document a local run would have produced");
    args.addOption("connect", "", "server's unix socket path");
    args.addOption("spec", "", "spec/grid JSON file to submit");
    args.addOption("format", "json", "output format: table|csv|json");
    args.addOption("out", "", "write output to this file (default "
                              "stdout)");
    args.addFlag("ping", "readiness probe: exit 0 when the server "
                         "answers with a matching code version");
    args.addFlag("shutdown", "ask the server to finish active sweeps "
                             "and exit");
    args.parse(argc, argv);

    const std::string connect = args.getString("connect");
    if (connect.empty())
        throwUsage("submit needs --connect <socket-path>");

    if (args.getFlag("ping")) {
        const SimStatus status = serve::pingServer(connect);
        status.throwIfFailed();
        std::fprintf(stderr, "unison_sim: submit: %s is ready\n",
                     connect.c_str());
        return 0;
    }
    if (args.getFlag("shutdown")) {
        serve::shutdownServer(connect);
        std::fprintf(stderr, "unison_sim: submit: asked %s to shut "
                             "down\n",
                     connect.c_str());
        return 0;
    }

    const std::string spec_path = args.getString("spec");
    if (spec_path.empty())
        throwUsage("submit needs --spec <file> (or --ping/--shutdown)");

    serve::SubmitOutcome outcome = serve::submitGrid(
        connect, json::parse(readFile(spec_path)));
    std::fprintf(
        stderr,
        "unison_sim: submit: %zu point(s): %llu store hit(s), %llu "
        "peer hit(s), %llu simulated\n",
        outcome.points.size(),
        static_cast<unsigned long long>(outcome.storeHits),
        static_cast<unsigned long long>(outcome.peerHits),
        static_cast<unsigned long long>(outcome.simulated));

    const std::string format = args.getString("format");
    if (format == "json") {
        writeOutput(args.getString("out"),
                    json::write(resultsToJson(
                        outcome.gridName, "", outcome.gridHash,
                        std::move(outcome.points))));
    } else if (format == "csv" || format == "table") {
        writeOutput(args.getString("out"),
                    tableOutput(outcome.points, format == "csv"));
    } else {
        throwUsage("--format must be table, csv or json, got '",
                   format, "'");
    }
    return 0;
}

/** `unison_sim store gc`: trim a result store to a byte budget. */
int
storeCommand(int argc, char **argv)
{
    if (argc < 2 || std::string(argv[1]) != "gc")
        throwUsage("store: the one subcommand is gc (unison_sim "
                   "store gc --store <dir> --max-bytes <size>)");
    ArgParser args("unison_sim store gc: evict the oldest unpinned "
                   "objects of a result store until it fits a byte "
                   "budget");
    args.addOption("store", "", "result store directory");
    args.addOption("max-bytes", "",
                   "byte budget (accepts K/M/G suffixes)");
    args.parse(argc - 1, argv + 1);

    const std::string dir = args.getString("store");
    if (dir.empty())
        throwUsage("store gc needs --store <dir>");
    if (args.getString("max-bytes").empty())
        throwUsage("store gc needs --max-bytes <size>");
    const std::uint64_t budget =
        parseSize(args.getString("max-bytes"));

    // Opening a store creates it; gc of a store that does not exist
    // is a mistake, not a request for an empty directory.
    struct ::stat st;
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        throwIo("store gc: no store at " + dir);

    ResultStore store(dir);
    const StoreGcSummary sum = store.gc(budget);
    std::printf("store gc %s: %zu object(s) (%llu bytes), evicted "
                "%zu, kept %zu pinned, now %llu bytes\n",
                dir.c_str(), sum.scanned,
                static_cast<unsigned long long>(sum.bytesBefore),
                sum.evicted, sum.pinnedKept,
                static_cast<unsigned long long>(sum.bytesAfter));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Subcommands dispatch on argv[1] before the flag parser: `serve`,
    // `submit` and `store` have their own option sets (and `--spec`
    // etc. keep meaning what they always did for plain runs).
    if (argc >= 2) {
        const std::string command = argv[1];
        try {
            if (command == "serve")
                return serveCommand(argc - 1, argv + 1);
            if (command == "submit")
                return submitCommand(argc - 1, argv + 1);
            if (command == "store")
                return storeCommand(argc - 1, argv + 1);
        } catch (const SimError &e) {
            exitWith(e.code(), e.what());
        } catch (const json::Error &e) {
            exitWith(SimErrc::Corrupt, e.what());
        }
    }

    ArgParser args(
        "unison_sim: run experiment specs, paper figures and sharded "
        "sweeps from the declarative experiment API");
    args.addFlag("list", "list designs, workloads, scenarios, figures");
    args.addFlag("list-backends",
                 "list the registered memory backends (timing models)");
    args.addOption("knobs", "",
                   "print a design's knob table (name, type, default, "
                   "valid range)");
    args.addOption("figure", "", "run a named paper figure sweep");
    args.addOption("spec", "",
                   "run a spec/grid JSON file (unison-spec/3, the "
                   "older unison-spec/1..2, or unison-grid/1)");
    args.addOption("export-spec", "",
                   "with --figure: write the grid as JSON instead of "
                   "running it");
    args.addOption("shard", "",
                   "run only points i, i+n, ... of the grid (i/n)");
    args.addOption("merge", "",
                   "merge sharded result files (comma-separated) "
                   "into one");
    args.addOption("format", "table", "output format: table|csv|json");
    args.addOption("out", "", "write output to this file (default "
                              "stdout)");
    args.addFlag("quick", "8x shorter simulations (figures only)");
    args.addOption("seed", "42", "workload seed (figures only)");
    args.addOption("memory-backend", "",
                   "override system.memoryBackend of every point "
                   "(see --list-backends; empty = leave spec values)");
    args.addOption("warm-ckpt-dir", "",
                   "persist warm-up checkpoints in this directory "
                   "and reuse them across invocations");
    args.addOption("store", "",
                   "content-addressed result store: replay points "
                   "any previous run of the same spec and build "
                   "completed, publish fresh ones (rerun a killed "
                   "sweep with the same --store to resume it)");
    addThreadsOption(args);
    args.parse(argc, argv);

    const std::string figure = args.getString("figure");
    const std::string spec_path = args.getString("spec");
    const std::string merge = args.getString("merge");
    const std::string knobs = args.getString("knobs");
    const int threads = parseThreads(args);
    const std::string memory_backend =
        args.getString("memory-backend");

    DurabilityOptions durable;
    durable.warmCkptDir = args.getString("warm-ckpt-dir");
    durable.storeDir = args.getString("store");

    // Classified exits: SimError carries its own exit code (2 usage,
    // 3 I/O, 4 corrupt input); malformed JSON is corrupt input by
    // definition. fatal() keeps exit 1 for unclassified spec errors.
    try {
        const int modes = (args.getFlag("list") ? 1 : 0) +
                          (args.getFlag("list-backends") ? 1 : 0) +
                          (knobs.empty() ? 0 : 1) +
                          (merge.empty() ? 0 : 1) +
                          (figure.empty() ? 0 : 1) +
                          (spec_path.empty() ? 0 : 1);
        if (modes != 1)
            throwUsage(
                "pick exactly one of --list, --list-backends, "
                "--knobs, --figure, --spec or --merge (try --list "
                "first, or --help)");
        if ((!durable.warmCkptDir.empty() ||
             !durable.storeDir.empty()) &&
            figure.empty() && spec_path.empty())
            throwUsage("--warm-ckpt-dir / --store only apply to "
                       "--figure and --spec runs");

        if (args.getFlag("list")) {
            listEverything();
            return 0;
        }
        if (args.getFlag("list-backends")) {
            listBackends();
            return 0;
        }
        if (!knobs.empty()) {
            listKnobs(knobs);
            return 0;
        }
        if (!merge.empty()) {
            mergeResults(splitCommas(merge), args.getString("out"));
            return 0;
        }

        if (!figure.empty()) {
            FigureOptions opts;
            opts.quick = args.getFlag("quick");
            opts.seed = args.getUint("seed");
            std::vector<GridPoint> points = figureGrid(figure, opts);

            const std::string export_path =
                args.getString("export-spec");
            if (!export_path.empty()) {
                writeOutput(export_path,
                            json::write(gridToJson(figure, points)));
                return 0;
            }
            return runGrid(figure, std::move(points),
                           args.getString("shard"), threads,
                           memory_backend,
                           args.getString("format"),
                           args.getString("out"), durable);
        }

        GridFile grid = gridFromJson(json::parse(readFile(spec_path)));
        return runGrid(grid.name, std::move(grid.points),
                       args.getString("shard"), threads,
                       memory_backend,
                       args.getString("format"),
                       args.getString("out"), durable);
    } catch (const SimError &e) {
        exitWith(e.code(), e.what());
    } catch (const json::Error &e) {
        exitWith(SimErrc::Corrupt, e.what());
    }
}
