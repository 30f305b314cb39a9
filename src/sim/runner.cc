#include "sim/runner.hh"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/logging.hh"

namespace unison {

namespace {

/** Run the specs named by `todo` (indices into `specs`), in parallel
 *  on `workers` threads when it pays, through `run_one`. */
void
runBatch(const std::vector<std::size_t> &todo,
         std::vector<SimResult> &results, std::size_t workers,
         const ExperimentCallback &on_done, std::mutex &done_mutex,
         const std::function<SimResult(std::size_t)> &run_one)
{
    if (workers <= 1 || todo.size() <= 1) {
        for (const std::size_t i : todo) {
            results[i] = run_one(i);
            if (on_done)
                on_done(i, results[i]);
        }
        return;
    }

    // Work-stealing by atomic ticket: long experiments (TPC-H, 8 GB
    // caches) naturally load-balance against short ones.
    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
        while (true) {
            const std::size_t t = next.fetch_add(1);
            if (t >= todo.size())
                return;
            const std::size_t i = todo[t];
            results[i] = run_one(i);
            if (on_done) {
                std::lock_guard<std::mutex> lock(done_mutex);
                on_done(i, results[i]);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(std::min(workers, todo.size()));
    for (std::size_t t = 0; t < std::min(workers, todo.size()); ++t)
        pool.emplace_back(worker);
    for (auto &thread : pool)
        thread.join();
}

} // namespace

std::vector<SimResult>
runExperiments(const std::vector<ExperimentSpec> &specs, int threads,
               const ExperimentCallback &on_done, const RunHooks &hooks)
{
    if (threads < 0)
        fatal("runExperiments: thread count must be >= 0 (0 = all "
              "hardware threads), got ", threads);

    std::vector<SimResult> results(specs.size());
    if (specs.empty())
        return results;

    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 1 : static_cast<int>(hw);
    }

    // Result-cache replay: points any previous (possibly killed) run
    // of the same spec and build completed are restored, not
    // re-simulated -- the contract is that this substitution is
    // invisible in the final output (results documents round-trip
    // byte-exactly, ctest-enforced). Replays complete first, in index
    // order, before any simulation starts.
    std::vector<char> replayed(specs.size(), 0);
    if (hooks.cache != nullptr) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (hooks.cache->tryLoad(i, results[i])) {
                replayed[i] = 1;
                if (on_done)
                    on_done(i, results[i]);
            }
        }
    }

    std::vector<std::size_t> todo_all;
    for (std::size_t i = 0; i < specs.size(); ++i)
        if (!replayed[i])
            todo_all.push_back(i);
    if (todo_all.empty())
        return results;

    const std::size_t workers = std::min<std::size_t>(
        todo_all.size(),
        static_cast<std::size_t>(std::max(threads, 1)));

    // Warm-checkpoint reuse: specs that pin the same warm-up prefix
    // (identical spec modulo the measured window -- see warmPrefixKey)
    // simulate byte-identical states over [0, warmupAccesses). The
    // first member of each such group runs in phase 1 and captures the
    // boundary snapshot; the rest resume from it in phase 2, skipping
    // their warm-up entirely. The System checkpoint contract (pinned
    // by ctest) makes this invisible except in wall-clock; groups
    // whose design or source cannot serialize state simply leave the
    // snapshot invalid and the members fall back to plain runs.
    //
    // With a persistent store, a group of ANY size first asks the
    // store for the prefix's snapshot (captured by some earlier
    // process); a verified hit lets every member resume with no
    // leader run at all, and a miss makes the leader capture AND
    // persist for the next invocation. A store snapshot that later
    // fails its in-run shape checks degrades to a cold warm-up inside
    // runExperimentCk -- correctness never depends on the store.
    std::unordered_map<std::string, std::vector<std::size_t>> groups;
    for (const std::size_t i : todo_all)
        if (checkpointEligible(specs[i]))
            groups[warmPrefixKey(specs[i])].push_back(i);

    std::vector<WarmCheckpoint> checkpoints;
    std::vector<std::string> slot_key;
    // Per-spec checkpoint slot: a leader captures into its slot
    // (phase 1), members resume from it (phase 2); -1 = plain run.
    std::vector<std::ptrdiff_t> capture_slot(specs.size(), -1);
    std::vector<std::ptrdiff_t> resume_slot(specs.size(), -1);
    for (const auto &[key, members] : groups) {
        const bool persistent = hooks.checkpoints != nullptr;
        if (members.size() < 2 && !persistent)
            continue; // nothing to reuse: skip the serialization cost
        const auto slot =
            static_cast<std::ptrdiff_t>(checkpoints.size());
        checkpoints.emplace_back();
        slot_key.push_back(key);
        const bool loaded =
            persistent &&
            hooks.checkpoints->tryLoad(key, checkpoints.back()) &&
            checkpoints.back().valid();
        if (loaded) {
            for (const std::size_t i : members)
                resume_slot[i] = slot;
        } else {
            checkpoints.back() = WarmCheckpoint{};
            capture_slot[members.front()] = slot;
            for (std::size_t k = 1; k < members.size(); ++k)
                resume_slot[members[k]] = slot;
        }
    }

    std::vector<std::size_t> phase1, phase2;
    for (const std::size_t i : todo_all)
        (resume_slot[i] < 0 ? phase1 : phase2).push_back(i);

    const auto run_one = [&](std::size_t i) {
        if (capture_slot[i] < 0 && resume_slot[i] < 0)
            return runExperiment(specs[i]);
        const WarmCheckpoint *resume =
            resume_slot[i] < 0
                ? nullptr
                : &checkpoints[static_cast<std::size_t>(resume_slot[i])];
        WarmCheckpoint *capture =
            capture_slot[i] < 0
                ? nullptr
                : &checkpoints[static_cast<std::size_t>(capture_slot[i])];
        SimResult result = runExperimentCk(specs[i], resume, capture);
        if (capture != nullptr && hooks.checkpoints != nullptr &&
            capture->valid())
            hooks.checkpoints->save(
                slot_key[static_cast<std::size_t>(capture_slot[i])],
                *capture);
        return result;
    };

    // Cache inserts ride the same serialization as on_done (the
    // done_mutex in the threaded path), and always run *before* the
    // progress callback: once the user sees "done", the store has had
    // its chance to make the point durable.
    const ExperimentCallback complete =
        [&](std::size_t i, const SimResult &result) {
            hooks.cache->record(i, result);
            if (on_done)
                on_done(i, result);
        };
    const ExperimentCallback &done_hook =
        hooks.cache != nullptr ? complete : on_done;

    std::mutex done_mutex;
    runBatch(phase1, results, workers, done_hook, done_mutex, run_one);
    // The phase barrier (thread join) publishes the leaders' captured
    // snapshots to the phase-2 workers.
    runBatch(phase2, results, workers, done_hook, done_mutex, run_one);
    return results;
}

} // namespace unison
