#include "store/result_store.hh"

#include <algorithm>
#include <cstdio>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/crc_frame.hh"
#include "common/file_io.hh"
#include "common/json.hh"

namespace unison {

namespace {

constexpr std::uint32_t kStoreMagic = 0x43525355u; // 'USRC'

std::string
objectPayload(const std::string &spec_fp, const std::string &code_version,
              const ExperimentSpec &spec, const SimResult &result)
{
    json::Value out{json::Object{}};
    out.set("storeRecord", std::int64_t{1});
    out.set("specFingerprint", spec_fp);
    out.set("codeVersion", code_version);
    out.set("spec", specToJson(spec));
    out.set("result", resultToJson(result));
    return json::write(out);
}

} // namespace

ResultStore::ResultStore(std::string dir, std::string code_version)
    : dir_(std::move(dir)), codeVersion_(std::move(code_version)),
      versionTag_(fnvFingerprint(codeVersion_))
{
    if (!dir_.empty() && dir_.back() == '/')
        dir_.pop_back();
    // Best-effort create (store root, then the objects level); a
    // failure surfaces later as save warnings, never as a run failure.
    ::mkdir(dir_.c_str(), 0777);
    ::mkdir((dir_ + "/objects").c_str(), 0777);
}

std::string
ResultStore::objectPath(const std::string &spec_fp) const
{
    return dir_ + "/objects/" + spec_fp + "." + versionTag_ + ".res";
}

bool
ResultStore::lookup(const ExperimentSpec &spec, SimResult &out)
{
    return lookupFp(specFingerprint(spec), out);
}

bool
ResultStore::lookupFp(const std::string &spec_fp, SimResult &out)
{
    const std::string path = objectPath(spec_fp);
    if (!fileExists(path)) {
        ++misses_;
        return false;
    }

    // Every rejection below degrades to "simulate it" -- which is
    // always correct -- but says why, so tests and operators can tell
    // bit rot from version skew from a misplaced file.
    const auto reject = [&](const std::string &reason) {
        structuredWarn("store-rejected", {{"path", path},
                                          {"reason", reason},
                                          {"fallback", "simulate"}});
        ++misses_;
        return false;
    };

    std::vector<std::uint8_t> bytes;
    const SimStatus read = readFileBytes(path, bytes);
    if (!read.ok())
        return reject(read.message);

    FrameWalker walker(bytes.data(), bytes.size(), kStoreMagic);
    const std::uint8_t *payload = nullptr;
    std::size_t len = 0;
    if (!walker.next(payload, len))
        return reject(walker.torn() ? walker.tornReason()
                                    : "empty object file");
    if (walker.validBytes() != bytes.size())
        return reject("trailing bytes after object record");

    try {
        const json::Value doc = json::parse(
            std::string(reinterpret_cast<const char *>(payload), len));
        json::ObjectReader r(doc, "store object");
        if (r.req("storeRecord").asInt() != 1)
            throw json::Error("unknown store record version");
        const std::string rec_fp = r.req("specFingerprint").asString();
        const std::string rec_version =
            r.req("codeVersion").asString();
        const ExperimentSpec spec = specFromJson(r.req("spec"));
        const SimResult result = resultFromJson(r.req("result"));
        if (rec_version != codeVersion_)
            return reject("code version mismatch: object " +
                          rec_version + ", store " + codeVersion_);
        // Recompute the address from the embedded spec: a file whose
        // name merely collides (or was renamed into place) cannot
        // substitute a foreign result.
        if (rec_fp != spec_fp || specFingerprint(spec) != spec_fp)
            return reject("spec fingerprint mismatch");
        out = result;
    } catch (const json::Error &e) {
        return reject(std::string("object does not parse: ") +
                      e.what());
    }

    ++hits_;
    return true;
}

void
ResultStore::insert(const ExperimentSpec &spec, const SimResult &result)
{
    insertFp(specFingerprint(spec), spec, result);
}

void
ResultStore::insertFp(const std::string &spec_fp,
                      const ExperimentSpec &spec, const SimResult &result)
{
    const std::string path = objectPath(spec_fp);
    // Dot-prefixed temp in the same directory: invisible to lookup
    // and gc, and rename() is atomic within one filesystem, so a
    // reader sees either no object or a whole one -- never a torn
    // write, even against kill -9.
    const std::string tmp = dir_ + "/objects/.tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(tmpSeq_.fetch_add(1));

    const std::vector<std::uint8_t> frame = encodeRecordFrame(
        kStoreMagic,
        objectPayload(spec_fp, codeVersion_, spec, result));
    const SimStatus wrote = writeFileBytes(tmp, frame);
    if (!wrote.ok()) {
        ::unlink(tmp.c_str());
        structuredWarn("store-save-failed",
                       {{"path", path}, {"reason", wrote.message}});
        return;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        structuredWarn("store-save-failed",
                       {{"path", path},
                        {"reason", "cannot publish temp object"}});
        return;
    }
    // The rename is durable only once the directory entry is: until
    // then a power loss can leave the object unpublished. An insert
    // counts (and the runner reports the point done) only after this.
    const SimStatus synced = syncDirectory(dir_ + "/objects");
    if (!synced.ok()) {
        structuredWarn("store-save-failed",
                       {{"path", path}, {"reason", synced.message}});
        return;
    }
    ++inserts_;
}

void
ResultStore::pin(const std::string &spec_fp)
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    pinned_.insert(spec_fp);
}

void
ResultStore::unpin(const std::string &spec_fp)
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    const auto it = pinned_.find(spec_fp);
    if (it != pinned_.end())
        pinned_.erase(it);
}

StoreGcSummary
ResultStore::gc(std::uint64_t max_bytes)
{
    StoreGcSummary sum;

    struct Entry
    {
        std::string name;
        std::uint64_t bytes = 0;
        std::int64_t mtime = 0;
    };
    std::vector<Entry> entries;

    const std::string objects = dir_ + "/objects";
    DIR *d = ::opendir(objects.c_str());
    if (d == nullptr)
        return sum;
    while (const dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        // Objects only: temp files and anything else a future format
        // drops here are not ours to evict.
        if (name.size() < 4 || name[0] == '.' ||
            name.compare(name.size() - 4, 4, ".res") != 0)
            continue;
        struct stat st{};
        if (::stat((objects + "/" + name).c_str(), &st) != 0 ||
            !S_ISREG(st.st_mode))
            continue;
        entries.push_back({name, static_cast<std::uint64_t>(st.st_size),
                           static_cast<std::int64_t>(st.st_mtime)});
    }
    ::closedir(d);

    sum.scanned = entries.size();
    for (const Entry &e : entries)
        sum.bytesBefore += e.bytes;
    sum.bytesAfter = sum.bytesBefore;
    if (sum.bytesBefore <= max_bytes)
        return sum;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.name < b.name;
              });

    std::set<std::string> pinned_names;
    {
        std::lock_guard<std::mutex> lock(pinMutex_);
        for (const std::string &fp : pinned_)
            pinned_names.insert(fp + "." + versionTag_ + ".res");
    }

    for (const Entry &e : entries) {
        if (sum.bytesAfter <= max_bytes)
            break;
        if (pinned_names.count(e.name) != 0) {
            ++sum.pinnedKept;
            continue;
        }
        if (::unlink((objects + "/" + e.name).c_str()) != 0)
            continue;
        ++sum.evicted;
        sum.bytesAfter -= e.bytes;
    }
    return sum;
}

// ---------------------------------------------------- runner adapter

StoreCacheHook::StoreCacheHook(ResultStore &store,
                               const std::vector<ExperimentSpec> &specs)
    : store_(store), specs_(specs), hit_(specs.size(), 0)
{
    fps_.reserve(specs_.size());
    for (const ExperimentSpec &spec : specs_)
        fps_.push_back(specFingerprint(spec));
    for (const std::string &fp : fps_)
        store_.pin(fp);
}

StoreCacheHook::~StoreCacheHook()
{
    for (const std::string &fp : fps_)
        store_.unpin(fp);
}

bool
StoreCacheHook::tryLoad(std::size_t index, SimResult &out)
{
    if (!store_.lookupFp(fps_[index], out))
        return false;
    hit_[index] = 1;
    ++hits_;
    return true;
}

void
StoreCacheHook::record(std::size_t index, const SimResult &result)
{
    store_.insertFp(fps_[index], specs_[index], result);
}

} // namespace unison
