#include "sim/checkpoint_store.hh"

#include <sys/stat.h>

#include "common/file_io.hh"
#include "common/state_io.hh"
#include "sim/spec_json.hh"

namespace unison {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x504b4355u; // 'UCKP'
constexpr std::uint32_t kCheckpointVersion = 1;

} // namespace

FileCheckpointStore::FileCheckpointStore(std::string dir)
    : dir_(std::move(dir))
{
    if (!dir_.empty() && dir_.back() == '/')
        dir_.pop_back();
    // Best-effort create (one level); a failure surfaces later as a
    // save warning, never as a run failure.
    ::mkdir(dir_.c_str(), 0777);
}

std::string
FileCheckpointStore::pathFor(const std::string &warm_key) const
{
    return dir_ + "/" + fnvFingerprint(warm_key) + ".ckpt";
}

bool
FileCheckpointStore::tryLoad(const std::string &warm_key,
                             WarmCheckpoint &out)
{
    const std::string path = pathFor(warm_key);
    if (!fileExists(path))
        return false;

    std::vector<std::uint8_t> payload;
    const SimStatus status = readFramedFile(
        path, kCheckpointMagic, kCheckpointVersion, payload);
    if (!status.ok()) {
        structuredWarn("checkpoint-rejected",
                       {{"path", path},
                        {"reason", status.message},
                        {"fallback", "cold-warmup"}});
        return false;
    }

    // Payload: [u64 warmAccesses][key bytes][state bytes] (vectors
    // carry their own length prefixes). The embedded key guards both
    // hash collisions and stale files whose name matches but whose
    // spec prefix changed meaning.
    StateReader in(payload);
    std::uint64_t warm_accesses = 0;
    in.pod(warm_accesses);
    std::vector<std::uint8_t> key_bytes;
    in.podVectorResize(key_bytes);
    std::vector<std::uint8_t> state;
    in.podVectorResize(state);
    in.expectEnd();
    const std::string key(key_bytes.begin(), key_bytes.end());
    if (!in.ok() || key != warm_key) {
        structuredWarn("checkpoint-rejected",
                       {{"path", path},
                        {"reason", !in.ok() ? in.status().message
                                            : "warm-prefix key "
                                              "mismatch"},
                        {"fallback", "cold-warmup"}});
        return false;
    }

    out.warmAccesses = warm_accesses;
    out.bytes = std::move(state);
    return out.valid();
}

void
FileCheckpointStore::save(const std::string &warm_key,
                          const WarmCheckpoint &ck)
{
    if (!ck.valid())
        return;
    StateWriter w;
    w.pod(ck.warmAccesses);
    const std::vector<std::uint8_t> key_bytes(warm_key.begin(),
                                              warm_key.end());
    w.podVector(key_bytes);
    w.podVector(ck.bytes);

    const std::string path = pathFor(warm_key);
    const SimStatus status = writeFramedFile(
        path, kCheckpointMagic, kCheckpointVersion, std::move(w).take());
    if (!status.ok())
        structuredWarn("checkpoint-save-failed",
                       {{"path", path}, {"reason", status.message}});
}

} // namespace unison
