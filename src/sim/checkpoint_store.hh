/**
 * @file
 * The persistent warm-checkpoint store behind `--warm-ckpt-dir`: one
 * framed file (common/file_io.hh header: magic/version/length/CRC)
 * per warm-prefix key, holding the WarmCheckpoint bytes plus the full
 * key string for identity verification. A file that fails any check
 * is rejected with a structured warning and the run falls back to a
 * cold warm-up -- corrupt state is never loaded silently.
 */

#ifndef UNISON_SIM_CHECKPOINT_STORE_HH
#define UNISON_SIM_CHECKPOINT_STORE_HH

#include <string>

#include "sim/runner.hh"

namespace unison {

/**
 * CheckpointStore over a directory of framed `<fnv16-of-key>.ckpt`
 * files. tryLoad never throws and never half-loads: any integrity or
 * identity failure emits one structured "checkpoint-rejected" warning
 * and reports a miss, which the runner turns into a cold warm-up.
 * save failures likewise warn ("checkpoint-save-failed") and drop the
 * snapshot -- persistence is an optimization, never a correctness
 * dependency.
 */
class FileCheckpointStore : public CheckpointStore
{
  public:
    explicit FileCheckpointStore(std::string dir);

    bool tryLoad(const std::string &warm_key,
                 WarmCheckpoint &out) override;
    void save(const std::string &warm_key,
              const WarmCheckpoint &ck) override;

    /** The file a key lives in (exposed for tests and tooling). */
    std::string pathFor(const std::string &warm_key) const;

  private:
    std::string dir_;
};

} // namespace unison

#endif // UNISON_SIM_CHECKPOINT_STORE_HH
