/**
 * @file
 * Deterministic fault injection on the durability file paths (result
 * store objects, checkpoint files). Every byte that common/file_io.hh
 * moves passes through the process-wide FaultInjector, which can -- at
 * an exact byte offset of the cumulative stream to one file --
 *
 *  - `fail`      persist the bytes before the offset, then report an
 *                I/O error (disk full / EIO), and keep failing;
 *  - `kill`      persist the bytes before the offset, then _exit(137)
 *                -- a SIGKILL-faithful crash at a chosen byte, which
 *                is what makes "kill at every record boundary" a
 *                deterministic matrix instead of a sleep-and-hope
 *                race;
 *  - `truncate`  persist the bytes before the offset, drop the rest,
 *                and *claim success* (a lying disk: the reader must
 *                catch it later from the CRC frame);
 *  - `corrupt`   XOR one byte at the offset (write side flips it on
 *                the way to disk, read side on the way back).
 *
 * A third point, `sync`, covers directory fsyncs (syncDirectory): a
 * `sync-fail` plan lets the first <offset> syncs of matching
 * directories succeed and fails every one after that.
 *
 * A plan is armed programmatically (tests) or via the UNISON_FAULT
 * environment variable (process tests, CI):
 *
 *     UNISON_FAULT='write-kill@/objects/.tmp.:4096'
 *     UNISON_FAULT='read-corrupt@.ckpt:100'
 *     UNISON_FAULT='sync-fail@/objects:0'
 *
 * i.e. `<point>-<mode>@<path-substring>:<byte-offset>`. Exactly one
 * plan per process; the offset is an absolute byte position in any
 * file whose path contains the substring. With no
 * plan armed the hooks are two predictable branches -- the seam costs
 * nothing in production runs (and sits nowhere near the simulation
 * hot path anyway).
 */

#ifndef UNISON_COMMON_FAULT_INJECTION_HH
#define UNISON_COMMON_FAULT_INJECTION_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace unison {

/** One armed fault. */
struct FaultPlan
{
    enum class Point
    {
        None,
        Write,
        Read,
        Sync, //!< directory fsync; `offset` counts syncs, not bytes
    };
    enum class Mode
    {
        None,
        Fail,
        Kill,
        Truncate,
        Corrupt,
    };

    Point point = Point::None;
    Mode mode = Mode::None;
    std::string pathSubstr;    //!< arm only for paths containing this
    std::uint64_t offset = 0;  //!< absolute byte offset in the file

    bool armed() const { return point != Point::None; }
};

/** Parse "<point>-<mode>@<path-substring>:<offset>"; throws
 *  SimError(Usage) on malformed input. */
FaultPlan parseFaultPlan(const std::string &spec);

/** Process-wide injector consulted by common/file_io.hh. */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /** Arm a plan (resets the sticky-failure latch). */
    void arm(const FaultPlan &plan);

    /** Disarm and reset the latch. */
    void disarm();

    /** Arm from $UNISON_FAULT if set (called once by file_io on first
     *  use; harmless to call again). */
    void armFromEnv();

    /** What a write of `len` bytes to `path`, starting at absolute
     *  file offset `begin`, should do. Applied by file_io *before*
     *  the bytes reach the OS. */
    struct WriteDecision
    {
        std::size_t persist; //!< bytes to actually write
        bool fail = false;   //!< report an I/O error after persisting
        bool kill = false;   //!< _exit(137) after persisting
        /** Corrupt one byte: index into this write's buffer, <len, or
         *  SIZE_MAX for none. */
        std::size_t corruptAt = SIZE_MAX;
    };
    WriteDecision onWrite(const std::string &path, std::uint64_t begin,
                          std::size_t len);

    /** What a read of `len` bytes from `path`, starting at absolute
     *  file offset `begin`, should do. */
    struct ReadDecision
    {
        bool fail = false;
        std::size_t corruptAt = SIZE_MAX; //!< index into the buffer
    };
    ReadDecision onRead(const std::string &path, std::uint64_t begin,
                        std::size_t len);

    /** Whether an fsync of directory `path` should fail. */
    bool onSync(const std::string &path);

  private:
    FaultInjector() = default;

    std::mutex mutex_;
    FaultPlan plan_;
    bool envChecked_ = false;
    bool tripped_ = false; //!< fail mode is sticky once triggered
    std::uint64_t syncs_ = 0; //!< matching directory syncs so far
};

} // namespace unison

#endif // UNISON_COMMON_FAULT_INJECTION_HH
