/**
 * @file
 * The one CRC-32 framing implementation every durability format in the
 * tree shares. Two consumers:
 *
 *  - the checkpoint store (via common/file_io.hh's framed files): one
 *    versioned frame per file;
 *  - the content-addressed result store (store/result_store.cc): one
 *    record frame per published object.
 *
 * Two frame shapes, one byte-level implementation:
 *
 * # Record frames (streams and single-record objects)
 *
 *     u32 magic       caller-chosen stream tag
 *     u32 payloadLen
 *     u32 payloadCrc  CRC-32 of the payload bytes
 *     u8  payload[]
 *
 * appendRecordFrame encodes; FrameWalker decodes a buffer of
 * consecutive frames, stopping at the first damaged one and
 * classifying the damage (torn header, bad magic, implausible length,
 * truncated payload, CRC mismatch). A torn tail after a crash is an
 * *expected* outcome, so the walker reports it instead of failing:
 * validBytes() is the byte length of the clean frame prefix, and
 * everything after it must not be trusted.
 *
 * # File frames (whole-file containers)
 *
 *     u32 magic / u32 version / u64 payloadLen / u32 payloadCrc /
 *     u8 payload[]
 *
 * encodeFileFrame / decodeFileFrame are the byte-level halves of
 * writeFramedFile / readFramedFile (common/file_io.hh keeps the I/O
 * and the fault-injection seam). decodeFileFrame classifies each way
 * the bytes can be wrong and only writes `payload` on full success.
 */

#ifndef UNISON_COMMON_CRC_FRAME_HH
#define UNISON_COMMON_CRC_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"

namespace unison {

/** Record-frame header size (magic + length + CRC). */
inline constexpr std::size_t kRecordFrameHeaderBytes = 4 + 4 + 4;

/** Sanity bound on one record frame's payload; a corrupt length field
 *  must classify as damage, not turn into a multi-gigabyte
 *  allocation. */
inline constexpr std::uint64_t kMaxRecordFrameBytes = 64ull << 20;

/** Append one record frame (header + payload) to `out`. */
void appendRecordFrame(std::vector<std::uint8_t> &out,
                       std::uint32_t magic, const void *payload,
                       std::size_t len);

/** Convenience: one frame around a string payload. */
std::vector<std::uint8_t> encodeRecordFrame(std::uint32_t magic,
                                            const std::string &payload);

/**
 * Sequential decoder over a buffer of record frames. next() yields
 * payloads until the buffer ends cleanly or a damaged frame stops the
 * walk; the summary accessors then say how far the clean prefix
 * reached and why the walk stopped. The walker never throws and never
 * yields a payload whose CRC did not verify.
 */
class FrameWalker
{
  public:
    FrameWalker(const std::uint8_t *data, std::size_t size,
                std::uint32_t magic,
                std::uint64_t max_payload = kMaxRecordFrameBytes);

    /** Advance to the next intact frame; false at end-of-buffer or at
     *  the first damaged frame. */
    bool next(const std::uint8_t *&payload, std::size_t &len);

    /** True when the walk stopped at damage rather than a clean end. */
    bool torn() const { return torn_; }
    /** Classification of the damage ("" when not torn). */
    const std::string &tornReason() const { return tornReason_; }
    /** Byte length of the clean frame prefix consumed so far. */
    std::uint64_t validBytes() const { return at_; }

  private:
    void tear(std::string why);

    const std::uint8_t *data_;
    std::size_t size_;
    std::uint32_t magic_;
    std::uint64_t maxPayload_;
    std::uint64_t at_ = 0;
    bool torn_ = false;
    std::string tornReason_;
};

/** @name File frames (byte-level halves of file_io's framed files) */
/**@{*/
std::vector<std::uint8_t>
encodeFileFrame(std::uint32_t magic, std::uint32_t version,
                const std::vector<std::uint8_t> &payload);

/** Decode a whole-file frame; `what` names the file in failure
 *  messages. Failure class is Corrupt for every damage kind. */
SimStatus decodeFileFrame(const std::vector<std::uint8_t> &file,
                          std::uint32_t magic, std::uint32_t version,
                          std::vector<std::uint8_t> &payload,
                          const std::string &what);
/**@}*/

} // namespace unison

#endif // UNISON_COMMON_CRC_FRAME_HH
