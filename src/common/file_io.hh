/**
 * @file
 * Status-returning, fault-injectable file I/O for the durability
 * layer (result-store objects, checkpoint files, result output).
 * Every byte moved here passes through the FaultInjector seam, and
 * every function reports failure as a SimStatus instead of fatal()ing
 * -- the callers decide between graceful degradation (a checkpoint
 * that will not load falls back to a cold run, a store object that
 * cannot be made durable is not counted) and classified exit.
 *
 * Also home of the framed-file container every binary durability file
 * uses: a `magic / version / payload-length / payload-CRC32` header
 * ahead of an opaque payload, so truncation, bit-flips and version
 * skew are *detected and classified* before any payload byte is
 * trusted (readFramedFile never returns a partially-validated
 * payload).
 */

#ifndef UNISON_COMMON_FILE_IO_HH
#define UNISON_COMMON_FILE_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"

namespace unison {

/** True when `path` exists (any type). */
bool fileExists(const std::string &path);

/** Size in bytes, or 0 when the file is missing. */
std::uint64_t fileSizeOrZero(const std::string &path);

/** Read the whole file. A missing file is an Io failure; the caller
 *  that treats "missing" as "empty" checks fileExists() first. */
SimStatus readFileBytes(const std::string &path,
                        std::vector<std::uint8_t> &out);

/** Create-or-truncate write of the whole buffer, flushed and fsynced.
 */
SimStatus writeFileBytes(const std::string &path,
                         const std::vector<std::uint8_t> &bytes);

/** fsync a directory, making the entries created or renamed in it
 *  durable -- the barrier after an atomic rename-into-place. Consults
 *  the FaultInjector's sync point. */
SimStatus syncDirectory(const std::string &dir);

/** @name Framed container
 * Layout (little-endian, matching the raw-POD state format):
 *
 *     u32 magic      file-type tag (caller-chosen constant)
 *     u32 version    format version of the payload
 *     u64 payloadLen
 *     u32 payloadCrc CRC-32 of the payload bytes
 *     u8  payload[payloadLen]
 *
 * readFramedFile classifies each way the file can be wrong (short
 * header, bad magic, version skew, truncated payload, CRC mismatch,
 * trailing bytes) in its failure message, and only writes `payload`
 * on full success.
 */
/**@{*/
SimStatus writeFramedFile(const std::string &path, std::uint32_t magic,
                          std::uint32_t version,
                          const std::vector<std::uint8_t> &payload);
SimStatus readFramedFile(const std::string &path, std::uint32_t magic,
                         std::uint32_t version,
                         std::vector<std::uint8_t> &payload);
/**@}*/

} // namespace unison

#endif // UNISON_COMMON_FILE_IO_HH
