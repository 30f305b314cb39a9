/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
 * buffers. Shared by the result store's record frames and the
 * checkpoint file header: both need a cheap, dependency-free,
 * platform-stable integrity check that catches truncation and
 * bit-flips -- not cryptographic tamper resistance.
 */

#ifndef UNISON_COMMON_CRC32_HH
#define UNISON_COMMON_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace unison {

namespace detail {

inline const std::array<std::uint32_t, 256> &
crc32Table()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
            t[i] = c;
        }
        return t;
    }();
    return table;
}

} // namespace detail

/** CRC-32 of `len` bytes at `data` (init/final XOR 0xFFFFFFFF, as in
 *  zlib's crc32(0, ...)). */
inline std::uint32_t
crc32(const void *data, std::size_t len)
{
    const auto &table = detail::crc32Table();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace unison

#endif // UNISON_COMMON_CRC32_HH
