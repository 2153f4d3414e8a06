#include "common/crc32.h"

#include <array>

namespace crh {

namespace {

/// Slice-by-8 lookup tables for the reflected 0xEDB88320 polynomial, built
/// once at first use. Table 0 is the classic bytewise table; table t maps a
/// byte to its CRC contribution t bytes further back in the stream, so the
/// main loop folds eight input bytes per step with eight independent loads
/// instead of a chain of eight dependent ones. Portable C++ on purpose: no
/// CPU-specific instructions, identical output everywhere.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32Tables& Tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < t.size(); ++k) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return tables;
}

/// Little-endian 32-bit load, independent of host byte order and alignment.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const Crc32Tables& t = Tables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t lo = c ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace crh
