#include "common/crc32.h"

namespace vwise {

namespace {

// Slice-by-8 tables: t[0] is the bytewise table; t[k][b] is the CRC of byte
// b followed by k zero bytes, so eight bytes fold in one step.
struct Crc32Tables {
  uint32_t t[8][256];
  constexpr Crc32Tables() : t{} {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; i++) {
      for (int k = 1; k < 8; k++) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

constexpr Crc32Tables kTables;

uint32_t Load32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const auto& t = kTables.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = c ^ Load32Le(p);
    uint32_t hi = Load32Le(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; len > 0; p++, len--) {
    c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace vwise
