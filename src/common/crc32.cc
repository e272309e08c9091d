#include "common/crc32.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

#if defined(__x86_64__)

__m128i LoadU(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One fold: carries the 128-bit lane `x` forward by the distance the
// constant pair `k` encodes (x^(d+32) and x^(d-32) mod P, bit-reflected)
// and adds the 16 bytes `next` it lands on.
__attribute__((target("pclmul"))) __m128i Fold(__m128i x, __m128i k,
                                               __m128i next) {
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Folds `len` bytes (len >= 64, a multiple of 16) into the running CRC
// register `c` (pre-inverted, as in the table loop) and returns the new
// register. Four lanes each fold 16 bytes a step across 64 bytes; they then
// fold into one lane, which takes the remaining 16-byte blocks, folds to 64
// bits and Barrett-reduces to 32. The constants are the bit-reflected ones
// of the paper's appendix, as in zlib's crc32_simd and Linux's
// crc32-pclmul. Every load is unaligned and inside [p, p + len).
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldPclmul(const uint8_t* p,
                                                             size_t len,
                                                             uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);  // 512±32
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);  // 128±32
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // P, mu
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(LoadU(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = LoadU(p + 16);
  __m128i x3 = LoadU(p + 32);
  __m128i x4 = LoadU(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = Fold(x1, k1k2, LoadU(p));
    x2 = Fold(x2, k1k2, LoadU(p + 16));
    x3 = Fold(x3, k1k2, LoadU(p + 32));
    x4 = Fold(x4, k1k2, LoadU(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = Fold(x1, k3k4, LoadU(p));

  // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool HasPclmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // __x86_64__

}  // namespace

namespace detail {

uint32_t Crc32Portable(const void* data, size_t len, uint32_t seed) {
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

}  // namespace detail

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
#if defined(__x86_64__)
  if (len >= 64 && HasPclmul()) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    size_t folded = len & ~size_t{15};
    seed = FoldPclmul(p, folded, seed ^ 0xffffffffu) ^ 0xffffffffu;
    return detail::Crc32Portable(p + folded, len - folded, seed);
  }
#endif
  return detail::Crc32Portable(data, len, seed);
}

}  // namespace vwise
