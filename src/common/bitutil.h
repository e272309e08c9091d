#ifndef VWISE_COMMON_BITUTIL_H_
#define VWISE_COMMON_BITUTIL_H_

#include <cstddef>
#include <cstdint>

namespace vwise::bit {

inline constexpr uint64_t RoundUp(uint64_t value, uint64_t factor) {
  return (value + factor - 1) / factor * factor;
}

inline constexpr uint64_t CeilDiv(uint64_t a, uint64_t b) {
  return (a + b - 1) / b;
}

// Number of bits needed to represent `v` (0 -> 0 bits).
inline int BitWidth(uint64_t v) {
  return v == 0 ? 0 : 64 - __builtin_clzll(v);
}

inline bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

inline uint64_t NextPowerOfTwo(uint64_t v) {
  if (v <= 1) return 1;
  return uint64_t{1} << BitWidth(v - 1);
}

// Packs `n` values of `width` bits each (width in [0,64]) from `in` into
// `out`. `out` must have space for CeilDiv(n*width, 8) bytes, rounded up to
// 8-byte words. Values must fit in `width` bits.
void PackBits(const uint64_t* in, size_t n, int width, uint8_t* out);

// Unpack kernel for one (bit width, output type) pair: writes
// out[i] = T(base + slot[first + i]) for i in [0, n), where slot[k] is the
// k-th `width`-bit value of a PackBits run. The add wraps modulo 2^64 and the
// store truncates to T, so a frame-of-reference base works for every integer
// width. Each run of 64 slots fills exactly `width` words; the kernel
// decodes such blocks fully unrolled, with a scalar head and tail for
// windows that do not start or end on a 64-slot boundary.
template <typename T>
using UnpackFn = void (*)(const uint8_t* in, size_t first, size_t n,
                          uint64_t base, T* out);

// The kernel for `width` in [0, 64]. Instantiated for T = uint8_t, int32_t,
// int64_t, uint32_t and uint64_t. Pick it once per packed run, then call it
// once per window.
template <typename T>
UnpackFn<T> UnpackKernel(int width);

// Byte size of a packed run of `n` values at `width` bits, word-aligned.
inline size_t PackedSize(size_t n, int width) {
  return RoundUp(CeilDiv(static_cast<uint64_t>(n) * width, 8), 8);
}

// ZigZag encoding maps signed deltas to unsigned so small magnitudes pack
// into few bits regardless of sign.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace vwise::bit

#endif  // VWISE_COMMON_BITUTIL_H_
