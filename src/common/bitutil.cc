#include "common/bitutil.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/macros.h"

namespace vwise::bit {

void PackBits(const uint64_t* in, size_t n, int width, uint8_t* out) {
  VWISE_CHECK(width >= 0 && width <= 64);
  if (width == 0) return;
  std::memset(out, 0, PackedSize(n, width));
  size_t bitpos = 0;
  for (size_t i = 0; i < n; i++) {
    uint64_t v = in[i];
    VWISE_DCHECK(width == 64 || (v >> width) == 0);
    size_t word = bitpos >> 6;
    int offset = static_cast<int>(bitpos & 63);
    // memcpy word accesses: `out` is a byte buffer with no alignment
    // guarantee (codec frames place packed runs at arbitrary offsets).
    uint64_t w;
    std::memcpy(&w, out + word * 8, 8);
    w |= v << offset;
    std::memcpy(out + word * 8, &w, 8);
    if (offset + width > 64) {
      std::memcpy(&w, out + (word + 1) * 8, 8);
      w |= v >> (64 - offset);
      std::memcpy(out + (word + 1) * 8, &w, 8);
    }
    bitpos += width;
  }
}

namespace {

inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

template <int W>
constexpr uint64_t kMask = W == 64 ? ~uint64_t{0} : (uint64_t{1} << W) - 1;

// Slots [first, first + n) one at a time: the head and tail of a window
// that is not aligned to 64-slot blocks. Loads are unaligned word reads;
// PackedSize pads the run to whole words.
template <int W, typename T>
inline void UnpackScalar(const uint8_t* in, size_t first, size_t n,
                         uint64_t base, T* out) {
  for (size_t i = 0; i < n; i++) {
    size_t bitpos = (first + i) * W;
    const uint8_t* p = in + (bitpos >> 6) * 8;
    unsigned offset = static_cast<unsigned>(bitpos & 63);
    uint64_t v = LoadWord(p) >> offset;
    if (offset + W > 64) v |= LoadWord(p + 8) << (64 - offset);
    out[i] = static_cast<T>(base + (v & kMask<W>));
  }
}

// Slot I of a 64-slot block held in `w` (W words): every shift is a
// compile-time constant.
template <int W, int I>
inline uint64_t BlockSlot(const uint64_t* w) {
  constexpr int kBit = I * W;
  constexpr int kWord = kBit / 64;
  constexpr int kOffset = kBit % 64;
  uint64_t v = w[kWord] >> kOffset;
  if constexpr (kOffset + W > 64) v |= w[kWord + 1] << (64 - kOffset);
  return v & kMask<W>;
}

template <int W, typename T, int... I>
inline void UnpackBlock(const uint8_t* in, uint64_t base, T* out,
                        std::integer_sequence<int, I...>) {
  // Copy the block's words out first: the stores to `out` cannot alias a
  // local array, so each word is loaded once.
  uint64_t w[W];
  std::memcpy(w, in, sizeof(w));
  ((out[I] = static_cast<T>(base + BlockSlot<W, I>(w))), ...);
}

template <int W, typename T>
VWISE_HOT void Unpack(const uint8_t* in, size_t first, size_t n, uint64_t base,
                      T* out) {
  if constexpr (W == 0) {
    (void)in;
    (void)first;
    std::fill_n(out, n, static_cast<T>(base));
  } else {
    size_t head = std::min(n, (64 - first % 64) % 64);
    UnpackScalar<W, T>(in, first, head, base, out);
    first += head;
    out += head;
    n -= head;
    const uint8_t* block = in + first / 64 * W * 8;
    for (; n >= 64; n -= 64, first += 64, out += 64, block += W * 8) {
      UnpackBlock<W, T>(block, base, out, std::make_integer_sequence<int, 64>());
    }
    UnpackScalar<W, T>(in, first, n, base, out);
  }
}

template <typename T, int... W>
constexpr std::array<UnpackFn<T>, sizeof...(W)> MakeKernelTable(
    std::integer_sequence<int, W...>) {
  return {&Unpack<W, T>...};
}

}  // namespace

template <typename T>
UnpackFn<T> UnpackKernel(int width) {
  static constexpr auto kKernels =
      MakeKernelTable<T>(std::make_integer_sequence<int, 65>());
  VWISE_CHECK(width >= 0 && width <= 64);
  return kKernels[width];
}

template UnpackFn<uint8_t> UnpackKernel<uint8_t>(int);
template UnpackFn<int32_t> UnpackKernel<int32_t>(int);
template UnpackFn<int64_t> UnpackKernel<int64_t>(int);
template UnpackFn<uint32_t> UnpackKernel<uint32_t>(int);
template UnpackFn<uint64_t> UnpackKernel<uint64_t>(int);

}  // namespace vwise::bit
