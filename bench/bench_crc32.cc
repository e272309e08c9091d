// Experiment E15: checksum throughput. Every spill block, every stripe group
// read on a buffer-pool miss, every table write and every WAL record passes
// through Crc32. It folds 64 bytes a step with carry-less multiplication on
// x86-64 CPUs with PCLMULQDQ and falls back to the slice-by-8 tables
// (detail::Crc32Portable) elsewhere. This prints GB/s of both paths, and of
// memcpy over the same blocks, per block size; it exits non-zero if the two
// paths ever disagree (or memcpy did not copy).

#include <cstring>

#include "bench/bench_util.h"
#include "common/crc32.h"
#include "common/rng.h"

namespace vwise::bench {
namespace {

constexpr size_t kBufBytes = 16 << 20;
constexpr size_t kBytesPerRow = size_t{1} << 30;  // hashed per block size

template <typename F>
double GbPerSec(size_t block, F&& fn) {
  size_t reps = kBytesPerRow / kBufBytes;
  double secs = TimeSec([&] {
    for (size_t r = 0; r < reps; r++) {
      for (size_t off = 0; off + block <= kBufBytes; off += block) fn(off);
    }
  });
  return static_cast<double>(reps * (kBufBytes / block * block)) / secs / 1e9;
}

}  // namespace
}  // namespace vwise::bench

int main() {
  using namespace vwise;
  using namespace vwise::bench;

  std::vector<uint8_t> buf(kBufBytes);
  std::vector<uint8_t> dst(kBufBytes);
  Rng rng(15);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());

  std::printf("# %zu MiB of random bytes, %zu MiB hashed per row\n",
              kBufBytes >> 20, kBytesPerRow >> 20);
  std::printf("%10s %14s %14s %14s\n", "block", "Crc32", "slice-by-8",
              "memcpy");
  bool agree = true;
  for (size_t block : {64, 256, 1024, 8192, 65536, 1 << 20}) {
    uint32_t fast = 0;
    uint32_t portable = 0;
    double fast_gbps = GbPerSec(
        block, [&](size_t off) { fast += Crc32(buf.data() + off, block); });
    double portable_gbps = GbPerSec(block, [&](size_t off) {
      portable += detail::Crc32Portable(buf.data() + off, block, 0);
    });
    double memcpy_gbps = GbPerSec(block, [&](size_t off) {
      std::memcpy(dst.data() + off, buf.data() + off, block);
    });
    agree = agree && fast == portable;
    std::printf("%10zu %9.2f GB/s %9.2f GB/s %9.2f GB/s\n", block, fast_gbps,
                portable_gbps, memcpy_gbps);
  }
  agree = agree && dst == buf;
  std::printf("# checksums %s\n", agree ? "agree" : "DISAGREE");
  return agree ? 0 : 1;
}
