#ifndef VWISE_COMMON_CRC32_H_
#define VWISE_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace vwise {

// CRC-32 (ISO-HDLC polynomial, same as zlib). Detects torn or corrupted WAL
// records, storage footers, stripe groups and spill blocks.
//
// On x86-64 CPUs with PCLMULQDQ, inputs of 64 bytes or more fold 64 bytes a
// step with carry-less multiplication, then Barrett-reduce to 32 bits (Intel,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction"); the CPU is asked once, on the first call. The slice-by-8
// loop finishes the last `len % 16` bytes, and is the whole path for short
// inputs, other CPUs and other architectures. Both give the same value for
// every input, so persisted checksums do not depend on the host.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

namespace detail {

// The table-only path (slice-by-8), exposed so tests cover it on hosts
// where Crc32 folds with PCLMULQDQ.
uint32_t Crc32Portable(const void* data, size_t len, uint32_t seed);

}  // namespace detail

}  // namespace vwise

#endif  // VWISE_COMMON_CRC32_H_
