#ifndef VWISE_COMPRESSION_CODEC_H_
#define VWISE_COMPRESSION_CODEC_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "vector/string_heap.h"
#include "vector/types.h"
#include "vector/vector.h"

namespace vwise {

// Compression schemes from "Super-Scalar RAM-CPU Cache Compression"
// (Zukowski et al., ICDE 2006), the storage substrate of Vectorwise:
//
//  * kPfor       — Patched Frame-of-Reference: values minus a frame base,
//                  bit-packed at a width chosen to minimize total size;
//                  values that do not fit are stored as patch "exceptions".
//  * kPforDelta  — PFOR over zigzag-encoded deltas; wins on sorted or
//                  clustered columns (dates, foreign keys).
//  * kRle        — run-length encoding for low-cardinality runs.
//  * kPdict      — dictionary encoding for strings, codes bit-packed.
//  * kPlain      — verbatim fallback.
enum class Codec : uint8_t {
  kPlain = 0,
  kPfor = 1,
  kPforDelta = 2,
  kRle = 3,
  kPdict = 4,
};

const char* CodecToString(Codec c);

// One compressed column chunk. `data` is a self-describing blob in the
// codec's format; `count` values of physical type `type` decode from it.
struct CompressedSegment {
  Codec codec = Codec::kPlain;
  TypeId type = TypeId::kI64;
  uint32_t count = 0;
  std::vector<uint8_t> data;

  // Per-segment footprint of the serialized table-file footer record
  // (storage/table_file.cc, TableWriter::Finish): offset_in_blob u32 +
  // size u32 + codec u8 + count u32 + has_minmax u8 + min i64 + max i64.
  // compression_test keeps this in sync with the writer.
  static constexpr size_t kFooterRecordBytes =
      sizeof(uint32_t) + sizeof(uint32_t) + sizeof(uint8_t) +
      sizeof(uint32_t) + sizeof(uint8_t) + sizeof(int64_t) + sizeof(int64_t);

  // Total stored footprint: blob bytes plus the footer record describing
  // them. Derived from the actual serialization, not a guessed constant, so
  // bench/report compression ratios count real bytes.
  size_t byte_size() const { return data.size() + kFooterRecordBytes; }
};

namespace compression {

// Encodes the first `n` values of a flat Vector with a specific codec.
// Returns InvalidArgument if the codec does not apply to the vector's type
// (e.g. PFOR on strings).
Result<CompressedSegment> Encode(Codec codec, const Vector& values, size_t n);

// Tries every applicable codec and returns the smallest encoding; an error
// if even the plain fallback cannot represent the input (rather than
// silently shipping a kPlain segment that failed to encode).
Result<CompressedSegment> EncodeBest(const Vector& values, size_t n);

// Decodes a whole segment into a flat Vector (capacity >= seg.count). String
// bytes land in the vector's own heap, registered as a heap ref.
Status DecodeInto(const CompressedSegment& seg, Vector* out);

// Decodes straight from a storage blob without copying it into a
// CompressedSegment first (used by the table reader on pinned buffers).
// String bytes are copied into `heap`, which must outlive the StringVals.
Status DecodeRaw(Codec codec, TypeId type, uint32_t count, const uint8_t* data,
                 size_t size, void* out, StringHeap* heap);

// Compressed-execution adoption (DESIGN.md §12): surface the encoded form
// without materializing per-row values.
//
// PDICT: per-row codes into `dict_vals` (the distinct strings, bytes in
// `heap`). `codes` must hold `count` entries.
Status DecodeDictRaw(TypeId type, uint32_t count, const uint8_t* data,
                     size_t size, uint32_t* codes,
                     std::vector<StringVal>* dict_vals, StringHeap* heap);

}  // namespace compression

}  // namespace vwise

#endif  // VWISE_COMPRESSION_CODEC_H_
