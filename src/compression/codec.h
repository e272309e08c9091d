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

// Decodes a whole segment into a flat Vector (capacity >= seg.count), through
// a SegmentCursor. String bytes are copied into the vector's own heap,
// registered as a heap ref, so the result does not borrow `seg`.
Status DecodeInto(const CompressedSegment& seg, Vector* out);

// Decodes one segment a vector at a time, straight into the caller's output
// array (paper ref [2]: decompress into the CPU cache, right where the
// operator reads the values). This is the one decode path: the scan, the
// checkpoint (which writes through the scan) and DecodeInto all use it.
//
// Open() parses and validates the segment header once — the PFOR base,
// width and exception list, the PDICT offsets, the PLAIN string lengths'
// extent, the RLE run total — and picks the unpack kernel for (bit width,
// output type). Decode() then fills the next `n` values: PFOR patches its
// exceptions as it passes their positions, PFOR-DELTA carries its running
// sum from call to call, PLAIN and PDICT strings become StringVals pointing
// into the segment. Skip() moves past values without storing them (a
// PFOR-DELTA skip still adds up the deltas it passes over). Reads are
// sequential; a cursor is reused across segments by calling Open() again.
//
// Corrupt data surfaces as Status::Corruption at Open() or at the first
// Decode() that touches it. The cursor never copies the segment: `data` must
// stay valid while it is read, and decoded strings point into it (the scan
// keeps the storage blob pinned; see storage/table_file.h).
class SegmentCursor {
 public:
  Status Open(Codec codec, TypeId type, uint32_t count, const uint8_t* data,
              size_t size);

  // Decodes values [position(), position() + n) into `out`, an array of `n`
  // values of the segment's type.
  Status Decode(size_t n, void* out);
  Status Skip(size_t n);

  // PDICT only: the dictionary codes of the next `n` values (Decode looks
  // them up in the dictionary), and the dictionary itself — StringVals into
  // the segment, in storage order.
  Status DecodeCodes(size_t n, uint32_t* codes);
  const std::vector<StringVal>& dict() const { return dict_; }

  size_t position() const { return pos_; }

 private:
  using DecodeFn = Status (*)(SegmentCursor*, size_t, void*);
  // A bit::UnpackFn<T> of the decode's output type, stored type-erased.
  using AnyKernel = void (*)();
  // An RLE run: u64 value, u32 length.
  static constexpr size_t kRleRunBytes = sizeof(uint64_t) + sizeof(uint32_t);

  uint32_t ExceptionPos(uint32_t i) const;
  uint64_t ExceptionVal(uint32_t i) const;
  template <typename T>
  void PatchExceptions(size_t first, size_t n, uint64_t base, T* out);
  static Status DecodePlain(SegmentCursor* c, size_t n, void* out);
  template <bool kStore>
  static Status DecodePlainStr(SegmentCursor* c, size_t n, void* out);
  template <typename T>
  static Status DecodePfor(SegmentCursor* c, size_t n, void* out);
  template <typename T, bool kStore>
  static Status DecodeDelta(SegmentCursor* c, size_t n, void* out);
  template <typename T, bool kStore>
  static Status DecodeRle(SegmentCursor* c, size_t n, void* out);
  static Status DecodePdict(SegmentCursor* c, size_t n, void* out);

  Codec codec_ = Codec::kPlain;
  TypeId type_ = TypeId::kI64;
  uint32_t count_ = 0;
  size_t pos_ = 0;
  DecodeFn decode_ = nullptr;
  DecodeFn skip_ = nullptr;  // nullptr: skipping only advances pos_

  // PLAIN: fixed-width values, or the string length array and bytes.
  const uint8_t* values_ = nullptr;
  const uint8_t* str_lens_ = nullptr;
  const char* str_bytes_ = nullptr;
  uint32_t str_total_ = 0;
  uint32_t str_offset_ = 0;  // bytes of the strings already passed

  // PFOR core (PFOR values, PFOR-DELTA deltas, PDICT codes): packed slots
  // at `width_` bits, decoded by `kernel_`, then `n_exc_` ascending
  // exception positions and values.
  const uint8_t* packed_ = nullptr;
  int width_ = 0;
  AnyKernel kernel_ = nullptr;
  const uint8_t* exc_pos_ = nullptr;
  const uint8_t* exc_val_ = nullptr;
  uint32_t n_exc_ = 0;
  uint32_t next_exc_ = 0;  // first exception at or past the cursor
  uint64_t base_ = 0;      // PFOR frame of reference; PFOR-DELTA first value
  uint64_t sum_ = 0;       // PFOR-DELTA running sum: the value at pos_ - 1

  // RLE: (u64 value, u32 length) runs.
  const uint8_t* runs_ = nullptr;
  uint32_t next_run_ = 0;
  uint64_t run_value_ = 0;
  uint64_t run_left_ = 0;

  // PDICT: the dictionary; codes need a range check unless every `width_`
  // bit pattern is a valid code.
  std::vector<StringVal> dict_;
  bool check_codes_ = false;
};

}  // namespace compression

}  // namespace vwise

#endif  // VWISE_COMPRESSION_CODEC_H_
