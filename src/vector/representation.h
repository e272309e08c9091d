#ifndef VWISE_VECTOR_REPRESENTATION_H_
#define VWISE_VECTOR_REPRESENTATION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "vector/string_heap.h"
#include "vector/types.h"

namespace vwise {

// Physical representation of the values inside a Vector, orthogonal to the
// logical/physical value type. Compressed execution (DESIGN.md §12) lets the
// scan hand PDICT string segments straight through to the executor as
// dictionary codes; primitives that declare a capability for a
// representation (the catalog's caps column) consume it directly, everything
// else lands on Vector::Normalize(), which decodes into the flat layout on
// demand. Every other storage codec (PFOR, PFOR-DELTA, RLE) decodes flat at
// the scan.
enum class VectorRepr : uint8_t {
  kFlat = 0,  // plain array of values
  kDict = 1,  // per-row uint32 codes into a shared string dictionary (PDICT)
};

const char* VectorReprToString(VectorRepr r);

// Capability bitmask: which representations a primitive (or an operator
// edge, in the plan verifier) accepts without normalization. These feed the
// catalog's 5th column and PlanProperties::reprs; every mask must include
// kReprFlat — Normalize() is always a legal landing. Any other bit is
// unknown (the plan verifier rejects it).
inline constexpr uint8_t kReprFlat = 1u << 0;
inline constexpr uint8_t kReprDict = 1u << 1;

std::string ReprMaskToString(uint8_t mask);

// Shared dictionary behind a kDict vector: the distinct values of one
// storage segment. The StringVals point into `heap`; both are shared by
// every chunk sliced out of the segment, so constant→code translations can
// be cached per dictionary identity (pointer equality).
struct StringDict {
  const StringVal* values = nullptr;  // `size` entries, storage order
  uint32_t size = 0;
  std::shared_ptr<StringHeap> heap;          // bytes backing `values`
  std::shared_ptr<const void> keepalive;     // owns the values array itself
};

// Code value guaranteed to equal no dictionary code (codes are dense indexes
// < dict size < 2^32-1). Constant→code translation returns this when the
// constant is absent from the dictionary, so sel_eq matches nothing and
// sel_ne passes every row without a special case in the kernel.
inline constexpr uint32_t kDictCodeNotFound = 0xFFFFFFFFu;

}  // namespace vwise

#endif  // VWISE_VECTOR_REPRESENTATION_H_
