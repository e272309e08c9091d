#ifndef VWISE_EXEC_KEY_HASH_H_
#define VWISE_EXEC_KEY_HASH_H_

#include <cstdint>
#include <cstring>
#include <limits>

#include "common/hash.h"
#include "vector/types.h"

namespace vwise {

// Per-value key semantics shared by every engine and operator. The key
// table (exec/key_table.h) hashes and checks keys a column at a time with
// these; sort compares with them.

// f64 key semantics, the same in every engine: two keys are equal iff
// a == b or both are NaN (so -0.0 equals +0.0), and in ascending order NaN
// sorts after every number.
inline bool F64KeyEquals(double a, double b) {
  return a == b || (a != a && b != b);
}
inline int CompareF64(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  return (a != a) - (b != b);  // at least one NaN: NaN last
}

// f64 keys hash their bit pattern (a value cast to an integer is undefined
// for negative or out-of-range doubles). Equal keys must hash equal, so
// -0.0 folds into +0.0 and every NaN into one quiet NaN first.
inline uint64_t HashF64(double v) {
  if (v == 0.0) v = 0.0;
  if (v != v) v = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return HashInt(bits);
}

// Hash of one key value; signed integers hash their sign-extended 64 bits.
inline uint64_t HashKey(uint8_t v) { return HashInt(v); }
inline uint64_t HashKey(int32_t v) { return HashInt(static_cast<uint64_t>(v)); }
inline uint64_t HashKey(int64_t v) { return HashInt(static_cast<uint64_t>(v)); }
inline uint64_t HashKey(double v) { return HashF64(v); }
inline uint64_t HashKey(const StringVal& v) { return HashBytes(v.ptr, v.len); }

// Key equality and three-way key order of two values of one type.
template <typename T>
bool KeyEq(const T& a, const T& b) {
  return a == b;
}
inline bool KeyEq(double a, double b) { return F64KeyEquals(a, b); }
template <typename T>
int KeyCompare(const T& a, const T& b) {
  return a < b ? -1 : b < a ? 1 : 0;
}
inline int KeyCompare(double a, double b) { return CompareF64(a, b); }

// Three-way key order of a[i] and b[j], both arrays of physical type `type`
// (a Vector's or a ColumnStore's raw values): the comparator of every sort.
inline int CompareRows(TypeId type, const void* a, size_t i, const void* b,
                       size_t j) {
  return DispatchType(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return KeyCompare(static_cast<const T*>(a)[i], static_cast<const T*>(b)[j]);
  });
}

}  // namespace vwise

#endif  // VWISE_EXEC_KEY_HASH_H_
