#ifndef VWISE_EXEC_KEY_HASH_H_
#define VWISE_EXEC_KEY_HASH_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/hash.h"
#include "exec/column_store.h"
#include "vector/chunk.h"

namespace vwise {

// Key hashing and equality shared by the hash join, the hash aggregation and
// RadixSpill. One definition matters: a key must hash the same in an
// in-memory table, in a level-0 radix flush, and when its spill file is
// re-partitioned, or equal keys end up in different partitions.

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

// Typed values of a key column: a flat Vector or a ColumnStore.
template <typename T>
const T* KeyData(const Vector& vec) {
  return vec.Data<T>();
}
template <typename T>
const T* KeyData(const ColumnStore& col) {
  if constexpr (std::is_same_v<T, StringVal>) {
    return col.Strs();
  } else {
    return col.Data<T>();
  }
}

template <typename Column>
inline uint64_t HashValue(const Column& col, size_t i) {
  switch (col.type()) {
    case TypeId::kU8:
      return HashInt(KeyData<uint8_t>(col)[i]);
    case TypeId::kI32:
      return HashInt(static_cast<uint64_t>(KeyData<int32_t>(col)[i]));
    case TypeId::kI64:
      return HashInt(static_cast<uint64_t>(KeyData<int64_t>(col)[i]));
    case TypeId::kF64:
      return HashF64(KeyData<double>(col)[i]);
    case TypeId::kStr: {
      const StringVal& s = KeyData<StringVal>(col)[i];
      return HashBytes(s.ptr, s.len);
    }
  }
  return 0;
}

inline bool KeyEquals(const Vector& vec, sel_t pos, const ColumnStore& col,
                      size_t row) {
  switch (vec.type()) {
    case TypeId::kU8:
      return vec.Data<uint8_t>()[pos] == col.Get<uint8_t>(row);
    case TypeId::kI32:
      return vec.Data<int32_t>()[pos] == col.Get<int32_t>(row);
    case TypeId::kI64:
      return vec.Data<int64_t>()[pos] == col.Get<int64_t>(row);
    case TypeId::kF64:
      return F64KeyEquals(vec.Data<double>()[pos], col.Get<double>(row));
    case TypeId::kStr:
      return vec.Data<StringVal>()[pos] == col.Strs()[row];
  }
  return false;
}

// Combined hash of the listed key columns at one chunk position.
inline uint64_t HashKeys(const DataChunk& chunk, sel_t pos,
                         const std::vector<size_t>& keys) {
  uint64_t h = 0;
  for (size_t c : keys) h = HashCombine(h, HashValue(chunk.column(c), pos));
  return h;
}

}  // namespace vwise

#endif  // VWISE_EXEC_KEY_HASH_H_
