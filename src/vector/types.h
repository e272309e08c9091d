#ifndef VWISE_VECTOR_TYPES_H_
#define VWISE_VECTOR_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace vwise {

// Physical representation of a value inside a Vector. Execution primitives
// are instantiated per physical type; logical types (below) map onto these.
enum class TypeId : uint8_t {
  kU8 = 0,   // bool / NULL indicator
  kI32 = 1,  // int32 / date (days since 1970-01-01)
  kI64 = 2,  // int64 / decimal (scaled integer)
  kF64 = 3,  // double
  kStr = 4,  // StringVal (pointer + length)
};

// Non-owning string reference. The bytes live either in storage-owned
// buffers (stable for the pin duration) or in a StringHeap kept alive by the
// Vector that holds the StringVal.
struct StringVal {
  const char* ptr = nullptr;
  uint32_t len = 0;

  StringVal() = default;
  StringVal(const char* p, uint32_t l) : ptr(p), len(l) {}
  explicit StringVal(std::string_view sv)
      : ptr(sv.data()), len(static_cast<uint32_t>(sv.size())) {}

  std::string_view view() const { return std::string_view(ptr, len); }
  std::string ToString() const { return std::string(ptr, len); }

  friend bool operator==(const StringVal& a, const StringVal& b) {
    return a.len == b.len && (a.len == 0 || std::memcmp(a.ptr, b.ptr, a.len) == 0);
  }
  friend bool operator!=(const StringVal& a, const StringVal& b) {
    return !(a == b);
  }
  friend bool operator<(const StringVal& a, const StringVal& b) {
    return a.view() < b.view();
  }
  friend bool operator<=(const StringVal& a, const StringVal& b) {
    return a.view() <= b.view();
  }
  friend bool operator>(const StringVal& a, const StringVal& b) {
    return a.view() > b.view();
  }
  friend bool operator>=(const StringVal& a, const StringVal& b) {
    return a.view() >= b.view();
  }
};

// Byte width of one value of physical type `t`.
inline size_t TypeWidth(TypeId t) {
  switch (t) {
    case TypeId::kU8:
      return 1;
    case TypeId::kI32:
      return 4;
    case TypeId::kI64:
      return 8;
    case TypeId::kF64:
      return 8;
    case TypeId::kStr:
      return sizeof(StringVal);
  }
  return 0;
}

const char* TypeIdToString(TypeId t);

// Resolves a physical type once for a typed loop: calls f(TypeTag<T>{})
// with T the C++ value type of `t` (uint8_t, int32_t, int64_t, double,
// StringVal).
template <typename T>
struct TypeTag {
  using type = T;
};
template <typename F>
decltype(auto) DispatchType(TypeId t, F&& f) {
  switch (t) {
    case TypeId::kU8:
      return f(TypeTag<uint8_t>{});
    case TypeId::kI32:
      return f(TypeTag<int32_t>{});
    case TypeId::kI64:
      return f(TypeTag<int64_t>{});
    case TypeId::kF64:
      return f(TypeTag<double>{});
    case TypeId::kStr:
      break;
  }
  return f(TypeTag<StringVal>{});
}

// Logical (SQL-facing) type. Decimals are fixed-point scaled int64; dates are
// day numbers. NULLability is a column property (catalog), not a type
// property: per the paper, NULLable columns are physically (value, indicator)
// pairs and execution primitives stay NULL-oblivious.
enum class LType : uint8_t {
  kBool = 0,
  kInt32 = 1,
  kInt64 = 2,
  kDouble = 3,
  kDecimal = 4,  // int64 scaled by 10^scale
  kDate = 5,     // int32 days since epoch
  kVarchar = 6,
};

struct DataType {
  LType kind = LType::kInt64;
  uint8_t scale = 0;  // decimal digits after the point (kDecimal only)

  DataType() = default;
  DataType(LType k, uint8_t s = 0) : kind(k), scale(s) {}  // NOLINT

  static DataType Bool() { return DataType(LType::kBool); }
  static DataType Int32() { return DataType(LType::kInt32); }
  static DataType Int64() { return DataType(LType::kInt64); }
  static DataType Double() { return DataType(LType::kDouble); }
  static DataType Decimal(uint8_t scale) { return DataType(LType::kDecimal, scale); }
  static DataType Date() { return DataType(LType::kDate); }
  static DataType Varchar() { return DataType(LType::kVarchar); }

  TypeId physical() const {
    switch (kind) {
      case LType::kBool:
        return TypeId::kU8;
      case LType::kInt32:
      case LType::kDate:
        return TypeId::kI32;
      case LType::kInt64:
      case LType::kDecimal:
        return TypeId::kI64;
      case LType::kDouble:
        return TypeId::kF64;
      case LType::kVarchar:
        return TypeId::kStr;
    }
    return TypeId::kI64;
  }

  std::string ToString() const;

  friend bool operator==(const DataType& a, const DataType& b) {
    return a.kind == b.kind && a.scale == b.scale;
  }
};

// Index type of selection vectors (X100-style: positions into a vector).
using sel_t = uint32_t;

}  // namespace vwise

#endif  // VWISE_VECTOR_TYPES_H_
