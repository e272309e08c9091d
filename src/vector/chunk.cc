#include "vector/chunk.h"

#include <cstring>

#include "common/date.h"

namespace vwise {

namespace {

template <typename T>
void CompactColumn(Vector* col, const sel_t* sel, size_t n, size_t capacity) {
  Vector dense(col->type(), capacity);
  const T* src = col->Data<T>();
  T* dst = dense.Data<T>();
  for (size_t i = 0; i < n; i++) dst[i] = src[sel[i]];
  dense.AddHeapsFrom(*col);
  // Keep the source buffer alive via the keepalive chain: string vectors may
  // point into the old buffer's heap; value copies are by value so only the
  // heap matters, which we carried over above.
  *col = std::move(dense);
}

}  // namespace

void DataChunk::Flatten() {
  if (!has_sel_) return;
  const sel_t* s = sel();
  for (Vector& col : columns_) {
    DispatchType(col.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      CompactColumn<T>(&col, s, sel_count_, capacity_);
    });
  }
  count_ = sel_count_;
  ClearSelection();
}

Value DataChunk::GetValue(size_t col, size_t row, const DataType* type) const {
  VWISE_CHECK(col < columns_.size() && row < ActiveCount());
  size_t pos = has_sel_ ? sel()[row] : row;
  const Vector& v = columns_[col];
  switch (v.type()) {
    case TypeId::kU8:
      return Value::Int(v.Data<uint8_t>()[pos]);
    case TypeId::kI32: {
      int32_t x = v.Data<int32_t>()[pos];
      if (type != nullptr && type->kind == LType::kDate) {
        return Value::String(date::ToString(x));
      }
      return Value::Int(x);
    }
    case TypeId::kI64:
      return Value::Int(v.Data<int64_t>()[pos]);
    case TypeId::kF64:
      return Value::Double(v.Data<double>()[pos]);
    case TypeId::kStr:
      return Value::String(v.Data<StringVal>()[pos].ToString());
  }
  return Value::Null();
}

}  // namespace vwise
