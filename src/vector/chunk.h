#ifndef VWISE_VECTOR_CHUNK_H_
#define VWISE_VECTOR_CHUNK_H_

#include <vector>

#include "common/macros.h"
#include "common/value.h"
#include "vector/vector.h"

namespace vwise {

// A set of position-aligned Vectors plus cardinality and an optional
// selection vector — the unit flowing between vectorized operators.
//
// Semantics (X100):
//   * `count()` physical rows are valid in every column, positions [0,count).
//   * If a selection is set, only the positions listed in `sel()` (strictly
//     increasing, `sel_count()` of them) are active; the others are dead but
//     still occupy their slots, keeping all columns aligned without copying.
//   * Primitives read and write *at selected positions*, so a chunk can pass
//     through many operators without compaction. `Flatten()` compacts when a
//     consumer needs dense data (exchange boundaries, result sets).
class DataChunk {
 public:
  DataChunk() = default;

  void Init(const std::vector<TypeId>& types, size_t capacity) {
    capacity_ = capacity;
    columns_.clear();
    columns_.reserve(types.size());
    for (TypeId t : types) columns_.emplace_back(t, capacity);
    sel_buf_ = Buffer::Allocate(capacity * sizeof(sel_t));
    Reset();
  }

  size_t capacity() const { return capacity_; }
  size_t num_columns() const { return columns_.size(); }
  Vector& column(size_t i) { return columns_[i]; }
  const Vector& column(size_t i) const { return columns_[i]; }
  std::vector<Vector>& columns() { return columns_; }

  // Physical row count (positions valid in each column).
  size_t count() const { return count_; }
  void SetCount(size_t n) {
    VWISE_DCHECK(n <= capacity_);
    count_ = n;
  }

  bool has_selection() const { return has_sel_; }
  sel_t* MutableSel() { return sel_buf_->As<sel_t>(); }
  const sel_t* sel() const { return has_sel_ ? sel_buf_->As<sel_t>() : nullptr; }
  size_t sel_count() const { return sel_count_; }
  void SetSelection(size_t n) {
    VWISE_DCHECK(n <= count_);
    has_sel_ = true;
    sel_count_ = n;
  }
  void ClearSelection() {
    has_sel_ = false;
    sel_count_ = 0;
  }

  // Number of active (visible) rows.
  size_t ActiveCount() const { return has_sel_ ? sel_count_ : count_; }

  // Clears cardinality, selection and per-column heap references. Callers
  // reset a chunk before each refill so heap keepalives don't accumulate
  // across iterations.
  void Reset() {
    count_ = 0;
    has_sel_ = false;
    sel_count_ = 0;
    for (Vector& col : columns_) col.ClearHeapRefs();
  }

  // Compacts all columns so active rows occupy positions [0, ActiveCount())
  // and drops the selection.
  void Flatten();

  // Value of active row `row` in column `col` (slow; API/test use only).
  // The DataType is needed to render decimals/dates; plain physical rendering
  // is used when `type` is null.
  Value GetValue(size_t col, size_t row, const DataType* type = nullptr) const;

 private:
  std::vector<Vector> columns_;
  size_t capacity_ = 0;
  size_t count_ = 0;
  bool has_sel_ = false;
  size_t sel_count_ = 0;
  std::shared_ptr<Buffer> sel_buf_;
};

}  // namespace vwise

#endif  // VWISE_VECTOR_CHUNK_H_
