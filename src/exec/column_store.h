#ifndef VWISE_EXEC_COLUMN_STORE_H_
#define VWISE_EXEC_COLUMN_STORE_H_

#include <cstring>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "vector/chunk.h"

namespace vwise {

// A row index that names no row: the end of a hash chain, the build side of
// an unmatched outer-join row.
constexpr uint32_t kNoRow = 0xffffffffu;

// Append-only, owned columnar storage used by buffering operators (join
// build sides, aggregation keys, sort runs). String bytes are copied into an
// owned heap, so stored rows outlive the producing chunks.
class ColumnStore {
 public:
  explicit ColumnStore(TypeId type) : type_(type) {}

  TypeId type() const { return type_; }
  size_t size() const {
    return type_ == TypeId::kStr ? strs_.size() : fixed_.size() / TypeWidth(type_);
  }

  // Appends the active rows of `vec` (positions sel[0..n) or [0..n)).
  void AppendFrom(const Vector& vec, const sel_t* sel, size_t n) {
    if (type_ == TypeId::kStr) {
      const StringVal* s = vec.Data<StringVal>();
      StringHeap* heap = Heap();
      for (size_t i = 0; i < n; i++) {
        strs_.push_back(heap->Add(s[sel ? sel[i] : i].view()));
      }
      return;
    }
    size_t w = TypeWidth(type_);
    const uint8_t* src = static_cast<const uint8_t*>(vec.raw());
    size_t old = fixed_.size();
    fixed_.resize(old + n * w);
    uint8_t* dst = fixed_.data() + old;
    for (size_t i = 0; i < n; i++) {
      std::memcpy(dst + i * w, src + (sel ? sel[i] : i) * w, w);
    }
  }

  // Values of the rows, typed by type(): StringVal for strings.
  const void* raw() const {
    return type_ == TypeId::kStr ? static_cast<const void*>(strs_.data())
                                 : fixed_.data();
  }

  // Gathers rows `idx[0..n)` into `out` (capacity >= n), attaching the owned
  // heap for strings. With `pad`, an index of kNoRow writes a zero or empty
  // value instead (the unmatched rows of an outer join).
  void Gather(const uint32_t* idx, size_t n, Vector* out,
              bool pad = false) const {
    DispatchType(type_, [&](auto tag) {
      using T = typename decltype(tag)::type;
      const T* src = static_cast<const T*>(raw());
      T* dst = out->Data<T>();
      if (pad) {
        for (size_t i = 0; i < n; i++) {
          dst[i] = idx[i] == kNoRow ? T() : src[idx[i]];
        }
      } else {
        for (size_t i = 0; i < n; i++) dst[i] = src[idx[i]];
      }
    });
    if (heap_) out->AddStringHeapRef(heap_);
  }

  const std::shared_ptr<StringHeap>& heap() const { return heap_; }

 private:
  StringHeap* Heap() {
    if (!heap_) heap_ = std::make_shared<StringHeap>();
    return heap_.get();
  }

  TypeId type_;
  std::vector<uint8_t> fixed_;
  std::vector<StringVal> strs_;
  std::shared_ptr<StringHeap> heap_;
};

}  // namespace vwise

#endif  // VWISE_EXEC_COLUMN_STORE_H_
