#ifndef VWISE_VECTOR_VECTOR_H_
#define VWISE_VECTOR_VECTOR_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/macros.h"
#include "vector/string_heap.h"
#include "vector/types.h"

namespace vwise {

// A fixed-capacity, typed array of values — the unit of data flow in the
// vectorized engine. A Vector owns (or shares) its value buffer; for string
// vectors it additionally keeps alive the heap (or storage pin) backing the
// string bytes.
//
// Vectors do not track their own length or selection: length and the
// optional selection vector live on the enclosing DataChunk, because all
// columns of a chunk are position-aligned (X100 semantics).
class Vector {
 public:
  Vector() = default;
  Vector(TypeId type, size_t capacity) { Init(type, capacity); }

  Vector(Vector&&) = default;
  Vector& operator=(Vector&&) = default;
  Vector(const Vector&) = default;  // shallow: shares the buffer
  Vector& operator=(const Vector&) = default;

  void Init(TypeId type, size_t capacity) {
    type_ = type;
    capacity_ = capacity;
    buffer_ = Buffer::Allocate(capacity * TypeWidth(type));
    keepalive_.reset();
    heaps_.clear();
  }

  TypeId type() const { return type_; }
  size_t capacity() const { return capacity_; }

  template <typename T>
  T* Data() {
    VWISE_DCHECK(buffer_ != nullptr);
    return buffer_->As<T>();
  }
  template <typename T>
  const T* Data() const {
    VWISE_DCHECK(buffer_ != nullptr);
    return buffer_->As<T>();
  }
  void* raw() { return buffer_ ? buffer_->data() : nullptr; }
  const void* raw() const { return buffer_ ? buffer_->data() : nullptr; }

  // Makes this vector an alias of `other` (zero-copy projection).
  void Reference(const Vector& other) {
    type_ = other.type_;
    capacity_ = other.capacity_;
    buffer_ = other.buffer_;
    keepalive_ = other.keepalive_;
    heaps_ = other.heaps_;
  }

  // Returns a lazily-created heap for computed string values; the heap is
  // kept alive as long as this vector (or anything referencing it) lives.
  //
  // The heap is cached across ClearHeapRefs() cycles: when no downstream
  // reference survives (use_count() == 1 — the chunk data contract makes
  // outputs valid only until the next Next()), the owned heap is Reset() and
  // reused, so steady-state string production allocates nothing. A consumer
  // still holding the previous chunk's heap forces one fresh allocation.
  StringHeap* GetStringHeap() {
    if (heaps_.empty()) {
      if (own_heap_ != nullptr && own_heap_.use_count() == 1) {
        own_heap_->Reset();
      } else {
        // vwise-hotpath: allow(alloc): first use, or the previous heap is
        // still referenced downstream; steady state reuses own_heap_
        own_heap_ = std::make_shared<StringHeap>();
      }
      // vwise-hotpath: allow(alloc): heaps_ capacity survives ClearHeapRefs
      // (clear() keeps it), so the steady-state push_back reuses it
      heaps_.push_back(own_heap_);
    }
    return heaps_.front().get();
  }

  // Attaches an arbitrary keepalive (e.g. a buffer-pool pin) backing the
  // values of this vector.
  void SetKeepalive(std::shared_ptr<const void> keepalive) {
    keepalive_ = std::move(keepalive);
  }
  bool has_keepalive() const { return keepalive_ != nullptr; }

  // Registers a heap whose bytes this vector's StringVals may point into.
  // A vector can reference several heaps (e.g. stable storage strings plus
  // delta-row strings in one scan chunk).
  void AddStringHeapRef(std::shared_ptr<StringHeap> heap) {
    for (const auto& h : heaps_) {
      if (h == heap) return;
    }
    // vwise-hotpath: allow(alloc): bounded by the number of heap sources per
    // chunk (typically <= 2); capacity survives ClearHeapRefs and is reused
    heaps_.push_back(std::move(heap));
  }
  // Carries every heap reference of `other` over to this vector.
  void AddHeapsFrom(const Vector& other) {
    for (const auto& h : other.heaps_) AddStringHeapRef(h);
  }
  // Drops heap references (chunk reuse between fills).
  void ClearHeapRefs() { heaps_.clear(); }
  // First registered heap (null if none) — kept for compaction helpers.
  std::shared_ptr<StringHeap> string_heap() const {
    return heaps_.empty() ? nullptr : heaps_.front();
  }
  const std::vector<std::shared_ptr<StringHeap>>& heaps() const { return heaps_; }

 private:
  TypeId type_ = TypeId::kI64;
  size_t capacity_ = 0;
  std::shared_ptr<Buffer> buffer_;
  std::shared_ptr<const void> keepalive_;
  std::vector<std::shared_ptr<StringHeap>> heaps_;
  // Cached owned heap, reused across ClearHeapRefs() cycles once downstream
  // references drain (see GetStringHeap).
  std::shared_ptr<StringHeap> own_heap_;
};

}  // namespace vwise

#endif  // VWISE_VECTOR_VECTOR_H_
