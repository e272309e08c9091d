#ifndef VWISE_VECTOR_VECTOR_H_
#define VWISE_VECTOR_VECTOR_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/macros.h"
#include "vector/representation.h"
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
//
// A vector additionally carries a physical representation (VectorRepr).
// kFlat is the classic layout above. Under compressed execution the scan
// may instead publish a kDict view (per-row codes + shared dictionary) of a
// string column; the flat buffer stays allocated but unfilled until
// Normalize(n) decodes into it on demand. Consumers either
// declare a capability for the representation (catalog caps column) or call
// Normalize() — reading Data<T>() of a non-flat vector is a bug, and the
// contract checker rejects it.
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
    ResetEncoding();
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

  // Makes this vector an alias of `other` (zero-copy projection). Carries
  // the representation along: an alias of an encoded vector is encoded.
  void Reference(const Vector& other) {
    type_ = other.type_;
    capacity_ = other.capacity_;
    buffer_ = other.buffer_;
    keepalive_ = other.keepalive_;
    heaps_ = other.heaps_;
    repr_ = other.repr_;
    dict_codes_ = other.dict_codes_;
    dict_ = other.dict_;
    enc_keepalive_ = other.enc_keepalive_;
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

  // --- Physical representation (compressed execution) ----------------------

  VectorRepr repr() const { return repr_; }
  bool IsEncoded() const { return repr_ != VectorRepr::kFlat; }

  // Publishes a PDICT view: `codes[i]` indexes `dict->values` for the rows
  // of the enclosing chunk. `keepalive` owns the code storage. Only valid on
  // kStr vectors.
  void SetDict(const uint32_t* codes, std::shared_ptr<const StringDict> dict,
               std::shared_ptr<const void> keepalive) {
    VWISE_DCHECK(type_ == TypeId::kStr);
    repr_ = VectorRepr::kDict;
    dict_codes_ = codes;
    dict_ = std::move(dict);
    enc_keepalive_ = std::move(keepalive);
  }

  // Back to the flat representation without decoding (chunk reuse between
  // fills — the flat buffer is about to be overwritten anyway).
  void ResetEncoding() {
    repr_ = VectorRepr::kFlat;
    dict_codes_ = nullptr;
    dict_.reset();
    enc_keepalive_.reset();
  }

  const uint32_t* dict_codes() const { return dict_codes_; }
  const StringDict* dict() const { return dict_.get(); }
  // For consumers caching per-dictionary state (constant→code translations):
  // holding the shared_ptr pins the object so pointer identity stays sound —
  // a freed dictionary's address can otherwise be recycled by the next
  // stripe's (different) dictionary.
  const std::shared_ptr<const StringDict>& dict_ref() const { return dict_; }

  // Decode-on-demand boundary: materializes the first `n` rows into the flat
  // buffer and drops the encoded view. No-op on flat vectors. Aliases of
  // this vector keep their encoded view; since both views describe the same
  // logical content and the flat buffer is shared, a later Normalize() of an
  // alias rewrites identical values (idempotent).
  void Normalize(size_t n);

 private:
  TypeId type_ = TypeId::kI64;
  size_t capacity_ = 0;
  std::shared_ptr<Buffer> buffer_;
  std::shared_ptr<const void> keepalive_;
  std::vector<std::shared_ptr<StringHeap>> heaps_;
  // Cached owned heap, reused across ClearHeapRefs() cycles once downstream
  // references drain (see GetStringHeap).
  std::shared_ptr<StringHeap> own_heap_;

  // Encoded-view state (meaningful when repr_ != kFlat). The raw pointers
  // point into storage owned by dict_/enc_keepalive_, so aliasing vectors
  // stay valid past the producer's next fill.
  VectorRepr repr_ = VectorRepr::kFlat;
  const uint32_t* dict_codes_ = nullptr;
  std::shared_ptr<const StringDict> dict_;
  std::shared_ptr<const void> enc_keepalive_;
};

}  // namespace vwise

#endif  // VWISE_VECTOR_VECTOR_H_
