#ifndef VWISE_VECTOR_STRING_HEAP_H_
#define VWISE_VECTOR_STRING_HEAP_H_

#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "common/macros.h"
#include "vector/types.h"

namespace vwise {

// Arena for string bytes produced during execution (concatenation, substring,
// decompression of string columns, ...). Vectors holding StringVals into a
// heap keep a shared_ptr to it so the bytes outlive the producing operator.
//
// Hot-path contract: steady-state production reuses the buffers already
// owned by the heap — the producing operator calls Reset() once per vector
// (when it is the sole owner, see Vector::GetStringHeap) and Reserve()'s
// fast path is then pure pointer arithmetic. Allocation happens only during
// warm-up or when a chunk's string volume outgrows every previous chunk.
class StringHeap {
 public:
  static constexpr size_t kChunkSize = 64 * 1024;

  StringHeap() = default;
  // A heap whose strings live in someone else's buffer: it owns no arena
  // bytes until asked for some, but keeps `pin` alive. The scan hands out
  // StringVals that point into a pinned storage blob and registers such a
  // heap as their heap ref, so every consumer that carries heap refs (joins,
  // Xchg, the contract checker) keeps the blob alive as well.
  explicit StringHeap(std::shared_ptr<const void> pin) : pin_(std::move(pin)) {}
  StringHeap(const StringHeap&) = delete;
  StringHeap& operator=(const StringHeap&) = delete;

  // Copies `sv` into the arena and returns a StringVal pointing at the copy.
  StringVal Add(std::string_view sv) {
    char* dst = Reserve(sv.size());
    // Empty views may carry a null data() (e.g. zero-filled padding values
    // from outer joins); memcpy requires non-null sources even for n == 0.
    if (!sv.empty()) std::memcpy(dst, sv.data(), sv.size());
    return StringVal(dst, static_cast<uint32_t>(sv.size()));
  }

  // Reserves `n` writable bytes in the arena.
  char* Reserve(size_t n) {
    // chunks_.empty() guards the fresh arena: a first reservation of zero
    // bytes satisfies used_ + n <= cap_ (all zero) yet has no chunk to
    // point into.
    if (VWISE_UNLIKELY(chunks_.empty() || used_ + n > cap_)) {
      Grow(n);
    }
    char* p = chunks_.back()->As<char>() + used_;
    used_ += n;
    return p;
  }

  // Rewinds the arena so subsequent Add/Reserve calls reuse the owned
  // buffers instead of allocating. Invalidates every StringVal previously
  // handed out — callers must hold the heap uniquely (use_count() == 1; the
  // chunk data contract makes outputs valid only until the next Next()).
  //
  // A heap that has sprawled over several chunks is coalesced into a single
  // buffer sized for everything it held, so a workload whose per-vector
  // string volume has stabilized performs zero allocations from the second
  // vector on.
  void Reset() {
    if (chunks_.size() > 1) {
      size_t total = bytes_used();
      size_t size = total > kChunkSize ? total : kChunkSize;
      chunks_.clear();
      // vwise-hotpath: allow(alloc): coalescing runs only after the previous
      // vector overflowed into extra chunks; the single right-sized buffer
      // makes every later Reset allocation-free
      chunks_.push_back(Buffer::Allocate(size));
      cap_ = size;
    }
    used_ = 0;
  }

  // Total bytes handed out; used by execution statistics.
  size_t bytes_used() const {
    size_t total = used_;
    for (size_t i = 0; i + 1 < chunks_.size(); i++) total += chunks_[i]->capacity();
    return total;
  }

  // Buffers currently owned (tests: Reset must not shed capacity).
  size_t chunk_count() const { return chunks_.size(); }
  size_t capacity() const {
    size_t total = 0;
    for (const auto& c : chunks_) total += c->capacity();
    return total;
  }

 private:
  // Slow path of Reserve: opens a fresh chunk able to hold `n` bytes.
  void Grow(size_t n) {
    size_t size = n > kChunkSize ? n : kChunkSize;
    // vwise-hotpath: allow(alloc): warm-up growth; Reset() reuses the arena so
    // a stabilized workload never re-enters this path
    chunks_.push_back(Buffer::Allocate(size));
    cap_ = size;
    used_ = 0;
  }

  std::vector<std::shared_ptr<Buffer>> chunks_;
  size_t used_ = 0;
  size_t cap_ = 0;
  std::shared_ptr<const void> pin_;
};

}  // namespace vwise

#endif  // VWISE_VECTOR_STRING_HEAP_H_
