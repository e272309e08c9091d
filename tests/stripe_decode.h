#ifndef VWISE_TESTS_STRIPE_DECODE_H_
#define VWISE_TESTS_STRIPE_DECODE_H_

#include <algorithm>
#include <cstdint>

#include "storage/table_file.h"

namespace vwise::test {

// Decodes all of column `col` of stripe `stripe` into `out`, reinitialized
// to the stripe's row count, through the engine's decode path: open the
// stripe column, then decode it `vector_size` values at a time. Strings
// point into the pinned blob, whose pin `out` carries as a heap ref.
inline Status DecodeStripeColumn(TableFile* tf, size_t stripe, uint32_t col,
                                 Vector* out, size_t vector_size = 1024) {
  StripeColumn sc;
  VWISE_RETURN_IF_ERROR(tf->OpenStripeColumn(stripe, col, &sc));
  out->Init(sc.type, std::max<size_t>(sc.count, 1));
  if (sc.heap != nullptr) out->AddStringHeapRef(sc.heap);
  uint8_t* dst = static_cast<uint8_t*>(out->raw());
  size_t width = TypeWidth(sc.type);
  for (size_t done = 0; done < sc.count;) {
    size_t n = std::min(vector_size, sc.count - done);
    VWISE_RETURN_IF_ERROR(sc.cursor.Decode(n, dst + done * width));
    done += n;
  }
  return Status::OK();
}

}  // namespace vwise::test

#endif  // VWISE_TESTS_STRIPE_DECODE_H_
