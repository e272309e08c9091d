#include "vector/vector.h"

#include <cstring>

#include "vector/representation.h"

namespace vwise {

const char* VectorReprToString(VectorRepr r) {
  switch (r) {
    case VectorRepr::kFlat:
      return "flat";
    case VectorRepr::kDict:
      return "dict";
  }
  return "?";
}

std::string ReprMaskToString(uint8_t mask) {
  std::string out;
  auto add = [&out](const char* name) {
    if (!out.empty()) out += "|";
    out += name;
  };
  if (mask & kReprFlat) add("flat");
  if (mask & kReprDict) add("dict");
  if (out.empty()) out = "none";
  return out;
}

void Vector::Normalize(size_t n) {
  switch (repr_) {
    case VectorRepr::kFlat:
      return;
    case VectorRepr::kDict: {
      VWISE_DCHECK(n <= capacity_);
      const StringDict* d = dict_.get();
      VWISE_DCHECK(d != nullptr && dict_codes_ != nullptr);
      StringVal* out = buffer_->As<StringVal>();
      for (size_t i = 0; i < n; i++) {
        VWISE_DCHECK(dict_codes_[i] < d->size);
        out[i] = d->values[dict_codes_[i]];
      }
      // The materialized StringVals point into the dictionary heap; pin it
      // like any other string source so the bytes outlive the dict view.
      if (d->heap != nullptr) AddStringHeapRef(d->heap);
      break;
    }
  }
  repr_ = VectorRepr::kFlat;
  dict_codes_ = nullptr;
  dict_.reset();
  enc_keepalive_.reset();
}

}  // namespace vwise
