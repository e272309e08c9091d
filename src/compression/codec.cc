#include "compression/codec.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string_view>
#include <unordered_map>

#include "common/bitutil.h"
#include "common/macros.h"

namespace vwise::compression {

namespace {

// --- blob read/write helpers ------------------------------------------------

void PutBytes(std::vector<uint8_t>* blob, const void* p, size_t n) {
  const uint8_t* b = static_cast<const uint8_t*>(p);
  blob->insert(blob->end(), b, b + n);
}

template <typename T>
void Put(std::vector<uint8_t>* blob, T v) {
  PutBytes(blob, &v, sizeof(T));
}

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}
  explicit Reader(const std::vector<uint8_t>& blob)
      : Reader(blob.data(), blob.size()) {}

  template <typename T>
  Status Get(T* out) {
    if (p_ + sizeof(T) > end_) return Status::Corruption("segment truncated");
    std::memcpy(out, p_, sizeof(T));
    p_ += sizeof(T);
    return Status::OK();
  }
  Status GetBytes(void* out, size_t n) {
    if (n == 0) return Status::OK();
    if (p_ + n > end_) return Status::Corruption("segment truncated");
    std::memcpy(out, p_, n);
    p_ += n;
    return Status::OK();
  }
  Status Skip(size_t n) {
    if (p_ + n > end_) return Status::Corruption("segment truncated");
    p_ += n;
    return Status::OK();
  }
  const uint8_t* cursor() const { return p_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

// --- generic integer widening ------------------------------------------------

size_t FixedWidth(TypeId t) { return TypeWidth(t); }

// Loads value i of a fixed-width column as uint64 bits (sign-extended for
// signed ints so frame-of-reference arithmetic behaves).
uint64_t LoadInt(TypeId t, const void* values, size_t i) {
  switch (t) {
    case TypeId::kU8:
      return static_cast<const uint8_t*>(values)[i];
    case TypeId::kI32:
      return static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<const int32_t*>(values)[i]));
    case TypeId::kI64:
      return static_cast<uint64_t>(static_cast<const int64_t*>(values)[i]);
    case TypeId::kF64: {
      uint64_t bits;
      std::memcpy(&bits, static_cast<const double*>(values) + i, 8);
      return bits;
    }
    case TypeId::kStr:
      break;
  }
  VWISE_CHECK_MSG(false, "LoadInt on string");
  return 0;
}

void StoreInt(TypeId t, void* out, size_t i, uint64_t v) {
  switch (t) {
    case TypeId::kU8:
      static_cast<uint8_t*>(out)[i] = static_cast<uint8_t>(v);
      return;
    case TypeId::kI32:
      static_cast<int32_t*>(out)[i] = static_cast<int32_t>(v);
      return;
    case TypeId::kI64:
      static_cast<int64_t*>(out)[i] = static_cast<int64_t>(v);
      return;
    case TypeId::kF64:
      std::memcpy(static_cast<double*>(out) + i, &v, 8);
      return;
    case TypeId::kStr:
      break;
  }
  VWISE_CHECK_MSG(false, "StoreInt on string");
}

bool IsIntType(TypeId t) { return t == TypeId::kU8 || t == TypeId::kI32 || t == TypeId::kI64; }

// --- PFOR core ----------------------------------------------------------------
// Encodes a u64 array (already offset/delta-transformed, non-negative) by
// choosing the bit width minimizing packed size + exception size.

struct PforPlan {
  int width = 0;
  uint32_t n_exceptions = 0;
};

PforPlan PlanPfor(const uint64_t* vals, size_t n) {
  // Count values per bit width.
  size_t width_hist[65] = {0};
  for (size_t i = 0; i < n; i++) width_hist[bit::BitWidth(vals[i])]++;
  // For each width w, everything wider is an exception (4-byte position +
  // 8-byte value).
  PforPlan best;
  size_t best_cost = std::numeric_limits<size_t>::max();
  size_t wider = n;
  for (int w = 0; w <= 64; w++) {
    wider -= width_hist[w];
    size_t cost = bit::PackedSize(n, w) + wider * 12;
    if (cost < best_cost) {
      best_cost = cost;
      best.width = w;
      best.n_exceptions = static_cast<uint32_t>(wider);
    }
  }
  return best;
}

void EncodePforCore(const uint64_t* vals, size_t n, std::vector<uint8_t>* blob) {
  PforPlan plan = PlanPfor(vals, n);
  uint64_t mask = plan.width == 64 ? ~uint64_t{0}
                                   : ((uint64_t{1} << plan.width) - 1);
  std::vector<uint64_t> slots(n);
  std::vector<uint32_t> exc_pos;
  std::vector<uint64_t> exc_val;
  exc_pos.reserve(plan.n_exceptions);
  exc_val.reserve(plan.n_exceptions);
  for (size_t i = 0; i < n; i++) {
    if (bit::BitWidth(vals[i]) > plan.width) {
      exc_pos.push_back(static_cast<uint32_t>(i));
      exc_val.push_back(vals[i]);
      slots[i] = vals[i] & mask;  // patched on decode
    } else {
      slots[i] = vals[i];
    }
  }
  Put<uint8_t>(blob, static_cast<uint8_t>(plan.width));
  Put<uint32_t>(blob, static_cast<uint32_t>(exc_pos.size()));
  size_t packed = bit::PackedSize(n, plan.width);
  size_t off = blob->size();
  blob->resize(off + packed);
  if (plan.width > 0) bit::PackBits(slots.data(), n, plan.width, blob->data() + off);
  PutBytes(blob, exc_pos.data(), exc_pos.size() * sizeof(uint32_t));
  PutBytes(blob, exc_val.data(), exc_val.size() * sizeof(uint64_t));
}

Status DecodePforCore(Reader* r, size_t n, uint64_t* out) {
  uint8_t width;
  uint32_t n_exc;
  VWISE_RETURN_IF_ERROR(r->Get(&width));
  VWISE_RETURN_IF_ERROR(r->Get(&n_exc));
  if (width > 64) return Status::Corruption("bad PFOR width");
  size_t packed = bit::PackedSize(n, width);
  if (r->remaining() < packed) return Status::Corruption("PFOR packed data truncated");
  bit::UnpackBits(r->cursor(), n, width, out);
  VWISE_RETURN_IF_ERROR(r->Skip(packed));
  std::vector<uint32_t> exc_pos(n_exc);
  std::vector<uint64_t> exc_val(n_exc);
  VWISE_RETURN_IF_ERROR(r->GetBytes(exc_pos.data(), n_exc * sizeof(uint32_t)));
  VWISE_RETURN_IF_ERROR(r->GetBytes(exc_val.data(), n_exc * sizeof(uint64_t)));
  for (uint32_t i = 0; i < n_exc; i++) {
    if (exc_pos[i] >= n) return Status::Corruption("bad PFOR exception position");
    out[exc_pos[i]] = exc_val[i];
  }
  return Status::OK();
}

// --- scheme encoders ------------------------------------------------------------

Result<CompressedSegment> EncodePlain(TypeId type, const void* values, size_t n) {
  CompressedSegment seg;
  seg.codec = Codec::kPlain;
  seg.type = type;
  seg.count = static_cast<uint32_t>(n);
  if (type == TypeId::kStr) {
    const StringVal* sv = static_cast<const StringVal*>(values);
    Put<uint32_t>(&seg.data, 0);  // placeholder for byte count
    uint64_t total = 0;
    for (size_t i = 0; i < n; i++) {
      Put<uint32_t>(&seg.data, sv[i].len);
      total += sv[i].len;
    }
    VWISE_CHECK_MSG(total <= std::numeric_limits<uint32_t>::max(),
                    "string segment too large");
    uint32_t total32 = static_cast<uint32_t>(total);
    std::memcpy(seg.data.data(), &total32, 4);
    for (size_t i = 0; i < n; i++) PutBytes(&seg.data, sv[i].ptr, sv[i].len);
  } else {
    PutBytes(&seg.data, values, n * FixedWidth(type));
  }
  return seg;
}

Result<CompressedSegment> EncodePfor(TypeId type, const void* values, size_t n,
                                     bool delta) {
  if (!IsIntType(type)) {
    return Status::InvalidArgument("PFOR requires an integer type");
  }
  CompressedSegment seg;
  seg.codec = delta ? Codec::kPforDelta : Codec::kPfor;
  seg.type = type;
  seg.count = static_cast<uint32_t>(n);
  if (n == 0) return seg;

  std::vector<uint64_t> work(n);
  if (delta) {
    // First value verbatim in the header; zigzag deltas for the rest.
    uint64_t first = LoadInt(type, values, 0);
    Put<uint64_t>(&seg.data, first);
    int64_t prev = static_cast<int64_t>(first);
    for (size_t i = 1; i < n; i++) {
      int64_t cur = static_cast<int64_t>(LoadInt(type, values, i));
      work[i - 1] = bit::ZigZagEncode(cur - prev);
      prev = cur;
    }
    work.resize(n - 1);
    if (!work.empty()) EncodePforCore(work.data(), work.size(), &seg.data);
  } else {
    // Frame of reference = min value.
    int64_t base = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i < n; i++) {
      base = std::min(base, static_cast<int64_t>(LoadInt(type, values, i)));
    }
    Put<int64_t>(&seg.data, base);
    for (size_t i = 0; i < n; i++) {
      work[i] = static_cast<uint64_t>(
          static_cast<int64_t>(LoadInt(type, values, i)) - base);
    }
    EncodePforCore(work.data(), n, &seg.data);
  }
  return seg;
}

Result<CompressedSegment> EncodeRle(TypeId type, const void* values, size_t n) {
  if (type == TypeId::kStr) {
    return Status::InvalidArgument("RLE not supported for strings");
  }
  CompressedSegment seg;
  seg.codec = Codec::kRle;
  seg.type = type;
  seg.count = static_cast<uint32_t>(n);
  uint32_t n_runs = 0;
  Put<uint32_t>(&seg.data, 0);  // placeholder
  size_t i = 0;
  while (i < n) {
    uint64_t v = LoadInt(type, values, i);
    size_t j = i + 1;
    while (j < n && LoadInt(type, values, j) == v) j++;
    Put<uint64_t>(&seg.data, v);
    Put<uint32_t>(&seg.data, static_cast<uint32_t>(j - i));
    n_runs++;
    i = j;
  }
  std::memcpy(seg.data.data(), &n_runs, 4);
  return seg;
}

Result<CompressedSegment> EncodePdict(TypeId type, const void* values, size_t n) {
  if (type != TypeId::kStr) {
    return Status::InvalidArgument("PDICT requires strings");
  }
  const StringVal* sv = static_cast<const StringVal*>(values);
  std::unordered_map<std::string_view, uint32_t> dict;
  std::vector<std::string_view> order;
  std::vector<uint64_t> codes(n);
  for (size_t i = 0; i < n; i++) {
    auto [it, inserted] = dict.emplace(sv[i].view(), static_cast<uint32_t>(order.size()));
    if (inserted) order.push_back(sv[i].view());
    codes[i] = it->second;
  }
  CompressedSegment seg;
  seg.codec = Codec::kPdict;
  seg.type = type;
  seg.count = static_cast<uint32_t>(n);
  Put<uint32_t>(&seg.data, static_cast<uint32_t>(order.size()));
  uint32_t off = 0;
  for (const auto& s : order) {
    Put<uint32_t>(&seg.data, off);
    off += static_cast<uint32_t>(s.size());
  }
  Put<uint32_t>(&seg.data, off);  // final offset = total bytes
  for (const auto& s : order) PutBytes(&seg.data, s.data(), s.size());
  EncodePforCore(codes.data(), n, &seg.data);
  return seg;
}

// --- scheme decoders ------------------------------------------------------------

Status DecodePlain(TypeId type, uint32_t count, Reader& r, void* out,
                   StringHeap* heap) {
  size_t n = count;
  if (type == TypeId::kStr) {
    if (heap == nullptr) return Status::InvalidArgument("string decode needs a heap");
    uint32_t total = 0;
    VWISE_RETURN_IF_ERROR(r.Get(&total));
    std::vector<uint32_t> lens(n);
    VWISE_RETURN_IF_ERROR(r.GetBytes(lens.data(), n * 4));
    char* bytes = heap->Reserve(total);
    VWISE_RETURN_IF_ERROR(r.GetBytes(bytes, total));
    StringVal* o = static_cast<StringVal*>(out);
    uint32_t off = 0;
    for (size_t i = 0; i < n; i++) {
      if (off + lens[i] > total) return Status::Corruption("string lengths overflow");
      o[i] = StringVal(bytes + off, lens[i]);
      off += lens[i];
    }
    return Status::OK();
  }
  return r.GetBytes(out, n * FixedWidth(type));
}

Status DecodePfor(Codec codec, TypeId type, uint32_t count, Reader& r,
                  void* out) {
  size_t n = count;
  if (n == 0) return Status::OK();
  std::vector<uint64_t> work(n);
  if (codec == Codec::kPforDelta) {
    uint64_t first;
    VWISE_RETURN_IF_ERROR(r.Get(&first));
    if (n > 1) {
      VWISE_RETURN_IF_ERROR(DecodePforCore(&r, n - 1, work.data()));
    }
    int64_t cur = static_cast<int64_t>(first);
    StoreInt(type, out, 0, static_cast<uint64_t>(cur));
    for (size_t i = 1; i < n; i++) {
      cur += bit::ZigZagDecode(work[i - 1]);
      StoreInt(type, out, i, static_cast<uint64_t>(cur));
    }
  } else {
    int64_t base = 0;
    VWISE_RETURN_IF_ERROR(r.Get(&base));
    VWISE_RETURN_IF_ERROR(DecodePforCore(&r, n, work.data()));
    for (size_t i = 0; i < n; i++) {
      StoreInt(type, out, i,
               static_cast<uint64_t>(base + static_cast<int64_t>(work[i])));
    }
  }
  return Status::OK();
}

Status DecodeRle(TypeId type, uint32_t count, Reader& r, void* out) {
  uint32_t n_runs;
  VWISE_RETURN_IF_ERROR(r.Get(&n_runs));
  size_t i = 0;
  for (uint32_t run = 0; run < n_runs; run++) {
    uint64_t v;
    uint32_t len;
    VWISE_RETURN_IF_ERROR(r.Get(&v));
    VWISE_RETURN_IF_ERROR(r.Get(&len));
    if (i + len > count) return Status::Corruption("RLE overflow");
    for (uint32_t k = 0; k < len; k++) StoreInt(type, out, i++, v);
  }
  if (i != count) return Status::Corruption("RLE underflow");
  return Status::OK();
}

Status DecodePdict(uint32_t count, Reader& r, void* out, StringHeap* heap) {
  if (heap == nullptr) return Status::InvalidArgument("string decode needs a heap");
  uint32_t dict_n;
  VWISE_RETURN_IF_ERROR(r.Get(&dict_n));
  std::vector<uint32_t> offsets(dict_n + 1);
  VWISE_RETURN_IF_ERROR(r.GetBytes(offsets.data(), (dict_n + 1) * 4));
  uint32_t total = offsets[dict_n];
  char* bytes = heap->Reserve(total);
  VWISE_RETURN_IF_ERROR(r.GetBytes(bytes, total));
  std::vector<uint64_t> codes(count);
  VWISE_RETURN_IF_ERROR(DecodePforCore(&r, count, codes.data()));
  StringVal* o = static_cast<StringVal*>(out);
  for (size_t i = 0; i < count; i++) {
    uint64_t c = codes[i];
    if (c >= dict_n) return Status::Corruption("PDICT code out of range");
    o[i] = StringVal(bytes + offsets[c], offsets[c + 1] - offsets[c]);
  }
  return Status::OK();
}

// Codec dispatch over raw values — internal only; the public surface takes
// Vectors so every call site shares one typed entry point.
Result<CompressedSegment> EncodeValues(Codec codec, TypeId type,
                                       const void* values, size_t n) {
  switch (codec) {
    case Codec::kPlain:
      return EncodePlain(type, values, n);
    case Codec::kPfor:
      return EncodePfor(type, values, n, /*delta=*/false);
    case Codec::kPforDelta:
      return EncodePfor(type, values, n, /*delta=*/true);
    case Codec::kRle:
      return EncodeRle(type, values, n);
    case Codec::kPdict:
      return EncodePdict(type, values, n);
  }
  return Status::InvalidArgument("unknown codec");
}

}  // namespace

Result<CompressedSegment> Encode(Codec codec, const Vector& values, size_t n) {
  VWISE_CHECK_MSG(!values.IsEncoded(), "Encode requires a flat vector");
  VWISE_CHECK(n <= values.capacity());
  return EncodeValues(codec, values.type(), values.raw(), n);
}

Result<CompressedSegment> EncodeBest(const Vector& values, size_t n) {
  VWISE_CHECK_MSG(!values.IsEncoded(), "EncodeBest requires a flat vector");
  VWISE_CHECK(n <= values.capacity());
  TypeId type = values.type();
  const void* raw = values.raw();
  VWISE_ASSIGN_OR_RETURN(CompressedSegment result,
                         EncodeValues(Codec::kPlain, type, raw, n));
  // Each candidate below is type-gated, so an error is an internal encoder
  // failure: propagate it instead of silently shipping the plain fallback.
  auto consider = [&](Codec c) -> Status {
    VWISE_ASSIGN_OR_RETURN(CompressedSegment seg, EncodeValues(c, type, raw, n));
    if (seg.data.size() < result.data.size()) result = std::move(seg);
    return Status::OK();
  };
  if (IsIntType(type)) {
    VWISE_RETURN_IF_ERROR(consider(Codec::kPfor));
    VWISE_RETURN_IF_ERROR(consider(Codec::kPforDelta));
    VWISE_RETURN_IF_ERROR(consider(Codec::kRle));
  } else if (type == TypeId::kF64) {
    VWISE_RETURN_IF_ERROR(consider(Codec::kRle));
  } else if (type == TypeId::kStr) {
    VWISE_RETURN_IF_ERROR(consider(Codec::kPdict));
  }
  return result;
}

Status DecodeInto(const CompressedSegment& seg, Vector* out) {
  if (out->type() != seg.type) {
    return Status::InvalidArgument("DecodeInto type mismatch");
  }
  VWISE_CHECK(out->capacity() >= seg.count);
  out->ResetEncoding();
  out->ClearHeapRefs();  // reuse the owned heap when nothing references it
  StringHeap* heap =
      seg.type == TypeId::kStr ? out->GetStringHeap() : nullptr;
  return DecodeRaw(seg.codec, seg.type, seg.count, seg.data.data(),
                   seg.data.size(), out->raw(), heap);
}

Status DecodeRaw(Codec codec, TypeId type, uint32_t count, const uint8_t* data,
                 size_t size, void* out, StringHeap* heap) {
  Reader r(data, size);
  switch (codec) {
    case Codec::kPlain:
      return DecodePlain(type, count, r, out, heap);
    case Codec::kPfor:
    case Codec::kPforDelta:
      return DecodePfor(codec, type, count, r, out);
    case Codec::kRle:
      return DecodeRle(type, count, r, out);
    case Codec::kPdict:
      return DecodePdict(count, r, out, heap);
  }
  return Status::Corruption("unknown codec");
}

Status DecodeDictRaw(TypeId type, uint32_t count, const uint8_t* data,
                     size_t size, uint32_t* codes,
                     std::vector<StringVal>* dict_vals, StringHeap* heap) {
  if (type != TypeId::kStr) {
    return Status::InvalidArgument("PDICT adoption requires strings");
  }
  if (heap == nullptr) {
    return Status::InvalidArgument("string decode needs a heap");
  }
  Reader r(data, size);
  uint32_t dict_n;
  VWISE_RETURN_IF_ERROR(r.Get(&dict_n));
  std::vector<uint32_t> offsets(static_cast<size_t>(dict_n) + 1);
  VWISE_RETURN_IF_ERROR(
      r.GetBytes(offsets.data(), (static_cast<size_t>(dict_n) + 1) * 4));
  uint32_t total = offsets[dict_n];
  char* bytes = heap->Reserve(total);
  VWISE_RETURN_IF_ERROR(r.GetBytes(bytes, total));
  dict_vals->clear();
  dict_vals->reserve(dict_n);
  for (uint32_t i = 0; i < dict_n; i++) {
    if (offsets[i] > offsets[i + 1] || offsets[i + 1] > total) {
      return Status::Corruption("PDICT offsets not ascending");
    }
    dict_vals->emplace_back(bytes + offsets[i], offsets[i + 1] - offsets[i]);
  }
  std::vector<uint64_t> work(count);
  VWISE_RETURN_IF_ERROR(DecodePforCore(&r, count, work.data()));
  for (uint32_t i = 0; i < count; i++) {
    if (work[i] >= dict_n) return Status::Corruption("PDICT code out of range");
    codes[i] = static_cast<uint32_t>(work[i]);
  }
  return Status::OK();
}

}  // namespace vwise::compression

namespace vwise {

const char* CodecToString(Codec c) {
  switch (c) {
    case Codec::kPlain:
      return "PLAIN";
    case Codec::kPfor:
      return "PFOR";
    case Codec::kPforDelta:
      return "PFOR-DELTA";
    case Codec::kRle:
      return "RLE";
    case Codec::kPdict:
      return "PDICT";
  }
  return "?";
}

}  // namespace vwise
