#include "compression/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>
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
  Status Skip(size_t n) {
    if (n > remaining()) return Status::Corruption("segment truncated");
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
  VWISE_CHECK_MSG(t != TypeId::kStr, "LoadInt on string");
  return DispatchType(t, [&](auto tag) -> uint64_t {
    using T = typename decltype(tag)::type;
    uint64_t bits = 0;
    if constexpr (std::is_same_v<T, double>) {
      std::memcpy(&bits, static_cast<const double*>(values) + i, 8);
    } else if constexpr (!std::is_same_v<T, StringVal>) {
      bits = static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<const T*>(values)[i]));
    }
    return bits;
  });
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
    // Deltas wrap modulo 2^64 (the decoder's running sum wraps the same
    // way), so columns spanning more than the int64 range round-trip too.
    uint64_t prev = first;
    for (size_t i = 1; i < n; i++) {
      uint64_t cur = LoadInt(type, values, i);
      work[i - 1] = bit::ZigZagEncode(static_cast<int64_t>(cur - prev));
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
      work[i] = LoadInt(type, values, i) - static_cast<uint64_t>(base);
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
  VWISE_CHECK(n <= values.capacity());
  return EncodeValues(codec, values.type(), values.raw(), n);
}

Result<CompressedSegment> EncodeBest(const Vector& values, size_t n) {
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

// --- segment cursor -----------------------------------------------------------

namespace {

// Unaligned load: segments sit at arbitrary offsets inside storage blobs.
template <typename T>
T LoadAt(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

// Values per stack batch where a decode needs an intermediate array
// (PFOR-DELTA deltas, PDICT codes).
constexpr size_t kBatch = 256;

// Extents of a PFOR core: width u8, exception count u32, the packed slots
// (PackedSize bytes), then the exception positions (u32 each) and values
// (u64 each).
struct PforCore {
  int width = 0;
  const uint8_t* packed = nullptr;
  uint32_t n_exc = 0;
  const uint8_t* exc_pos = nullptr;
  const uint8_t* exc_val = nullptr;
};

Status ParsePforCore(Reader* r, size_t slots, PforCore* core) {
  uint8_t width = 0;
  VWISE_RETURN_IF_ERROR(r->Get(&width));
  VWISE_RETURN_IF_ERROR(r->Get(&core->n_exc));
  if (width > 64) return Status::Corruption("bad PFOR width");
  core->width = width;
  size_t packed = bit::PackedSize(slots, width);
  if (r->remaining() < packed) {
    return Status::Corruption("PFOR packed data truncated");
  }
  core->packed = r->cursor();
  VWISE_RETURN_IF_ERROR(r->Skip(packed));
  core->exc_pos = r->cursor();
  VWISE_RETURN_IF_ERROR(r->Skip(size_t{core->n_exc} * sizeof(uint32_t)));
  core->exc_val = r->cursor();
  VWISE_RETURN_IF_ERROR(r->Skip(size_t{core->n_exc} * sizeof(uint64_t)));
  // The cursor patches exceptions as it passes their positions, so they must
  // be in range and strictly ascending (the encoder writes them in order).
  uint32_t prev = 0;
  for (uint32_t i = 0; i < core->n_exc; i++) {
    uint32_t pos = LoadAt<uint32_t>(core->exc_pos + size_t{i} * sizeof(uint32_t));
    if (pos >= slots) return Status::Corruption("bad PFOR exception position");
    if (i > 0 && pos <= prev) {
      return Status::Corruption("PFOR exception positions not ascending");
    }
    prev = pos;
  }
  return Status::OK();
}

}  // namespace

uint32_t SegmentCursor::ExceptionPos(uint32_t i) const {
  return LoadAt<uint32_t>(exc_pos_ + size_t{i} * sizeof(uint32_t));
}

uint64_t SegmentCursor::ExceptionVal(uint32_t i) const {
  return LoadAt<uint64_t>(exc_val_ + size_t{i} * sizeof(uint64_t));
}

Status SegmentCursor::Open(Codec codec, TypeId type, uint32_t count,
                           const uint8_t* data, size_t size) {
  codec_ = codec;
  type_ = type;
  count_ = count;
  pos_ = 0;
  decode_ = nullptr;
  skip_ = nullptr;
  n_exc_ = 0;
  next_exc_ = 0;
  sum_ = 0;
  str_offset_ = 0;
  next_run_ = 0;
  run_left_ = 0;
  dict_.clear();
  Reader r(data, size);
  auto adopt_core = [this](const PforCore& core) {
    width_ = core.width;
    packed_ = core.packed;
    n_exc_ = core.n_exc;
    exc_pos_ = core.exc_pos;
    exc_val_ = core.exc_val;
  };
  PforCore core;
  switch (codec) {
    case Codec::kPlain:
      if (type == TypeId::kStr) {
        VWISE_RETURN_IF_ERROR(r.Get(&str_total_));
        str_lens_ = r.cursor();
        VWISE_RETURN_IF_ERROR(r.Skip(size_t{count} * sizeof(uint32_t)));
        str_bytes_ = reinterpret_cast<const char*>(r.cursor());
        VWISE_RETURN_IF_ERROR(r.Skip(str_total_));
        decode_ = &DecodePlainStr<true>;
        skip_ = &DecodePlainStr<false>;
        return Status::OK();
      }
      values_ = r.cursor();
      VWISE_RETURN_IF_ERROR(r.Skip(size_t{count} * TypeWidth(type)));
      decode_ = &DecodePlain;
      return Status::OK();
    case Codec::kPfor:
      if (!IsIntType(type)) {
        return Status::Corruption("PFOR segment on a non-integer column");
      }
      if (count == 0) return Status::OK();
      VWISE_RETURN_IF_ERROR(r.Get(&base_));
      VWISE_RETURN_IF_ERROR(ParsePforCore(&r, count, &core));
      adopt_core(core);
      switch (type) {
        case TypeId::kU8:
          kernel_ = reinterpret_cast<AnyKernel>(bit::UnpackKernel<uint8_t>(width_));
          decode_ = &DecodePfor<uint8_t>;
          break;
        case TypeId::kI32:
          kernel_ = reinterpret_cast<AnyKernel>(bit::UnpackKernel<int32_t>(width_));
          decode_ = &DecodePfor<int32_t>;
          break;
        default:
          kernel_ = reinterpret_cast<AnyKernel>(bit::UnpackKernel<int64_t>(width_));
          decode_ = &DecodePfor<int64_t>;
          break;
      }
      return Status::OK();
    case Codec::kPforDelta:
      if (!IsIntType(type)) {
        return Status::Corruption("PFOR-DELTA segment on a non-integer column");
      }
      if (count == 0) return Status::OK();
      // The first value verbatim, then PFOR over the count - 1 zigzag deltas.
      VWISE_RETURN_IF_ERROR(r.Get(&base_));
      if (count > 1) {
        VWISE_RETURN_IF_ERROR(ParsePforCore(&r, count - 1, &core));
        adopt_core(core);
        kernel_ = reinterpret_cast<AnyKernel>(bit::UnpackKernel<uint64_t>(width_));
      }
      switch (type) {
        case TypeId::kU8:
          decode_ = &DecodeDelta<uint8_t, true>;
          break;
        case TypeId::kI32:
          decode_ = &DecodeDelta<int32_t, true>;
          break;
        default:
          decode_ = &DecodeDelta<int64_t, true>;
          break;
      }
      skip_ = &DecodeDelta<int64_t, false>;
      return Status::OK();
    case Codec::kRle: {
      if (type == TypeId::kStr) {
        return Status::Corruption("RLE segment on a string column");
      }
      uint32_t n_runs = 0;
      VWISE_RETURN_IF_ERROR(r.Get(&n_runs));
      runs_ = r.cursor();
      VWISE_RETURN_IF_ERROR(r.Skip(size_t{n_runs} * kRleRunBytes));
      uint64_t total = 0;
      for (uint32_t i = 0; i < n_runs; i++) {
        uint32_t len = LoadAt<uint32_t>(runs_ + size_t{i} * kRleRunBytes + 8);
        if (total + len > count) return Status::Corruption("RLE overflow");
        total += len;
      }
      if (total != count) return Status::Corruption("RLE underflow");
      switch (type) {
        case TypeId::kU8:
          decode_ = &DecodeRle<uint8_t, true>;
          break;
        case TypeId::kI32:
          decode_ = &DecodeRle<int32_t, true>;
          break;
        case TypeId::kF64:
          decode_ = &DecodeRle<double, true>;
          break;
        default:
          decode_ = &DecodeRle<int64_t, true>;
          break;
      }
      skip_ = &DecodeRle<int64_t, false>;
      return Status::OK();
    }
    case Codec::kPdict: {
      if (type != TypeId::kStr) {
        return Status::Corruption("PDICT segment on a non-string column");
      }
      uint32_t dict_n = 0;
      VWISE_RETURN_IF_ERROR(r.Get(&dict_n));
      const uint8_t* offsets = r.cursor();
      VWISE_RETURN_IF_ERROR(
          r.Skip((size_t{dict_n} + 1) * sizeof(uint32_t)));
      uint32_t total = LoadAt<uint32_t>(offsets + size_t{dict_n} * sizeof(uint32_t));
      const char* bytes = reinterpret_cast<const char*>(r.cursor());
      VWISE_RETURN_IF_ERROR(r.Skip(total));
      dict_.reserve(dict_n);
      uint32_t begin = LoadAt<uint32_t>(offsets);
      for (uint32_t i = 0; i < dict_n; i++) {
        uint32_t end = LoadAt<uint32_t>(offsets + (size_t{i} + 1) * sizeof(uint32_t));
        if (begin > end || end > total) {
          return Status::Corruption("PDICT offsets not ascending");
        }
        dict_.emplace_back(bytes + begin, end - begin);
        begin = end;
      }
      VWISE_RETURN_IF_ERROR(ParsePforCore(&r, count, &core));
      adopt_core(core);
      // Codes index a dictionary of fewer than 2^32 entries, so the encoder
      // never packs them wider than 32 bits.
      if (width_ > 32) return Status::Corruption("PDICT code out of range");
      for (uint32_t i = 0; i < n_exc_; i++) {
        if (ExceptionVal(i) >= dict_n) {
          return Status::Corruption("PDICT code out of range");
        }
      }
      check_codes_ = width_ == 32 || (uint64_t{1} << width_) > dict_n;
      kernel_ = reinterpret_cast<AnyKernel>(bit::UnpackKernel<uint32_t>(width_));
      decode_ = &DecodePdict;
      return Status::OK();
    }
  }
  return Status::Corruption("unknown codec");
}

VWISE_HOT Status SegmentCursor::Decode(size_t n, void* out) {
  if (n > count_ - pos_) {
    return Status::Corruption("decode past the end of the segment");
  }
  if (n == 0) return Status::OK();
  return decode_(this, n, out);
}

VWISE_HOT Status SegmentCursor::Skip(size_t n) {
  if (n > count_ - pos_) {
    return Status::Corruption("skip past the end of the segment");
  }
  if (n == 0) return Status::OK();
  if (skip_ != nullptr) return skip_(this, n, nullptr);
  pos_ += n;
  while (next_exc_ < n_exc_ && ExceptionPos(next_exc_) < pos_) next_exc_++;
  return Status::OK();
}

VWISE_HOT Status SegmentCursor::DecodeCodes(size_t n, uint32_t* codes) {
  if (codec_ != Codec::kPdict) {
    return Status::InvalidArgument("DecodeCodes needs a PDICT segment");
  }
  if (n > count_ - pos_) {
    return Status::Corruption("decode past the end of the segment");
  }
  if (n == 0) return Status::OK();
  reinterpret_cast<bit::UnpackFn<uint32_t>>(kernel_)(packed_, pos_, n, 0, codes);
  PatchExceptions(pos_, n, 0, codes);
  if (check_codes_) {
    // OR of (size - 1 - code) goes negative iff some code >= size; unlike a
    // compare-and-branch per value, the reduction vectorizes.
    const int64_t last = static_cast<int64_t>(dict_.size()) - 1;
    int64_t acc = 0;
    for (size_t i = 0; i < n; i++) acc |= last - int64_t{codes[i]};
    if (acc < 0) return Status::Corruption("PDICT code out of range");
  }
  pos_ += n;
  return Status::OK();
}

template <typename T>
VWISE_HOT void SegmentCursor::PatchExceptions(size_t first, size_t n,
                                              uint64_t base, T* out) {
  const size_t end = first + n;
  while (next_exc_ < n_exc_) {
    uint32_t pos = ExceptionPos(next_exc_);
    if (pos >= end) break;
    out[pos - first] = static_cast<T>(base + ExceptionVal(next_exc_));
    next_exc_++;
  }
}

VWISE_HOT Status SegmentCursor::DecodePlain(SegmentCursor* c, size_t n,
                                            void* out) {
  const size_t w = TypeWidth(c->type_);
  std::memcpy(out, c->values_ + c->pos_ * w, n * w);
  c->pos_ += n;
  return Status::OK();
}

template <bool kStore>
VWISE_HOT Status SegmentCursor::DecodePlainStr(SegmentCursor* c, size_t n,
                                               void* out) {
  [[maybe_unused]] StringVal* o = static_cast<StringVal*>(out);
  const uint8_t* lens = c->str_lens_ + c->pos_ * sizeof(uint32_t);
  uint32_t offset = c->str_offset_;
  for (size_t i = 0; i < n; i++) {
    uint32_t len = LoadAt<uint32_t>(lens + i * sizeof(uint32_t));
    if (len > c->str_total_ - offset) {
      return Status::Corruption("string lengths overflow");
    }
    if constexpr (kStore) o[i] = StringVal(c->str_bytes_ + offset, len);
    offset += len;
  }
  c->str_offset_ = offset;
  c->pos_ += n;
  return Status::OK();
}

template <typename T>
VWISE_HOT Status SegmentCursor::DecodePfor(SegmentCursor* c, size_t n,
                                           void* out) {
  T* o = static_cast<T*>(out);
  reinterpret_cast<bit::UnpackFn<T>>(c->kernel_)(c->packed_, c->pos_, n,
                                                 c->base_, o);
  c->PatchExceptions(c->pos_, n, c->base_, o);
  c->pos_ += n;
  return Status::OK();
}

template <typename T, bool kStore>
VWISE_HOT Status SegmentCursor::DecodeDelta(SegmentCursor* c, size_t n,
                                            void* out) {
  [[maybe_unused]] T* o = static_cast<T*>(out);
  size_t i = 0;
  if (c->pos_ == 0) {
    c->sum_ = c->base_;
    if constexpr (kStore) o[0] = static_cast<T>(c->sum_);
    i = 1;
  }
  uint64_t sum = c->sum_;
  uint64_t deltas[kBatch];
  while (i < n) {
    size_t m = std::min(kBatch, n - i);
    size_t slot = c->pos_ + i - 1;  // delta k leads from value k to value k+1
    reinterpret_cast<bit::UnpackFn<uint64_t>>(c->kernel_)(c->packed_, slot, m,
                                                          0, deltas);
    c->PatchExceptions(slot, m, 0, deltas);
    for (size_t k = 0; k < m; k++) {
      sum += static_cast<uint64_t>(bit::ZigZagDecode(deltas[k]));
      if constexpr (kStore) o[i + k] = static_cast<T>(sum);
    }
    i += m;
  }
  c->sum_ = sum;
  c->pos_ += n;
  return Status::OK();
}

template <typename T, bool kStore>
VWISE_HOT Status SegmentCursor::DecodeRle(SegmentCursor* c, size_t n,
                                          void* out) {
  [[maybe_unused]] T* o = static_cast<T*>(out);
  // Open() checked that the run lengths add up to count_, and Decode() that
  // n does not pass it, so the runs cannot run out here.
  while (n > 0) {
    if (c->run_left_ == 0) {
      const uint8_t* run = c->runs_ + size_t{c->next_run_} * kRleRunBytes;
      c->run_value_ = LoadAt<uint64_t>(run);
      c->run_left_ = LoadAt<uint32_t>(run + 8);
      c->next_run_++;
      continue;
    }
    size_t m = std::min<uint64_t>(c->run_left_, n);
    if constexpr (kStore) {
      T v;
      if constexpr (std::is_same_v<T, double>) {
        v = std::bit_cast<double>(c->run_value_);
      } else {
        v = static_cast<T>(c->run_value_);
      }
      std::fill_n(o, m, v);
      o += m;
    }
    c->run_left_ -= m;
    c->pos_ += m;
    n -= m;
  }
  return Status::OK();
}

VWISE_HOT Status SegmentCursor::DecodePdict(SegmentCursor* c, size_t n,
                                            void* out) {
  StringVal* o = static_cast<StringVal*>(out);
  const StringVal* dict = c->dict_.data();
  uint32_t codes[kBatch];
  for (size_t i = 0; i < n; i += kBatch) {
    size_t m = std::min(kBatch, n - i);
    VWISE_RETURN_IF_ERROR(c->DecodeCodes(m, codes));
    for (size_t k = 0; k < m; k++) o[i + k] = dict[codes[k]];
  }
  return Status::OK();
}

Status DecodeInto(const CompressedSegment& seg, Vector* out) {
  if (out->type() != seg.type) {
    return Status::InvalidArgument("DecodeInto type mismatch");
  }
  VWISE_CHECK(out->capacity() >= seg.count);
  out->ClearHeapRefs();  // reuse the owned heap when nothing references it
  SegmentCursor cursor;
  VWISE_RETURN_IF_ERROR(cursor.Open(seg.codec, seg.type, seg.count,
                                    seg.data.data(), seg.data.size()));
  VWISE_RETURN_IF_ERROR(cursor.Decode(seg.count, out->raw()));
  if (seg.type == TypeId::kStr) {
    // The cursor's strings point into `seg`: copy them into the vector's own
    // heap so the result outlives the segment.
    StringHeap* heap = out->GetStringHeap();
    StringVal* vals = out->Data<StringVal>();
    for (uint32_t i = 0; i < seg.count; i++) vals[i] = heap->Add(vals[i].view());
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
