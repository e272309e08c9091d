#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/bitutil.h"
#include "common/rng.h"
#include "compression/codec.h"
#include "gtest/gtest.h"

namespace vwise {
namespace {

// --- round-trip helpers -----------------------------------------------------

// The codec surface is Vector-typed (DESIGN.md §12): wrap plain std::vectors
// for the property tests.
template <typename T>
Vector ToVector(TypeId type, const std::vector<T>& in) {
  Vector v(type, std::max<size_t>(in.size(), 1));
  // memcpy from an empty vector's null data() is undefined even for 0 bytes.
  if (!in.empty()) std::memcpy(v.raw(), in.data(), in.size() * sizeof(T));
  return v;
}

template <typename T>
std::vector<T> FromVector(const Vector& v, size_t n) {
  std::vector<T> out(n);
  if (n != 0) std::memcpy(out.data(), v.raw(), n * sizeof(T));
  return out;
}

template <typename T>
Result<CompressedSegment> EncodeVec(Codec codec, TypeId type,
                                    const std::vector<T>& in) {
  return compression::Encode(codec, ToVector(type, in), in.size());
}

template <typename T>
std::vector<T> RoundTrip(Codec codec, TypeId type, const std::vector<T>& in) {
  auto seg = EncodeVec(codec, type, in);
  EXPECT_TRUE(seg.ok()) << seg.status().ToString();
  Vector out(type, std::max<size_t>(in.size(), 1));
  Status s = compression::DecodeInto(*seg, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return FromVector<T>(out, in.size());
}

TEST(PforTest, RoundTripSmallRange) {
  std::vector<int64_t> in;
  Rng rng(1);
  for (int i = 0; i < 5000; i++) in.push_back(1000 + rng.Uniform(0, 255));
  EXPECT_EQ(RoundTrip(Codec::kPfor, TypeId::kI64, in), in);
}

TEST(PforTest, RoundTripWithOutliers) {
  std::vector<int64_t> in;
  Rng rng(2);
  for (int i = 0; i < 5000; i++) {
    in.push_back(rng.Uniform(0, 100));
    if (i % 97 == 0) in.back() = rng.Next() >> 1;  // big positive outlier
  }
  EXPECT_EQ(RoundTrip(Codec::kPfor, TypeId::kI64, in), in);
}

TEST(PforTest, RoundTripNegatives) {
  std::vector<int64_t> in = {-100, -5, 0, 3, -77, 42, -100000, 99};
  EXPECT_EQ(RoundTrip(Codec::kPfor, TypeId::kI64, in), in);
}

TEST(PforTest, RoundTripInt32) {
  std::vector<int32_t> in;
  Rng rng(3);
  for (int i = 0; i < 3000; i++) in.push_back(static_cast<int32_t>(rng.Uniform(-50, 50)));
  EXPECT_EQ(RoundTrip(Codec::kPfor, TypeId::kI32, in), in);
}

TEST(PforTest, EmptyAndSingle) {
  std::vector<int64_t> empty;
  EXPECT_EQ(RoundTrip(Codec::kPfor, TypeId::kI64, empty), empty);
  std::vector<int64_t> one = {12345};
  EXPECT_EQ(RoundTrip(Codec::kPfor, TypeId::kI64, one), one);
}

TEST(PforTest, CompressesUniformSmallDomain) {
  std::vector<int64_t> in(10000);
  Rng rng(4);
  for (auto& v : in) v = rng.Uniform(0, 15);  // 4 bits
  auto seg = EncodeVec(Codec::kPfor, TypeId::kI64, in);
  ASSERT_TRUE(seg.ok());
  // 4 bits/value vs 64 bits/value -> better than 8x counting headers.
  EXPECT_LT(seg->data.size(), in.size() * 8 / 8);
}

TEST(PforTest, RejectsStrings) {
  Vector sv(TypeId::kStr, 1);
  sv.Data<StringVal>()[0] = StringVal("x", 1);
  EXPECT_FALSE(compression::Encode(Codec::kPfor, sv, 1).ok());
}

TEST(PforDeltaTest, RoundTripSorted) {
  std::vector<int64_t> in;
  Rng rng(5);
  int64_t v = 0;
  for (int i = 0; i < 8000; i++) in.push_back(v += rng.Uniform(0, 3));
  EXPECT_EQ(RoundTrip(Codec::kPforDelta, TypeId::kI64, in), in);
}

TEST(PforDeltaTest, RoundTripUnsorted) {
  std::vector<int64_t> in;
  Rng rng(6);
  for (int i = 0; i < 2000; i++) in.push_back(rng.Uniform(-1000000, 1000000));
  EXPECT_EQ(RoundTrip(Codec::kPforDelta, TypeId::kI64, in), in);
}

TEST(PforDeltaTest, BeatsPforOnSortedKeys) {
  // Dense ascending keys: deltas are tiny, absolute values are wide.
  std::vector<int64_t> in;
  for (int64_t i = 0; i < 10000; i++) in.push_back(1000000000 + i * 4);
  auto pfor = EncodeVec(Codec::kPfor, TypeId::kI64, in);
  auto pford = EncodeVec(Codec::kPforDelta, TypeId::kI64, in);
  ASSERT_TRUE(pfor.ok() && pford.ok());
  EXPECT_LT(pford->data.size(), pfor->data.size());
}

TEST(RleTest, RoundTripRuns) {
  std::vector<int64_t> in;
  for (int r = 0; r < 50; r++) {
    for (int k = 0; k < 100; k++) in.push_back(r % 3);
  }
  EXPECT_EQ(RoundTrip(Codec::kRle, TypeId::kI64, in), in);
  auto seg = EncodeVec(Codec::kRle, TypeId::kI64, in);
  EXPECT_LT(seg->data.size(), 50u * 12u + 16u);
}

TEST(RleTest, RoundTripDoubles) {
  std::vector<double> in = {1.5, 1.5, 1.5, -2.25, -2.25, 0.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(RoundTrip(Codec::kRle, TypeId::kF64, in), in);
}

TEST(RleTest, RoundTripU8) {
  std::vector<uint8_t> in(1000, 1);
  in[500] = 0;
  EXPECT_EQ(RoundTrip(Codec::kRle, TypeId::kU8, in), in);
}

std::vector<std::string> MakeStrings(size_t n, int distinct, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> pool;
  for (int i = 0; i < distinct; i++) pool.push_back("value_" + std::to_string(i));
  std::vector<std::string> out;
  for (size_t i = 0; i < n; i++) out.push_back(pool[rng.Uniform(0, distinct - 1)]);
  return out;
}

Vector ToStringVector(const std::vector<std::string>& strs) {
  Vector v(TypeId::kStr, std::max<size_t>(strs.size(), 1));
  StringVal* sv = v.Data<StringVal>();
  for (size_t i = 0; i < strs.size(); i++) sv[i] = StringVal(strs[i]);
  return v;
}

TEST(PdictTest, RoundTripLowCardinality) {
  auto strs = MakeStrings(5000, 7, 42);
  Vector in = ToStringVector(strs);
  auto seg = compression::Encode(Codec::kPdict, in, strs.size());
  ASSERT_TRUE(seg.ok());
  Vector out(TypeId::kStr, strs.size());
  ASSERT_TRUE(compression::DecodeInto(*seg, &out).ok());
  for (size_t i = 0; i < strs.size(); i++) {
    EXPECT_EQ(out.Data<StringVal>()[i].ToString(), strs[i]);
  }
}

TEST(PdictTest, CompressesLowCardinality) {
  auto strs = MakeStrings(5000, 4, 43);
  size_t raw = 0;
  for (const auto& s : strs) raw += s.size();
  Vector in = ToStringVector(strs);
  auto pdict = compression::Encode(Codec::kPdict, in, strs.size());
  ASSERT_TRUE(pdict.ok());
  EXPECT_LT(pdict->data.size(), raw / 4);
}

TEST(PdictTest, CodesOnlyAdoptionMatchesFlatDecode) {
  // DecodeCodes surfaces codes + dictionary without per-row StringVals:
  // reassembling through the dictionary must equal the flat decode.
  auto strs = MakeStrings(3000, 5, 45);
  Vector in = ToStringVector(strs);
  auto seg = compression::Encode(Codec::kPdict, in, strs.size());
  ASSERT_TRUE(seg.ok());
  std::vector<uint32_t> codes(strs.size());
  compression::SegmentCursor cursor;
  ASSERT_TRUE(cursor.Open(Codec::kPdict, TypeId::kStr, seg->count,
                          seg->data.data(), seg->data.size())
                  .ok());
  ASSERT_TRUE(cursor.DecodeCodes(seg->count, codes.data()).ok());
  const std::vector<StringVal>& dict_vals = cursor.dict();
  EXPECT_EQ(dict_vals.size(), 5u);
  for (size_t i = 0; i < strs.size(); i++) {
    ASSERT_LT(codes[i], dict_vals.size());
    EXPECT_EQ(dict_vals[codes[i]].ToString(), strs[i]);
  }
}

TEST(PlainTest, RoundTripStrings) {
  std::vector<std::string> strs = {"", "a", "hello world", std::string(1000, 'x')};
  Vector in = ToStringVector(strs);
  auto seg = compression::Encode(Codec::kPlain, in, strs.size());
  ASSERT_TRUE(seg.ok());
  Vector out(TypeId::kStr, strs.size());
  ASSERT_TRUE(compression::DecodeInto(*seg, &out).ok());
  for (size_t i = 0; i < strs.size(); i++) {
    EXPECT_EQ(out.Data<StringVal>()[i].ToString(), strs[i]);
  }
}

TEST(EncodeBestTest, PicksDeltaForSorted) {
  std::vector<int64_t> in;
  for (int64_t i = 0; i < 5000; i++) in.push_back(7000000 + i);
  auto seg = compression::EncodeBest(ToVector(TypeId::kI64, in), in.size());
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(seg->codec, Codec::kPforDelta);
}

TEST(EncodeBestTest, ConstantCompressesToNearNothing) {
  std::vector<int64_t> in(5000, 99);
  auto seg = compression::EncodeBest(ToVector(TypeId::kI64, in), in.size());
  ASSERT_TRUE(seg.ok());
  // Width-0 PFOR and RLE both collapse a constant column; either must win
  // and shrink 40KB to a few dozen bytes.
  EXPECT_TRUE(seg->codec == Codec::kPfor || seg->codec == Codec::kRle);
  EXPECT_LT(seg->data.size(), 64u);
}

TEST(EncodeBestTest, PicksDictForStrings) {
  auto strs = MakeStrings(2000, 3, 44);
  auto seg = compression::EncodeBest(ToStringVector(strs), strs.size());
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(seg->codec, Codec::kPdict);
}

TEST(EncodeBestTest, FallsBackToPlainForRandomDoubles) {
  std::vector<double> in;
  Rng rng(7);
  for (int i = 0; i < 1000; i++) in.push_back(rng.NextDouble());
  auto seg = compression::EncodeBest(ToVector(TypeId::kF64, in), in.size());
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(seg->codec, Codec::kPlain);
  Vector out(TypeId::kF64, in.size());
  ASSERT_TRUE(compression::DecodeInto(*seg, &out).ok());
  EXPECT_EQ(FromVector<double>(out, in.size()), in);
}

TEST(SegmentTest, ByteSizeCountsTheSerializedFooterRecord) {
  // byte_size() = blob + the footer record the writer emits per segment
  // (storage/table_file.cc, TableWriter::Finish): u32 offset + u32 size +
  // u8 codec + u32 count + u8 has_minmax + i64 min + i64 max.
  EXPECT_EQ(CompressedSegment::kFooterRecordBytes, 4u + 4u + 1u + 4u + 1u + 8u + 8u);
  std::vector<int64_t> in(100, 5);
  auto seg = EncodeVec(Codec::kPfor, TypeId::kI64, in);
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(seg->byte_size(),
            seg->data.size() + CompressedSegment::kFooterRecordBytes);
}

TEST(CorruptionTest, TruncatedSegmentFails) {
  std::vector<int64_t> in(100, 5);
  auto seg = EncodeVec(Codec::kPfor, TypeId::kI64, in);
  ASSERT_TRUE(seg.ok());
  CompressedSegment bad = *seg;
  bad.data.resize(bad.data.size() / 2);
  Vector out(TypeId::kI64, in.size());
  EXPECT_FALSE(compression::DecodeInto(bad, &out).ok());
}

// --- property sweep: every integer codec round-trips on varied distributions

struct Distribution {
  const char* name;
  uint64_t seed;
  int64_t lo, hi;
  bool sorted;
  double outlier_rate;
};

class CodecPropertyTest : public ::testing::TestWithParam<Distribution> {};

TEST_P(CodecPropertyTest, AllIntCodecsRoundTrip) {
  const auto& d = GetParam();
  Rng rng(d.seed);
  std::vector<int64_t> in;
  for (int i = 0; i < 4096; i++) {
    int64_t v = rng.Uniform(d.lo, d.hi);
    if (d.outlier_rate > 0 && rng.NextDouble() < d.outlier_rate) {
      v = static_cast<int64_t>(rng.Next() >> 2);
    }
    in.push_back(v);
  }
  if (d.sorted) std::sort(in.begin(), in.end());
  for (Codec c : {Codec::kPlain, Codec::kPfor, Codec::kPforDelta, Codec::kRle}) {
    EXPECT_EQ(RoundTrip(c, TypeId::kI64, in), in) << CodecToString(c) << " on " << d.name;
  }
  // And the chooser's pick must round-trip too.
  auto best = compression::EncodeBest(ToVector(TypeId::kI64, in), in.size());
  ASSERT_TRUE(best.ok());
  Vector out(TypeId::kI64, in.size());
  ASSERT_TRUE(compression::DecodeInto(*best, &out).ok());
  EXPECT_EQ(FromVector<int64_t>(out, in.size()), in)
      << "EncodeBest chose " << CodecToString(best->codec);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, CodecPropertyTest,
    ::testing::Values(
        Distribution{"tiny_domain", 11, 0, 7, false, 0},
        Distribution{"byte_domain", 12, -128, 127, false, 0},
        Distribution{"wide_uniform", 13, -1000000000, 1000000000, false, 0},
        Distribution{"sorted_dense", 14, 0, 100000, true, 0},
        Distribution{"sorted_sparse", 15, -1000000000, 1000000000, true, 0},
        Distribution{"outliers_1pct", 16, 0, 100, false, 0.01},
        Distribution{"outliers_10pct", 17, 0, 100, false, 0.10},
        Distribution{"constant", 18, 5, 5, false, 0},
        Distribution{"negative_only", 19, -500, -100, false, 0}),
    [](const ::testing::TestParamInfo<Distribution>& info) {
      return info.param.name;
    });

// --- segment cursor -------------------------------------------------------------
//
// Every decode goes through compression::SegmentCursor, a vector at a time.
// These tests read segments through many window plans and compare each
// window with a scalar reference decoder that lives only here: it decodes a
// whole segment with a bit-at-a-time unpack into a u64 array, patches the
// exceptions, then truncates each value to the column type.

template <typename T>
void PutRaw(std::vector<uint8_t>* blob, T v) {
  size_t off = blob->size();
  blob->resize(off + sizeof(T));
  std::memcpy(blob->data() + off, &v, sizeof(T));
}

template <typename T>
T GetRaw(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

uint64_t RefSlot(const uint8_t* packed, size_t i, int width) {
  uint64_t v = 0;
  for (int b = 0; b < width; b++) {
    size_t bit = i * width + b;
    v |= uint64_t{(packed[bit / 8] >> (bit % 8)) & 1u} << b;
  }
  return v;
}

// Decodes a PFOR core of `n` slots at `*p` and advances `*p` past it.
std::vector<uint64_t> RefPforCore(const uint8_t** p, size_t n) {
  int width = (*p)[0];
  uint32_t n_exc = GetRaw<uint32_t>(*p + 1);
  *p += 5;
  std::vector<uint64_t> out(n);
  for (size_t i = 0; i < n; i++) out[i] = RefSlot(*p, i, width);
  *p += bit::PackedSize(n, width);
  for (uint32_t j = 0; j < n_exc; j++) {
    out[GetRaw<uint32_t>(*p + 4 * j)] = GetRaw<uint64_t>(*p + 4 * n_exc + 8 * j);
  }
  *p += n_exc * 12;
  return out;
}

// Reference output: the value bytes of fixed-width types, or the strings.
struct RefOut {
  std::vector<uint8_t> bytes;
  std::vector<std::string> strs;
};

RefOut RefDecode(const CompressedSegment& seg) {
  RefOut out;
  const uint8_t* p = seg.data.data();
  const size_t n = seg.count;
  const size_t w = TypeWidth(seg.type);
  auto store = [&](uint64_t v) {  // little-endian truncation to the type
    const uint8_t* b = reinterpret_cast<const uint8_t*>(&v);
    out.bytes.insert(out.bytes.end(), b, b + w);
  };
  switch (seg.codec) {
    case Codec::kPlain:
      if (seg.type == TypeId::kStr) {
        const char* bytes = reinterpret_cast<const char*>(p + 4 + 4 * n);
        uint32_t off = 0;
        for (size_t i = 0; i < n; i++) {
          uint32_t len = GetRaw<uint32_t>(p + 4 + 4 * i);
          out.strs.emplace_back(bytes + off, len);
          off += len;
        }
      } else if (n > 0) {
        out.bytes.assign(p, p + n * w);
      }
      break;
    case Codec::kPfor: {
      if (n == 0) break;
      uint64_t base = GetRaw<uint64_t>(p);
      p += 8;
      for (uint64_t v : RefPforCore(&p, n)) store(base + v);
      break;
    }
    case Codec::kPforDelta: {
      if (n == 0) break;
      uint64_t cur = GetRaw<uint64_t>(p);
      p += 8;
      store(cur);
      if (n > 1) {
        for (uint64_t d : RefPforCore(&p, n - 1)) {
          cur += static_cast<uint64_t>(bit::ZigZagDecode(d));
          store(cur);
        }
      }
      break;
    }
    case Codec::kRle: {
      uint32_t runs = GetRaw<uint32_t>(p);
      for (uint32_t r = 0; r < runs; r++) {
        uint64_t v = GetRaw<uint64_t>(p + 4 + 12 * r);
        uint32_t len = GetRaw<uint32_t>(p + 4 + 12 * r + 8);
        for (uint32_t k = 0; k < len; k++) store(v);
      }
      break;
    }
    case Codec::kPdict: {
      uint32_t dict_n = GetRaw<uint32_t>(p);
      const uint8_t* offsets = p + 4;
      const char* bytes = reinterpret_cast<const char*>(offsets + 4 * (dict_n + 1));
      p = reinterpret_cast<const uint8_t*>(bytes) +
          GetRaw<uint32_t>(offsets + 4 * dict_n);
      for (uint64_t c : RefPforCore(&p, n)) {
        uint32_t begin = GetRaw<uint32_t>(offsets + 4 * c);
        uint32_t end = GetRaw<uint32_t>(offsets + 4 * (c + 1));
        out.strs.emplace_back(bytes + begin, end - begin);
      }
      break;
    }
  }
  return out;
}

// A read plan: (skip, decode) steps, applied in order.
using Plan = std::vector<std::pair<size_t, size_t>>;

// The plans every segment is read under: everything at once; vectors of
// 1024 (a full 16 384-row stripe is 16 of them); 1-value reads; windows
// straddling 64-value block boundaries; random skips and reads.
std::vector<Plan> PlansFor(size_t count, uint64_t seed) {
  std::vector<Plan> plans;
  plans.push_back({{0, count}});
  Plan vectors;
  for (size_t at = 0; at < count; at += 1024) {
    vectors.push_back({0, std::min<size_t>(1024, count - at)});
  }
  plans.push_back(vectors);
  Plan singles;
  size_t k = std::min<size_t>(300, count);
  for (size_t i = 0; i < k; i++) singles.push_back({0, 1});
  singles.push_back({0, count - k});
  plans.push_back(singles);
  Plan straddle;
  size_t at = 0;
  while (at + 63 + 2 + 1 + 130 <= count) {
    straddle.push_back({63, 2});   // the last value of a block, first of next
    straddle.push_back({1, 130});  // misaligned start, crosses two blocks
    at += 63 + 2 + 1 + 130;
  }
  plans.push_back(straddle);
  Rng rng(seed);
  Plan random;
  at = 0;
  while (at < count) {
    size_t skip = std::min<size_t>(rng.Uniform(0, 300), count - at);
    at += skip;
    size_t n = std::min<size_t>(rng.Uniform(0, 1500), count - at);
    at += n;
    random.push_back({skip, n});
  }
  plans.push_back(random);
  return plans;
}

void ExpectPlanMatches(const CompressedSegment& seg, const Plan& plan,
                       const std::string& what) {
  RefOut ref = RefDecode(seg);
  compression::SegmentCursor cursor;
  Status s = cursor.Open(seg.codec, seg.type, seg.count, seg.data.data(),
                         seg.data.size());
  ASSERT_TRUE(s.ok()) << what << ": " << s.ToString();
  const size_t w = TypeWidth(seg.type);
  size_t pos = 0;
  for (auto [skip, n] : plan) {
    ASSERT_TRUE(cursor.Skip(skip).ok()) << what;
    pos += skip;
    ASSERT_EQ(cursor.position(), pos) << what;
    Vector out(seg.type, std::max<size_t>(n, 1));
    s = cursor.Decode(n, out.raw());
    ASSERT_TRUE(s.ok()) << what << " window " << pos << "+" << n << ": "
                        << s.ToString();
    if (seg.type == TypeId::kStr) {
      for (size_t i = 0; i < n; i++) {
        ASSERT_EQ(out.Data<StringVal>()[i].ToString(), ref.strs[pos + i])
            << what << " row " << pos + i;
      }
    } else if (n > 0) {
      ASSERT_EQ(std::memcmp(out.raw(), ref.bytes.data() + pos * w, n * w), 0)
          << what << " window " << pos << "+" << n;
    }
    pos += n;
  }
}

void ExpectAllPlansMatch(const CompressedSegment& seg, const std::string& what,
                         uint64_t seed) {
  for (const Plan& plan : PlansFor(seg.count, seed)) {
    ExpectPlanMatches(seg, plan, what);
  }
}

// A PFOR core packed at exactly `width` bits, exceptions at `exc`.
void PutPforCore(std::vector<uint8_t>* blob, int width,
                 const std::vector<uint64_t>& slots,
                 const std::vector<std::pair<uint32_t, uint64_t>>& exc) {
  PutRaw<uint8_t>(blob, static_cast<uint8_t>(width));
  PutRaw<uint32_t>(blob, static_cast<uint32_t>(exc.size()));
  std::vector<uint8_t> packed(bit::PackedSize(slots.size(), width));
  if (width > 0) bit::PackBits(slots.data(), slots.size(), width, packed.data());
  blob->insert(blob->end(), packed.begin(), packed.end());
  for (const auto& e : exc) PutRaw<uint32_t>(blob, e.first);
  for (const auto& e : exc) PutRaw<uint64_t>(blob, e.second);
}

std::vector<uint64_t> RandomSlots(size_t n, int width, uint64_t seed) {
  Rng rng(seed);
  uint64_t mask = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  std::vector<uint64_t> slots(n);
  for (auto& v : slots) v = rng.Next() & mask;
  return slots;
}

CompressedSegment BuildPfor(TypeId type, int64_t base, int width, size_t n,
                            const std::vector<uint32_t>& exc_pos,
                            uint64_t seed) {
  CompressedSegment seg;
  seg.codec = Codec::kPfor;
  seg.type = type;
  seg.count = static_cast<uint32_t>(n);
  PutRaw<int64_t>(&seg.data, base);
  Rng rng(seed ^ 0xE7);
  std::vector<std::pair<uint32_t, uint64_t>> exc;
  for (uint32_t p : exc_pos) exc.push_back({p, rng.Next()});
  PutPforCore(&seg.data, width, RandomSlots(n, width, seed), exc);
  return seg;
}

TEST(SegmentCursorTest, PforEveryWidthAndType) {
  // 4 133 values: not a multiple of 64, so every plan has a ragged tail.
  const size_t n = 4133;
  // Exceptions at the first and last position of vectors of 1024, and on
  // both sides of a 64-value block boundary.
  const std::vector<uint32_t> exc = {0, 63, 64, 1023, 1024, 2047, 4132};
  for (TypeId t : {TypeId::kU8, TypeId::kI32, TypeId::kI64}) {
    for (int width = 0; width <= 64; width++) {
      CompressedSegment seg =
          BuildPfor(t, -123456789, width, n, exc, 100 + width);
      ExpectAllPlansMatch(seg,
                          std::string("PFOR ") + TypeIdToString(t) +
                              " width " + std::to_string(width),
                          width);
    }
  }
}

TEST(SegmentCursorTest, FullStripeAsSixteenVectors) {
  const size_t n = 16384;
  for (int width : {0, 1, 7, 12, 31, 33, 64}) {
    CompressedSegment seg =
        BuildPfor(TypeId::kI64, 5, width, n, {0, 1023, 8191, 16383}, width);
    Plan vectors(16, {0, 1024});
    ExpectPlanMatches(seg, vectors, "stripe width " + std::to_string(width));
  }
}

// Inputs for every (codec, type) pair the formats allow.
Vector RandomColumn(TypeId t, size_t n, uint64_t seed) {
  Rng rng(seed);
  Vector v(t, n);
  // Runs of random length, so RLE has something to do; occasional outliers
  // give PFOR exceptions.
  uint64_t run_value = 0;
  size_t run_left = 0;
  for (size_t i = 0; i < n; i++) {
    if (run_left == 0) {
      run_left = rng.Uniform(1, 40);
      run_value = rng.Uniform(0, 200);
      if (rng.Uniform(0, 30) == 0) run_value = rng.Next();
    }
    run_left--;
    switch (t) {
      case TypeId::kU8:
        v.Data<uint8_t>()[i] = static_cast<uint8_t>(run_value);
        break;
      case TypeId::kI32:
        v.Data<int32_t>()[i] = static_cast<int32_t>(run_value) - 100;
        break;
      case TypeId::kI64:
        v.Data<int64_t>()[i] = static_cast<int64_t>(run_value) - 100;
        break;
      case TypeId::kF64:
        v.Data<double>()[i] = static_cast<double>(run_value % 1000) * 0.25;
        break;
      case TypeId::kStr:
        break;
    }
  }
  return v;
}

TEST(SegmentCursorTest, EveryCodecAndTypeMatchesReference) {
  const size_t n = 5000;
  struct Case {
    Codec codec;
    TypeId type;
  };
  const Case cases[] = {
      {Codec::kPlain, TypeId::kU8},     {Codec::kPlain, TypeId::kI32},
      {Codec::kPlain, TypeId::kI64},    {Codec::kPlain, TypeId::kF64},
      {Codec::kPfor, TypeId::kU8},      {Codec::kPfor, TypeId::kI32},
      {Codec::kPfor, TypeId::kI64},     {Codec::kPforDelta, TypeId::kU8},
      {Codec::kPforDelta, TypeId::kI32}, {Codec::kPforDelta, TypeId::kI64},
      {Codec::kRle, TypeId::kU8},       {Codec::kRle, TypeId::kI32},
      {Codec::kRle, TypeId::kI64},      {Codec::kRle, TypeId::kF64},
  };
  uint64_t seed = 1;
  for (const Case& c : cases) {
    Vector in = RandomColumn(c.type, n, seed++);
    auto seg = compression::Encode(c.codec, in, n);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    std::string what = std::string(CodecToString(c.codec)) + " " +
                       TypeIdToString(c.type);
    ExpectAllPlansMatch(*seg, what, seed);
    // And the reference agrees with the input, so both are right.
    EXPECT_EQ(std::memcmp(RefDecode(*seg).bytes.data(), in.raw(),
                          n * TypeWidth(c.type)),
              0)
        << what;
  }
}

TEST(SegmentCursorTest, PforDeltaNegativeDeltasAndSkips) {
  const size_t n = 16384 + 5;
  Rng rng(77);
  std::vector<int64_t> walk(n);
  int64_t cur = 1000;
  for (auto& v : walk) {
    cur += rng.Uniform(-1000, 1000);
    if (rng.Uniform(0, 500) == 0) cur -= 1000000000;  // a delta exception
    v = cur;
  }
  std::vector<int32_t> walk32(walk.begin(), walk.end());
  const Plan across = {{1500, 10}, {3000, 1024}, {1, 1}, {5000, 2000},
                       {1023, 1}, {0, 63}, {0, 65}};
  auto seg64 = EncodeVec(Codec::kPforDelta, TypeId::kI64, walk);
  auto seg32 = EncodeVec(Codec::kPforDelta, TypeId::kI32, walk32);
  ASSERT_TRUE(seg64.ok() && seg32.ok());
  for (const CompressedSegment* seg : {&*seg64, &*seg32}) {
    std::string what = std::string("PFOR-DELTA ") + TypeIdToString(seg->type);
    ExpectAllPlansMatch(*seg, what, 5);
    ExpectPlanMatches(*seg, across, what + " skips across vectors");
  }
  EXPECT_EQ(RoundTrip(Codec::kPforDelta, TypeId::kI64, walk), walk);
  EXPECT_EQ(RoundTrip(Codec::kPforDelta, TypeId::kI32, walk32), walk32);
}

TEST(SegmentCursorTest, StringsPlainAndPdictWithEmptyStrings) {
  Rng rng(9);
  std::vector<std::string> strs;
  for (int i = 0; i < 3000; i++) {
    int kind = static_cast<int>(rng.Uniform(0, 3));
    std::string v;
    if (kind != 0) {
      v = "s";
      v += std::to_string(rng.Uniform(0, 40));
    }
    strs.push_back(v);
  }
  std::vector<std::string> all_empty(700, "");
  for (const auto* input : {&strs, &all_empty}) {
    Vector in = ToStringVector(*input);
    for (Codec c : {Codec::kPlain, Codec::kPdict}) {
      auto seg = compression::Encode(c, in, input->size());
      ASSERT_TRUE(seg.ok());
      std::string what = std::string(CodecToString(c)) + " strings";
      ExpectAllPlansMatch(*seg, what, 3);
      EXPECT_EQ(RefDecode(*seg).strs, *input) << what;
    }
  }
}

// --- corruption: every Status::Corruption the whole-segment decoders
// returned is still returned, at Open() or at the first Decode() that
// touches the bad data.

Status OpenSeg(compression::SegmentCursor* cursor, const CompressedSegment& seg) {
  return cursor->Open(seg.codec, seg.type, seg.count, seg.data.data(),
                      seg.data.size());
}

TEST(SegmentCursorCorruptionTest, TruncatedSegmentAtOpen) {
  std::vector<int64_t> ints(100, 5);
  ints[7] = 1 << 20;
  auto strs = MakeStrings(100, 4, 1);
  std::vector<CompressedSegment> segs = {
      *EncodeVec(Codec::kPfor, TypeId::kI64, ints),
      *EncodeVec(Codec::kPforDelta, TypeId::kI64, ints),
      *EncodeVec(Codec::kRle, TypeId::kI64, ints),
      *EncodeVec(Codec::kPlain, TypeId::kI64, ints),
      *compression::Encode(Codec::kPlain, ToStringVector(strs), strs.size()),
      *compression::Encode(Codec::kPdict, ToStringVector(strs), strs.size())};
  for (CompressedSegment seg : segs) {
    for (size_t keep : {size_t{0}, size_t{3}, seg.data.size() - 1}) {
      CompressedSegment cut = seg;
      cut.data.resize(keep);
      compression::SegmentCursor cursor;
      Status s = OpenSeg(&cursor, cut);
      EXPECT_TRUE(s.IsCorruption())
          << CodecToString(seg.codec) << " cut to " << keep << ": "
          << s.ToString();
    }
  }
}

TEST(SegmentCursorCorruptionTest, TruncatedPackedData) {
  CompressedSegment seg = BuildPfor(TypeId::kI64, 0, 10, 1000, {}, 1);
  seg.data.resize(8 + 5 + 100);  // base + core header + part of the slots
  compression::SegmentCursor cursor;
  Status s = OpenSeg(&cursor, seg);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("PFOR packed data truncated"), std::string::npos);
}

TEST(SegmentCursorCorruptionTest, WidthAbove64) {
  CompressedSegment seg = BuildPfor(TypeId::kI64, 0, 10, 100, {}, 1);
  seg.data[8] = 65;  // the width byte follows the i64 base
  compression::SegmentCursor cursor;
  Status s = OpenSeg(&cursor, seg);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("bad PFOR width"), std::string::npos);
}

TEST(SegmentCursorCorruptionTest, ExceptionPositionPastCount) {
  CompressedSegment seg = BuildPfor(TypeId::kI32, 0, 3, 100, {5, 100}, 1);
  compression::SegmentCursor cursor;
  Status s = OpenSeg(&cursor, seg);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("bad PFOR exception position"), std::string::npos);
  // The cursor patches exceptions as it passes them, so they must ascend.
  seg = BuildPfor(TypeId::kI32, 0, 3, 100, {50, 20}, 1);
  s = OpenSeg(&cursor, seg);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// A PDICT segment over `dict`, codes packed at `width` bits.
CompressedSegment BuildPdict(const std::vector<std::string>& dict, int width,
                             const std::vector<uint64_t>& codes,
                             const std::vector<std::pair<uint32_t, uint64_t>>& exc) {
  CompressedSegment seg;
  seg.codec = Codec::kPdict;
  seg.type = TypeId::kStr;
  seg.count = static_cast<uint32_t>(codes.size());
  PutRaw<uint32_t>(&seg.data, static_cast<uint32_t>(dict.size()));
  uint32_t off = 0;
  for (const auto& s : dict) {
    PutRaw<uint32_t>(&seg.data, off);
    off += static_cast<uint32_t>(s.size());
  }
  PutRaw<uint32_t>(&seg.data, off);
  for (const auto& s : dict) seg.data.insert(seg.data.end(), s.begin(), s.end());
  PutPforCore(&seg.data, width, codes, exc);
  return seg;
}

TEST(SegmentCursorCorruptionTest, PdictCodeOutOfRangeInPackedSlot) {
  std::vector<uint64_t> codes(2000, 1);
  codes[1500] = 3;  // fits 2 bits, but the dictionary has 3 entries
  CompressedSegment seg = BuildPdict({"a", "bb", ""}, 2, codes, {});
  compression::SegmentCursor cursor;
  ASSERT_TRUE(OpenSeg(&cursor, seg).ok());
  StringVal out[1024];
  ASSERT_TRUE(cursor.Decode(1024, out).ok());  // rows before the bad code
  EXPECT_EQ(out[0].ToString(), "bb");
  Status s = cursor.Decode(976, out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("PDICT code out of range"), std::string::npos);
  // Compressed execution's code path rejects it too.
  ASSERT_TRUE(OpenSeg(&cursor, seg).ok());
  std::vector<uint32_t> raw(2000);
  EXPECT_TRUE(cursor.DecodeCodes(2000, raw.data()).IsCorruption());
}

TEST(SegmentCursorCorruptionTest, PdictCodeOutOfRangeInException) {
  std::vector<uint64_t> codes(100, 0);
  CompressedSegment seg = BuildPdict({"a", "b"}, 1, codes, {{40, 7}});
  compression::SegmentCursor cursor;
  Status s = OpenSeg(&cursor, seg);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("PDICT code out of range"), std::string::npos);
  // Codes index fewer than 2^32 entries: wider packing is corrupt.
  seg = BuildPdict({"a", "b"}, 33, codes, {});
  s = OpenSeg(&cursor, seg);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(SegmentCursorCorruptionTest, PdictOffsetsNotAscending) {
  std::vector<uint64_t> codes(100, 0);
  CompressedSegment seg = BuildPdict({"abc", "de", "f"}, 2, codes, {});
  // Offsets {0, 3, 5, 6} become {0, 4, 3, 6}.
  uint32_t raised = 4, lowered = 3;
  std::memcpy(seg.data.data() + 4 + 4 * 1, &raised, 4);
  std::memcpy(seg.data.data() + 4 + 4 * 2, &lowered, 4);
  compression::SegmentCursor cursor;
  Status s = OpenSeg(&cursor, seg);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("PDICT offsets not ascending"), std::string::npos);
}

TEST(SegmentCursorCorruptionTest, StringLengthOverflow) {
  std::vector<std::string> strs(2000, "xy");
  auto seg = compression::Encode(Codec::kPlain, ToStringVector(strs), strs.size());
  ASSERT_TRUE(seg.ok());
  uint32_t huge = 1000;  // row 1800's length now runs past the byte total
  std::memcpy(seg->data.data() + 4 + 4 * 1800, &huge, 4);
  compression::SegmentCursor cursor;
  ASSERT_TRUE(OpenSeg(&cursor, *seg).ok());
  StringVal out[1024];
  ASSERT_TRUE(cursor.Decode(1024, out).ok());
  Status s = cursor.Decode(976, out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("string lengths overflow"), std::string::npos);
}

TEST(SegmentCursorCorruptionTest, RleOverflowAndUnderflow) {
  std::vector<int64_t> in(100, 3);
  auto seg = EncodeVec(Codec::kRle, TypeId::kI64, in);
  ASSERT_TRUE(seg.ok());
  compression::SegmentCursor cursor;
  CompressedSegment longer = *seg;
  longer.count = 99;  // the run of 100 overflows it
  Status s = OpenSeg(&cursor, longer);
  EXPECT_NE(s.ToString().find("RLE overflow"), std::string::npos) << s.ToString();
  CompressedSegment shorter = *seg;
  shorter.count = 101;
  s = OpenSeg(&cursor, shorter);
  EXPECT_NE(s.ToString().find("RLE underflow"), std::string::npos) << s.ToString();
}

TEST(SegmentCursorCorruptionTest, DecodePastTheEnd) {
  std::vector<int64_t> in(100, 3);
  auto seg = EncodeVec(Codec::kPfor, TypeId::kI64, in);
  ASSERT_TRUE(seg.ok());
  compression::SegmentCursor cursor;
  ASSERT_TRUE(OpenSeg(&cursor, *seg).ok());
  int64_t out[128];
  ASSERT_TRUE(cursor.Decode(60, out).ok());
  EXPECT_TRUE(cursor.Decode(41, out).IsCorruption());
  EXPECT_TRUE(cursor.Skip(41).IsCorruption());
  EXPECT_TRUE(cursor.Decode(40, out).ok());
}

}  // namespace
}  // namespace vwise
