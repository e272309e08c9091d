#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

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
  // DecodeDictRaw surfaces codes + dictionary without per-row StringVals:
  // reassembling through the dictionary must equal the flat decode.
  auto strs = MakeStrings(3000, 5, 45);
  Vector in = ToStringVector(strs);
  auto seg = compression::Encode(Codec::kPdict, in, strs.size());
  ASSERT_TRUE(seg.ok());
  std::vector<uint32_t> codes(strs.size());
  std::vector<StringVal> dict_vals;
  StringHeap heap;
  ASSERT_TRUE(compression::DecodeDictRaw(TypeId::kStr, seg->count,
                                         seg->data.data(), seg->data.size(),
                                         codes.data(), &dict_vals, &heap)
                  .ok());
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

}  // namespace
}  // namespace vwise
