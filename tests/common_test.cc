#include <cstring>
#include <string>
#include <vector>

#include "common/bitutil.h"
#include "common/buffer.h"
#include "common/crc32.h"
#include "common/date.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/value.h"
#include "gtest/gtest.h"

namespace vwise {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk gone");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk gone");
  EXPECT_EQ(s.ToString(), "IOError: disk gone");
}

TEST(StatusTest, CopyShares) {
  Status s = Status::Corruption("bad block");
  Status t = s;
  EXPECT_TRUE(t.IsCorruption());
  EXPECT_EQ(t.message(), "bad block");
}

TEST(StatusTest, ConflictPredicate) {
  EXPECT_TRUE(Status::TransactionConflict("x").IsConflict());
  EXPECT_FALSE(Status::IOError("x").IsConflict());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(BufferTest, AlignedAndSized) {
  auto buf = Buffer::Allocate(1000);
  EXPECT_EQ(buf->capacity(), 1000u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf->data()) % Buffer::kAlignment, 0u);
}

TEST(BufferTest, ZeroCapacity) {
  auto buf = Buffer::Allocate(0);
  EXPECT_NE(buf->data(), nullptr);
}

TEST(BufferTest, ZeroedIsZero) {
  auto buf = Buffer::AllocateZeroed(512);
  for (size_t i = 0; i < 512; i++) EXPECT_EQ(buf->data()[i], 0);
}

TEST(BitUtilTest, BitWidth) {
  EXPECT_EQ(bit::BitWidth(0), 0);
  EXPECT_EQ(bit::BitWidth(1), 1);
  EXPECT_EQ(bit::BitWidth(2), 2);
  EXPECT_EQ(bit::BitWidth(255), 8);
  EXPECT_EQ(bit::BitWidth(256), 9);
  EXPECT_EQ(bit::BitWidth(~uint64_t{0}), 64);
}

TEST(BitUtilTest, ZigZagRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{12345},
                    int64_t{-987654321}, std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(bit::ZigZagDecode(bit::ZigZagEncode(v)), v);
  }
}

TEST(BitUtilTest, PackUnpackAllWidths) {
  Rng rng(7);
  for (int width = 0; width <= 64; width++) {
    const size_t n = 300;
    std::vector<uint64_t> in(n), out(n);
    uint64_t mask = width == 64 ? ~uint64_t{0}
                                : ((uint64_t{1} << width) - 1);
    for (size_t i = 0; i < n; i++) in[i] = rng.Next() & mask;
    std::vector<uint8_t> packed(bit::PackedSize(n, width));
    bit::PackBits(in.data(), n, width, packed.data());
    bit::UnpackKernel<uint64_t>(width)(packed.data(), 0, n, 0, out.data());
    EXPECT_EQ(in, out) << "width=" << width;
  }
}

TEST(DateTest, RoundTripKnownDates) {
  EXPECT_EQ(date::FromYMD(1970, 1, 1), 0);
  EXPECT_EQ(date::FromYMD(1970, 1, 2), 1);
  EXPECT_EQ(date::ToString(date::Parse("1992-01-01")), "1992-01-01");
  EXPECT_EQ(date::ToString(date::Parse("1998-12-31")), "1998-12-31");
  EXPECT_EQ(date::ToString(date::Parse("1996-02-29")), "1996-02-29");
}

TEST(DateTest, OrderingMatchesCalendar) {
  EXPECT_LT(date::Parse("1994-01-01"), date::Parse("1995-01-01"));
  EXPECT_LT(date::Parse("1994-12-31"), date::Parse("1995-01-01"));
}

TEST(DateTest, ExtractYearMonth) {
  int32_t d = date::Parse("1995-09-17");
  EXPECT_EQ(date::ExtractYear(d), 1995);
  EXPECT_EQ(date::ExtractMonth(d), 9);
}

TEST(DateTest, AddMonthsClampsDay) {
  // Jan 31 + 1 month = Feb 28 (non-leap).
  EXPECT_EQ(date::ToString(date::AddMonths(date::Parse("1995-01-31"), 1)),
            "1995-02-28");
  EXPECT_EQ(date::ToString(date::AddMonths(date::Parse("1996-01-31"), 1)),
            "1996-02-29");
  EXPECT_EQ(date::ToString(date::AddMonths(date::Parse("1995-11-15"), 3)),
            "1996-02-15");
}

TEST(DateTest, AddYears) {
  EXPECT_EQ(date::ToString(date::AddYears(date::Parse("1993-06-17"), 2)),
            "1995-06-17");
}

TEST(DateTest, AllDaysRoundTrip1992to1999) {
  for (int32_t d = date::Parse("1992-01-01"); d <= date::Parse("1999-01-01");
       d++) {
    date::YMD ymd = date::ToYMD(d);
    EXPECT_EQ(date::FromYMD(ymd.year, ymd.month, ymd.day), d);
  }
}

TEST(Crc32Test, MatchesKnownVector) {
  // CRC32("123456789") = 0xCBF43926 for the ISO-HDLC polynomial.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

// The bytewise CRC-32 loop, one table lookup per byte: the reference the
// slice-by-8 Crc32 must equal bit for bit.
uint32_t BytewiseCrc32(const uint8_t* p, size_t len, uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < len; i++) c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

TEST(Crc32Test, SliceBy8MatchesBytewise) {
  Rng rng(42);
  std::vector<uint8_t> buf(64 * 1024 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t off = 0; off < 8; off++) {
    const uint8_t* p = buf.data() + off;
    for (size_t len = 0; len <= 300; len++) {
      ASSERT_EQ(Crc32(p, len), BytewiseCrc32(p, len, 0))
          << "offset " << off << " length " << len;
    }
    EXPECT_EQ(Crc32(p, 64 * 1024), BytewiseCrc32(p, 64 * 1024, 0)) << off;
    // A seed continues a running CRC: two pieces equal the whole.
    uint32_t head = Crc32(p, 100 + off);
    EXPECT_EQ(Crc32(p + 100 + off, 1000, head), Crc32(p, 1100 + off)) << off;
    EXPECT_EQ(Crc32(p, 77, 0x12345678u), BytewiseCrc32(p, 77, 0x12345678u));
  }
}

TEST(Crc32Test, DetectsBitFlip) {
  char buf[64];
  std::memset(buf, 0xab, sizeof(buf));
  uint32_t before = Crc32(buf, sizeof(buf));
  buf[17] ^= 1;
  EXPECT_NE(Crc32(buf, sizeof(buf)), before);
}

TEST(HashTest, IntAvalanche) {
  EXPECT_NE(HashInt(1), HashInt(2));
  // Murmur finalizer is a bijection with fixed point 0; nearby keys must
  // still scatter.
  EXPECT_NE(HashInt(1) >> 56, HashInt(2) >> 56);
}

TEST(HashTest, BytesDiffer) {
  EXPECT_NE(HashBytes("abc", 3), HashBytes("abd", 3));
  EXPECT_EQ(HashBytes("abc", 3), HashBytes("abc", 3));
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; i++) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Int(7), Value::Int(7));
  EXPECT_FALSE(Value::Int(7) == Value::Double(7));
}

}  // namespace
}  // namespace vwise
