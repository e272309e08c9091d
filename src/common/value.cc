#include "common/value.h"

#include <cstdio>
#include <cstring>
#include <limits>

namespace vwise {

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "NULL";
    case Kind::kInt:
      return std::to_string(i_);
    case Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", d_);
      return buf;
    }
    case Kind::kString:
      return s_;
  }
  return "?";
}

namespace {

int KindRank(Value::Kind k) { return static_cast<int>(k); }

// -0.0 folded into +0.0 and every NaN into one positive quiet NaN, then the
// sign-adjusted bit pattern: numeric order, with NaN after +inf.
uint64_t DoubleOrderKey(double d) {
  if (d == 0.0) d = 0.0;
  if (d != d) d = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return (bits & (uint64_t{1} << 63)) != 0 ? ~bits
                                           : bits | (uint64_t{1} << 63);
}

}  // namespace

int Compare(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    return KindRank(a.kind()) < KindRank(b.kind()) ? -1 : 1;
  }
  switch (a.kind()) {
    case Value::Kind::kNull:
      return 0;
    case Value::Kind::kInt:
      return a.AsInt() < b.AsInt() ? -1 : a.AsInt() > b.AsInt() ? 1 : 0;
    case Value::Kind::kDouble: {
      const uint64_t x = DoubleOrderKey(a.AsDouble());
      const uint64_t y = DoubleOrderKey(b.AsDouble());
      return x < y ? -1 : x > y ? 1 : 0;
    }
    case Value::Kind::kString:
      return a.AsString().compare(b.AsString());
  }
  return 0;
}

std::string KeyText(const Value& v) {
  if (v.kind() != Value::Kind::kDouble) return v.ToString();
  double d = v.AsDouble();
  if (d != d) return "nan";  // glibc prints a sign-bit NaN as "-nan"
  if (d == 0.0) d = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

}  // namespace vwise
