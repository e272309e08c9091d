#ifndef VWISE_COMMON_VALUE_H_
#define VWISE_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/macros.h"
#include "vector/types.h"

namespace vwise {

// Boundary value type used at the API surface (query results, test oracles,
// literal constants). Never used on the hot execution path.
class Value {
 public:
  enum class Kind : uint8_t { kNull, kInt, kDouble, kString };

  Value() : kind_(Kind::kNull) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value r;
    r.kind_ = Kind::kInt;
    r.i_ = v;
    return r;
  }
  static Value Double(double v) {
    Value r;
    r.kind_ = Kind::kDouble;
    r.d_ = v;
    return r;
  }
  static Value String(std::string v) {
    Value r;
    r.kind_ = Kind::kString;
    r.s_ = std::move(v);
    return r;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  int64_t AsInt() const {
    VWISE_CHECK(kind_ == Kind::kInt);
    return i_;
  }
  double AsDouble() const {
    VWISE_CHECK(kind_ == Kind::kDouble || kind_ == Kind::kInt);
    return kind_ == Kind::kDouble ? d_ : static_cast<double>(i_);
  }
  const std::string& AsString() const {
    VWISE_CHECK(kind_ == Kind::kString);
    return s_;
  }

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case Kind::kNull:
        return true;
      case Kind::kInt:
        return a.i_ == b.i_;
      case Kind::kDouble:
        return a.d_ == b.d_;
      case Kind::kString:
        return a.s_ == b.s_;
    }
    return false;
  }

 private:
  Kind kind_;
  int64_t i_ = 0;
  double d_ = 0;
  std::string s_;
};

// Total order over values: kind rank first (null < int < double < string),
// then the value itself. Doubles follow the engine's f64 key rule: -0.0
// equals +0.0, every NaN equals every other NaN and sorts after every
// number. Used by the baseline engines and the tests for canonical row
// ordering — never on the hot execution path.
int Compare(const Value& a, const Value& b);

// Hash-key text of a value for the baseline engines: two values get the
// same text iff they are equal keys under Compare (doubles print
// losslessly, -0.0 folds into +0.0 and every NaN prints alike).
std::string KeyText(const Value& v);

}  // namespace vwise

#endif  // VWISE_COMMON_VALUE_H_
