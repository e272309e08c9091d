#ifndef VWISE_COMMON_JSON_H_
#define VWISE_COMMON_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace vwise {

// Minimal JSON document builder/serializer for the repo benchmark's result
// line (perfbench/). Write-oriented: the caller builds a tree and calls
// ToString(); there is deliberately no parser (whoever reads the line, e.g.
// perfbench/tests/selftest.py, uses a real one). Object keys keep insertion
// order so results diff cleanly across runs.
class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kStr, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Int(int64_t v);
  static Json Double(double v);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Kind kind() const { return kind_; }

  // Object access. Set replaces an existing key in place (order preserved).
  Json& Set(const std::string& key, Json value);
  // Returns the value for `key`, or nullptr (object-kind only).
  const Json* Find(const std::string& key) const;

  // Array access.
  Json& Append(Json value);
  size_t size() const { return items_.size(); }
  const Json& at(size_t i) const { return items_[i]; }

  // Serialization. indent > 0 pretty-prints with that many spaces per level;
  // indent == 0 emits a compact single line. Non-finite doubles serialize as
  // null (JSON has no NaN/Inf).
  std::string ToString(int indent = 2) const;

 private:
  void Render(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
  std::vector<Json> items_;                                // array
  std::vector<std::pair<std::string, Json>> members_;      // object
};

// Escapes `s` for inclusion in a JSON string literal (without quotes).
std::string JsonEscape(const std::string& s);

}  // namespace vwise

#endif  // VWISE_COMMON_JSON_H_
