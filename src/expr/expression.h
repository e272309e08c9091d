#ifndef VWISE_EXPR_EXPRESSION_H_
#define VWISE_EXPR_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "vector/chunk.h"

namespace vwise {

struct PrimitiveEntry;  // expr/primitive_registry.h

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// A vectorized scalar expression. Eval() computes the expression at the
// active positions (sel, n) of the input chunk, writing results *at those
// positions* of the output vector, which keeps every vector of a chunk
// position-aligned (see DataChunk). Nodes own scratch vectors allocated by
// Prepare(), so evaluation allocates nothing.
class Expr {
 public:
  explicit Expr(DataType type) : type_(type) {}
  virtual ~Expr() = default;

  const DataType& type() const { return type_; }
  TypeId physical() const { return type_.physical(); }

  // Allocates scratch for chunks of up to `capacity` rows. Must be called
  // (once) before Eval.
  virtual Status Prepare(size_t capacity);

  // Evaluates at positions (sel, n); sel == nullptr means positions [0, n).
  // On success *out points to a vector valid until the next Eval on this
  // node (either the node's scratch or an input column).
  virtual Status Eval(DataChunk& in, const sel_t* sel, size_t n,
                      Vector** out) = 0;

  // True for literal nodes; binary operators use this to bind col x val
  // primitives.
  virtual bool IsConstant() const { return false; }

 protected:
  DataType type_;
  Vector scratch_;
  size_t capacity_ = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

// References column `index` of the input chunk (zero copy).
class ColRefExpr final : public Expr {
 public:
  ColRefExpr(size_t index, DataType type) : Expr(type), index_(index) {}
  Status Prepare(size_t capacity) override;
  Status Eval(DataChunk& in, const sel_t* sel, size_t n, Vector** out) override;
  size_t index() const { return index_; }

 private:
  size_t index_;
  Vector ref_;
};

// A literal. The scratch vector is pre-filled at Prepare time, so Eval is
// free; binary operators instead bind val primitives and pass them `data()`.
class ConstExpr final : public Expr {
 public:
  ConstExpr(Value value, DataType type) : Expr(type), value_(std::move(value)) {}
  Status Prepare(size_t capacity) override;
  Status Eval(DataChunk& in, const sel_t* sel, size_t n, Vector** out) override;
  bool IsConstant() const override { return true; }

  const Value& value() const { return value_; }
  // The value in the physical type, valid after Prepare: a primitive's `val`
  // operand.
  const void* data() const { return scratch_.raw(); }

 private:
  Value value_;
  StringVal str_;
};

enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

// left OP right through the catalog's map_<op>_<ty>_... primitive, bound at
// Prepare; both children must have the same physical type, kI64 or kF64 (the
// plan builder inserts casts), or Prepare fails.
class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr left, ExprPtr right);
  Status Prepare(size_t capacity) override;
  Status Eval(DataChunk& in, const sel_t* sel, size_t n, Vector** out) override;

  ArithOp op() const { return op_; }
  const Expr& left() const { return *left_; }
  const Expr& right() const { return *right_; }

 private:
  ArithOp op_;
  ExprPtr left_, right_;
  const PrimitiveEntry* prim_ = nullptr;
  const void* val_ = nullptr;  // the constant operand, if any
  bool folded_ = false;        // const OP const, computed at Prepare
};

// Physical-representation casts. The target DataType determines semantics:
// decimal -> double divides by 10^scale, int casts widen, etc.
class CastExpr final : public Expr {
 public:
  CastExpr(ExprPtr input, DataType to);
  Status Prepare(size_t capacity) override;
  Status Eval(DataChunk& in, const sel_t* sel, size_t n, Vector** out) override;

  const Expr& input() const { return *input_; }

 private:
  ExprPtr input_;
  double decimal_factor_ = 1.0;
};

// EXTRACT(YEAR FROM date_expr) -> int64.
class YearExpr final : public Expr {
 public:
  explicit YearExpr(ExprPtr input);
  Status Prepare(size_t capacity) override;
  Status Eval(DataChunk& in, const sel_t* sel, size_t n, Vector** out) override;

  const Expr& input() const { return *input_; }

 private:
  ExprPtr input_;
};

// SUBSTRING(str_expr, start, len), 1-based start; zero-copy (points into the
// source string bytes).
class SubstrExpr final : public Expr {
 public:
  SubstrExpr(ExprPtr input, size_t start, size_t len);
  Status Prepare(size_t capacity) override;
  Status Eval(DataChunk& in, const sel_t* sel, size_t n, Vector** out) override;

  const Expr& input() const { return *input_; }

 private:
  ExprPtr input_;
  size_t start_, len_;
};

class Filter;  // below

// CASE WHEN cond THEN a ELSE b END. Evaluates both branches at all active
// positions, then overwrites the `then` values at positions selected by
// `cond`. Branches must share the expression's type.
class CaseExpr final : public Expr {
 public:
  CaseExpr(std::unique_ptr<Filter> cond, ExprPtr then_expr, ExprPtr else_expr);
  ~CaseExpr() override;
  Status Prepare(size_t capacity) override;
  Status Eval(DataChunk& in, const sel_t* sel, size_t n, Vector** out) override;

  const Filter& cond() const { return *cond_; }
  const Expr& then_expr() const { return *then_; }
  const Expr& else_expr() const { return *else_; }

 private:
  std::unique_ptr<Filter> cond_;
  ExprPtr then_, else_;
  std::shared_ptr<Buffer> cond_sel_;
};

// ---------------------------------------------------------------------------
// Filters (selection-vector producers)
// ---------------------------------------------------------------------------

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

// A predicate over a chunk. Select() writes the qualifying subset of the
// active positions (sel, n) into out_sel (ascending) and returns the count.
// Filters never modify the chunk.
class Filter {
 public:
  virtual ~Filter() = default;
  virtual Status Prepare(size_t capacity);
  virtual Status Select(DataChunk& in, const sel_t* sel, size_t n,
                        sel_t* out_sel, size_t* out_n) = 0;

 protected:
  size_t capacity_ = 0;
  std::shared_ptr<Buffer> tmp_sel_a_, tmp_sel_b_;
};

using FilterPtr = std::unique_ptr<Filter>;

// left CMP right through the catalog's sel_<cmp>_<ty>_... primitive, bound
// at Prepare. Works for all physical types, col x col and col x const.
class CmpFilter final : public Filter {
 public:
  CmpFilter(CmpOp op, ExprPtr left, ExprPtr right);
  Status Prepare(size_t capacity) override;
  Status Select(DataChunk& in, const sel_t* sel, size_t n, sel_t* out_sel,
                size_t* out_n) override;

  CmpOp op() const { return op_; }
  const Expr& left() const { return *left_; }
  const Expr& right() const { return *right_; }

 private:
  CmpOp op_;
  ExprPtr left_, right_;
  // Operands after Prepare's mirroring of "const OP col" to "col OP' const".
  Expr* l_ = nullptr;
  Expr* r_ = nullptr;
  const void* val_ = nullptr;  // r_'s value when r_ is a constant
  const PrimitiveEntry* bound_ = nullptr;
};

// Conjunction: filters applied in order, each narrowing the selection.
class AndFilter final : public Filter {
 public:
  explicit AndFilter(std::vector<FilterPtr> children);
  Status Prepare(size_t capacity) override;
  Status Select(DataChunk& in, const sel_t* sel, size_t n, sel_t* out_sel,
                size_t* out_n) override;

  const std::vector<FilterPtr>& children() const { return children_; }

 private:
  std::vector<FilterPtr> children_;
};

// Disjunction: union (merge) of each child's qualifying positions.
class OrFilter final : public Filter {
 public:
  explicit OrFilter(std::vector<FilterPtr> children);
  Status Prepare(size_t capacity) override;
  Status Select(DataChunk& in, const sel_t* sel, size_t n, sel_t* out_sel,
                size_t* out_n) override;

  const std::vector<FilterPtr>& children() const { return children_; }

 private:
  std::vector<FilterPtr> children_;
  // Merge target for the ascending-union step, sized at Prepare so Select
  // stays allocation-free.
  std::shared_ptr<Buffer> merge_buf_;
};

// Complement of the child filter within the active positions.
class NotFilter final : public Filter {
 public:
  explicit NotFilter(FilterPtr child);
  Status Prepare(size_t capacity) override;
  Status Select(DataChunk& in, const sel_t* sel, size_t n, sel_t* out_sel,
                size_t* out_n) override;

  const Filter& child() const { return *child_; }

 private:
  FilterPtr child_;
};

// expr IN (v1, v2, ...). Linear membership test; the value lists in
// analytical predicates are short.
class InFilter final : public Filter {
 public:
  InFilter(ExprPtr input, std::vector<Value> values, bool negate = false);
  Status Prepare(size_t capacity) override;
  Status Select(DataChunk& in, const sel_t* sel, size_t n, sel_t* out_sel,
                size_t* out_n) override;

  const Expr& input() const { return *input_; }
  const std::vector<Value>& values() const { return values_; }
  bool negate() const { return negate_; }

 private:
  ExprPtr input_;
  std::vector<Value> values_;
  std::vector<int64_t> ints_;
  std::vector<std::string> strings_;
  bool negate_;
};

// SQL LIKE with % (any run) and _ (any one char).
class LikeFilter final : public Filter {
 public:
  LikeFilter(ExprPtr input, std::string pattern, bool negate = false);
  Status Prepare(size_t capacity) override;
  Status Select(DataChunk& in, const sel_t* sel, size_t n, sel_t* out_sel,
                size_t* out_n) override;

  // Exposed for tests.
  static bool Match(std::string_view s, std::string_view pattern);

  const Expr& input() const { return *input_; }
  const std::string& pattern() const { return pattern_; }
  bool negate() const { return negate_; }

 private:
  ExprPtr input_;
  std::string pattern_;
  bool negate_;
};

// ---------------------------------------------------------------------------
// Construction helpers (the plan-builder DSL uses these heavily)
// ---------------------------------------------------------------------------

namespace e {

ExprPtr Col(size_t index, DataType type);
ExprPtr I64(int64_t v);
ExprPtr F64(double v);
ExprPtr Str(std::string v);
ExprPtr DateLit(const char* ymd);        // "YYYY-MM-DD" -> date constant
ExprPtr Dec(double v, uint8_t scale);    // decimal constant from double
ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);
ExprPtr Div(ExprPtr l, ExprPtr r);
ExprPtr Cast(ExprPtr x, DataType to);
ExprPtr ToF64(ExprPtr x);                // cast honoring decimal scale
ExprPtr Year(ExprPtr x);
ExprPtr Substr(ExprPtr x, size_t start, size_t len);
ExprPtr Case(FilterPtr cond, ExprPtr then_expr, ExprPtr else_expr);

FilterPtr Cmp(CmpOp op, ExprPtr l, ExprPtr r);
FilterPtr Eq(ExprPtr l, ExprPtr r);
FilterPtr Ne(ExprPtr l, ExprPtr r);
FilterPtr Lt(ExprPtr l, ExprPtr r);
FilterPtr Le(ExprPtr l, ExprPtr r);
FilterPtr Gt(ExprPtr l, ExprPtr r);
FilterPtr Ge(ExprPtr l, ExprPtr r);
FilterPtr And(std::vector<FilterPtr> children);
FilterPtr Or(std::vector<FilterPtr> children);
FilterPtr Not(FilterPtr f);
FilterPtr In(ExprPtr x, std::vector<Value> values);
FilterPtr NotIn(ExprPtr x, std::vector<Value> values);
FilterPtr Like(ExprPtr x, std::string pattern);
FilterPtr NotLike(ExprPtr x, std::string pattern);

}  // namespace e

}  // namespace vwise

#endif  // VWISE_EXPR_EXPRESSION_H_
