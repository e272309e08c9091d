#include "expr/expression.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/date.h"
#include "expr/primitive_profiler.h"
#include "expr/primitive_registry.h"
#include "expr/primitives.h"

namespace vwise {

// ---------------------------------------------------------------------------
// Expr base
// ---------------------------------------------------------------------------

Status Expr::Prepare(size_t capacity) {
  capacity_ = capacity;
  scratch_.Init(physical(), capacity);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ColRefExpr
// ---------------------------------------------------------------------------

Status ColRefExpr::Prepare(size_t capacity) {
  capacity_ = capacity;  // no scratch needed
  return Status::OK();
}

Status ColRefExpr::Eval(DataChunk& in, const sel_t* sel, size_t n,
                        Vector** out) {
  (void)sel;
  (void)n;
  if (index_ >= in.num_columns()) {
    return Status::Internal("column reference out of range");
  }
  Vector& col = in.column(index_);
  if (col.type() != physical()) {
    return Status::Internal("column reference type mismatch");
  }
  *out = &col;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ConstExpr
// ---------------------------------------------------------------------------

Status ConstExpr::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Expr::Prepare(capacity));
  DispatchType(physical(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    T v;
    if constexpr (std::is_same_v<T, StringVal>) {
      // Copy the bytes into the scratch vector's own heap so the emitted
      // vector upholds the string-liveness contract (a chunk referencing
      // this column carries the heap, not a pointer into this node).
      str_ = scratch_.GetStringHeap()->Add(value_.AsString());
      v = str_;
    } else {
      v = value_.AsNumber<T>();
    }
    std::fill_n(scratch_.Data<T>(), capacity, v);
  });
  return Status::OK();
}

Status ConstExpr::Eval(DataChunk& in, const sel_t* sel, size_t n,
                       Vector** out) {
  (void)in;
  (void)sel;
  (void)n;
  *out = &scratch_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Primitive binding
// ---------------------------------------------------------------------------

namespace {

const char* const kArithOpTokens[] = {"add", "sub", "mul", "div"};
const char* const kCmpOpTokens[] = {"eq", "ne", "lt", "le", "gt", "ge"};

// Binds the catalog entry <prefix>_<op>_<lty>_<lkind>_<rty>_<rkind> (the
// name grammar of expr/primitive_catalog.inc). A combination the catalog
// does not list has no kernel, and the expression cannot run.
Status BindPrimitive(const char* prefix, const char* op, TypeId lty,
                     const char* lkind, TypeId rty, const char* rkind,
                     const PrimitiveEntry** out) {
  std::string name = prefix;
  for (const char* part : {op, TypeIdToString(lty), lkind,
                           TypeIdToString(rty), rkind}) {
    name += "_";
    name += part;
  }
  *out = PrimitiveRegistry::Find(name);
  if (*out == nullptr) {
    std::string msg = "no catalog primitive ";
    msg += name;
    return Status::NotImplemented(std::move(msg));
  }
  return Status::OK();
}

const void* ValOperand(const Expr& node) {
  return static_cast<const ConstExpr&>(node).data();
}

DataType ArithResultType(const ExprPtr& l, const ExprPtr& r) {
  // Children have been cast to a common physical type by the builder; the
  // logical result follows the left child (decimals are cast to double
  // before arithmetic, so scales never mix).
  (void)r;
  return l->type();
}

}  // namespace

// ---------------------------------------------------------------------------
// ArithExpr
// ---------------------------------------------------------------------------

ArithExpr::ArithExpr(ArithOp op, ExprPtr left, ExprPtr right)
    : Expr(ArithResultType(left, right)),
      op_(op),
      left_(std::move(left)),
      right_(std::move(right)) {}

Status ArithExpr::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Expr::Prepare(capacity));
  VWISE_RETURN_IF_ERROR(left_->Prepare(capacity));
  VWISE_RETURN_IF_ERROR(right_->Prepare(capacity));
  const bool lc = left_->IsConstant();
  const bool rc = right_->IsConstant();
  folded_ = lc && rc;
  VWISE_RETURN_IF_ERROR(BindPrimitive(
      "map", kArithOpTokens[static_cast<int>(op_)], left_->physical(),
      lc && !rc ? "val" : "col", right_->physical(), rc && !lc ? "val" : "col",
      &prim_));
  if (folded_) {
    // Constant folding (the builder does not fold): the col x col kernel
    // runs once here over the constants' pre-filled scratch vectors; no
    // primitive runs per vector, so nothing is recorded.
    prim_->map(ValOperand(*left_), ValOperand(*right_), scratch_.raw(),
               nullptr, capacity);
  }
  val_ = lc ? ValOperand(*left_) : rc ? ValOperand(*right_) : nullptr;
  return Status::OK();
}

Status ArithExpr::Eval(DataChunk& in, const sel_t* sel, size_t n,
                       Vector** out) {
  *out = &scratch_;
  if (folded_) return Status::OK();
  const void* a = val_;
  const void* b = val_;
  Vector* v = nullptr;
  if (!left_->IsConstant()) {
    VWISE_RETURN_IF_ERROR(left_->Eval(in, sel, n, &v));
    a = v->raw();
  }
  if (!right_->IsConstant()) {
    VWISE_RETURN_IF_ERROR(right_->Eval(in, sel, n, &v));
    b = v->raw();
  }
  PrimProfileScope prof(prim_->id, n);
  prim_->map(a, b, scratch_.raw(), sel, n);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CastExpr
// ---------------------------------------------------------------------------

CastExpr::CastExpr(ExprPtr input, DataType to) : Expr(to), input_(std::move(input)) {
  if (input_->type().kind == LType::kDecimal && to.kind == LType::kDouble) {
    decimal_factor_ = 1.0;
    for (int i = 0; i < input_->type().scale; i++) decimal_factor_ *= 10.0;
  }
}

Status CastExpr::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Expr::Prepare(capacity));
  return input_->Prepare(capacity);
}

namespace {

struct OpI32ToI64 {
  int64_t operator()(int32_t v) const { return v; }
};
struct OpI32ToF64 {
  double operator()(int32_t v) const { return v; }
};
struct OpI64ToF64 {
  double operator()(int64_t v) const { return static_cast<double>(v); }
};
struct OpU8ToI64 {
  int64_t operator()(uint8_t v) const { return v; }
};

}  // namespace

Status CastExpr::Eval(DataChunk& in, const sel_t* sel, size_t n, Vector** out) {
  Vector* iv = nullptr;
  VWISE_RETURN_IF_ERROR(input_->Eval(in, sel, n, &iv));
  TypeId from = input_->physical();
  TypeId to = physical();
  if (from == to) {
    // Logical-only cast (e.g. DATE -> INT32 reinterpretation).
    scratch_.Reference(*iv);
    *out = &scratch_;
    return Status::OK();
  }
  if (from == TypeId::kI32 && to == TypeId::kI64) {
    prim::MapUnary<int64_t, int32_t, OpI32ToI64>(iv->Data<int32_t>(),
                                                 scratch_.Data<int64_t>(), sel, n);
  } else if (from == TypeId::kI32 && to == TypeId::kF64) {
    prim::MapUnary<double, int32_t, OpI32ToF64>(iv->Data<int32_t>(),
                                                scratch_.Data<double>(), sel, n);
  } else if (from == TypeId::kI64 && to == TypeId::kF64) {
    if (decimal_factor_ != 1.0) {
      prim::MapColVal<double, int64_t, double, prim::OpDiv>(
          iv->Data<int64_t>(), decimal_factor_, scratch_.Data<double>(), sel, n);
    } else {
      prim::MapUnary<double, int64_t, OpI64ToF64>(iv->Data<int64_t>(),
                                                  scratch_.Data<double>(), sel, n);
    }
  } else if (from == TypeId::kU8 && to == TypeId::kI64) {
    prim::MapUnary<int64_t, uint8_t, OpU8ToI64>(iv->Data<uint8_t>(),
                                                scratch_.Data<int64_t>(), sel, n);
  } else {
    return Status::NotImplemented("unsupported cast");
  }
  *out = &scratch_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// YearExpr
// ---------------------------------------------------------------------------

YearExpr::YearExpr(ExprPtr input) : Expr(DataType::Int64()), input_(std::move(input)) {
  VWISE_CHECK_MSG(input_->physical() == TypeId::kI32, "YEAR requires a date input");
}

Status YearExpr::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Expr::Prepare(capacity));
  return input_->Prepare(capacity);
}

namespace {
struct OpYear {
  int64_t operator()(int32_t days) const { return date::ExtractYear(days); }
};
}  // namespace

Status YearExpr::Eval(DataChunk& in, const sel_t* sel, size_t n, Vector** out) {
  Vector* iv = nullptr;
  VWISE_RETURN_IF_ERROR(input_->Eval(in, sel, n, &iv));
  prim::MapUnary<int64_t, int32_t, OpYear>(iv->Data<int32_t>(),
                                           scratch_.Data<int64_t>(), sel, n);
  *out = &scratch_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SubstrExpr
// ---------------------------------------------------------------------------

SubstrExpr::SubstrExpr(ExprPtr input, size_t start, size_t len)
    : Expr(DataType::Varchar()), input_(std::move(input)), start_(start), len_(len) {
  VWISE_CHECK_MSG(start_ >= 1, "SUBSTRING start is 1-based");
}

Status SubstrExpr::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Expr::Prepare(capacity));
  return input_->Prepare(capacity);
}

Status SubstrExpr::Eval(DataChunk& in, const sel_t* sel, size_t n, Vector** out) {
  // Drop the previous chunk's heap references first — the result only needs
  // this chunk's input alive, and carrying old refs across chunks would pin
  // every heap the scan ever produced.
  scratch_.ClearHeapRefs();
  Vector* iv = nullptr;
  VWISE_RETURN_IF_ERROR(input_->Eval(in, sel, n, &iv));
  const StringVal* src = iv->Data<StringVal>();
  StringVal* dst = scratch_.Data<StringVal>();
  size_t off = start_ - 1;
  auto one = [&](sel_t p) {
    const StringVal& s = src[p];
    if (off >= s.len) {
      dst[p] = StringVal(s.ptr, 0);
    } else {
      uint32_t avail = s.len - static_cast<uint32_t>(off);
      uint32_t take = static_cast<uint32_t>(len_) < avail
                          ? static_cast<uint32_t>(len_)
                          : avail;
      dst[p] = StringVal(s.ptr + off, take);  // zero copy into source bytes
    }
  };
  if (sel == nullptr) {
    for (size_t i = 0; i < n; i++) one(static_cast<sel_t>(i));
  } else {
    for (size_t i = 0; i < n; i++) one(sel[i]);
  }
  // The result aliases the input's bytes; carry its heap references along.
  scratch_.AddHeapsFrom(*iv);
  *out = &scratch_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CaseExpr
// ---------------------------------------------------------------------------

CaseExpr::CaseExpr(std::unique_ptr<Filter> cond, ExprPtr then_expr, ExprPtr else_expr)
    : Expr(then_expr->type()),
      cond_(std::move(cond)),
      then_(std::move(then_expr)),
      else_(std::move(else_expr)) {
  VWISE_CHECK_MSG(then_->physical() == else_->physical(),
                  "CASE branches must share a type");
}

CaseExpr::~CaseExpr() = default;

Status CaseExpr::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Expr::Prepare(capacity));
  VWISE_RETURN_IF_ERROR(cond_->Prepare(capacity));
  VWISE_RETURN_IF_ERROR(then_->Prepare(capacity));
  VWISE_RETURN_IF_ERROR(else_->Prepare(capacity));
  cond_sel_ = Buffer::Allocate(capacity * sizeof(sel_t));
  return Status::OK();
}

namespace {

template <typename T>
void CopyAtPositions(const Vector& src, Vector* dst, const sel_t* sel, size_t n) {
  const T* s = src.Data<T>();
  T* d = dst->Data<T>();
  if (sel == nullptr) {
    for (size_t i = 0; i < n; i++) d[i] = s[i];
  } else {
    for (size_t i = 0; i < n; i++) {
      sel_t p = sel[i];
      d[p] = s[p];
    }
  }
}

void CopyAtPositionsDispatch(const Vector& src, Vector* dst, const sel_t* sel,
                             size_t n) {
  DispatchType(src.type(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    CopyAtPositions<T>(src, dst, sel, n);
  });
}

}  // namespace

Status CaseExpr::Eval(DataChunk& in, const sel_t* sel, size_t n, Vector** out) {
  // Drop last chunk's heap references so the string branch below reuses the
  // scratch vector's own heap (Reset) instead of growing it every vector.
  scratch_.ClearHeapRefs();
  // 1. ELSE branch everywhere active.
  Vector* ev = nullptr;
  VWISE_RETURN_IF_ERROR(else_->Eval(in, sel, n, &ev));
  CopyAtPositionsDispatch(*ev, &scratch_, sel, n);
  // 2. THEN branch overwrites the condition-selected positions.
  sel_t* csel = cond_sel_->As<sel_t>();
  size_t k = 0;
  VWISE_RETURN_IF_ERROR(cond_->Select(in, sel, n, csel, &k));
  if (k > 0) {
    Vector* tv = nullptr;
    VWISE_RETURN_IF_ERROR(then_->Eval(in, csel, k, &tv));
    CopyAtPositionsDispatch(*tv, &scratch_, csel, k);
  }
  if (physical() == TypeId::kStr) {
    // StringVals may point into either branch's bytes; keep both alive by
    // copying into our own heap (CASE over strings is rare and cold).
    StringHeap* heap = scratch_.GetStringHeap();
    StringVal* d = scratch_.Data<StringVal>();
    auto copy_one = [&](sel_t p) { d[p] = heap->Add(d[p].view()); };
    if (sel == nullptr) {
      for (size_t i = 0; i < n; i++) copy_one(static_cast<sel_t>(i));
    } else {
      for (size_t i = 0; i < n; i++) copy_one(sel[i]);
    }
  }
  *out = &scratch_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Filter base
// ---------------------------------------------------------------------------

Status Filter::Prepare(size_t capacity) {
  capacity_ = capacity;
  tmp_sel_a_ = Buffer::Allocate(capacity * sizeof(sel_t));
  tmp_sel_b_ = Buffer::Allocate(capacity * sizeof(sel_t));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CmpFilter
// ---------------------------------------------------------------------------

CmpFilter::CmpFilter(CmpOp op, ExprPtr left, ExprPtr right)
    : op_(op), left_(std::move(left)), right_(std::move(right)) {}

namespace {

CmpOp MirrorOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;
  }
}

}  // namespace

Status CmpFilter::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Filter::Prepare(capacity));
  VWISE_RETURN_IF_ERROR(left_->Prepare(capacity));
  VWISE_RETURN_IF_ERROR(right_->Prepare(capacity));
  // Normalize "const OP col" to "col OP' const" so only col x val kernels
  // are needed. A constant left with a constant right stays: ConstExpr's
  // pre-filled scratch serves as the "column".
  l_ = left_.get();
  r_ = right_.get();
  CmpOp op = op_;
  if (l_->IsConstant() && !r_->IsConstant()) {
    std::swap(l_, r_);
    op = MirrorOp(op);
  }
  const char* op_token = kCmpOpTokens[static_cast<int>(op)];
  val_ = r_->IsConstant() ? ValOperand(*r_) : nullptr;
  return BindPrimitive("sel", op_token, l_->physical(), "col", r_->physical(),
                       val_ ? "val" : "col", &bound_);
}

Status CmpFilter::Select(DataChunk& in, const sel_t* sel, size_t n,
                         sel_t* out_sel, size_t* out_n) {
  const void* b = val_;
  Vector* lv = nullptr;
  VWISE_RETURN_IF_ERROR(l_->Eval(in, sel, n, &lv));
  if (b == nullptr) {
    Vector* rv = nullptr;
    VWISE_RETURN_IF_ERROR(r_->Eval(in, sel, n, &rv));
    b = rv->raw();
  }
  PrimProfileScope prof(bound_->id, n);
  *out_n = bound_->select(lv->raw(), b, sel, n, out_sel);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// AndFilter / OrFilter / NotFilter
// ---------------------------------------------------------------------------

AndFilter::AndFilter(std::vector<FilterPtr> children)
    : children_(std::move(children)) {
  VWISE_CHECK(!children_.empty());
}

Status AndFilter::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Filter::Prepare(capacity));
  for (auto& c : children_) VWISE_RETURN_IF_ERROR(c->Prepare(capacity));
  return Status::OK();
}

Status AndFilter::Select(DataChunk& in, const sel_t* sel, size_t n,
                         sel_t* out_sel, size_t* out_n) {
  // Apply children in order, each narrowing the active set. Ping-pong
  // between a scratch buffer and out_sel so the final result lands in
  // out_sel regardless of child count.
  sel_t* bufs[2] = {tmp_sel_a_->As<sel_t>(), out_sel};
  const sel_t* cur_sel = sel;
  size_t cur_n = n;
  // Choose starting buffer so the last write hits out_sel.
  int idx = (children_.size() % 2 == 0) ? 0 : 1;
  for (auto& c : children_) {
    size_t k = 0;
    // vwise-hotpath: allow(virtual-in-loop): loop over conjuncts, not
    // tuples — each Select filters a full vector
    VWISE_RETURN_IF_ERROR(c->Select(in, cur_sel, cur_n, bufs[idx], &k));
    cur_sel = bufs[idx];
    cur_n = k;
    idx ^= 1;
    if (cur_n == 0) break;
  }
  if (cur_sel != out_sel && cur_n > 0) {
    std::memcpy(out_sel, cur_sel, cur_n * sizeof(sel_t));
  }
  *out_n = cur_n;
  return Status::OK();
}

OrFilter::OrFilter(std::vector<FilterPtr> children)
    : children_(std::move(children)) {
  VWISE_CHECK(!children_.empty());
}

Status OrFilter::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Filter::Prepare(capacity));
  for (auto& c : children_) VWISE_RETURN_IF_ERROR(c->Prepare(capacity));
  merge_buf_ = Buffer::Allocate(capacity * sizeof(sel_t));
  return Status::OK();
}

Status OrFilter::Select(DataChunk& in, const sel_t* sel, size_t n,
                        sel_t* out_sel, size_t* out_n) {
  // Union of children's qualifying positions: evaluate each child against
  // the full active set and merge the ascending results.
  sel_t* acc = tmp_sel_a_->As<sel_t>();
  sel_t* child_buf = tmp_sel_b_->As<sel_t>();
  size_t acc_n = 0;
  VWISE_RETURN_IF_ERROR(children_[0]->Select(in, sel, n, acc, &acc_n));
  // The union of two ascending position lists has at most n entries (both
  // draw from the same (sel, n) active set), so the Prepare-sized merge
  // buffer always fits and Select allocates nothing.
  sel_t* merged = merge_buf_->As<sel_t>();
  for (size_t ci = 1; ci < children_.size(); ci++) {
    size_t k = 0;
    // vwise-hotpath: allow(virtual-in-loop): loop over disjuncts, not
    // tuples — each Select filters a full vector
    VWISE_RETURN_IF_ERROR(children_[ci]->Select(in, sel, n, child_buf, &k));
    size_t m = 0;
    size_t i = 0, j = 0;
    while (i < acc_n && j < k) {
      if (acc[i] < child_buf[j]) {
        merged[m++] = acc[i++];
      } else if (acc[i] > child_buf[j]) {
        merged[m++] = child_buf[j++];
      } else {
        merged[m++] = acc[i];
        i++;
        j++;
      }
    }
    while (i < acc_n) merged[m++] = acc[i++];
    while (j < k) merged[m++] = child_buf[j++];
    acc_n = m;
    if (acc_n != 0) std::memcpy(acc, merged, acc_n * sizeof(sel_t));
  }
  if (acc_n != 0) std::memcpy(out_sel, acc, acc_n * sizeof(sel_t));
  *out_n = acc_n;
  return Status::OK();
}

NotFilter::NotFilter(FilterPtr child) : child_(std::move(child)) {}

Status NotFilter::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Filter::Prepare(capacity));
  return child_->Prepare(capacity);
}

Status NotFilter::Select(DataChunk& in, const sel_t* sel, size_t n,
                         sel_t* out_sel, size_t* out_n) {
  sel_t* hit = tmp_sel_a_->As<sel_t>();
  size_t k = 0;
  VWISE_RETURN_IF_ERROR(child_->Select(in, sel, n, hit, &k));
  // Complement within (sel, n): both lists are ascending.
  size_t o = 0, j = 0;
  for (size_t i = 0; i < n; i++) {
    sel_t p = sel ? sel[i] : static_cast<sel_t>(i);
    if (j < k && hit[j] == p) {
      j++;
    } else {
      out_sel[o++] = p;
    }
  }
  *out_n = o;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// InFilter
// ---------------------------------------------------------------------------

InFilter::InFilter(ExprPtr input, std::vector<Value> values, bool negate)
    : input_(std::move(input)), values_(std::move(values)), negate_(negate) {
  for (const Value& v : values_) {
    if (v.kind() == Value::Kind::kString) {
      strings_.push_back(v.AsString());
    } else {
      ints_.push_back(v.AsInt());
    }
  }
}

Status InFilter::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Filter::Prepare(capacity));
  return input_->Prepare(capacity);
}

Status InFilter::Select(DataChunk& in, const sel_t* sel, size_t n,
                        sel_t* out_sel, size_t* out_n) {
  Vector* iv = nullptr;
  VWISE_RETURN_IF_ERROR(input_->Eval(in, sel, n, &iv));
  size_t k = 0;
  auto emit = [&](sel_t p, bool member) {
    out_sel[k] = p;
    k += (member != negate_);
  };
  switch (input_->physical()) {
    case TypeId::kStr: {
      const StringVal* d = iv->Data<StringVal>();
      for (size_t i = 0; i < n; i++) {
        sel_t p = sel ? sel[i] : static_cast<sel_t>(i);
        bool member = false;
        for (const std::string& s : strings_) {
          if (d[p].view() == s) {
            member = true;
            break;
          }
        }
        emit(p, member);
      }
      break;
    }
    case TypeId::kI32: {
      const int32_t* d = iv->Data<int32_t>();
      for (size_t i = 0; i < n; i++) {
        sel_t p = sel ? sel[i] : static_cast<sel_t>(i);
        bool member = false;
        for (int64_t v : ints_) {
          if (d[p] == v) {
            member = true;
            break;
          }
        }
        emit(p, member);
      }
      break;
    }
    case TypeId::kI64: {
      const int64_t* d = iv->Data<int64_t>();
      for (size_t i = 0; i < n; i++) {
        sel_t p = sel ? sel[i] : static_cast<sel_t>(i);
        bool member = false;
        for (int64_t v : ints_) {
          if (d[p] == v) {
            member = true;
            break;
          }
        }
        emit(p, member);
      }
      break;
    }
    default:
      return Status::NotImplemented("IN on this type");
  }
  *out_n = k;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// LikeFilter
// ---------------------------------------------------------------------------

LikeFilter::LikeFilter(ExprPtr input, std::string pattern, bool negate)
    : input_(std::move(input)), pattern_(std::move(pattern)), negate_(negate) {
  VWISE_CHECK_MSG(input_->physical() == TypeId::kStr, "LIKE requires a string");
}

Status LikeFilter::Prepare(size_t capacity) {
  VWISE_RETURN_IF_ERROR(Filter::Prepare(capacity));
  return input_->Prepare(capacity);
}

bool LikeFilter::Match(std::string_view s, std::string_view pattern) {
  // Iterative wildcard match with single-level backtracking: on mismatch,
  // retry from the last '%' with the string position advanced.
  size_t si = 0, pi = 0;
  size_t star_p = std::string_view::npos, star_s = 0;
  while (si < s.size()) {
    if (pi < pattern.size() && (pattern[pi] == '_' || pattern[pi] == s[si])) {
      si++;
      pi++;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_p = pi++;
      star_s = si;
    } else if (star_p != std::string_view::npos) {
      pi = star_p + 1;
      si = ++star_s;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') pi++;
  return pi == pattern.size();
}

Status LikeFilter::Select(DataChunk& in, const sel_t* sel, size_t n,
                          sel_t* out_sel, size_t* out_n) {
  Vector* iv = nullptr;
  VWISE_RETURN_IF_ERROR(input_->Eval(in, sel, n, &iv));
  const StringVal* d = iv->Data<StringVal>();
  size_t k = 0;
  for (size_t i = 0; i < n; i++) {
    sel_t p = sel ? sel[i] : static_cast<sel_t>(i);
    out_sel[k] = p;
    k += (Match(d[p].view(), pattern_) != negate_);
  }
  *out_n = k;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Builder helpers
// ---------------------------------------------------------------------------

namespace e {

ExprPtr Col(size_t index, DataType type) {
  return std::make_unique<ColRefExpr>(index, type);
}
ExprPtr I64(int64_t v) {
  return std::make_unique<ConstExpr>(Value::Int(v), DataType::Int64());
}
ExprPtr F64(double v) {
  return std::make_unique<ConstExpr>(Value::Double(v), DataType::Double());
}
ExprPtr Str(std::string v) {
  return std::make_unique<ConstExpr>(Value::String(std::move(v)),
                                     DataType::Varchar());
}
ExprPtr DateLit(const char* ymd) {
  return std::make_unique<ConstExpr>(Value::Int(date::Parse(ymd)),
                                     DataType::Date());
}
ExprPtr Dec(double v, uint8_t scale) {
  double factor = 1.0;
  for (int i = 0; i < scale; i++) factor *= 10.0;
  int64_t scaled = static_cast<int64_t>(v * factor + (v >= 0 ? 0.5 : -0.5));
  return std::make_unique<ConstExpr>(Value::Int(scaled), DataType::Decimal(scale));
}
ExprPtr Add(ExprPtr l, ExprPtr r) {
  return std::make_unique<ArithExpr>(ArithOp::kAdd, std::move(l), std::move(r));
}
ExprPtr Sub(ExprPtr l, ExprPtr r) {
  return std::make_unique<ArithExpr>(ArithOp::kSub, std::move(l), std::move(r));
}
ExprPtr Mul(ExprPtr l, ExprPtr r) {
  return std::make_unique<ArithExpr>(ArithOp::kMul, std::move(l), std::move(r));
}
ExprPtr Div(ExprPtr l, ExprPtr r) {
  return std::make_unique<ArithExpr>(ArithOp::kDiv, std::move(l), std::move(r));
}
ExprPtr Cast(ExprPtr x, DataType to) {
  return std::make_unique<CastExpr>(std::move(x), to);
}
ExprPtr ToF64(ExprPtr x) {
  return std::make_unique<CastExpr>(std::move(x), DataType::Double());
}
ExprPtr Year(ExprPtr x) { return std::make_unique<YearExpr>(std::move(x)); }
ExprPtr Substr(ExprPtr x, size_t start, size_t len) {
  return std::make_unique<SubstrExpr>(std::move(x), start, len);
}
ExprPtr Case(FilterPtr cond, ExprPtr then_expr, ExprPtr else_expr) {
  return std::make_unique<CaseExpr>(std::move(cond), std::move(then_expr),
                                    std::move(else_expr));
}

FilterPtr Cmp(CmpOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<CmpFilter>(op, std::move(l), std::move(r));
}
FilterPtr Eq(ExprPtr l, ExprPtr r) {
  return Cmp(CmpOp::kEq, std::move(l), std::move(r));
}
FilterPtr Ne(ExprPtr l, ExprPtr r) {
  return Cmp(CmpOp::kNe, std::move(l), std::move(r));
}
FilterPtr Lt(ExprPtr l, ExprPtr r) {
  return Cmp(CmpOp::kLt, std::move(l), std::move(r));
}
FilterPtr Le(ExprPtr l, ExprPtr r) {
  return Cmp(CmpOp::kLe, std::move(l), std::move(r));
}
FilterPtr Gt(ExprPtr l, ExprPtr r) {
  return Cmp(CmpOp::kGt, std::move(l), std::move(r));
}
FilterPtr Ge(ExprPtr l, ExprPtr r) {
  return Cmp(CmpOp::kGe, std::move(l), std::move(r));
}
FilterPtr And(std::vector<FilterPtr> children) {
  return std::make_unique<AndFilter>(std::move(children));
}
FilterPtr Or(std::vector<FilterPtr> children) {
  return std::make_unique<OrFilter>(std::move(children));
}
FilterPtr Not(FilterPtr f) { return std::make_unique<NotFilter>(std::move(f)); }
FilterPtr In(ExprPtr x, std::vector<Value> values) {
  return std::make_unique<InFilter>(std::move(x), std::move(values));
}
FilterPtr NotIn(ExprPtr x, std::vector<Value> values) {
  return std::make_unique<InFilter>(std::move(x), std::move(values), true);
}
FilterPtr Like(ExprPtr x, std::string pattern) {
  return std::make_unique<LikeFilter>(std::move(x), std::move(pattern));
}
FilterPtr NotLike(ExprPtr x, std::string pattern) {
  return std::make_unique<LikeFilter>(std::move(x), std::move(pattern), true);
}

}  // namespace e

}  // namespace vwise
