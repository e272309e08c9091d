#include "planner/plan_verifier.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "catalog/schema.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/select.h"
#include "exec/xchg.h"
#include "rewriter/null_rewrite.h"
#include "storage/table_file.h"

namespace vwise {

namespace {

std::string TypesToString(const std::vector<TypeId>& ts) {
  std::string s = "[";
  for (size_t i = 0; i < ts.size(); i++) {
    if (i > 0) s += ", ";
    s += TypeIdToString(ts[i]);
  }
  s += "]";
  return s;
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

const char* AggFnName(AggSpec::Fn fn) {
  switch (fn) {
    case AggSpec::Fn::kSum:
      return "sum";
    case AggSpec::Fn::kMin:
      return "min";
    case AggSpec::Fn::kMax:
      return "max";
    case AggSpec::Fn::kCount:
      return "count";
    case AggSpec::Fn::kCountStar:
      return "count*";
    case AggSpec::Fn::kAvg:
      return "avg";
  }
  return "?";
}

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeftSemi:
      return "semi";
    case JoinType::kLeftAnti:
      return "anti";
    case JoinType::kLeftOuter:
      return "outer";
  }
  return "?";
}

std::string ColName(size_t i) {
  std::string s = "col";
  s += std::to_string(i);
  return s;
}

// EXPLAIN ANALYZE note of a grace-partitioned join or aggregation; empty
// when it stayed in memory.
std::string RadixSpillNote(const RadixSpill::Stats& stats) {
  if (stats.partitions == 0) return "";
  std::string note = " spill_partitions=";
  note += std::to_string(stats.partitions);
  if (stats.repartitions > 0) {
    note += " repartitions=";
    note += std::to_string(stats.repartitions);
    note += " depth=";
    note += std::to_string(stats.depth);
  }
  return note;
}

Status ExprErr(const Expr& e, std::string msg) {
  std::string s = "plan verifier: ";
  s += msg;
  s += "\n  in expression: ";
  s += ExplainExpr(e);
  return Status::Internal(std::move(s));
}

Status FilterErr(const Filter& f, std::string msg) {
  std::string s = "plan verifier: ";
  s += msg;
  s += "\n  in filter: ";
  s += ExplainFilter(f);
  return Status::Internal(std::move(s));
}

Status NodeErr(const char* node, std::string msg) {
  std::string s = "plan verifier: [";
  s += node;
  s += "] ";
  s += msg;
  return Status::Internal(std::move(s));
}

bool IsIntFamily(TypeId t) {
  return t == TypeId::kU8 || t == TypeId::kI32 || t == TypeId::kI64;
}

void CollectScans(const Operator& op, std::vector<const ScanOperator*>* out);

// Collects every column index referenced under `e` / `f`.
void CollectExprCols(const Expr& e, std::vector<size_t>* out);

void CollectFilterCols(const Filter& f, std::vector<size_t>* out) {
  if (auto* c = dynamic_cast<const CmpFilter*>(&f)) {
    CollectExprCols(c->left(), out);
    CollectExprCols(c->right(), out);
  } else if (auto* a = dynamic_cast<const AndFilter*>(&f)) {
    for (const auto& ch : a->children()) CollectFilterCols(*ch, out);
  } else if (auto* o = dynamic_cast<const OrFilter*>(&f)) {
    for (const auto& ch : o->children()) CollectFilterCols(*ch, out);
  } else if (auto* n = dynamic_cast<const NotFilter*>(&f)) {
    CollectFilterCols(n->child(), out);
  } else if (auto* in = dynamic_cast<const InFilter*>(&f)) {
    CollectExprCols(in->input(), out);
  } else if (auto* lk = dynamic_cast<const LikeFilter*>(&f)) {
    CollectExprCols(lk->input(), out);
  } else if (auto* na = dynamic_cast<const rewriter::NullAwareCmpFilter*>(&f)) {
    out->push_back(na->val_col());
    out->push_back(na->ind_col());
  }
}

void CollectExprCols(const Expr& e, std::vector<size_t>* out) {
  if (auto* c = dynamic_cast<const ColRefExpr*>(&e)) {
    out->push_back(c->index());
  } else if (auto* a = dynamic_cast<const ArithExpr*>(&e)) {
    CollectExprCols(a->left(), out);
    CollectExprCols(a->right(), out);
  } else if (auto* cs = dynamic_cast<const CastExpr*>(&e)) {
    CollectExprCols(cs->input(), out);
  } else if (auto* y = dynamic_cast<const YearExpr*>(&e)) {
    CollectExprCols(y->input(), out);
  } else if (auto* s = dynamic_cast<const SubstrExpr*>(&e)) {
    CollectExprCols(s->input(), out);
  } else if (auto* ce = dynamic_cast<const CaseExpr*>(&e)) {
    CollectFilterCols(ce->cond(), out);
    CollectExprCols(ce->then_expr(), out);
    CollectExprCols(ce->else_expr(), out);
  }
}

// An indicator guard is the shape RewriteNullableCmp / RewriteIsNotNull
// emit: `indicator_col == literal` over a u8 column. Its presence in a
// conjunction makes sibling references to NULLable value columns sound (the
// guard removes NULL rows before they can qualify).
bool IsIndicatorGuard(const Filter& f) {
  auto* cmp = dynamic_cast<const CmpFilter*>(&f);
  if (cmp == nullptr || cmp->op() != CmpOp::kEq) return false;
  auto* col = dynamic_cast<const ColRefExpr*>(&cmp->left());
  return col != nullptr && col->physical() == TypeId::kU8 &&
         cmp->right().IsConstant();
}

bool AnyNullable(const Expr& e, const std::vector<bool>& nullable) {
  std::vector<size_t> cols;
  CollectExprCols(e, &cols);
  for (size_t c : cols) {
    if (c < nullable.size() && nullable[c]) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pretty printers
// ---------------------------------------------------------------------------

std::string ExplainExpr(const Expr& e) {
  if (auto* c = dynamic_cast<const ColRefExpr*>(&e)) {
    std::string s = ColName(c->index());
    s += ":";
    s += TypeIdToString(c->physical());
    return s;
  }
  if (auto* k = dynamic_cast<const ConstExpr*>(&e)) {
    std::string s = k->value().ToString();
    s += ":";
    s += TypeIdToString(k->physical());
    return s;
  }
  if (auto* a = dynamic_cast<const ArithExpr*>(&e)) {
    std::string s = "(";
    s += ExplainExpr(a->left());
    s += " ";
    s += ArithOpName(a->op());
    s += " ";
    s += ExplainExpr(a->right());
    s += ")";
    return s;
  }
  if (auto* cs = dynamic_cast<const CastExpr*>(&e)) {
    std::string s = "cast<";
    s += TypeIdToString(e.physical());
    s += ">(";
    s += ExplainExpr(cs->input());
    s += ")";
    return s;
  }
  if (auto* y = dynamic_cast<const YearExpr*>(&e)) {
    std::string s = "year(";
    s += ExplainExpr(y->input());
    s += ")";
    return s;
  }
  if (auto* sb = dynamic_cast<const SubstrExpr*>(&e)) {
    std::string s = "substr(";
    s += ExplainExpr(sb->input());
    s += ")";
    return s;
  }
  if (auto* ce = dynamic_cast<const CaseExpr*>(&e)) {
    std::string s = "case(";
    s += ExplainFilter(ce->cond());
    s += ", ";
    s += ExplainExpr(ce->then_expr());
    s += ", ";
    s += ExplainExpr(ce->else_expr());
    s += ")";
    return s;
  }
  std::string s = "<expr:";
  s += TypeIdToString(e.physical());
  s += ">";
  return s;
}

std::string ExplainFilter(const Filter& f) {
  if (auto* c = dynamic_cast<const CmpFilter*>(&f)) {
    std::string s = "(";
    s += ExplainExpr(c->left());
    s += " ";
    s += CmpOpName(c->op());
    s += " ";
    s += ExplainExpr(c->right());
    s += ")";
    return s;
  }
  if (auto* a = dynamic_cast<const AndFilter*>(&f)) {
    std::string s = "(";
    for (size_t i = 0; i < a->children().size(); i++) {
      if (i > 0) s += " and ";
      s += ExplainFilter(*a->children()[i]);
    }
    s += ")";
    return s;
  }
  if (auto* o = dynamic_cast<const OrFilter*>(&f)) {
    std::string s = "(";
    for (size_t i = 0; i < o->children().size(); i++) {
      if (i > 0) s += " or ";
      s += ExplainFilter(*o->children()[i]);
    }
    s += ")";
    return s;
  }
  if (auto* n = dynamic_cast<const NotFilter*>(&f)) {
    std::string s = "not(";
    s += ExplainFilter(n->child());
    s += ")";
    return s;
  }
  if (auto* in = dynamic_cast<const InFilter*>(&f)) {
    std::string s = ExplainExpr(in->input());
    s += in->negate() ? " not in (" : " in (";
    for (size_t i = 0; i < in->values().size(); i++) {
      if (i > 0) s += ", ";
      s += in->values()[i].ToString();
    }
    s += ")";
    return s;
  }
  if (auto* lk = dynamic_cast<const LikeFilter*>(&f)) {
    std::string s = ExplainExpr(lk->input());
    s += lk->negate() ? " not like '" : " like '";
    s += lk->pattern();
    s += "'";
    return s;
  }
  if (auto* na = dynamic_cast<const rewriter::NullAwareCmpFilter*>(&f)) {
    std::string s = "nullaware(";
    s += ColName(na->val_col());
    s += ", ind=";
    s += ColName(na->ind_col());
    s += ")";
    return s;
  }
  return "<filter>";
}

namespace {

// Appends a pseudo-line (an Xchg fragment header) — never profiled.
void PseudoLine(std::string text, size_t depth,
                std::vector<PlanNodeProfile>* out) {
  PlanNodeProfile e;
  e.op = std::move(text);
  e.depth = depth;
  out->push_back(std::move(e));
}

// Pre-order walk producing one PlanNodeProfile per printed line. Returns the
// index of the entry created for `op`.
size_t WalkNode(const Operator& op, size_t depth,
                std::vector<PlanNodeProfile>* out) {
  std::string line;
  std::string spill_note;  // EXPLAIN ANALYZE-only spill telemetry
  const Operator* child0 = nullptr;
  const Operator* child1 = nullptr;
  const XchgOperator* xchg = nullptr;  // its fragment prints below its line
  if (auto* s = dynamic_cast<const ScanOperator*>(&op)) {
    line += "Scan ";
    line += s->snapshot().schema != nullptr ? s->snapshot().schema->name()
                                            : "<no schema>";
    line += " cols=[";
    for (size_t i = 0; i < s->columns().size(); i++) {
      if (i > 0) line += ", ";
      line += std::to_string(s->columns()[i]);
    }
    line += "]";
    if (s->options().stripe_end != SIZE_MAX) {
      line += " stripes=[";
      line += std::to_string(s->options().stripe_begin);
      line += ", ";
      line += std::to_string(s->options().stripe_end);
      line += ")";
    }
  } else if (auto* sel = dynamic_cast<const SelectOperator*>(&op)) {
    line += "Select ";
    line += ExplainFilter(sel->filter());
    child0 = &sel->child();
  } else if (auto* p = dynamic_cast<const ProjectOperator*>(&op)) {
    line += "Project [";
    for (size_t i = 0; i < p->exprs().size(); i++) {
      if (i > 0) line += ", ";
      line += ExplainExpr(*p->exprs()[i]);
    }
    line += "]";
    child0 = &p->child();
  } else if (auto* agg = dynamic_cast<const HashAggOperator*>(&op)) {
    line += "HashAgg groups=[";
    for (size_t i = 0; i < agg->group_cols().size(); i++) {
      if (i > 0) line += ", ";
      line += std::to_string(agg->group_cols()[i]);
    }
    line += "] aggs=[";
    for (size_t i = 0; i < agg->aggs().size(); i++) {
      if (i > 0) line += ", ";
      line += AggFnName(agg->aggs()[i].fn);
      if (agg->aggs()[i].fn != AggSpec::Fn::kCountStar) {
        line += "(";
        line += ColName(agg->aggs()[i].col);
        line += ")";
      }
    }
    line += "]";
    spill_note = RadixSpillNote(agg->spill_stats());
    child0 = &agg->child();
  } else if (auto* j = dynamic_cast<const HashJoinOperator*>(&op)) {
    line += "HashJoin ";
    line += JoinTypeName(j->spec().type);
    line += " probe[";
    for (size_t i = 0; i < j->spec().probe_keys.size(); i++) {
      if (i > 0) line += ", ";
      line += std::to_string(j->spec().probe_keys[i]);
    }
    line += "]=build[";
    for (size_t i = 0; i < j->spec().build_keys.size(); i++) {
      if (i > 0) line += ", ";
      line += std::to_string(j->spec().build_keys[i]);
    }
    line += "] payload=[";
    for (size_t i = 0; i < j->spec().build_payload.size(); i++) {
      if (i > 0) line += ", ";
      line += std::to_string(j->spec().build_payload[i]);
    }
    line += "]";
    if (j->spec().residual) {
      line += " residual=";
      line += ExplainFilter(*j->spec().residual);
    }
    spill_note = RadixSpillNote(j->spill_stats());
    child0 = &j->probe();
    child1 = &j->build();
  } else if (auto* so = dynamic_cast<const SortOperator*>(&op)) {
    line += "Sort keys=[";
    for (size_t i = 0; i < so->keys().size(); i++) {
      if (i > 0) line += ", ";
      line += ColName(so->keys()[i].col);
      line += so->keys()[i].ascending ? " asc" : " desc";
    }
    line += "]";
    if (so->limit() != SIZE_MAX) {
      line += " limit=";
      line += std::to_string(so->limit());
      line += " offset=";
      line += std::to_string(so->offset());
    }
    if (so->spill_runs() > 0) {
      spill_note = " spill_runs=" + std::to_string(so->spill_runs());
    }
    child0 = &so->child();
  } else if (auto* lim = dynamic_cast<const LimitOperator*>(&op)) {
    line += "Limit ";
    line += std::to_string(lim->limit());
    line += " offset=";
    line += std::to_string(lim->offset());
    child0 = &lim->child();
  } else if ((xchg = dynamic_cast<const XchgOperator*>(&op)) != nullptr) {
    line += "Xchg workers=" + std::to_string(xchg->num_workers());
  } else {
    line += "<operator>";
  }
  line += " -> ";
  line += TypesToString(op.OutputTypes());
  PlanNodeProfile e;
  e.op = std::move(line);
  e.depth = depth;
  e.spill = std::move(spill_note);
  if (op.profiled()) {
    const OperatorStats& st = op.stats();
    e.profiled = true;
    e.next_calls = st.next_calls;
    e.chunks_out = st.chunks_out;
    e.rows_out = st.rows_out;
    e.open_ms = static_cast<double>(st.open_ns) / 1e6;
    e.next_ms = static_cast<double>(st.next_ns) / 1e6;
  }
  out->push_back(std::move(e));
  size_t idx = out->size() - 1;
  for (const Operator* c : {child0, child1}) {
    if (c == nullptr) continue;
    size_t ci = WalkNode(*c, depth + 1, out);
    if ((*out)[ci].profiled) (*out)[idx].rows_in += (*out)[ci].rows_out;
  }
  if (xchg != nullptr) {
    // Show worker 0's fragment as the representative sub-plan. The factory
    // builds a fresh, never-opened instance, so its counters stay zero —
    // per-worker runtime lives in the Xchg line above it, which is why the
    // copy's root line claims no profile.
    auto frag = xchg->factory()(0, xchg->num_workers());
    if (frag.ok() && frag.value() != nullptr) {
      PseudoLine("fragment(0):", depth + 1, out);
      (*out)[WalkNode(*frag.value(), depth + 2, out)].profiled = false;
    } else {
      PseudoLine("<fragment unavailable>", depth + 1, out);
    }
  }
  return idx;
}

}  // namespace

std::vector<PlanNodeProfile> CollectPlanProfile(const Operator& root) {
  std::vector<PlanNodeProfile> nodes;
  WalkNode(root, 0, &nodes);
  return nodes;
}

std::string ExplainPlan(const Operator& root) {
  std::string out;
  for (const PlanNodeProfile& n : CollectPlanProfile(root)) {
    out.append(n.depth * 2, ' ');
    out += n.op;
    out += "\n";
  }
  return out;
}

std::string ExplainAnalyzePlan(const Operator& root) {
  std::string out;
  for (const PlanNodeProfile& n : CollectPlanProfile(root)) {
    out.append(n.depth * 2, ' ');
    out += n.op;
    if (n.profiled) {
      char ann[160];
      std::snprintf(ann, sizeof(ann),
                    " [rows=%llu in=%llu chunks=%llu next_calls=%llu "
                    "open=%.3fms next=%.3fms]",
                    static_cast<unsigned long long>(n.rows_out),
                    static_cast<unsigned long long>(n.rows_in),
                    static_cast<unsigned long long>(n.chunks_out),
                    static_cast<unsigned long long>(n.next_calls), n.open_ms,
                    n.next_ms);
      out += ann;
    }
    out += n.spill;
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Expression / filter inference
// ---------------------------------------------------------------------------

Result<TypeId> InferExprType(const Expr& e, const std::vector<TypeId>& input,
                             const std::vector<bool>* nullable) {
  if (auto* c = dynamic_cast<const ColRefExpr*>(&e)) {
    if (c->index() >= input.size()) {
      std::string msg = "column reference out of range: ";
      msg += ColName(c->index());
      msg += " over input layout ";
      msg += TypesToString(input);
      return ExprErr(e, std::move(msg));
    }
    if (input[c->index()] != c->physical()) {
      std::string msg = "column reference type mismatch: ";
      msg += ColName(c->index());
      msg += " is ";
      msg += TypeIdToString(input[c->index()]);
      msg += " in the input layout but the expression declares ";
      msg += TypeIdToString(c->physical());
      return ExprErr(e, std::move(msg));
    }
    if (nullable != nullptr && c->index() < nullable->size() &&
        (*nullable)[c->index()]) {
      std::string msg = "consumes NULLable column ";
      msg += ColName(c->index());
      msg += " directly; the rewriter must decompose it into (value, "
             "indicator) columns first (execution is NULL-oblivious)";
      return ExprErr(e, std::move(msg));
    }
    return c->physical();
  }
  if (auto* k = dynamic_cast<const ConstExpr*>(&e)) {
    const Value::Kind kind = k->value().kind();
    bool ok = false;
    switch (k->physical()) {
      case TypeId::kU8:
      case TypeId::kI32:
      case TypeId::kI64:
        ok = kind == Value::Kind::kInt;
        break;
      case TypeId::kF64:
        ok = kind == Value::Kind::kInt || kind == Value::Kind::kDouble;
        break;
      case TypeId::kStr:
        ok = kind == Value::Kind::kString;
        break;
    }
    if (!ok) {
      std::string msg = "literal value kind does not match declared type ";
      msg += TypeIdToString(k->physical());
      return ExprErr(e, std::move(msg));
    }
    return k->physical();
  }
  if (auto* a = dynamic_cast<const ArithExpr*>(&e)) {
    VWISE_ASSIGN_OR_RETURN(TypeId l, InferExprType(a->left(), input, nullable));
    VWISE_ASSIGN_OR_RETURN(TypeId r,
                           InferExprType(a->right(), input, nullable));
    if (l != r) {
      std::string msg = "arithmetic operands have different physical types (";
      msg += TypeIdToString(l);
      msg += " vs ";
      msg += TypeIdToString(r);
      msg += "); the plan builder must insert casts";
      return ExprErr(e, std::move(msg));
    }
    if (l != TypeId::kI64 && l != TypeId::kF64) {
      std::string msg = "arithmetic requires i64 or f64 operands, got ";
      msg += TypeIdToString(l);
      return ExprErr(e, std::move(msg));
    }
    if (e.physical() != l) {
      std::string msg = "arithmetic node declares ";
      msg += TypeIdToString(e.physical());
      msg += " but its operands compute ";
      msg += TypeIdToString(l);
      return ExprErr(e, std::move(msg));
    }
    return l;
  }
  if (auto* cs = dynamic_cast<const CastExpr*>(&e)) {
    VWISE_ASSIGN_OR_RETURN(TypeId from,
                           InferExprType(cs->input(), input, nullable));
    const TypeId to = e.physical();
    const bool ok =
        from == to || (from == TypeId::kI32 && to == TypeId::kI64) ||
        (from == TypeId::kI32 && to == TypeId::kF64) ||
        (from == TypeId::kI64 && to == TypeId::kF64) ||
        (from == TypeId::kU8 && to == TypeId::kI64);
    if (!ok) {
      std::string msg = "unsupported cast ";
      msg += TypeIdToString(from);
      msg += " -> ";
      msg += TypeIdToString(to);
      return ExprErr(e, std::move(msg));
    }
    return to;
  }
  if (auto* y = dynamic_cast<const YearExpr*>(&e)) {
    VWISE_ASSIGN_OR_RETURN(TypeId from,
                           InferExprType(y->input(), input, nullable));
    if (from != TypeId::kI32) {
      std::string msg = "year() requires an i32 date input, got ";
      msg += TypeIdToString(from);
      return ExprErr(e, std::move(msg));
    }
    if (e.physical() != TypeId::kI64) {
      return ExprErr(e, "year() must declare an i64 result");
    }
    return TypeId::kI64;
  }
  if (auto* sb = dynamic_cast<const SubstrExpr*>(&e)) {
    VWISE_ASSIGN_OR_RETURN(TypeId from,
                           InferExprType(sb->input(), input, nullable));
    if (from != TypeId::kStr || e.physical() != TypeId::kStr) {
      std::string msg = "substr() requires a str input and result, got ";
      msg += TypeIdToString(from);
      return ExprErr(e, std::move(msg));
    }
    return TypeId::kStr;
  }
  if (auto* ce = dynamic_cast<const CaseExpr*>(&e)) {
    VWISE_RETURN_IF_ERROR(VerifyFilterTree(ce->cond(), input, nullable));
    VWISE_ASSIGN_OR_RETURN(TypeId t,
                           InferExprType(ce->then_expr(), input, nullable));
    VWISE_ASSIGN_OR_RETURN(TypeId f,
                           InferExprType(ce->else_expr(), input, nullable));
    if (t != f || e.physical() != t) {
      std::string msg = "case branches must share the declared type (then=";
      msg += TypeIdToString(t);
      msg += ", else=";
      msg += TypeIdToString(f);
      msg += ", declared=";
      msg += TypeIdToString(e.physical());
      msg += ")";
      return ExprErr(e, std::move(msg));
    }
    return t;
  }
  // Unknown expression node: accept at its declared type.
  return e.physical();
}

Status VerifyFilterTree(const Filter& f, const std::vector<TypeId>& input,
                        const std::vector<bool>* nullable) {
  if (auto* c = dynamic_cast<const CmpFilter*>(&f)) {
    VWISE_ASSIGN_OR_RETURN(TypeId l, InferExprType(c->left(), input, nullable));
    VWISE_ASSIGN_OR_RETURN(TypeId r,
                           InferExprType(c->right(), input, nullable));
    if (l != r) {
      std::string msg = "comparison operands have different physical types (";
      msg += TypeIdToString(l);
      msg += " vs ";
      msg += TypeIdToString(r);
      msg += ")";
      return FilterErr(f, std::move(msg));
    }
    return Status::OK();
  }
  if (auto* a = dynamic_cast<const AndFilter*>(&f)) {
    // A conjunction containing an indicator guard (`ind == 0` over a u8
    // column — the shape RewriteNullableCmp emits) makes sibling access to
    // NULLable value columns sound: the guard removes NULL rows first.
    const std::vector<bool>* child_nullable = nullable;
    if (nullable != nullptr) {
      for (const auto& ch : a->children()) {
        if (IsIndicatorGuard(*ch)) {
          child_nullable = nullptr;
          break;
        }
      }
    }
    for (const auto& ch : a->children()) {
      VWISE_RETURN_IF_ERROR(VerifyFilterTree(*ch, input, child_nullable));
    }
    return Status::OK();
  }
  if (auto* o = dynamic_cast<const OrFilter*>(&f)) {
    for (const auto& ch : o->children()) {
      VWISE_RETURN_IF_ERROR(VerifyFilterTree(*ch, input, nullable));
    }
    return Status::OK();
  }
  if (auto* n = dynamic_cast<const NotFilter*>(&f)) {
    return VerifyFilterTree(n->child(), input, nullable);
  }
  if (auto* in = dynamic_cast<const InFilter*>(&f)) {
    VWISE_ASSIGN_OR_RETURN(TypeId t,
                           InferExprType(in->input(), input, nullable));
    if (t != TypeId::kStr && t != TypeId::kI32 && t != TypeId::kI64) {
      std::string msg = "IN is supported over str/i32/i64 inputs only, got ";
      msg += TypeIdToString(t);
      return FilterErr(f, std::move(msg));
    }
    for (const Value& v : in->values()) {
      const bool ok = t == TypeId::kStr ? v.kind() == Value::Kind::kString
                                        : v.kind() == Value::Kind::kInt;
      if (!ok) {
        std::string msg = "IN list value ";
        msg += v.ToString();
        msg += " does not match the input type ";
        msg += TypeIdToString(t);
        return FilterErr(f, std::move(msg));
      }
    }
    return Status::OK();
  }
  if (auto* lk = dynamic_cast<const LikeFilter*>(&f)) {
    VWISE_ASSIGN_OR_RETURN(TypeId t,
                           InferExprType(lk->input(), input, nullable));
    if (t != TypeId::kStr) {
      std::string msg = "LIKE requires a str input, got ";
      msg += TypeIdToString(t);
      return FilterErr(f, std::move(msg));
    }
    return Status::OK();
  }
  if (auto* na = dynamic_cast<const rewriter::NullAwareCmpFilter*>(&f)) {
    // The NULL-aware ablation baseline checks the indicator itself, so it is
    // exempt from the decomposition rule — but its columns must exist and
    // have the types its kernel hard-codes (i64 values, u8 indicator).
    if (na->val_col() >= input.size() || na->ind_col() >= input.size()) {
      return FilterErr(f, "null-aware filter references a column out of range");
    }
    if (input[na->val_col()] != TypeId::kI64) {
      return FilterErr(f, "null-aware filter requires an i64 value column");
    }
    if (input[na->ind_col()] != TypeId::kU8) {
      return FilterErr(f, "null-aware filter requires a u8 indicator column");
    }
    return Status::OK();
  }
  // Unknown filter type: accepted conservatively.
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Rewriter-rule postconditions
// ---------------------------------------------------------------------------

Status VerifyNullRewriteFilter(const Filter& rewritten, size_t val_col,
                               TypeId val_type, size_t ind_col, size_t width) {
  std::vector<size_t> cols;
  CollectFilterCols(rewritten, &cols);
  bool touches_ind = false;
  for (size_t c : cols) {
    if (c == ind_col) touches_ind = true;
    if (c != val_col && c != ind_col) {
      std::string msg = "NULL-decomposed filter references ";
      msg += ColName(c);
      msg += ", outside the (value=";
      msg += ColName(val_col);
      msg += ", indicator=";
      msg += ColName(ind_col);
      msg += ") pair";
      return FilterErr(rewritten, std::move(msg));
    }
  }
  if (!touches_ind) {
    std::string msg = "NULL-decomposed filter never consults the indicator "
                      "column ";
    msg += ColName(ind_col);
    msg += "; NULL rows (type-safe dummies in the value column) could qualify";
    return FilterErr(rewritten, std::move(msg));
  }
  // Type-check over the decomposed layout. Unrelated slots get a dummy type;
  // the reference check above guarantees they are never consulted.
  std::vector<TypeId> layout(width, TypeId::kI64);
  if (val_col >= width || ind_col >= width) {
    return FilterErr(rewritten, "decomposed column pair exceeds layout width");
  }
  layout[val_col] = val_type;
  layout[ind_col] = TypeId::kU8;
  return VerifyFilterTree(rewritten, layout, nullptr);
}

Status VerifyNullRewritePair(const Expr& value, const Expr& indicator,
                             size_t a_val, size_t a_ind, size_t b_val,
                             size_t b_ind, TypeId val_type, size_t width) {
  if (a_val >= width || a_ind >= width || b_val >= width || b_ind >= width) {
    return ExprErr(value, "decomposed column pair exceeds layout width");
  }
  std::vector<TypeId> layout(width, TypeId::kI64);
  layout[a_val] = val_type;
  layout[b_val] = val_type;
  layout[a_ind] = TypeId::kU8;
  layout[b_ind] = TypeId::kU8;

  std::vector<size_t> val_cols;
  CollectExprCols(value, &val_cols);
  const bool val_ok =
      std::find(val_cols.begin(), val_cols.end(), a_val) != val_cols.end() &&
      std::find(val_cols.begin(), val_cols.end(), b_val) != val_cols.end();
  if (!val_ok) {
    return ExprErr(value,
                   "decomposed value expression must reference both operand "
                   "value columns");
  }
  VWISE_ASSIGN_OR_RETURN(TypeId vt, InferExprType(value, layout, nullptr));
  if (vt != val_type) {
    std::string msg = "decomposed value expression computes ";
    msg += TypeIdToString(vt);
    msg += " but the operands are ";
    msg += TypeIdToString(val_type);
    return ExprErr(value, std::move(msg));
  }

  std::vector<size_t> ind_cols;
  CollectExprCols(indicator, &ind_cols);
  const bool ind_ok =
      std::find(ind_cols.begin(), ind_cols.end(), a_ind) != ind_cols.end() &&
      std::find(ind_cols.begin(), ind_cols.end(), b_ind) != ind_cols.end();
  if (!ind_ok) {
    return ExprErr(indicator,
                   "decomposed indicator expression must combine both operand "
                   "indicator columns (dropping one silently un-NULLs that "
                   "operand)");
  }
  VWISE_ASSIGN_OR_RETURN(TypeId it, InferExprType(indicator, layout, nullptr));
  if (it != TypeId::kI64) {
    std::string msg = "decomposed indicator expression must compute i64, got ";
    msg += TypeIdToString(it);
    return ExprErr(indicator, std::move(msg));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Plan verification
// ---------------------------------------------------------------------------

Status PlanVerifier::Verify(const Operator& root, PlanProperties* props) const {
  PlanProperties local;
  PlanProperties* out = props != nullptr ? props : &local;
  Status st = VerifyNode(root, out);
  if (st.ok()) return st;
  std::string msg{st.message()};
  msg += "\nin plan:\n";
  msg += ExplainPlan(root);
  return Status::Internal(std::move(msg));
}

Status PlanVerifier::VerifyScan(const ScanOperator& op,
                                PlanProperties* out) const {
  const TableSchema* schema = op.snapshot().schema;
  if (schema == nullptr) return NodeErr("scan", "snapshot carries no schema");
  out->types.clear();
  out->nullable.clear();
  for (uint32_t col : op.columns()) {
    if (col >= schema->num_columns()) {
      std::string msg = "references column ";
      msg += std::to_string(col);
      msg += " of table '";
      msg += schema->name();
      msg += "' which has only ";
      msg += std::to_string(schema->num_columns());
      msg += " columns";
      return NodeErr("scan", std::move(msg));
    }
    out->types.push_back(schema->column(col).type.physical());
    out->nullable.push_back(schema->column(col).nullable);
  }
  if (out->types != op.OutputTypes()) {
    std::string msg = "declared output types ";
    msg += TypesToString(op.OutputTypes());
    msg += " do not match the catalog schema of '";
    msg += schema->name();
    msg += "': ";
    msg += TypesToString(out->types);
    return NodeErr("scan", std::move(msg));
  }
  for (const ScanRange& r : op.options().ranges) {
    if (r.col >= schema->num_columns()) {
      std::string msg = "min-max range hint references column ";
      msg += std::to_string(r.col);
      msg += " beyond table '";
      msg += schema->name();
      msg += "'";
      return NodeErr("scan", std::move(msg));
    }
    if (r.lo > r.hi) {
      return NodeErr("scan", "min-max range hint has lo > hi");
    }
  }
  const auto& opts = op.options();
  if (opts.stripe_begin > opts.stripe_end) {
    return NodeErr("scan", "stripe partition has begin > end");
  }
  if (opts.stripe_end != SIZE_MAX && op.snapshot().stable != nullptr &&
      opts.stripe_end > op.snapshot().stable->stripe_count()) {
    std::string msg = "stripe partition end ";
    msg += std::to_string(opts.stripe_end);
    msg += " exceeds the table's ";
    msg += std::to_string(op.snapshot().stable->stripe_count());
    msg += " stripes";
    return NodeErr("scan", std::move(msg));
  }
  out->ordering.clear();
  out->partitions = 1;
  return Status::OK();
}

Status PlanVerifier::VerifyXchg(const XchgOperator& op,
                                PlanProperties* out) const {
  const int n = op.num_workers();
  if (n < 1) return NodeErr("xchg", "num_workers must be >= 1");
  const std::vector<TypeId>& declared = op.OutputTypes();

  // Stripe partitions per table file, for disjointness/coverage checking.
  struct TableStripes {
    size_t stripe_count = 0;
    std::vector<std::pair<size_t, size_t>> intervals;
  };
  std::map<const TableFile*, TableStripes> partitions;

  for (int w = 0; w < n; w++) {
    auto frag_or = op.factory()(w, n);
    if (!frag_or.ok()) {
      std::string msg = "fragment ";
      msg += std::to_string(w);
      msg += " failed to build: ";
      msg += frag_or.status().message();
      return NodeErr("xchg", std::move(msg));
    }
    OperatorPtr frag = std::move(frag_or).value();
    if (frag == nullptr) {
      std::string msg = "fragment ";
      msg += std::to_string(w);
      msg += " is null";
      return NodeErr("xchg", std::move(msg));
    }
    PlanProperties fp;
    Status st = VerifyNode(*frag, &fp);
    if (!st.ok()) {
      std::string msg{st.message()};
      msg += "\n  in xchg fragment ";
      msg += std::to_string(w);
      return Status::Internal(std::move(msg));
    }
    if (fp.types != declared) {
      std::string msg = "fragment ";
      msg += std::to_string(w);
      msg += " produces ";
      msg += TypesToString(fp.types);
      msg += " but the exchange declares ";
      msg += TypesToString(declared);
      msg += "\n  fragment plan:\n";
      msg += ExplainPlan(*frag);
      return NodeErr("xchg", std::move(msg));
    }
    if (w == 0) out->nullable = fp.nullable;

    std::vector<const ScanOperator*> scans;
    CollectScans(*frag, &scans);
    for (const ScanOperator* s : scans) {
      const auto& opts = s->options();
      if (opts.stripe_end == SIZE_MAX || s->snapshot().stable == nullptr) {
        continue;  // unpartitioned scan — nothing to cross-check
      }
      TableStripes& ts = partitions[s->snapshot().stable.get()];
      ts.stripe_count = s->snapshot().stable->stripe_count();
      ts.intervals.emplace_back(
          opts.stripe_begin, std::min(opts.stripe_end, ts.stripe_count));
    }
  }

  for (auto& [file, ts] : partitions) {
    (void)file;
    std::sort(ts.intervals.begin(), ts.intervals.end());
    size_t covered = 0;
    bool contiguous_from_zero = true;
    for (size_t i = 0; i < ts.intervals.size(); i++) {
      const auto& [b, e] = ts.intervals[i];
      if (i > 0 && b < ts.intervals[i - 1].second) {
        std::string msg = "parallel scan stripe partitions overlap: [";
        msg += std::to_string(ts.intervals[i - 1].first);
        msg += ", ";
        msg += std::to_string(ts.intervals[i - 1].second);
        msg += ") and [";
        msg += std::to_string(b);
        msg += ", ";
        msg += std::to_string(e);
        msg += ") — rows would be produced twice";
        return NodeErr("xchg", std::move(msg));
      }
      if (b != covered) contiguous_from_zero = false;
      covered = e;
    }
    // When every worker contributed exactly one partition of this table, the
    // union must cover all stripes — a gap silently drops rows.
    if (static_cast<int>(ts.intervals.size()) == n &&
        (!contiguous_from_zero || covered != ts.stripe_count)) {
      std::string msg =
          "parallel scan stripe partitions do not cover the table: union "
          "ends at ";
      msg += std::to_string(covered);
      msg += " of ";
      msg += std::to_string(ts.stripe_count);
      msg += " stripes";
      return NodeErr("xchg", std::move(msg));
    }
  }

  out->types = declared;
  out->ordering.clear();  // nondeterministic interleave of worker streams
  out->partitions = n;
  return Status::OK();
}

Status PlanVerifier::VerifyNode(const Operator& op, PlanProperties* out) const {
  if (auto* s = dynamic_cast<const ScanOperator*>(&op)) {
    return VerifyScan(*s, out);
  }
  if (auto* x = dynamic_cast<const XchgOperator*>(&op)) {
    return VerifyXchg(*x, out);
  }

  if (auto* sel = dynamic_cast<const SelectOperator*>(&op)) {
    VWISE_RETURN_IF_ERROR(VerifyNode(sel->child(), out));
    // Selection decides row membership: consuming a NULLable column here
    // without an indicator guard would let NULL rows qualify.
    VWISE_RETURN_IF_ERROR(
        VerifyFilterTree(sel->filter(), out->types, &out->nullable));
    // Types/nullability/ordering/partitions unchanged.
    return Status::OK();
  }

  if (auto* p = dynamic_cast<const ProjectOperator*>(&op)) {
    PlanProperties in;
    VWISE_RETURN_IF_ERROR(VerifyNode(p->child(), &in));
    const std::vector<TypeId>& declared = p->OutputTypes();
    if (declared.size() != p->exprs().size()) {
      return NodeErr("project", "declared type count != expression count");
    }
    out->types.clear();
    out->nullable.clear();
    for (size_t i = 0; i < p->exprs().size(); i++) {
      const Expr& ex = *p->exprs()[i];
      // Projections may compute on NULLable value columns unconditionally
      // (the decomposition carries the indicator alongside), so inference
      // runs without the nullable check; nullability propagates instead.
      VWISE_ASSIGN_OR_RETURN(TypeId t, InferExprType(ex, in.types, nullptr));
      if (t != declared[i]) {
        std::string msg = "expression ";
        msg += std::to_string(i);
        msg += " computes ";
        msg += TypeIdToString(t);
        msg += " but the projection declares ";
        msg += TypeIdToString(declared[i]);
        msg += "\n  expression: ";
        msg += ExplainExpr(ex);
        return NodeErr("project", std::move(msg));
      }
      out->types.push_back(t);
      out->nullable.push_back(AnyNullable(ex, in.nullable));
    }
    // Ordering survives only through pass-through columns (remapped).
    out->ordering.clear();
    for (const SortKey& k : in.ordering) {
      bool mapped = false;
      for (size_t i = 0; i < p->exprs().size() && !mapped; i++) {
        auto* cr = dynamic_cast<const ColRefExpr*>(p->exprs()[i].get());
        if (cr != nullptr && cr->index() == k.col) {
          out->ordering.push_back({i, k.ascending});
          mapped = true;
        }
      }
      if (!mapped) break;  // ordering is a prefix property
    }
    out->partitions = in.partitions;
    return Status::OK();
  }

  if (auto* agg = dynamic_cast<const HashAggOperator*>(&op)) {
    PlanProperties in;
    VWISE_RETURN_IF_ERROR(VerifyNode(agg->child(), &in));
    std::vector<TypeId> expected;
    for (size_t g : agg->group_cols()) {
      if (g >= in.types.size()) {
        std::string msg = "group column ";
        msg += ColName(g);
        msg += " out of range over input ";
        msg += TypesToString(in.types);
        return NodeErr("hash_agg", std::move(msg));
      }
      if (in.nullable[g]) {
        std::string msg = "groups by NULLable column ";
        msg += ColName(g);
        msg += " without NULL decomposition (dummy values would form groups)";
        return NodeErr("hash_agg", std::move(msg));
      }
      expected.push_back(in.types[g]);
    }
    for (const AggSpec& a : agg->aggs()) {
      if (a.fn == AggSpec::Fn::kCountStar) {
        expected.push_back(TypeId::kI64);
        continue;
      }
      if (a.col >= in.types.size()) {
        std::string msg = AggFnName(a.fn);
        msg += " input column ";
        msg += ColName(a.col);
        msg += " out of range over input ";
        msg += TypesToString(in.types);
        return NodeErr("hash_agg", std::move(msg));
      }
      if (in.nullable[a.col]) {
        std::string msg = AggFnName(a.fn);
        msg += " aggregates NULLable column ";
        msg += ColName(a.col);
        msg += " without NULL decomposition (dummy values would be counted)";
        return NodeErr("hash_agg", std::move(msg));
      }
      const TypeId t = in.types[a.col];
      switch (a.fn) {
        case AggSpec::Fn::kSum:
        case AggSpec::Fn::kAvg:
        case AggSpec::Fn::kMin:
        case AggSpec::Fn::kMax:
          if (t == TypeId::kStr) {
            std::string msg = AggFnName(a.fn);
            msg += " over string column ";
            msg += ColName(a.col);
            msg += " is not supported (the accumulator would reinterpret "
                   "string headers as integers)";
            return NodeErr("hash_agg", std::move(msg));
          }
          break;
        case AggSpec::Fn::kCount:
        case AggSpec::Fn::kCountStar:
          break;
      }
      switch (a.fn) {
        case AggSpec::Fn::kSum:
          expected.push_back(IsIntFamily(t) ? TypeId::kI64 : TypeId::kF64);
          break;
        case AggSpec::Fn::kMin:
        case AggSpec::Fn::kMax:
          expected.push_back(t == TypeId::kF64   ? TypeId::kF64
                             : t == TypeId::kI32 ? TypeId::kI32
                                                 : TypeId::kI64);
          break;
        case AggSpec::Fn::kCount:
        case AggSpec::Fn::kCountStar:
          expected.push_back(TypeId::kI64);
          break;
        case AggSpec::Fn::kAvg:
          expected.push_back(TypeId::kF64);
          break;
      }
    }
    if (expected != agg->OutputTypes()) {
      std::string msg = "declared output types ";
      msg += TypesToString(agg->OutputTypes());
      msg += " do not match the aggregate typing rules: ";
      msg += TypesToString(expected);
      return NodeErr("hash_agg", std::move(msg));
    }
    out->types = std::move(expected);
    out->nullable.assign(out->types.size(), false);
    out->ordering.clear();  // hash table iteration order
    out->partitions = 1;    // blocking operator re-serializes
    return Status::OK();
  }

  if (auto* j = dynamic_cast<const HashJoinOperator*>(&op)) {
    PlanProperties probe;
    PlanProperties build;
    VWISE_RETURN_IF_ERROR(VerifyNode(j->probe(), &probe));
    VWISE_RETURN_IF_ERROR(VerifyNode(j->build(), &build));
    const auto& spec = j->spec();
    if (spec.probe_keys.empty() ||
        spec.probe_keys.size() != spec.build_keys.size()) {
      return NodeErr("hash_join",
                     "probe/build key lists must be non-empty and equal-sized");
    }
    for (size_t i = 0; i < spec.probe_keys.size(); i++) {
      const size_t pk = spec.probe_keys[i];
      const size_t bk = spec.build_keys[i];
      if (pk >= probe.types.size() || bk >= build.types.size()) {
        return NodeErr("hash_join", "join key column out of range");
      }
      if (probe.types[pk] != build.types[bk]) {
        std::string msg = "key ";
        msg += std::to_string(i);
        msg += " has mismatched physical types: probe ";
        msg += ColName(pk);
        msg += ":";
        msg += TypeIdToString(probe.types[pk]);
        msg += " vs build ";
        msg += ColName(bk);
        msg += ":";
        msg += TypeIdToString(build.types[bk]);
        return NodeErr("hash_join", std::move(msg));
      }
      if (probe.nullable[pk] || build.nullable[bk]) {
        return NodeErr("hash_join",
                       "join key consumes a NULLable column without NULL "
                       "decomposition (dummy values would match)");
      }
    }
    for (size_t pay : spec.build_payload) {
      if (pay >= build.types.size()) {
        return NodeErr("hash_join", "build payload column out of range");
      }
    }
    const bool emits_payload =
        spec.type == JoinType::kInner || spec.type == JoinType::kLeftOuter;
    std::vector<TypeId> expected = probe.types;
    std::vector<bool> expected_null = probe.nullable;
    if (emits_payload) {
      for (size_t pay : spec.build_payload) {
        expected.push_back(build.types[pay]);
        // Outer-join payload is padded for unmatched probe rows: the dummy
        // values carry the u8 matched flag as their indicator, so the
        // columns are NULLable downstream.
        expected_null.push_back(spec.type == JoinType::kLeftOuter
                                    ? true
                                    : build.nullable[pay]);
      }
    }
    if (spec.type == JoinType::kLeftOuter) {
      expected.push_back(TypeId::kU8);
      expected_null.push_back(false);
    }
    if (expected != j->OutputTypes()) {
      std::string msg = "declared output types ";
      msg += TypesToString(j->OutputTypes());
      msg += " do not match the join layout rules: ";
      msg += TypesToString(expected);
      return NodeErr("hash_join", std::move(msg));
    }
    if (spec.residual != nullptr) {
      // The residual is evaluated against [probe columns..., payload...]
      // regardless of join type (kLeftOuter's flag is not visible to it).
      std::vector<TypeId> layout = probe.types;
      std::vector<bool> layout_null = probe.nullable;
      for (size_t pay : spec.build_payload) {
        layout.push_back(build.types[pay]);
        layout_null.push_back(build.nullable[pay]);
      }
      VWISE_RETURN_IF_ERROR(
          VerifyFilterTree(*spec.residual, layout, &layout_null));
    }
    out->types = std::move(expected);
    out->nullable = std::move(expected_null);
    out->ordering = probe.ordering;  // pairs are emitted in probe order
    out->partitions = probe.partitions;
    return Status::OK();
  }

  if (auto* so = dynamic_cast<const SortOperator*>(&op)) {
    VWISE_RETURN_IF_ERROR(VerifyNode(so->child(), out));
    for (const SortKey& k : so->keys()) {
      if (k.col >= out->types.size()) {
        std::string msg = "sort key ";
        msg += ColName(k.col);
        msg += " out of range over input ";
        msg += TypesToString(out->types);
        return NodeErr("sort", std::move(msg));
      }
      if (out->nullable[k.col]) {
        std::string msg = "sort key on NULLable column ";
        msg += ColName(k.col);
        msg += " without NULL decomposition (dummy values would order "
               "arbitrarily)";
        return NodeErr("sort", std::move(msg));
      }
    }
    out->ordering = so->keys();
    out->partitions = 1;  // full materialization re-serializes
    return Status::OK();
  }

  if (auto* lim = dynamic_cast<const LimitOperator*>(&op)) {
    return VerifyNode(lim->child(), out);  // pure pass-through
  }

  // Unknown operator: accept at declared types, reset properties.
  out->types = op.OutputTypes();
  out->nullable.assign(out->types.size(), false);
  out->ordering.clear();
  out->partitions = 1;
  return Status::OK();
}

namespace {

void CollectScans(const Operator& op, std::vector<const ScanOperator*>* out) {
  if (auto* s = dynamic_cast<const ScanOperator*>(&op)) {
    out->push_back(s);
  } else if (auto* sel = dynamic_cast<const SelectOperator*>(&op)) {
    CollectScans(sel->child(), out);
  } else if (auto* p = dynamic_cast<const ProjectOperator*>(&op)) {
    CollectScans(p->child(), out);
  } else if (auto* agg = dynamic_cast<const HashAggOperator*>(&op)) {
    CollectScans(agg->child(), out);
  } else if (auto* j = dynamic_cast<const HashJoinOperator*>(&op)) {
    CollectScans(j->probe(), out);
    CollectScans(j->build(), out);
  } else if (auto* so = dynamic_cast<const SortOperator*>(&op)) {
    CollectScans(so->child(), out);
  } else if (auto* lim = dynamic_cast<const LimitOperator*>(&op)) {
    CollectScans(lim->child(), out);
  }
  // XchgOperator fragments are verified by their own VerifyXchg pass.
}

}  // namespace

}  // namespace vwise
