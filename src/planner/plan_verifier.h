#ifndef VWISE_PLANNER_PLAN_VERIFIER_H_
#define VWISE_PLANNER_PLAN_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "exec/operator.h"
#include "expr/expression.h"

namespace vwise {

// ---------------------------------------------------------------------------
// Static plan verification
// ---------------------------------------------------------------------------
//
// A static analysis pass over physical plan trees. It re-derives, bottom-up,
// what each operator must emit — expression result types inferred against
// the child layout, aggregate output types from the AggSpec rules, join
// layouts from the Spec — and checks the derivation against each operator's
// declared OutputTypes(). Alongside the types it propagates nullability —
// which columns are catalog-NULLable. Execution primitives are NULL-oblivious
// (paper Sec. I-B): an expression or aggregate that consumes a NULLable
// column directly, without the rewriter's (value, indicator) decomposition,
// is a plan bug and is rejected.
//
// The verifier descends into an XchgOperator's worker fragments like any
// other children, checks each against the exchange's declared types, and
// cross-checks their scans' stripe partitions for overlap and coverage.
// Unknown operator types are accepted at their declared types with
// properties reset.

// Stream properties inferred for (the output of) a verified plan node.
struct PlanProperties {
  std::vector<TypeId> types;
  // Per column: does it come from a catalog-NULLable column (directly or
  // through a pass-through/join) without NULL decomposition applied?
  std::vector<bool> nullable;
};

class PlanVerifier {
 public:
  // Verifies the plan tree rooted at `root`. On success, fills *props (when
  // non-null) with the root's inferred stream properties. On failure the
  // Status message carries the offending node's diagnosis plus an
  // ExplainPlan dump of the whole tree.
  Status Verify(const Operator& root, PlanProperties* props = nullptr) const;

 private:
  Status VerifyNode(const Operator& op, PlanProperties* out) const;
  Status VerifyScan(const class ScanOperator& op, PlanProperties* out) const;
  Status VerifyXchg(const class XchgOperator& op, PlanProperties* out) const;
};

// ---------------------------------------------------------------------------
// Expression / filter type inference (exposed for rewriter + tests)
// ---------------------------------------------------------------------------

// Bottom-up inference of `e`'s physical result type against an input layout.
// Checks every ColRef against `input` (and, when `nullable` is non-null,
// rejects direct consumption of NULLable columns), every internal node's
// operand-type constraints, and each node's declared type. Errors carry an
// ExplainExpr rendering.
Result<TypeId> InferExprType(const Expr& e, const std::vector<TypeId>& input,
                             const std::vector<bool>* nullable = nullptr);

// Same, for a filter tree (filters have no result type; the value is the
// check itself).
Status VerifyFilterTree(const Filter& f, const std::vector<TypeId>& input,
                        const std::vector<bool>* nullable = nullptr);

// ---------------------------------------------------------------------------
// Rewriter-rule postconditions
// ---------------------------------------------------------------------------

// Checks that a filter produced by the NULL-decomposition rewrite of
// "col CMP literal" is sound: it must type-check over a layout where
// `val_col` has type `val_type` and `ind_col` is the u8 indicator, and it
// must consult the indicator column (otherwise NULL rows could qualify —
// the "rule drops the indicator" mutation). `width` is the layout width.
Status VerifyNullRewriteFilter(const Filter& rewritten, size_t val_col,
                               TypeId val_type, size_t ind_col, size_t width);

// Checks a NULL-decomposed arithmetic pair: the value expression must
// type-check and reference both value columns; the indicator expression
// must be i64 and reference both indicator columns (dropping one would
// silently un-NULL that operand).
Status VerifyNullRewritePair(const Expr& value, const Expr& indicator,
                             size_t a_val, size_t a_ind, size_t b_val,
                             size_t b_ind, TypeId val_type, size_t width);

// ---------------------------------------------------------------------------
// Pretty printers (used in every verifier error message)
// ---------------------------------------------------------------------------

std::string ExplainPlan(const Operator& root);
std::string ExplainExpr(const Expr& e);
std::string ExplainFilter(const Filter& f);

// ---------------------------------------------------------------------------
// Plan profiles (EXPLAIN ANALYZE)
// ---------------------------------------------------------------------------

// One rendered plan line in top-down (pre-order) print order: either a real
// operator node or a pseudo-line (an Xchg "fragment(w):" header). When the
// node was built with Config::profile, `profiled` is set and the runtime
// counters are filled from its Operator::stats(); otherwise they stay zero.
// Xchg fragments are the live ones the workers ran, so their counters are
// real and the Xchg's rows_in is the sum of its fragment roots' rows_out.
// ExplainPlan / ExplainAnalyzePlan are both rendered from this walk, so the
// two stay line-for-line aligned.
struct PlanNodeProfile {
  std::string op;   // rendered text, e.g. "Select l_quantity < 24 -> [...]"
  size_t depth = 0;  // indentation level (two spaces per level)
  bool profiled = false;
  uint64_t next_calls = 0;
  uint64_t chunks_out = 0;  // Next() calls that produced >= 1 active row
  uint64_t rows_out = 0;    // active rows handed to the parent
  uint64_t rows_in = 0;     // sum of profiled immediate children's rows_out
  double open_ms = 0.0;
  double next_ms = 0.0;
  // Spill telemetry ("spill_runs=3" / "spill_partitions=8"), filled for
  // pipeline breakers that degraded to disk. Rendered by ExplainAnalyzePlan
  // only — plain ExplainPlan stays byte-identical whether or not the plan
  // has run.
  std::string spill;
  // Inert (empty): perfbench/ reads it; the next benchmark change deletes it.
  std::string repr;
};

// Walks the plan (descending into every Xchg fragment) and returns one entry
// per printed line.
std::vector<PlanNodeProfile> CollectPlanProfile(const Operator& root);

// ExplainPlan with per-operator runtime annotations appended to profiled
// lines: [rows=.. in=.. chunks=.. next_calls=.. open=..ms next=..ms].
std::string ExplainAnalyzePlan(const Operator& root);

}  // namespace vwise

#endif  // VWISE_PLANNER_PLAN_VERIFIER_H_
