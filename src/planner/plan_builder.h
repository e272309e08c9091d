#ifndef VWISE_PLANNER_PLAN_BUILDER_H_
#define VWISE_PLANNER_PLAN_BUILDER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/profile.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/select.h"
#include "exec/sort.h"
#include "exec/xchg.h"
#include "expr/expression.h"
#include "planner/plan_verifier.h"
#include "txn/transaction_manager.h"

namespace vwise {

// Fluent physical-plan builder — the public face of the "planner": it plays
// the role of the Ingres-to-X100 cross compiler [7], producing X100-algebra
// operator trees. TPC-H queries and the examples are written against it.
//
// The fluent methods cannot return Status, so structural errors (operator
// before Scan, out-of-range column indices that the operator constructors
// would turn into out-of-bounds reads) are recorded and surfaced by Build(),
// which also runs the static plan verifier (plan_verifier.h) under
// Config::verify_plans and cross-checks the caller-declared logical types
// against the verified physical layout — the declared types drive Col()/F()
// expression construction, so a wrong declaration corrupts every expression
// built downstream of it.
class PlanBuilder {
 public:
  PlanBuilder(TransactionManager* mgr, const Config& config)
      : mgr_(mgr), config_(config) {}

  // -- sources ----------------------------------------------------------------

  Status Scan(const std::string& table, std::vector<uint32_t> cols,
              std::vector<ScanRange> ranges = {}) {
    VWISE_ASSIGN_OR_RETURN(TableSnapshot snap, mgr_->GetSnapshot(table));
    for (uint32_t c : cols) {
      if (c >= snap.schema->num_columns()) {
        std::string msg = "Scan: column index ";
        msg += std::to_string(c);
        msg += " out of range for table '";
        msg += table;
        msg += "'";
        return Status::InvalidArgument(std::move(msg));
      }
    }
    // Remember output DataTypes for Col() helpers.
    types_.clear();
    for (uint32_t c : cols) types_.push_back(snap.schema->column(c).type);
    ScanOperator::Options opts;
    opts.ranges = std::move(ranges);
    op_ = std::make_unique<ScanOperator>(snap, std::move(cols), config_, opts);
    return Status::OK();
  }

  // -- unary operators ---------------------------------------------------------

  PlanBuilder& Select(FilterPtr f) {
    if (!Ready("Select")) return *this;
    if (f == nullptr) return Fail("Select: null filter");
    op_ = std::make_unique<SelectOperator>(std::move(op_), std::move(f), config_);
    return *this;
  }

  // Projection; caller provides the logical type of each expression result
  // (checked against the expressions by Build()).
  PlanBuilder& Project(std::vector<ExprPtr> exprs, std::vector<DataType> types) {
    if (!Ready("Project")) return *this;
    if (exprs.size() != types.size()) {
      return Fail("Project: expression count != declared type count");
    }
    for (const ExprPtr& e : exprs) {
      if (e == nullptr) return Fail("Project: null expression");
    }
    op_ = std::make_unique<ProjectOperator>(std::move(op_), std::move(exprs), config_);
    types_ = std::move(types);
    return *this;
  }

  PlanBuilder& Agg(std::vector<size_t> group_cols, std::vector<AggSpec> aggs,
          std::vector<DataType> out_types) {
    if (!Ready("Agg")) return *this;
    // The HashAgg constructor derives its output types from the child layout;
    // out-of-range columns would be out-of-bounds reads, so reject them here.
    const size_t width = op_->OutputTypes().size();
    for (size_t g : group_cols) {
      if (g >= width) return Fail("Agg: group column out of range");
    }
    for (const AggSpec& a : aggs) {
      if (a.fn != AggSpec::Fn::kCountStar && a.col >= width) {
        return Fail("Agg: aggregate input column out of range");
      }
    }
    if (out_types.size() != group_cols.size() + aggs.size()) {
      return Fail("Agg: declared type count != group count + aggregate count");
    }
    op_ = std::make_unique<HashAggOperator>(std::move(op_), std::move(group_cols),
                                            std::move(aggs), config_);
    types_ = std::move(out_types);
    return *this;
  }

  PlanBuilder& Sort(std::vector<SortKey> keys, size_t limit = SIZE_MAX, size_t offset = 0) {
    if (!Ready("Sort")) return *this;
    for (const SortKey& k : keys) {
      if (k.col >= op_->OutputTypes().size()) {
        return Fail("Sort: key column out of range");
      }
    }
    op_ = std::make_unique<SortOperator>(std::move(op_), std::move(keys), config_,
                                         limit, offset);
    return *this;
  }

  PlanBuilder& Limit(size_t limit, size_t offset = 0) {
    if (!Ready("Limit")) return *this;
    op_ = std::make_unique<LimitOperator>(std::move(op_), config_, limit, offset);
    return *this;
  }

  // -- joins --------------------------------------------------------------------

  // this = probe side; `build` is consumed. Output: probe cols + payload
  // (+ match flag for left outer).
  PlanBuilder& Join(PlanBuilder&& build, JoinType type, std::vector<size_t> probe_keys,
           std::vector<size_t> build_keys, std::vector<size_t> payload = {},
           FilterPtr residual = nullptr) {
    if (!Ready("Join")) return *this;
    if (!build.status_.ok()) {
      status_ = build.status_;
      return *this;
    }
    if (build.op_ == nullptr) return Fail("Join: build side has no plan");
    // The HashJoin constructor reads both children's layouts for its output
    // types; bound-check every index before handing them over.
    const size_t probe_width = op_->OutputTypes().size();
    const size_t build_width = build.op_->OutputTypes().size();
    if (probe_keys.size() != build_keys.size() || probe_keys.empty()) {
      return Fail("Join: probe/build key lists must be non-empty and equal-sized");
    }
    for (size_t k : probe_keys) {
      if (k >= probe_width) return Fail("Join: probe key out of range");
    }
    for (size_t k : build_keys) {
      if (k >= build_width) return Fail("Join: build key out of range");
    }
    for (size_t c : payload) {
      if (c >= build_width) return Fail("Join: payload column out of range");
    }
    HashJoinOperator::Spec spec;
    spec.type = type;
    spec.probe_keys = std::move(probe_keys);
    spec.build_keys = std::move(build_keys);
    spec.build_payload = std::move(payload);
    spec.residual = std::move(residual);
    std::vector<DataType> new_types = types_;
    if (type == JoinType::kInner || type == JoinType::kLeftOuter) {
      for (size_t c : spec.build_payload) new_types.push_back(build.types_[c]);
      if (type == JoinType::kLeftOuter) new_types.push_back(DataType::Bool());
    }
    op_ = std::make_unique<HashJoinOperator>(std::move(op_), std::move(build.op_),
                                             std::move(spec), config_);
    types_ = std::move(new_types);
    return *this;
  }

  // -- expression helpers (positional, against this node's output) -------------

  ExprPtr Col(size_t i) const { return e::Col(i, types_[i]); }
  // DECIMAL/INT column cast to f64 (decimals divide by scale).
  ExprPtr F(size_t i) const { return e::ToF64(Col(i)); }

  const DataType& TypeOf(size_t i) const { return types_[i]; }
  const std::vector<DataType>& types() const { return types_; }
  const Config& config() const { return config_; }
  TransactionManager* mgr() { return mgr_; }

  // Finishes the plan. Surfaces any error a fluent method recorded, then —
  // under Config::verify_plans — runs the static plan verifier over the tree
  // and checks the declared logical types against the verified layout. The
  // per-operator contract wrapping happens inside each operator's
  // constructor; wrapping the finished plan here additionally validates the
  // root's output stream (the chunks CollectRows and the API layer consume).
  Result<OperatorPtr> Build() {
    VWISE_RETURN_IF_ERROR(status_);
    if (op_ == nullptr) {
      return Status::InvalidArgument(
          "PlanBuilder::Build: empty plan (Scan failed or was never called)");
    }
    OperatorPtr root = InterposeChild(std::move(op_), config_, "plan.root");
    if (config_.verify_plans) {
      PlanVerifier verifier;
      PlanProperties props;
      VWISE_RETURN_IF_ERROR(verifier.Verify(*root, &props));
      if (props.types.size() != types_.size()) {
        std::string msg = "plan verifier: builder declares ";
        msg += std::to_string(types_.size());
        msg += " output columns but the plan produces ";
        msg += std::to_string(props.types.size());
        msg += "\nin plan:\n";
        msg += ExplainPlan(*root);
        return Status::Internal(std::move(msg));
      }
      for (size_t i = 0; i < types_.size(); i++) {
        if (types_[i].physical() != props.types[i]) {
          std::string msg = "plan verifier: declared logical type of column ";
          msg += std::to_string(i);
          msg += " has physical ";
          msg += TypeIdToString(types_[i].physical());
          msg += " but the plan produces ";
          msg += TypeIdToString(props.types[i]);
          msg += "\nin plan:\n";
          msg += ExplainPlan(*root);
          return Status::Internal(std::move(msg));
        }
      }
    }
    return root;
  }

 private:
  bool Ready(const char* method) {
    if (!status_.ok()) return false;
    if (op_ == nullptr) {
      std::string msg = method;
      msg += ": no input plan (call Scan first)";
      Fail(std::move(msg));
      return false;
    }
    return true;
  }

  PlanBuilder& Fail(std::string msg) {
    if (status_.ok()) {
      std::string s = "PlanBuilder::";
      s += msg;
      status_ = Status::InvalidArgument(std::move(s));
    }
    return *this;
  }

  TransactionManager* mgr_;
  Config config_;
  OperatorPtr op_;
  std::vector<DataType> types_;
  Status status_;
};

// The standard TPC-H revenue term extendedprice * (1 - discount), as f64.
inline ExprPtr Revenue(const PlanBuilder& q, size_t price, size_t discount) {
  return e::Mul(q.F(price), e::Sub(e::F64(1.0), q.F(discount)));
}

template <typename... T>
std::vector<FilterPtr> Fs(T... parts) {
  std::vector<FilterPtr> v;
  (v.push_back(std::move(parts)), ...);
  return v;
}

template <typename... T>
std::vector<ExprPtr> Es(T... parts) {
  std::vector<ExprPtr> v;
  (v.push_back(std::move(parts)), ...);
  return v;
}

}  // namespace vwise

#endif  // VWISE_PLANNER_PLAN_BUILDER_H_
