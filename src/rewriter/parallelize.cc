#include "rewriter/parallelize.h"

#include <utility>

#include "planner/plan_verifier.h"

namespace vwise::rewriter {

namespace {

// The serial (pre-rewrite) form: the caller's pipeline over one full scan,
// plus the combining aggregate (kept so serial and parallel plans compute
// identical shapes).
Result<OperatorPtr> BuildSerial(const std::shared_ptr<ParallelAggSpec>& shared,
                                const Config& cfg) {
  ScanOperator::Options opts;
  opts.ranges = shared->ranges;
  auto scan = std::make_unique<ScanOperator>(shared->snapshot,
                                             shared->scan_cols, cfg, opts);
  VWISE_ASSIGN_OR_RETURN(OperatorPtr partial,
                         shared->build_pipeline(std::move(scan)));
  return OperatorPtr(std::make_unique<HashAggOperator>(
      std::move(partial), shared->final_group_cols, shared->final_aggs, cfg));
}

Status WrapRuleError(const char* which, const Status& st) {
  std::string msg = "parallelize rewriter: the ";
  msg += which;
  msg += " plan fails static verification: ";
  msg += st.message();
  return Status::Internal(std::move(msg));
}

}  // namespace

Result<OperatorPtr> ParallelizeScanAgg(ParallelAggSpec spec,
                                       const Config& config) {
  int workers = config.num_threads > 0 ? config.num_threads : 1;
  auto shared = std::make_shared<ParallelAggSpec>(std::move(spec));
  Config cfg = config;

  if (workers == 1) {
    // No rewrite: plain serial pipeline.
    VWISE_ASSIGN_OR_RETURN(OperatorPtr serial, BuildSerial(shared, cfg));
    if (cfg.verify_plans) {
      Status st = PlanVerifier().Verify(*serial);
      if (!st.ok()) return WrapRuleError("serial", st);
    }
    return serial;
  }

  size_t n_stripes = shared->snapshot.stable->stripe_count();
  auto factory = [shared, cfg, n_stripes](
                     int w, int n) -> Result<OperatorPtr> {
    ScanOperator::Options opts;
    opts.ranges = shared->ranges;
    opts.stripe_begin = n_stripes * w / n;
    opts.stripe_end = n_stripes * (w + 1) / n;
    auto scan = std::make_unique<ScanOperator>(shared->snapshot,
                                               shared->scan_cols, cfg, opts);
    return shared->build_pipeline(std::move(scan));
  };
  auto xchg = std::make_unique<XchgOperator>(factory, workers,
                                             shared->partial_types, cfg);
  OperatorPtr parallel = std::make_unique<HashAggOperator>(
      std::move(xchg), shared->final_group_cols, shared->final_aggs, cfg);

  if (cfg.verify_plans) {
    // Rule postcondition: the rewrite must preserve the plan's verified
    // properties. Verify the serial ("before") form, the parallel ("after")
    // form — which descends into every worker fragment and cross-checks the
    // stripe partitioning for overlap/coverage — and require both to agree
    // on the output layout.
    PlanVerifier verifier;
    VWISE_ASSIGN_OR_RETURN(OperatorPtr serial, BuildSerial(shared, cfg));
    PlanProperties before;
    PlanProperties after;
    Status st = verifier.Verify(*serial, &before);
    if (!st.ok()) return WrapRuleError("serial (pre-rewrite)", st);
    st = verifier.Verify(*parallel, &after);
    if (!st.ok()) return WrapRuleError("parallel (post-rewrite)", st);
    if (before.types != after.types) {
      std::string msg =
          "parallelize rewriter: the rewrite changed the plan's output "
          "layout\nserial plan:\n";
      msg += ExplainPlan(*serial);
      msg += "parallel plan:\n";
      msg += ExplainPlan(*parallel);
      return Status::Internal(std::move(msg));
    }
  }
  return parallel;
}

}  // namespace vwise::rewriter
