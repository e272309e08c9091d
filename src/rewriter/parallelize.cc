#include "rewriter/parallelize.h"

#include <utility>

#include "planner/plan_verifier.h"

namespace vwise::rewriter {

namespace {

// The caller's pipeline over stripes [begin, end) of the table.
Result<OperatorPtr> BuildPipeline(const ParallelAggSpec& spec,
                                  const Config& cfg, size_t stripe_begin,
                                  size_t stripe_end) {
  ScanOperator::Options opts;
  opts.ranges = spec.ranges;
  opts.stripe_begin = stripe_begin;
  opts.stripe_end = stripe_end;
  return spec.build_pipeline(std::make_unique<ScanOperator>(
      spec.snapshot, spec.scan_cols, cfg, opts));
}

}  // namespace

Result<OperatorPtr> ParallelizeScanAgg(const ParallelAggSpec& spec,
                                       const Config& config) {
  size_t workers = config.num_threads > 0 ? config.num_threads : 1;
  OperatorPtr input;
  if (workers == 1) {
    // No rewrite: the pipeline over one full scan.
    VWISE_ASSIGN_OR_RETURN(input, BuildPipeline(spec, config, 0, SIZE_MAX));
  } else {
    // Range-partition the stripes; each fragment is built once, here.
    size_t n_stripes = spec.snapshot.stable->stripe_count();
    std::vector<OperatorPtr> fragments;
    for (size_t w = 0; w < workers; w++) {
      VWISE_ASSIGN_OR_RETURN(
          OperatorPtr fragment,
          BuildPipeline(spec, config, n_stripes * w / workers,
                        n_stripes * (w + 1) / workers));
      fragments.push_back(std::move(fragment));
    }
    input = std::make_unique<XchgOperator>(std::move(fragments),
                                           spec.partial_types, config);
  }
  OperatorPtr plan = std::make_unique<HashAggOperator>(
      std::move(input), spec.final_group_cols, spec.final_aggs, config);
  if (config.verify_plans) {
    // Rule postcondition. For a parallel plan the verifier descends into
    // every worker fragment, checks it against the declared partial types,
    // and cross-checks the stripe partitioning for overlap/coverage.
    Status st = PlanVerifier().Verify(*plan);
    if (!st.ok()) {
      std::string msg = "parallelize rewriter: the ";
      msg += workers == 1 ? "serial" : "parallel (post-rewrite)";
      msg += " plan fails static verification: ";
      msg += st.message();
      return Status::Internal(std::move(msg));
    }
  }
  return plan;
}

}  // namespace vwise::rewriter
