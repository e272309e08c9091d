#ifndef VWISE_REWRITER_PARALLELIZE_H_
#define VWISE_REWRITER_PARALLELIZE_H_

#include <functional>
#include <vector>

#include "exec/hash_agg.h"
#include "exec/scan.h"
#include "exec/xchg.h"
#include "txn/transaction_manager.h"

namespace vwise::rewriter {

// Volcano-style parallelization rule (paper Sec. I-B): rewrites an
// aggregation over a scan pipeline into
//
//     FinalAgg( Xchg( PartialPipeline(partitioned scan) x N ) )
//
// The table's stripes are range-partitioned over `config.num_threads`
// workers; each worker runs the caller-supplied pipeline (selections,
// projections, a partial aggregate) over its partition, and the consumer
// combines partials with `final_group_cols`/`final_aggs` (avg must be
// decomposed into sum+count by the caller, as the real rewriter does).
// The worker fragments are built here, once each, and handed to the Xchg;
// a `build_pipeline` error is returned from this call.
struct ParallelAggSpec {
  TableSnapshot snapshot;
  std::vector<uint32_t> scan_cols;
  std::vector<ScanRange> ranges;
  // Builds one worker's pipeline on top of its partitioned scan; the result
  // must emit `partial_types` columns.
  std::function<Result<OperatorPtr>(OperatorPtr scan)> build_pipeline;
  std::vector<TypeId> partial_types;
  std::vector<size_t> final_group_cols;
  std::vector<AggSpec> final_aggs;
};

Result<OperatorPtr> ParallelizeScanAgg(const ParallelAggSpec& spec,
                                       const Config& config);

}  // namespace vwise::rewriter

#endif  // VWISE_REWRITER_PARALLELIZE_H_
