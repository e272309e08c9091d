#ifndef VWISE_TPCH_QUERIES_H_
#define VWISE_TPCH_QUERIES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/operator.h"
#include "service/session.h"
#include "txn/transaction_manager.h"

namespace vwise::tpch {

// Builders for all 22 TPC-H queries as vectorized physical plans — the
// plans the Ingres cross compiler [7] would emit for the X100 engine.
// Parameters use the specification's validation values. The plans are
// serial; Config::num_threads does not affect them (the Xchg rewrite is
// rewriter::ParallelizeScanAgg).

struct QueryInfo {
  std::vector<std::string> column_names;
  std::vector<DataType> column_types;
};

// Builds query `q` (1-22) against the latest snapshots of `mgr`'s TPC-H
// tables.
Result<OperatorPtr> BuildQuery(int q, TransactionManager* mgr,
                               const Config& config, QueryInfo* info = nullptr);

// Convenience: build + run to completion on the calling thread (fixtures
// that drive a TransactionManager without a Database / query service).
Result<QueryResult> RunQuery(int q, TransactionManager* mgr,
                             const Config& config);

// Session-API variants: the built plan is bound to `session` and executes
// through the admission-controlled query service. `config` picks the build
// knobs (threads, vector size) — pass the session's config unless a test
// overrides it. The profiled path rides on Config::profile as before, with
// the EXPLAIN ANALYZE text in QueryResult::profile / QueryHandle::profile().
Result<std::unique_ptr<PreparedQuery>> PrepareQuery(int q, Session* session,
                                                    TransactionManager* mgr,
                                                    const Config& config);
Result<QueryResult> RunQuery(int q, Session* session, TransactionManager* mgr,
                             const Config& config);

}  // namespace vwise::tpch

#endif  // VWISE_TPCH_QUERIES_H_
