#ifndef VWISE_EXEC_OPERATOR_H_
#define VWISE_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "common/status.h"
#include "vector/chunk.h"

namespace vwise {

class QueryContext;  // service/query_context.h

// A physical vectorized operator (X100 execution model). Pull-based:
// Next() fills the caller's chunk; an empty chunk (ActiveCount() == 0)
// signals end of stream.
//
// Data contract: the vectors written by Next() remain valid only until the
// next call to Next() (or Close()) on the same operator — they may alias
// storage buffers or the operator's scratch. Operators that buffer input
// across calls (join build, aggregation, sort, exchange) must deep-copy,
// including string bytes.
//
// Every pipeline runs under a QueryContext (cancellation token, deadline,
// memory budget — see service/query_context.h), bound by the non-virtual
// Open(ctx) before the subclass hook OpenImpl() runs. Operators poll
// ctx()->Check() once per vector in the long-running paths (scans, exchange
// producers/consumer, the CollectRows drive loop), so a cancel or deadline
// unwinds the whole tree, including fragments on shared pool threads, within
// one vector boundary.
class Operator {
 public:
  virtual ~Operator() = default;

  // Physical column types this operator emits.
  virtual const std::vector<TypeId>& OutputTypes() const = 0;

  // Recursively prepares the pipeline under `ctx`; must be called once
  // before Next(), and `ctx` must outlive the pipeline. nullptr binds the
  // process background context (never cancelled, unlimited budget), which
  // keeps embedded callers and unit tests on today's behavior.
  Status Open(QueryContext* ctx);
  Status Open() { return Open(nullptr); }

  virtual Status Next(DataChunk* out) = 0;
  virtual void Close() = 0;

 protected:
  // The bound per-query context; non-null after Open(). Subclasses open
  // their children with child->Open(ctx()).
  QueryContext* ctx() const { return ctx_; }

  // Subclass hook, runs with ctx() already bound.
  virtual Status OpenImpl() = 0;

 private:
  QueryContext* ctx_ = nullptr;
};

using OperatorPtr = std::unique_ptr<Operator>;

// Deep copy `src`'s active rows densely into `dst` (which must have been
// Init'ed with matching types and capacity >= src.ActiveCount()). String
// bytes are copied into dst's own heaps so dst owns everything it points to.
void DeepCopyChunk(const DataChunk& src, DataChunk* dst);

// Approximate owned-copy footprint of the active rows of `chunk`
// (fixed-width payload plus actual string bytes). The buffering operators
// (join build, sort, exchange) reserve this against the query's memory
// budget as they consume input.
size_t EstimateChunkBytes(const DataChunk& chunk);

// Materialized query output (API boundary / tests).
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<DataType> column_types;
  std::vector<std::vector<Value>> rows;
  // EXPLAIN ANALYZE text (per-operator runtime annotations plus the
  // per-primitive counter section). Filled by RunPlan (service/session.cc)
  // when Config::profile is set; empty otherwise.
  std::string profile;
  // Memory-budget telemetry of the execution (filled by the query service's
  // RunPlan; zero for embedded CollectRows callers). peak_reserved_bytes is
  // the high-water mark of budget reservations; the spill counters are
  // nonzero iff any pipeline breaker degraded to disk.
  size_t peak_reserved_bytes = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t spill_bytes_read = 0;

  std::string ToString(size_t max_rows = 25) const;
};

// Runs a pipeline to completion under `ctx`, materializing every row. The
// drive loop polls ctx->Check() per chunk, so emit phases of pipeline
// breakers (sort/agg output) also honor cancellation and deadlines.
Result<QueryResult> CollectRows(Operator* root, QueryContext* ctx,
                                size_t vector_size,
                                std::vector<std::string> names = {},
                                std::vector<DataType> types = {});
// Background-context convenience (embedded callers, tests).
Result<QueryResult> CollectRows(Operator* root, size_t vector_size,
                                std::vector<std::string> names = {},
                                std::vector<DataType> types = {});

}  // namespace vwise

#endif  // VWISE_EXEC_OPERATOR_H_
