#ifndef VWISE_EXEC_OPERATOR_H_
#define VWISE_EXEC_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "vector/chunk.h"

namespace vwise {

class QueryContext;  // service/query_context.h

// Per-operator runtime counters, filled by Operator's own Open/Next when
// Config::profile is set. Times are wall-clock nanoseconds (steady_clock) and
// inclusive of the subtree; Open and Next are measured separately so a
// pipeline breaker's build cost (Open) is attributable apart from its
// streaming cost (Next).
struct OperatorStats {
  uint64_t open_ns = 0;
  uint64_t next_ns = 0;
  uint64_t next_calls = 0;
  uint64_t chunks_out = 0;  // Next() calls that produced >= 1 active row
  uint64_t rows_out = 0;    // active rows across all Next() calls
};

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
//
// Open/Next/Close are the one operator boundary: non-virtual, they wrap the
// subclass hooks OpenImpl/NextImpl/CloseImpl. With Config::check_contracts
// set, Next validates the X100 chunk invariants (exec/checked.h) on the way
// in and out and rejects a Next before Open or after Close; with
// Config::profile set, Open and Next time themselves and count the chunks
// and rows produced (stats()). Both switches are read once, at construction,
// so the untraced Next costs one predicted branch.
class Operator {
 public:
  explicit Operator(const Config& config = Config{})
      : check_(config.check_contracts), profile_(config.profile) {}
  virtual ~Operator() = default;

  // Physical column types this operator emits.
  virtual const std::vector<TypeId>& OutputTypes() const = 0;

  // Recursively prepares the pipeline under `ctx`; must be called once
  // before Next(), and `ctx` must outlive the pipeline. nullptr binds the
  // process background context (never cancelled, unlimited budget), which
  // keeps embedded callers and unit tests on today's behavior.
  Status Open(QueryContext* ctx);
  Status Open() { return Open(nullptr); }

  Status Next(DataChunk* out) {
    if (VWISE_UNLIKELY(check_ || profile_)) return NextInstrumented(out);
    return NextImpl(out);
  }

  // Releases the pipeline's resources. Idempotent for every operator, so a
  // partially-opened tree can always be closed.
  void Close() {
    open_ = false;
    CloseImpl();
  }

  // Runtime counters; all zero unless profiled().
  bool profiled() const { return profile_; }
  const OperatorStats& stats() const { return stats_; }

  // The dynamic (demangled) type name, for diagnostics.
  std::string Name() const;

 protected:
  // The bound per-query context; non-null after Open(). Subclasses open
  // their children with child->Open(ctx()).
  QueryContext* ctx() const { return ctx_; }

  // Subclass hooks; OpenImpl runs with ctx() already bound.
  virtual Status OpenImpl() = 0;
  virtual Status NextImpl(DataChunk* out) = 0;
  virtual void CloseImpl() = 0;

 private:
  Status NextInstrumented(DataChunk* out);

  QueryContext* ctx_ = nullptr;
  bool check_;
  bool profile_;
  bool open_ = false;
  OperatorStats stats_;
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
