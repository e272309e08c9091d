#ifndef VWISE_EXEC_HASH_AGG_H_
#define VWISE_EXEC_HASH_AGG_H_

#include <memory>
#include <vector>

#include "exec/column_store.h"
#include "exec/operator.h"
#include "exec/radix_spill.h"
#include "service/query_context.h"

namespace vwise {

// One aggregate function over an input column.
struct AggSpec {
  enum class Fn : uint8_t { kSum, kMin, kMax, kCount, kCountStar, kAvg };
  Fn fn;
  size_t col = 0;  // ignored for kCountStar

  static AggSpec Sum(size_t col) { return {Fn::kSum, col}; }
  static AggSpec Min(size_t col) { return {Fn::kMin, col}; }
  static AggSpec Max(size_t col) { return {Fn::kMax, col}; }
  static AggSpec Count(size_t col) { return {Fn::kCount, col}; }
  static AggSpec CountStar() { return {Fn::kCountStar, 0}; }
  static AggSpec Avg(size_t col) { return {Fn::kAvg, col}; }
};

// Vectorized hash aggregation (grouped or, with no group columns, a single
// global group). Hashes are computed a vector at a time; group resolution
// fills a per-chunk group-index array that the per-aggregate update loops
// then consume — no per-row function dispatch.
//
// Output: group columns, then one column per aggregate (sum keeps the input
// physical type for i64, widens to f64 otherwise; count is i64; avg is f64;
// min/max keep the input type).
//
// When the group table overruns the query's memory budget (and
// Config::enable_spill is on), the operator degrades to radix-partitioned
// spilling: the table is flushed to disk as mergeable "state rows" (keys +
// per-aggregate state lanes), partitioned by the high bits of the group
// hash, and cleared; at emit time the partitions are reloaded one at a time
// and merge-aggregated, so every partition needs only its own share of the
// budget. Spilling changes the group output order (partition-major instead
// of first-appearance) but not the set of rows.
class HashAggOperator final : public Operator {
 public:
  HashAggOperator(OperatorPtr child, std::vector<size_t> group_cols,
                  std::vector<AggSpec> aggs, const Config& config);
  ~HashAggOperator() override;

  const std::vector<TypeId>& OutputTypes() const override { return out_types_; }
  Status Next(DataChunk* out) override;
  void Close() override;

  size_t num_groups() const { return n_groups_; }

  // Static-analysis surface (plan verifier).
  const Operator& child() const { return *child_; }
  const std::vector<size_t>& group_cols() const { return group_cols_; }
  const std::vector<AggSpec>& aggs() const { return aggs_; }
  // Spill telemetry (EXPLAIN ANALYZE); survives Close() and resets on the
  // next Open.
  const RadixSpill::Stats& spill_stats() const { return spill_.stats(); }
  size_t spill_repartitions() const { return spill_.stats().repartitions; }
  size_t spill_repartition_depth() const { return spill_.stats().depth; }

 private:
  Status OpenImpl() override;
  Status ConsumeInput();
  // Mutable chunk: encoded group-key and aggregate-input columns are
  // normalized in place.
  Status ProcessChunk(DataChunk& chunk);
  void ResizeTable(size_t buckets);
  uint32_t FindOrCreateGroup(const DataChunk& chunk, sel_t pos, uint64_t hash,
                             const size_t* key_cols);
  // Lays out the aggregate state lanes — of the in-memory states and of the
  // spill "state row" schema alike: key columns first, then one value lane
  // per aggregate (i64 or f64) plus a count lane for min/max/avg.
  void BuildStateSchema();
  // Flushes the whole group table to the radix partitions and clears it,
  // giving its reservation back.
  Status SpillGroups();
  // Re-aggregates the current spilled partition into the (empty) table.
  Status LoadPartition();
  // Merge-aggregates a chunk of state rows (the spill-side ProcessChunk).
  Status ProcessStateChunk(const DataChunk& chunk);
  // Resets the group table and returns its budget reservation.
  void ClearTable();

  OperatorPtr child_;
  std::vector<size_t> group_cols_;
  std::vector<AggSpec> aggs_;
  Config config_;
  std::vector<TypeId> out_types_;

  // Group keys (owned copies) + open-addressing table of group indices.
  std::vector<ColumnStore> key_stores_;
  std::vector<uint64_t> group_hashes_;
  std::vector<uint32_t> slots_;
  uint64_t slot_mask_ = 0;
  size_t n_groups_ = 0;

  // Aggregate states, one entry per group.
  struct AggState {
    TypeId in_type;      // physical type of the input column
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<int64_t> count;  // avg / first-touch tracking for min/max
  };
  std::vector<AggState> states_;

  // Scratch, sized in OpenImpl and held for the operator's lifetime —
  // Next()/ProcessChunk touch no allocator.
  std::vector<uint64_t> hash_scratch_;  // [vector_size]
  std::vector<uint32_t> group_idx_;     // [vector_size]
  std::vector<uint32_t> emit_idx_;      // [vector_size], emit-phase gather
  bool consumed_ = false;
  size_t emit_cursor_ = 0;

  // Per-query memory budget accounting: a worst-case bound (every row of the
  // incoming slice a fresh group) is reserved BEFORE insertion and trimmed to
  // the groups actually created afterwards, released in Close().
  MemoryReservation mem_;
  size_t per_group_bytes_ = 0;
  size_t reserved_groups_ = 0;

  // Radix-spill state: one stream of mergeable state rows.
  struct StateLane {
    size_t value_col;  // state-row column of the value lane
    size_t count_col;  // count lane (min/max/avg), SIZE_MAX otherwise
    bool is_i64;       // physical type of the value lane
  };
  std::vector<TypeId> state_types_;
  std::vector<StateLane> lanes_;
  std::vector<size_t> identity_cols_;  // 0..n_keys-1: key cols of a state row
  RadixSpill spill_;
};

}  // namespace vwise

#endif  // VWISE_EXEC_HASH_AGG_H_
