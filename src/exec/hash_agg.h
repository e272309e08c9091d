#ifndef VWISE_EXEC_HASH_AGG_H_
#define VWISE_EXEC_HASH_AGG_H_

#include <memory>
#include <variant>
#include <vector>

#include "exec/key_table.h"
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
// global group). The groups are the rows of a KeyTable: keys are hashed a
// column at a time and resolved to group indices a vector at a time. Each
// aggregate then runs one update loop over that group-index array, with the
// input and state types resolved once per aggregate and chunk, not per
// value. Groups are numbered, and emitted, in order of first appearance.
//
// State: per aggregate a value lane (i64 or f64) and, for min/max/avg, a
// count lane (a first-touch marker for min/max), each one typed array
// indexed by group. The lanes are the spilled "state row" columns too, so
// input chunks and spilled partial states merge through the same update.
//
// Output: group columns, then one column per aggregate (sum keeps the input
// physical type for i64, widens to f64 otherwise; count is i64; avg is f64;
// min/max keep the input type).
//
// When the group table overruns the query's memory budget (and
// Config::enable_spill is on), the operator degrades to radix-partitioned
// spilling: the table is flushed to disk as mergeable state rows (keys +
// lanes), partitioned by the high bits of the group hash, and cleared; at
// emit time the partitions are reloaded one at a time and merge-aggregated,
// so every partition needs only its own share of the budget. Spilling
// changes the group output order (partition-major instead of
// first-appearance) but not the set of rows.
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
  Status ProcessChunk(const DataChunk& chunk);
  // Resolves rows sel[0..n) of `chunk` (group keys `key_cols`) into
  // group_idx_, creating the groups not seen yet.
  void ResolveGroups(const DataChunk& chunk, const std::vector<size_t>& key_cols,
                     const sel_t* sel, size_t n);
  void AddGroups();  // zeroed lanes for the groups the table just created
  // Merges a source into every aggregate's lanes for the groups
  // group_idx_[0..n): rows sel[0..n) of an input chunk (value = the input
  // column, count 1 a row), or with `state_rows` the dense rows of a spilled
  // state chunk (value and count lanes as stored).
  void UpdateLanes(const DataChunk& chunk, const sel_t* sel, size_t n,
                   bool state_rows);
  // Reserves the worst case for `rows` more rows: every one a new group,
  // growing the buckets. TrimReservation then gives back what the table
  // does not hold.
  Status ReserveGroups(size_t rows);
  void TrimReservation();
  // Flushes the whole group table to the radix partitions and clears it,
  // giving its reservation back.
  Status SpillGroups();
  // Re-aggregates the current spilled partition into the (empty) table.
  Status LoadPartition();
  // Resets the group table and returns its budget reservation.
  void ClearTable();

  OperatorPtr child_;
  std::vector<size_t> group_cols_;
  std::vector<AggSpec> aggs_;
  Config config_;
  std::vector<TypeId> out_types_;

  // The groups: one key-table row each. n_groups_ survives Close().
  KeyTable table_;
  size_t n_groups_ = 0;

  // One column of aggregate state, indexed by group: i64 or f64 values.
  using Lane = std::variant<std::vector<int64_t>, std::vector<double>>;
  // Aggregate a's lanes: lanes_[agg_lanes_[a].value], and for min/max/avg
  // the count lane lanes_[agg_lanes_[a].count]. A spilled state row is the
  // key columns followed by the lanes: state_types_.
  struct AggLanes {
    size_t value;
    size_t count;  // SIZE_MAX: none
  };
  std::vector<Lane> lanes_;
  std::vector<AggLanes> agg_lanes_;
  std::vector<TypeId> state_types_;
  std::vector<size_t> identity_cols_;  // 0..n_keys-1: key cols of a state row

  // Scratch, sized in OpenImpl and held for the operator's lifetime —
  // Next()/ProcessChunk touch no allocator.
  std::vector<uint64_t> hash_scratch_;  // [vector_size]
  std::vector<uint32_t> group_idx_;     // [vector_size]
  std::vector<uint32_t> emit_idx_;      // [vector_size], emit-phase gather
  bool consumed_ = false;
  size_t emit_cursor_ = 0;

  // Per-query memory budget accounting: a worst-case bound (every row of the
  // incoming slice a fresh group, plus the buckets for them) is reserved
  // BEFORE insertion and trimmed to the groups and buckets the table holds
  // afterwards (table_bytes_), released in Close().
  MemoryReservation mem_;
  size_t per_group_bytes_ = 0;
  size_t table_bytes_ = 0;

  RadixSpill spill_;  // one stream of state rows
};

}  // namespace vwise

#endif  // VWISE_EXEC_HASH_AGG_H_
