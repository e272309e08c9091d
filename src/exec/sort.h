#ifndef VWISE_EXEC_SORT_H_
#define VWISE_EXEC_SORT_H_

#include <memory>
#include <vector>

#include "exec/column_store.h"
#include "exec/operator.h"
#include "service/query_context.h"

namespace vwise {

struct SortKey {
  size_t col;
  bool ascending = true;
};

// ORDER BY [LIMIT/OFFSET]: materializes the child, sorts an index array with
// a multi-key comparator, and emits gathered chunks. With a limit, only the
// top offset+limit rows are ordered (partial sort — the TopN of X100 plans).
//
// When the materialization overruns the query's memory budget (and
// Config::enable_spill is on), the operator degrades to an external sort:
// the rows buffered so far are sorted and written to a spill run (pruned to
// the top offset+limit when a limit is set — rows past a run's own top-K can
// never reach the global top-K), the buffer is released, and consumption
// continues; a chunk the budget cannot hold at all becomes a run by itself.
// Emission then k-way-merges the runs, after merge passes on disk while the
// budget cannot hold a block of every run. The comparator is a total order
// (input-position tie-break), so external and in-memory executions produce
// bit-identical output.
class SortOperator final : public Operator {
 public:
  SortOperator(OperatorPtr child, std::vector<SortKey> keys,
               const Config& config, size_t limit = SIZE_MAX,
               size_t offset = 0);
  ~SortOperator() override;

  const std::vector<TypeId>& OutputTypes() const override {
    return child_->OutputTypes();
  }

  // Static-analysis surface (plan verifier).
  const Operator& child() const { return *child_; }
  const std::vector<SortKey>& keys() const { return keys_; }
  size_t limit() const { return limit_; }
  size_t offset() const { return offset_; }
  // Spill telemetry (EXPLAIN ANALYZE): runs written during the consume
  // phase. Survives Close() — the profile is rendered after the tree is
  // closed — and resets on the next Open.
  size_t spill_runs() const { return spill_runs_stat_; }

 private:
  struct SortRun;  // merge-side state of one spilled run (sort.cc)

  Status OpenImpl() override;
  Status NextImpl(DataChunk* out) override;
  void CloseImpl() override;
  Status ConsumeAndSort();
  bool RowLess(uint32_t a, uint32_t b) const;
  // Orders the buffered rows into order_, keeping the top offset+limit.
  void SortBuffered();
  // Sorts and writes the buffered rows as one spill run, then resets the
  // buffer and gives its reservation back.
  Status SpillRun();
  // Opens the runs for reading and primes the merge cursors, first merging
  // runs on disk while a block of every run does not fit the budget.
  Status OpenMerge();
  // Fills `out` with the next merged rows after dropping *skip of them, at
  // most *left in all; both count down.
  Status Merge(DataChunk* out, size_t* skip, size_t* left);
  // keys_-compare of run a's current row vs run b's (no tie-break; the
  // caller's lowest-run-index-wins scan supplies it).
  int CompareRunRows(const SortRun& a, const SortRun& b) const;
  // Moves `run` past its current row, refilling its chunk from disk.
  Status AdvanceRun(SortRun* run);
  void DropRuns();

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  Config config_;
  size_t limit_;
  size_t offset_;

  std::vector<ColumnStore> data_;
  std::vector<uint32_t> order_;
  size_t cursor_ = 0;
  bool sorted_ = false;

  // External-sort state; empty when the input fit in budget.
  std::vector<std::string> run_paths_;
  std::vector<std::unique_ptr<SortRun>> runs_;
  size_t buffered_bytes_ = 0;   // reservation attributable to data_/order_
  size_t run_block_rows_ = 0;   // rows per spill-run block
  size_t merge_skip_ = 0;       // rows still to drop toward offset_
  size_t merge_left_ = 0;       // rows still to emit toward limit_
  size_t spill_runs_stat_ = 0;  // telemetry; outlives Close()

  // Per-query memory budget accounting for the materialized input + index.
  MemoryReservation mem_;
};

// LIMIT/OFFSET without ordering.
class LimitOperator final : public Operator {
 public:
  LimitOperator(OperatorPtr child, const Config& config, size_t limit,
                size_t offset = 0)
      : Operator(config),
        child_(std::move(child)),
        limit_(limit),
        offset_(offset) {}

  const std::vector<TypeId>& OutputTypes() const override {
    return child_->OutputTypes();
  }

  // Static-analysis surface (plan verifier).
  const Operator& child() const { return *child_; }
  size_t limit() const { return limit_; }
  size_t offset() const { return offset_; }

 private:
  Status OpenImpl() override {
    seen_ = 0;
    emitted_ = 0;
    return child_->Open(ctx());
  }
  Status NextImpl(DataChunk* out) override;
  void CloseImpl() override { child_->Close(); }
  OperatorPtr child_;
  size_t limit_;
  size_t offset_;
  size_t seen_ = 0;
  size_t emitted_ = 0;
};

}  // namespace vwise

#endif  // VWISE_EXEC_SORT_H_
