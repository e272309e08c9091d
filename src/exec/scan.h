#ifndef VWISE_EXEC_SCAN_H_
#define VWISE_EXEC_SCAN_H_

#include <memory>
#include <vector>

#include "exec/operator.h"
#include "scan/scan_scheduler.h"
#include "txn/transaction_manager.h"

namespace vwise {

// Hint that column `col` is filtered to [lo, hi]; stripes whose min-max
// range misses it are skipped (X100 MinMax indexes). Only applied when the
// snapshot carries no deltas — a stripe skipped for its stable content
// could still anchor inserted rows.
struct ScanRange {
  uint32_t col;
  int64_t lo;
  int64_t hi;
};

// Vectorized table scan: opens column stripes (through the buffer manager
// and, optionally, a cooperative-scan scheduler), decodes them a vector at a
// time straight into the output chunk, and merges in PDT deltas by position:
// stable runs decode in place, a modified row decodes one value and then
// takes its new values, a deleted row is skipped. String columns point into
// the pinned storage blobs. Emits dense chunks; a chunk never spans stripes.
class ScanOperator final : public Operator {
 public:
  struct Options {
    std::vector<ScanRange> ranges;
    ScanScheduler* scheduler = nullptr;  // nullptr: sequential stripe order
    // Partition for parallel scans: stripes [stripe_begin, stripe_end).
    size_t stripe_begin = 0;
    size_t stripe_end = SIZE_MAX;
  };

  // Scans `columns` (table column indices) of `snap`.
  ScanOperator(TableSnapshot snap, std::vector<uint32_t> columns,
               const Config& config, Options opts);
  ScanOperator(TableSnapshot snap, std::vector<uint32_t> columns,
               const Config& config);
  ~ScanOperator() override;

  const std::vector<TypeId>& OutputTypes() const override { return out_types_; }

  // Stripes actually decoded (tests: min-max skipping, coop scans).
  size_t stripes_read() const { return stripes_read_; }

  // Static-analysis surface (plan verifier).
  const TableSnapshot& snapshot() const { return snap_; }
  const std::vector<uint32_t>& columns() const { return columns_; }
  const Options& options() const { return opts_; }

 private:
  Status OpenImpl() override;
  Status NextImpl(DataChunk* out) override;
  void CloseImpl() override;
  Status AdvanceStripe(bool* done);
  bool StripeQualifies(size_t stripe) const;

  TableSnapshot snap_;
  std::vector<uint32_t> columns_;
  Config config_;
  Options opts_;
  std::vector<TypeId> out_types_;

  // Scan state.
  std::vector<size_t> pending_;  // stripes not yet scanned (sequential mode)
  size_t pending_pos_ = 0;
  std::unique_ptr<ScanScheduler::Handle> sched_handle_;
  bool tail_done_ = false;       // trailing inserts handled (or not owned)
  bool virtual_tail_pending_ = false;

  std::vector<StripeColumn> cols_;  // the current stripe, one per column
  std::unique_ptr<Pdt::MergeScanner> merge_;
  uint64_t stripe_first_row_ = 0;
  bool in_stripe_ = false;
  bool stripe_has_columns_ = false;  // false in the virtual tail pass
  const Pdt* pdt_ = nullptr;  // snapshot deltas or the shared empty PDT
  std::shared_ptr<StringHeap> insert_heap_;  // bytes of delta-row strings
  size_t stripes_read_ = 0;
};

}  // namespace vwise

#endif  // VWISE_EXEC_SCAN_H_
