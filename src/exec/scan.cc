#include "exec/scan.h"

#include <algorithm>
#include <type_traits>

#include "service/query_context.h"

namespace vwise {

namespace {

const Pdt& EmptyPdt() {
  static const Pdt* empty = new Pdt();
  return *empty;
}

// Writes a boundary Value into position `pos` of `vec`; string bytes go to
// `heap` (the scan's delta-row heap, already attached to the vector).
void StoreValue(Vector* vec, size_t pos, const Value& v, StringHeap* heap) {
  DispatchType(vec->type(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    T* dst = vec->Data<T>() + pos;
    if constexpr (std::is_same_v<T, StringVal>) {
      *dst = heap->Add(v.AsString());
    } else {
      *dst = v.AsNumber<T>();
    }
  });
}

// Decodes stripe rows [row, row + n) of `col` into `vec` at `dst_off`. Rows
// arrive in ascending order (the PDT merge walks the stripe forward), so the
// cursor only ever moves forward: rows between its position and `row` —
// deleted rows — are skipped.
Status DecodeRows(StripeColumn* col, size_t row, size_t n, Vector* vec,
                  size_t dst_off) {
  VWISE_DCHECK(row >= col->cursor.position());
  VWISE_RETURN_IF_ERROR(col->cursor.Skip(row - col->cursor.position()));
  return col->cursor.Decode(
      n, static_cast<uint8_t*>(vec->raw()) + dst_off * TypeWidth(col->type));
}

}  // namespace

ScanOperator::ScanOperator(TableSnapshot snap, std::vector<uint32_t> columns,
                           const Config& config, Options opts)
    : snap_(std::move(snap)),
      columns_(std::move(columns)),
      config_(config),
      opts_(std::move(opts)) {
  for (uint32_t c : columns_) {
    out_types_.push_back(snap_.schema->column(c).type.physical());
  }
  pdt_ = snap_.deltas ? snap_.deltas.get() : &EmptyPdt();
}

ScanOperator::ScanOperator(TableSnapshot snap, std::vector<uint32_t> columns,
                           const Config& config)
    : ScanOperator(std::move(snap), std::move(columns), config, Options()) {}

ScanOperator::~ScanOperator() = default;

bool ScanOperator::StripeQualifies(size_t stripe) const {
  // Min-max skipping is only sound when the stripe carries no deltas; we
  // keep it simple (and safe) by requiring an empty PDT.
  if (!config_.enable_minmax_skipping || !pdt_->empty()) return true;
  for (const ScanRange& r : opts_.ranges) {
    if (!snap_.stable->StripeOverlapsRange(stripe, r.col, r.lo, r.hi)) {
      return false;
    }
  }
  return true;
}

Status ScanOperator::OpenImpl() {
  size_t n_stripes = snap_.stable->stripe_count();
  size_t begin = std::min(opts_.stripe_begin, n_stripes);
  size_t end = std::min(opts_.stripe_end, n_stripes);
  pending_.clear();
  for (size_t s = begin; s < end; s++) {
    if (StripeQualifies(s)) pending_.push_back(s);
  }
  pending_pos_ = 0;
  if (opts_.scheduler != nullptr) {
    sched_handle_ = opts_.scheduler->Register(snap_.stable.get(), pending_);
  }
  // This scan owns the trailing inserts iff its range covers the table end.
  virtual_tail_pending_ = end == n_stripes;
  tail_done_ = false;
  in_stripe_ = false;
  stripes_read_ = 0;
  cols_.resize(columns_.size());
  insert_heap_ = std::make_shared<StringHeap>();
  return Status::OK();
}

Status ScanOperator::AdvanceStripe(bool* done) {
  size_t stripe = SIZE_MAX;
  if (sched_handle_ != nullptr) {
    auto next = opts_.scheduler->Next(sched_handle_.get());
    if (next.has_value()) stripe = *next;
  } else if (pending_pos_ < pending_.size()) {
    stripe = pending_[pending_pos_++];
  }
  if (stripe == SIZE_MAX) {
    // No stripes left: possibly one last merge pass over the trailing
    // inserts anchored at the table end (always the case for empty tables,
    // also when the last stripe was skipped or handled without tail rights).
    if (virtual_tail_pending_ && !tail_done_) {
      tail_done_ = true;
      uint64_t n = snap_.stable->row_count();
      merge_ = std::make_unique<Pdt::MergeScanner>(*pdt_, n, n, n, true);
      stripe_first_row_ = n;
      in_stripe_ = true;
      stripe_has_columns_ = false;
      *done = false;
      return Status::OK();
    }
    *done = true;
    return Status::OK();
  }
  for (size_t i = 0; i < columns_.size(); i++) {
    VWISE_RETURN_IF_ERROR(
        snap_.stable->OpenStripeColumn(stripe, columns_[i], &cols_[i]));
  }
  stripes_read_++;
  uint64_t first = snap_.stable->stripe_first_row(stripe);
  uint64_t rows = snap_.stable->stripe(stripe).rows;
  bool is_last = first + rows == snap_.stable->row_count();
  bool include_end = is_last && virtual_tail_pending_ && !tail_done_;
  if (include_end) tail_done_ = true;
  merge_ = std::make_unique<Pdt::MergeScanner>(
      *pdt_, snap_.stable->row_count(), first, first + rows, include_end);
  stripe_first_row_ = first;
  in_stripe_ = true;
  stripe_has_columns_ = true;
  *done = false;
  return Status::OK();
}

Status ScanOperator::Next(DataChunk* out) {
  // The per-vector cancellation/deadline poll for every leaf pipeline: each
  // Next() emits at most one vector, so a cancel unwinds the plan within one
  // vector boundary.
  VWISE_RETURN_IF_ERROR(ctx()->Check());
  // Rewind the delta-string arena for this chunk when no consumer still
  // references the previous chunk's bytes (the chunk data contract: vectors
  // are valid only until the next Next()). A scan over a delta-heavy table
  // then reuses one buffer instead of growing without bound.
  if (insert_heap_.use_count() == 1) insert_heap_->Reset();
  size_t cap = out->capacity();
  size_t filled = 0;
  while (true) {
    if (!in_stripe_) {
      if (filled > 0) break;  // never mix stripes in one chunk
      bool done = false;
      // vwise-hotpath: allow(cold-call): stripe boundary — decode I/O and
      // merge-scanner setup run once per stripe, not per vector
      VWISE_RETURN_IF_ERROR(AdvanceStripe(&done));
      if (done) break;
    }
    // Attach the heaps backing any strings this chunk may reference.
    for (size_t i = 0; i < columns_.size(); i++) {
      if (out_types_[i] != TypeId::kStr) continue;
      if (stripe_has_columns_ && cols_[i].heap) {
        out->column(i).AddStringHeapRef(cols_[i].heap);
      }
      out->column(i).AddStringHeapRef(insert_heap_);
    }
    Pdt::MergeEvent ev;
    while (filled < cap && merge_->Next(&ev, cap - filled)) {
      switch (ev.kind) {
        case Pdt::MergeEvent::kStableRun: {
          size_t local = static_cast<size_t>(ev.sid - stripe_first_row_);
          for (size_t i = 0; i < columns_.size(); i++) {
            VWISE_RETURN_IF_ERROR(DecodeRows(&cols_[i], local, ev.count,
                                             &out->column(i), filled));
          }
          filled += ev.count;
          break;
        }
        case Pdt::MergeEvent::kModifiedRow: {
          size_t local = static_cast<size_t>(ev.sid - stripe_first_row_);
          for (size_t i = 0; i < columns_.size(); i++) {
            VWISE_RETURN_IF_ERROR(
                DecodeRows(&cols_[i], local, 1, &out->column(i), filled));
            auto it = ev.rec->mods.find(columns_[i]);
            if (it != ev.rec->mods.end()) {
              StoreValue(&out->column(i), filled, it->second, insert_heap_.get());
            }
          }
          filled++;
          break;
        }
        case Pdt::MergeEvent::kDeletedRow:
          break;  // the next DecodeRows skips it
        case Pdt::MergeEvent::kInsertedRow: {
          for (size_t i = 0; i < columns_.size(); i++) {
            StoreValue(&out->column(i), filled, ev.rec->row[columns_[i]],
                       insert_heap_.get());
          }
          filled++;
          break;
        }
      }
    }
    if (filled >= cap) break;
    in_stripe_ = false;  // merge exhausted for this stripe
  }
  out->SetCount(filled);
  return Status::OK();
}

void ScanOperator::Close() {
  if (sched_handle_ != nullptr && opts_.scheduler != nullptr) {
    opts_.scheduler->Finish(sched_handle_.get());
    sched_handle_.reset();
  }
  merge_.reset();
  cols_.clear();
}

}  // namespace vwise
