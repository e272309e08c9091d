#include "exec/sort.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "exec/key_hash.h"
#include "exec/profile.h"
#include "exec/radix_spill.h"
#include "storage/spill_file.h"

namespace vwise {

namespace {

// Saturating offset+limit: the raw sum wraps size_t for a large non-SIZE_MAX
// limit with a nonzero offset, collapsing the emit window and silently
// dropping rows.
size_t SatAdd(size_t a, size_t b) {
  size_t sum = a + b;
  return sum < a ? SIZE_MAX : sum;
}

// Fixed bytes of one row of `types` (a string counts its StringVal).
size_t RowFixedBytes(const std::vector<TypeId>& types) {
  size_t bytes = 0;
  for (TypeId t : types) bytes += TypeWidth(t);
  return bytes;
}

}  // namespace

// One spilled run during the merge phase: its reader, the block currently in
// memory, and the cursor into it.
struct SortOperator::SortRun {
  std::unique_ptr<SpillReader> reader;
  DataChunk chunk;
  size_t pos = 0;
  bool done = false;
};

SortOperator::SortOperator(OperatorPtr child, std::vector<SortKey> keys,
                           const Config& config, size_t limit, size_t offset)
    : child_(InterposeChild(std::move(child), config, "sort.child")),
      keys_(std::move(keys)),
      config_(config),
      limit_(limit),
      offset_(offset) {}

SortOperator::~SortOperator() { DropRuns(); }

Status SortOperator::OpenImpl() {
  VWISE_RETURN_IF_ERROR(child_->Open(ctx()));
  mem_.Bind(ctx(), "sort materialization");
  data_.clear();
  for (TypeId t : child_->OutputTypes()) data_.emplace_back(t);
  order_.clear();
  cursor_ = 0;
  sorted_ = false;
  DropRuns();
  // Spill runs are written, and merged, in blocks of one vector, or of
  // fewer rows when the budget is small: a merge holds a block of each run.
  size_t budget = ctx()->memory_budget();
  size_t row_bytes = std::max<size_t>(1, RowFixedBytes(child_->OutputTypes()));
  run_block_rows_ = budget == 0 ? config_.vector_size
                                : std::clamp<size_t>(budget / (8 * row_bytes),
                                                     1, config_.vector_size);
  spill_runs_stat_ = 0;
  return Status::OK();
}

bool SortOperator::RowLess(uint32_t a, uint32_t b) const {
  for (const SortKey& key : keys_) {
    const ColumnStore& col = data_[key.col];
    int cmp = CompareRows(col.type(), col.raw(), a, col.raw(), b);
    if (cmp != 0) return key.ascending ? cmp < 0 : cmp > 0;
  }
  return a < b;  // stable tie-break on input order
}

Status SortOperator::ConsumeAndSort() {
  DataChunk chunk;
  chunk.Init(child_->OutputTypes(), config_.vector_size);
  while (true) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    chunk.Reset();
    VWISE_RETURN_IF_ERROR(child_->Next(&chunk));
    size_t n = chunk.ActiveCount();
    if (n == 0) break;
    // The chunk's share of the budget covers both the copied rows and their
    // slots in the sort index.
    size_t grow = EstimateChunkBytes(chunk) + n * sizeof(uint32_t);
    Status grown = mem_.Grow(grow);
    if (!grown.ok()) {
      VWISE_RETURN_IF_ERROR(
          ShouldSpill(ctx(), config_, grown, mem_.bytes()).status());
      // Budget full: turn the buffered rows into a spill run, then retry.
      VWISE_RETURN_IF_ERROR(SpillRun());
      grown = mem_.Grow(grow);
    }
    if (grown.ok()) buffered_bytes_ += grow;
    const sel_t* sel = chunk.sel();
    for (size_t c = 0; c < chunk.num_columns(); c++) {
      data_[c].AppendFrom(chunk.column(c), sel, n);
    }
    // A chunk the budget cannot hold even with the buffer flushed becomes a
    // run of its own, unreserved: it is resident as the pipeline's vector
    // anyway.
    bool spill = !grown.ok();
    if (!spill) {
      VWISE_ASSIGN_OR_RETURN(
          spill, ShouldSpill(ctx(), config_, Status::OK(), mem_.bytes()));
    }
    if (spill) VWISE_RETURN_IF_ERROR(SpillRun());
  }
  child_->Close();
  if (!run_paths_.empty()) {
    VWISE_RETURN_IF_ERROR(SpillRun());  // flush the in-memory tail
    VWISE_RETURN_IF_ERROR(OpenMerge());
    sorted_ = true;
    return Status::OK();
  }
  SortBuffered();
  cursor_ = std::min(offset_, order_.size());
  sorted_ = true;
  return Status::OK();
}

void SortOperator::SortBuffered() {
  size_t rows = data_.empty() ? 0 : data_[0].size();
  order_.resize(rows);
  std::iota(order_.begin(), order_.end(), 0);
  auto less = [this](uint32_t a, uint32_t b) { return RowLess(a, b); };
  // A spill run only needs its own top offset+limit rows too: anything
  // deeper can never reach the global top-K the merge emits.
  size_t want = std::min(rows, SatAdd(offset_, limit_));
  if (want < rows) {
    std::partial_sort(order_.begin(), order_.begin() + want, order_.end(), less);
    order_.resize(want);
  } else {
    std::sort(order_.begin(), order_.end(), less);
  }
}

Status SortOperator::SpillRun() {
  if (data_.empty() || data_[0].size() == 0) return Status::OK();
  SortBuffered();
  std::string path;
  VWISE_ASSIGN_OR_RETURN(path, ctx()->NewSpillPath("sort_run"));
  // Registered before writing so Close removes even a half-written file.
  run_paths_.push_back(path);
  spill_runs_stat_ = run_paths_.size();
  std::unique_ptr<SpillWriter> writer;
  VWISE_ASSIGN_OR_RETURN(writer,
                         SpillWriter::Create(path, child_->OutputTypes(),
                                             &ctx()->spill_counters()));
  DataChunk scratch;
  scratch.Init(child_->OutputTypes(), run_block_rows_);
  for (size_t i = 0; i < order_.size(); i += scratch.capacity()) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    size_t batch = std::min(scratch.capacity(), order_.size() - i);
    scratch.Reset();
    for (size_t c = 0; c < data_.size(); c++) {
      data_[c].Gather(order_.data() + i, batch, &scratch.column(c));
    }
    scratch.SetCount(batch);
    VWISE_RETURN_IF_ERROR(writer->Append(scratch));
  }
  data_.clear();
  for (TypeId t : child_->OutputTypes()) data_.emplace_back(t);
  order_.clear();
  mem_.Shrink(buffered_bytes_);
  buffered_bytes_ = 0;
  return Status::OK();
}

Status SortOperator::OpenMerge() {
  // The merge working set is one resident block per run, reserved so that a
  // budget too small for it is never oversubscribed. While it does not fit,
  // a merge pass folds the first runs that do (at least two) into one run
  // in their place: it holds the earliest input, so ties still resolve in
  // input order.
  const std::vector<TypeId>& types = child_->OutputTypes();
  size_t block_bytes = run_block_rows_ * RowFixedBytes(types);
  while (true) {
    size_t fan_in = run_paths_.size();
    Status grown = mem_.Grow(fan_in * block_bytes);
    while (!grown.ok() && fan_in > 2) {
      fan_in = std::max<size_t>(2, fan_in / 2);
      grown = mem_.Grow(fan_in * block_bytes);
    }
    VWISE_RETURN_IF_ERROR(grown);
    for (size_t r = 0; r < fan_in; r++) {
      auto run = std::make_unique<SortRun>();
      run->chunk.Init(types, config_.vector_size);
      VWISE_ASSIGN_OR_RETURN(run->reader,
                             SpillReader::Open(run_paths_[r], types,
                                               &ctx()->spill_counters()));
      bool more = false;
      VWISE_ASSIGN_OR_RETURN(more, run->reader->Next(&run->chunk));
      run->done = !more;
      runs_.push_back(std::move(run));
    }
    merge_skip_ = offset_;
    merge_left_ = limit_;
    if (fan_in == run_paths_.size()) return Status::OK();
    // Merge pass: registered before writing so Close removes even a
    // half-written file.
    std::string path;
    VWISE_ASSIGN_OR_RETURN(path, ctx()->NewSpillPath("sort_run"));
    run_paths_.insert(run_paths_.begin() + fan_in, path);
    std::unique_ptr<SpillWriter> writer;
    VWISE_ASSIGN_OR_RETURN(
        writer, SpillWriter::Create(path, types, &ctx()->spill_counters()));
    DataChunk scratch;
    scratch.Init(types, run_block_rows_);
    size_t skip = 0;
    size_t left = SIZE_MAX;
    while (true) {
      VWISE_RETURN_IF_ERROR(ctx()->Check());
      scratch.Reset();
      VWISE_RETURN_IF_ERROR(Merge(&scratch, &skip, &left));
      if (scratch.count() == 0) break;
      VWISE_RETURN_IF_ERROR(writer->Append(scratch));
    }
    runs_.clear();
    for (size_t r = 0; r < fan_in; r++) RemoveSpillFile(run_paths_[r]);
    run_paths_.erase(run_paths_.begin(), run_paths_.begin() + fan_in);
    mem_.Shrink(fan_in * block_bytes);
  }
}

int SortOperator::CompareRunRows(const SortRun& a, const SortRun& b) const {
  for (const SortKey& key : keys_) {
    const Vector& va = a.chunk.column(key.col);
    const Vector& vb = b.chunk.column(key.col);
    int cmp = CompareRows(va.type(), va.raw(), a.pos, vb.raw(), b.pos);
    if (cmp != 0) return key.ascending ? cmp : -cmp;
  }
  return 0;
}

Status SortOperator::AdvanceRun(SortRun* run) {
  run->pos++;
  if (run->pos < run->chunk.count()) return Status::OK();
  run->pos = 0;
  bool more = false;
  VWISE_ASSIGN_OR_RETURN(more, run->reader->Next(&run->chunk));
  if (!more) run->done = true;
  return Status::OK();
}

Status SortOperator::Merge(DataChunk* out, size_t* skip, size_t* left) {
  size_t n = 0;
  while (n < out->capacity() && *left > 0) {
    // Lowest-index run wins ties: runs are written in input order and each
    // run is internally input-order-stable, so this reproduces the total
    // order of the in-memory comparator (keys, then input position).
    SortRun* best = nullptr;
    for (const auto& run : runs_) {
      if (run->done) continue;
      if (best == nullptr || CompareRunRows(*run, *best) < 0) best = run.get();
    }
    if (best == nullptr) break;
    if (*skip > 0) {
      (*skip)--;
      VWISE_RETURN_IF_ERROR(AdvanceRun(best));
      continue;
    }
    for (size_t c = 0; c < out->num_columns(); c++) {
      const Vector& src = best->chunk.column(c);
      Vector& dst = out->column(c);
      DispatchType(src.type(), [&](auto tag) {
        using T = typename decltype(tag)::type;
        T v = src.Data<T>()[best->pos];
        if constexpr (std::is_same_v<T, StringVal>) {
          // Deep copy: the source block is replaced mid-fill when a run's
          // chunk drains, so emitted strings must own their bytes.
          v = dst.GetStringHeap()->Add(v.view());
        }
        dst.Data<T>()[n] = v;
      });
    }
    n++;
    (*left)--;
    VWISE_RETURN_IF_ERROR(AdvanceRun(best));
  }
  out->SetCount(n);
  return Status::OK();
}

Status SortOperator::Next(DataChunk* out) {
  // vwise-hotpath: allow(cold-call): materialize-and-sort runs once per
  // query before the first emitted vector
  if (!sorted_) VWISE_RETURN_IF_ERROR(ConsumeAndSort());
  if (!runs_.empty()) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    // vwise-hotpath: allow(cold-call): external-merge emission runs only
    // after the sort degraded to disk under a memory budget
    return Merge(out, &merge_skip_, &merge_left_);
  }
  size_t end = std::min(order_.size(), SatAdd(offset_, limit_));
  size_t batch = cursor_ < end ? std::min(out->capacity(), end - cursor_) : 0;
  if (batch == 0) {
    out->SetCount(0);
    return Status::OK();
  }
  for (size_t c = 0; c < data_.size(); c++) {
    data_[c].Gather(order_.data() + cursor_, batch, &out->column(c));
  }
  out->SetCount(batch);
  cursor_ += batch;
  return Status::OK();
}

void SortOperator::DropRuns() {
  runs_.clear();
  for (const std::string& path : run_paths_) RemoveSpillFile(path);
  run_paths_.clear();
  buffered_bytes_ = 0;
}

void SortOperator::Close() {
  // Normally closed at the end of ConsumeAndSort; close again (idempotent)
  // so an error/cancel unwind still reaches fragments below.
  child_->Close();
  data_.clear();
  order_.clear();
  DropRuns();
  mem_.ReleaseAll();
}

Status LimitOperator::Next(DataChunk* out) {
  while (emitted_ < limit_) {
    out->Reset();
    VWISE_RETURN_IF_ERROR(child_->Next(out));
    size_t n = out->ActiveCount();
    if (n == 0) return Status::OK();
    // Skip offset rows, cap at the limit.
    size_t skip = seen_ < offset_ ? std::min(offset_ - seen_, n) : 0;
    seen_ += n;
    size_t take = std::min(n - skip, limit_ - emitted_);
    if (take == 0) continue;
    if (out->has_selection()) {
      // Shift the selection window.
      sel_t* sel = out->MutableSel();
      if (skip > 0) std::memmove(sel, sel + skip, take * sizeof(sel_t));
      out->SetSelection(take);
    } else if (skip > 0) {
      sel_t* sel = out->MutableSel();
      for (size_t i = 0; i < take; i++) sel[i] = static_cast<sel_t>(skip + i);
      out->SetSelection(take);
    } else {
      // Dense prefix: simply shrink the count.
      out->SetCount(take);
    }
    emitted_ += take;
    return Status::OK();
  }
  out->SetCount(0);
  return Status::OK();
}

}  // namespace vwise
