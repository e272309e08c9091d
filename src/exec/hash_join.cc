#include "exec/hash_join.h"

#include <cstring>

#include "expr/primitives.h"
#include "storage/spill_file.h"

namespace vwise {

namespace {

constexpr size_t kBuildStream = 0;  // RadixSpill streams of a partition
constexpr size_t kProbeStream = 1;

}  // namespace

HashJoinOperator::HashJoinOperator(OperatorPtr probe, OperatorPtr build,
                                   Spec spec, const Config& config)
    : Operator(config),
      probe_(std::move(probe)),
      build_(std::move(build)),
      spec_(std::move(spec)),
      config_(config) {
  out_types_ = probe_->OutputTypes();
  if (spec_.type == JoinType::kInner || spec_.type == JoinType::kLeftOuter) {
    for (size_t c : spec_.build_payload) {
      out_types_.push_back(build_->OutputTypes()[c]);
    }
    if (spec_.type == JoinType::kLeftOuter) out_types_.push_back(TypeId::kU8);
  }
}

HashJoinOperator::~HashJoinOperator() = default;

Status HashJoinOperator::OpenImpl() {
  VWISE_RETURN_IF_ERROR(probe_->Open(ctx()));
  VWISE_RETURN_IF_ERROR(build_->Open(ctx()));
  mem_.Bind(ctx(), "hash join build side");
  // Spill rows keep only the columns the join retains: keys then payload.
  // The resident build side has the same layout: the key table holds the
  // keys, build_payload_cols_ the rest.
  spill_types_.clear();
  spill_keys_.clear();
  for (size_t c : spec_.build_keys) {
    spill_keys_.push_back(spill_types_.size());
    spill_types_.push_back(build_->OutputTypes()[c]);
  }
  table_.Init(spill_types_, config_.vector_size);
  for (size_t c : spec_.build_payload) {
    spill_types_.push_back(build_->OutputTypes()[c]);
  }
  // Reset pipeline-breaker state from a previous execution of a prepared
  // plan.
  build_bytes_ = 0;
  ReleaseBuildSide();
  probe_partitioned_ = false;
  build_view_.Init(spill_types_, 1);
  spill_.Init(ctx(), &config_, "join",
              {{spill_types_, spill_keys_},
               {probe_->OutputTypes(), spec_.probe_keys}});
  VWISE_RETURN_IF_ERROR(ConsumeBuildSide());
  input_.Init(probe_->OutputTypes(), config_.vector_size);
  input_exhausted_ = false;
  pair_cursor_ = 0;
  pairs_.clear();
  probe_pos_.resize(config_.vector_size);
  build_row_idx_.resize(config_.vector_size);
  residual_sel_.resize(config_.vector_size);
  if (spec_.residual) {
    VWISE_RETURN_IF_ERROR(spec_.residual->Prepare(config_.vector_size));
    // The residual sees [probe columns..., build payload...].
    std::vector<TypeId> types = probe_->OutputTypes();
    for (size_t c : spec_.build_payload) types.push_back(build_->OutputTypes()[c]);
    residual_scratch_.Init(types, config_.vector_size);
  }
  return Status::OK();
}

Status HashJoinOperator::ConsumeBuildSide() {
  DataChunk chunk;
  chunk.Init(build_->OutputTypes(), config_.vector_size);
  while (true) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    chunk.Reset();
    VWISE_RETURN_IF_ERROR(build_->Next(&chunk));
    size_t n = chunk.ActiveCount();
    if (n == 0) break;
    // View the chunk through the spill schema (keys then payload), the
    // layout of the resident stores and the partition runs alike;
    // Reference shares the buffers.
    size_t n_keys = spec_.build_keys.size();
    for (size_t k = 0; k < n_keys; k++) {
      build_view_.column(k).Reference(chunk.column(spec_.build_keys[k]));
    }
    for (size_t k = 0; k < spec_.build_payload.size(); k++) {
      build_view_.column(n_keys + k).Reference(
          chunk.column(spec_.build_payload[k]));
    }
    if (spill_.spilled()) {
      // Already degraded: route the chunk straight to the partitions.
      VWISE_RETURN_IF_ERROR(
          spill_.Scatter(kBuildStream, build_view_, chunk.sel(), n));
      continue;
    }
    size_t grow = EstimateChunkBytes(chunk) + n * KeyTable::kRowBytes;
    Status grown = mem_.Grow(grow);
    if (grown.ok()) {
      build_bytes_ += grow;
      AppendBuildRows(build_view_, chunk.sel(), n);
    }
    bool spill = false;
    VWISE_ASSIGN_OR_RETURN(spill,
                           ShouldSpill(ctx(), config_, grown, mem_.bytes()));
    if (spill) VWISE_RETURN_IF_ERROR(SpillBuildRows());
    // Budget hit: the chunk that did not fit, and the rest of the build
    // side, stream straight to the partitions.
    if (!grown.ok()) {
      VWISE_RETURN_IF_ERROR(
          spill_.Scatter(kBuildStream, build_view_, chunk.sel(), n));
    }
  }
  build_->Close();
  if (!spill_.spilled()) {
    Status built = BuildTable();
    if (built.ok()) return Status::OK();
    // The buckets do not fit beside the rows: degrade to the grace join,
    // as a failed Grow mid-build does.
    VWISE_RETURN_IF_ERROR(
        ShouldSpill(ctx(), config_, built, mem_.bytes()).status());
    VWISE_RETURN_IF_ERROR(SpillBuildRows());
  }
  // Finish the build runs; tables are built per partition at probe time
  // (LoadBuildPartition).
  return spill_.CloseStream(kBuildStream);
}

Status HashJoinOperator::BuildTable() {
  size_t bytes = table_.BucketGrowth(table_.size());
  VWISE_RETURN_IF_ERROR(mem_.Grow(bytes));
  build_bytes_ += bytes;
  table_.Link();
  return Status::OK();
}

Status HashJoinOperator::SpillBuildRows() {
  size_t n_keys = spec_.build_keys.size();
  VWISE_RETURN_IF_ERROR(spill_.Flush(
      kBuildStream, table_.size(),
      [this](uint32_t row) { return table_.hash(row); },
      [this, n_keys](const uint32_t* ids, size_t n, DataChunk* out) {
        for (size_t k = 0; k < n_keys; k++) {
          table_.key(k).Gather(ids, n, &out->column(k));
        }
        for (size_t k = 0; k < build_payload_cols_.size(); k++) {
          build_payload_cols_[k].Gather(ids, n, &out->column(n_keys + k));
        }
      }));
  ReleaseBuildSide();
  return Status::OK();
}

void HashJoinOperator::AppendBuildRows(const DataChunk& rows,
                                       const sel_t* sel, size_t n) {
  table_.Append(rows, spill_keys_, sel, n);
  for (size_t k = 0; k < build_payload_cols_.size(); k++) {
    build_payload_cols_[k].AppendFrom(rows.column(spill_keys_.size() + k),
                                      sel, n);
  }
}

Status HashJoinOperator::PartitionProbeSide() {
  while (true) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    input_.Reset();
    VWISE_RETURN_IF_ERROR(probe_->Next(&input_));
    size_t n = input_.ActiveCount();
    if (n == 0) break;
    VWISE_RETURN_IF_ERROR(
        spill_.Scatter(kProbeStream, input_, input_.sel(), n));
  }
  probe_->Close();
  return spill_.Seal();
}

void HashJoinOperator::ReleaseBuildSide() {
  // Swap out the resident rows + table and their reservation.
  mem_.Shrink(build_bytes_);
  build_bytes_ = 0;
  table_.Clear();
  build_payload_cols_.clear();
  for (size_t c : spec_.build_payload) {
    build_payload_cols_.emplace_back(build_->OutputTypes()[c]);
  }
}

Status HashJoinOperator::LoadBuildPartition() {
  ReleaseBuildSide();
  std::unique_ptr<SpillReader> reader;
  VWISE_ASSIGN_OR_RETURN(reader, spill_.Read(kBuildStream));
  DataChunk chunk;
  chunk.Init(spill_types_, config_.vector_size);
  while (true) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    bool more = false;
    VWISE_ASSIGN_OR_RETURN(more, reader->Next(&chunk));
    if (!more) break;
    size_t n = chunk.count();  // spill chunks are dense
    // ResourceExhausted here means this partition alone exceeds the budget;
    // the caller splits it onto a fresh radix level (RadixSpill::Split)
    // instead of failing the query.
    size_t grow = EstimateChunkBytes(chunk) + n * KeyTable::kRowBytes;
    VWISE_RETURN_IF_ERROR(mem_.Grow(grow));
    build_bytes_ += grow;
    AppendBuildRows(chunk, nullptr, n);
  }
  return BuildTable();
}

Status HashJoinOperator::FetchProbeChunk() {
  if (!spill_.spilled()) return probe_->Next(&input_);
  if (!probe_partitioned_) {
    VWISE_RETURN_IF_ERROR(PartitionProbeSide());
    probe_partitioned_ = true;
  }
  while (true) {
    if (probe_reader_) {
      bool more = false;
      VWISE_ASSIGN_OR_RETURN(more, probe_reader_->Next(&input_));
      if (more) return Status::OK();
      probe_reader_.reset();  // partition fully joined
    }
    if (!spill_.Next()) return Status::OK();  // input_ empty
    // Peek the probe partition first: if it is empty there is nothing to
    // join (or, for outer joins, to pad), so skip loading its build rows.
    std::unique_ptr<SpillReader> reader;
    VWISE_ASSIGN_OR_RETURN(reader, spill_.Read(kProbeStream));
    bool more = false;
    VWISE_ASSIGN_OR_RETURN(more, reader->Next(&input_));
    if (!more) continue;
    Status load = LoadBuildPartition();
    if (!load.ok()) {
      // This partition alone exceeds the budget: split it onto the next
      // radix level and retry with its children. The peeked probe chunk is
      // re-read from its run by the split.
      reader.reset();
      ReleaseBuildSide();
      VWISE_RETURN_IF_ERROR(spill_.Split(load));
      continue;
    }
    probe_reader_ = std::move(reader);
    return Status::OK();
  }
}

Status HashJoinOperator::ProcessProbeChunk() {
  pairs_.clear();
  pair_cursor_ = 0;
  size_t n = input_.ActiveCount();
  const sel_t* sel = input_.sel();
  // vwise-hotpath: allow(alloc): capacity stabilizes at one vector after the
  // first full chunk; assign then only zero-fills
  probe_match_.assign(input_.count(), 0);

  // 1. Candidate pairs by hash + key equality. candidates_ keeps its
  // capacity across chunks, so growth stops once the noisiest chunk has
  // been seen.
  table_.Probe(input_, spec_.probe_keys, sel, n, &candidates_);

  // 2. Residual predicate over the combined pair rows, in vector batches.
  if (spec_.residual && !candidates_.empty()) {
    sel_t* out_sel = residual_sel_.data();
    for (size_t base = 0; base < candidates_.size(); base += config_.vector_size) {
      size_t batch = std::min(config_.vector_size, candidates_.size() - base);
      residual_scratch_.Reset();
      GatherPairs(candidates_.data() + base, batch, &residual_scratch_);
      size_t kept = 0;
      // vwise-hotpath: allow(virtual-in-loop): loop is over candidate
      // batches of vector_size — one Select dispatch per batch
      VWISE_RETURN_IF_ERROR(spec_.residual->Select(residual_scratch_, nullptr,
                                                   batch, out_sel, &kept));
      for (size_t i = 0; i < kept; i++) {
        // vwise-hotpath: allow(alloc): amortized growth, capacity persists
        pairs_.push_back(candidates_[base + out_sel[i]]);
      }
    }
  } else {
    std::swap(pairs_, candidates_);
  }

  for (const Pair& p : pairs_) probe_match_[p.pos] = 1;

  // Semi/anti joins consume only the match flags; leaving the pairs around
  // would make the emit loop treat them as inner-join output.
  if (spec_.type == JoinType::kLeftSemi || spec_.type == JoinType::kLeftAnti) {
    pairs_.clear();
    pair_cursor_ = 0;
  }

  // 3. Left outer: append unmatched probe rows as sentinel pairs, keeping
  // the overall probe order stable enough for tests.
  if (spec_.type == JoinType::kLeftOuter) {
    for (size_t i = 0; i < n; i++) {
      sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
      // vwise-hotpath: allow(alloc): amortized growth, capacity persists
      if (!probe_match_[pos]) pairs_.push_back(Pair{pos, kNoRow});
    }
  }
  return Status::OK();
}

void HashJoinOperator::GatherPairs(const Pair* pairs, size_t n,
                                   DataChunk* out) {
  sel_t* probe_pos = probe_pos_.data();
  uint32_t* build_rows = build_row_idx_.data();
  for (size_t i = 0; i < n; i++) {
    probe_pos[i] = pairs[i].pos;
    build_rows[i] = pairs[i].row;
  }
  size_t n_probe_cols = input_.num_columns();
  for (size_t c = 0; c < n_probe_cols; c++) {
    const Vector& src = input_.column(c);
    Vector& dst = out->column(c);
    DispatchType(src.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      prim::Gather<T>(src.Data<T>(), probe_pos, n, dst.Data<T>());
    });
    if (src.type() == TypeId::kStr) dst.AddHeapsFrom(src);
  }
  // Sentinel rows (unmatched outer) get zero/empty payload values.
  bool pad = spec_.type == JoinType::kLeftOuter;
  for (size_t k = 0; k < build_payload_cols_.size(); k++) {
    build_payload_cols_[k].Gather(build_rows, n,
                                  &out->column(n_probe_cols + k), pad);
  }
  out->SetCount(n);
}

void HashJoinOperator::EmitPairs(DataChunk* out) {
  size_t batch = std::min(out->capacity(), pairs_.size() - pair_cursor_);
  // The gather runs through the vector-sized index arrays, so cap the batch
  // at one vector (out may be larger).
  batch = std::min(batch, config_.vector_size);
  const Pair* pairs = pairs_.data() + pair_cursor_;
  pair_cursor_ += batch;
  GatherPairs(pairs, batch, out);
  if (spec_.type == JoinType::kLeftOuter) {
    uint8_t* flag = out->column(out_types_.size() - 1).Data<uint8_t>();
    for (size_t i = 0; i < batch; i++) flag[i] = pairs[i].row != kNoRow;
  }
}

Status HashJoinOperator::EmitSemiAnti(DataChunk* out) {
  size_t n = input_.ActiveCount();
  const sel_t* sel = input_.sel();
  bool want_match = spec_.type == JoinType::kLeftSemi;
  for (size_t c = 0; c < input_.num_columns(); c++) {
    out->column(c).Reference(input_.column(c));
  }
  out->SetCount(input_.count());
  sel_t* out_sel = out->MutableSel();
  size_t k = 0;
  for (size_t i = 0; i < n; i++) {
    sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
    if (static_cast<bool>(probe_match_[pos]) == want_match) out_sel[k++] = pos;
  }
  out->SetSelection(k);
  return Status::OK();
}

Status HashJoinOperator::NextImpl(DataChunk* out) {
  while (true) {
    if (pair_cursor_ < pairs_.size()) {
      EmitPairs(out);
      return Status::OK();
    }
    if (input_exhausted_) {
      out->SetCount(0);
      return Status::OK();
    }
    input_.Reset();
    // vwise-hotpath: allow(cold-call): delegates to probe_->Next() in the
    // common case; the spill branch runs only after a budget-forced flush
    VWISE_RETURN_IF_ERROR(FetchProbeChunk());
    if (input_.ActiveCount() == 0) {
      input_exhausted_ = true;
      continue;
    }
    VWISE_RETURN_IF_ERROR(ProcessProbeChunk());
    if (spec_.type == JoinType::kLeftSemi || spec_.type == JoinType::kLeftAnti) {
      VWISE_RETURN_IF_ERROR(EmitSemiAnti(out));
      if (out->ActiveCount() == 0) continue;  // nothing qualified: next chunk
      return Status::OK();
    }
  }
}

void HashJoinOperator::CloseImpl() {
  probe_->Close();
  // Normally closed at the end of ConsumeBuildSide; close again (idempotent)
  // so an error/cancel unwind still reaches fragments below.
  build_->Close();
  table_.Clear();
  build_payload_cols_.clear();
  probe_reader_.reset();
  spill_.Drop();
  probe_partitioned_ = false;
  build_bytes_ = 0;
  mem_.ReleaseAll();
}

}  // namespace vwise
