#include "exec/hash_join.h"

#include <cstring>

#include "common/bitutil.h"
#include "exec/key_hash.h"
#include "exec/profile.h"
#include "expr/primitives.h"
#include "storage/spill_file.h"

namespace vwise {

namespace {

constexpr uint32_t kNoRow = 0xffffffffu;  // unmatched-probe sentinel
constexpr size_t kBuildStream = 0;  // RadixSpill streams of a partition
constexpr size_t kProbeStream = 1;

// Gathers probe-side column values at pair positions into `out`.
void GatherProbe(const Vector& src, const sel_t* positions, size_t n,
                 Vector* out) {
  switch (src.type()) {
    case TypeId::kU8:
      prim::Gather<uint8_t>(src.Data<uint8_t>(), positions, n,
                            out->Data<uint8_t>());
      break;
    case TypeId::kI32:
      prim::Gather<int32_t>(src.Data<int32_t>(), positions, n,
                            out->Data<int32_t>());
      break;
    case TypeId::kI64:
      prim::Gather<int64_t>(src.Data<int64_t>(), positions, n,
                            out->Data<int64_t>());
      break;
    case TypeId::kF64:
      prim::Gather<double>(src.Data<double>(), positions, n,
                           out->Data<double>());
      break;
    case TypeId::kStr:
      prim::Gather<StringVal>(src.Data<StringVal>(), positions, n,
                              out->Data<StringVal>());
      out->AddHeapsFrom(src);
      break;
  }
}

void ZeroFill(Vector* out, size_t i) {
  switch (out->type()) {
    case TypeId::kU8:
      out->Data<uint8_t>()[i] = 0;
      break;
    case TypeId::kI32:
      out->Data<int32_t>()[i] = 0;
      break;
    case TypeId::kI64:
      out->Data<int64_t>()[i] = 0;
      break;
    case TypeId::kF64:
      out->Data<double>()[i] = 0;
      break;
    case TypeId::kStr:
      out->Data<StringVal>()[i] = StringVal();
      break;
  }
}

}  // namespace

HashJoinOperator::HashJoinOperator(OperatorPtr probe, OperatorPtr build,
                                   Spec spec, const Config& config)
    : probe_(InterposeChild(std::move(probe), config, "hash_join.probe")),
      build_(InterposeChild(std::move(build), config, "hash_join.build")),
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
  // Reset pipeline-breaker state from a previous execution of a prepared
  // plan: build_rows_ in particular survives Close(), and a stale count
  // would make BuildTable() index past the freshly rebuilt stores.
  build_bytes_ = 0;
  ReleaseBuildSide();
  probe_partitioned_ = false;
  // Spill rows keep only the columns the join retains: keys then payload.
  spill_types_.clear();
  std::vector<size_t> spill_keys;
  for (size_t c : spec_.build_keys) {
    spill_keys.push_back(spill_types_.size());
    spill_types_.push_back(build_->OutputTypes()[c]);
  }
  for (size_t c : spec_.build_payload) {
    spill_types_.push_back(build_->OutputTypes()[c]);
  }
  build_view_.Init(spill_types_, 1);
  spill_.Init(ctx(), &config_,
              {{spill_types_, std::move(spill_keys), "join_build"},
               {probe_->OutputTypes(), spec_.probe_keys, "join_probe"}});
  VWISE_RETURN_IF_ERROR(ConsumeBuildSide());
  input_.Init(probe_->OutputTypes(), config_.vector_size);
  input_exhausted_ = false;
  pair_cursor_ = 0;
  pairs_.clear();
  probe_pos_ = ctx()->scratch()->AcquireArray<sel_t>(config_.vector_size);
  build_row_idx_ =
      ctx()->scratch()->AcquireArray<uint32_t>(config_.vector_size);
  residual_sel_ = ctx()->scratch()->AcquireArray<sel_t>(config_.vector_size);
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
    // Key hashing, the column-store copies, and the spill writers all read
    // values positionally; decode any encoded columns first.
    chunk.NormalizeColumns();
    // View the chunk through the spill schema (keys then payload), the
    // layout of the resident stores and the partition files alike;
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
      // Already degraded: route the chunk straight to the partition files.
      VWISE_RETURN_IF_ERROR(
          spill_.Scatter(kBuildStream, build_view_, chunk.sel(), n));
      continue;
    }
    size_t grow = EstimateChunkBytes(chunk);
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
  if (spill_.spilled()) {
    // Close the partition files; tables are built per partition at probe
    // time (LoadBuildPartition).
    spill_.CloseStream(kBuildStream);
    return Status::OK();
  }
  return BuildTable();
}

Status HashJoinOperator::BuildTable() {
  // Chained hash table over the stored rows.
  size_t buckets = bit::NextPowerOfTwo(build_rows_ * 2 + 1);
  size_t table_bytes = buckets * sizeof(uint32_t) + build_rows_ * sizeof(uint32_t);
  VWISE_RETURN_IF_ERROR(mem_.Grow(table_bytes));
  build_bytes_ += table_bytes;
  bucket_heads_.assign(buckets, kNoRow);
  bucket_mask_ = buckets - 1;
  chain_next_.assign(build_rows_, kNoRow);
  for (size_t row = 0; row < build_rows_; row++) {
    uint64_t h = HashBuildRow(row) & bucket_mask_;
    chain_next_[row] = bucket_heads_[h];
    bucket_heads_[h] = static_cast<uint32_t>(row);
  }
  return Status::OK();
}

Status HashJoinOperator::SpillBuildRows() {
  size_t n_keys = spec_.build_keys.size();
  VWISE_RETURN_IF_ERROR(spill_.Flush(
      kBuildStream, build_rows_,
      [this](uint32_t row) { return HashBuildRow(row); },
      [this, n_keys](const uint32_t* ids, size_t n, DataChunk* out) {
        for (size_t k = 0; k < n_keys; k++) {
          build_key_cols_[k].Gather(ids, n, &out->column(k));
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
  size_t n_keys = build_key_cols_.size();
  for (size_t k = 0; k < n_keys; k++) {
    build_key_cols_[k].AppendFrom(rows.column(k), sel, n);
  }
  for (size_t k = 0; k < build_payload_cols_.size(); k++) {
    build_payload_cols_[k].AppendFrom(rows.column(n_keys + k), sel, n);
  }
  build_rows_ += n;
}

Status HashJoinOperator::PartitionProbeSide() {
  VWISE_RETURN_IF_ERROR(spill_.OpenStream(kProbeStream));
  while (true) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    input_.Reset();
    VWISE_RETURN_IF_ERROR(probe_->Next(&input_));
    size_t n = input_.ActiveCount();
    if (n == 0) break;
    input_.NormalizeColumns();
    VWISE_RETURN_IF_ERROR(
        spill_.Scatter(kProbeStream, input_, input_.sel(), n));
  }
  probe_->Close();
  spill_.Seal();
  return Status::OK();
}

void HashJoinOperator::ReleaseBuildSide() {
  // Swap out the resident rows + table and their reservation.
  mem_.Shrink(build_bytes_);
  build_bytes_ = 0;
  build_key_cols_.clear();
  build_payload_cols_.clear();
  for (size_t c : spec_.build_keys) {
    build_key_cols_.emplace_back(build_->OutputTypes()[c]);
  }
  for (size_t c : spec_.build_payload) {
    build_payload_cols_.emplace_back(build_->OutputTypes()[c]);
  }
  build_rows_ = 0;
  bucket_heads_.clear();
  chain_next_.clear();
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
    size_t grow = EstimateChunkBytes(chunk);
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
      // re-read from the file by the split.
      reader.reset();
      ReleaseBuildSide();
      VWISE_RETURN_IF_ERROR(spill_.Split(load));
      continue;
    }
    probe_reader_ = std::move(reader);
    return Status::OK();
  }
}

uint64_t HashJoinOperator::HashBuildRow(size_t row) const {
  uint64_t h = 0;
  for (const ColumnStore& col : build_key_cols_) {
    h = HashCombine(h, HashValue(col, row));
  }
  return h;
}

bool HashJoinOperator::KeysEqual(const DataChunk& chunk, sel_t pos,
                                 size_t build_row) const {
  for (size_t k = 0; k < spec_.probe_keys.size(); k++) {
    if (!KeyEquals(chunk.column(spec_.probe_keys[k]), pos,
                   build_key_cols_[k], build_row)) {
      return false;
    }
  }
  return true;
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
  candidates_.clear();
  for (size_t i = 0; i < n; i++) {
    sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
    if (build_rows_ > 0) {
      uint64_t h = HashKeys(input_, pos, spec_.probe_keys) & bucket_mask_;
      for (uint32_t row = bucket_heads_[h]; row != kNoRow; row = chain_next_[row]) {
        // vwise-hotpath: allow(alloc): amortized growth, capacity persists
        // across probe chunks
        if (KeysEqual(input_, pos, row)) candidates_.push_back(Pair{pos, row});
      }
    }
  }

  // 2. Residual predicate over the combined pair rows, in vector batches.
  if (spec_.residual && !candidates_.empty()) {
    size_t n_probe_cols = input_.num_columns();
    sel_t* probe_pos = probe_pos_.data<sel_t>();
    uint32_t* build_rows = build_row_idx_.data<uint32_t>();
    sel_t* out_sel = residual_sel_.data<sel_t>();
    for (size_t base = 0; base < candidates_.size(); base += config_.vector_size) {
      size_t batch = std::min(config_.vector_size, candidates_.size() - base);
      for (size_t i = 0; i < batch; i++) {
        probe_pos[i] = candidates_[base + i].probe_pos;
        build_rows[i] = candidates_[base + i].build_row;
      }
      residual_scratch_.Reset();
      for (size_t c = 0; c < n_probe_cols; c++) {
        GatherProbe(input_.column(c), probe_pos, batch,
                    &residual_scratch_.column(c));
      }
      for (size_t k = 0; k < build_payload_cols_.size(); k++) {
        build_payload_cols_[k].Gather(build_rows, batch,
                                      &residual_scratch_.column(n_probe_cols + k));
      }
      residual_scratch_.SetCount(batch);
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

  for (const Pair& p : pairs_) probe_match_[p.probe_pos] = 1;

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

void HashJoinOperator::EmitPairs(DataChunk* out) {
  size_t batch = std::min(out->capacity(), pairs_.size() - pair_cursor_);
  // The gather runs through the arena-leased index arrays, so cap the batch
  // at one vector (out may be larger).
  batch = std::min(batch, config_.vector_size);
  sel_t* probe_pos = probe_pos_.data<sel_t>();
  uint32_t* build_rows = build_row_idx_.data<uint32_t>();
  for (size_t i = 0; i < batch; i++) {
    probe_pos[i] = pairs_[pair_cursor_ + i].probe_pos;
    build_rows[i] = pairs_[pair_cursor_ + i].build_row;
  }
  pair_cursor_ += batch;
  size_t n_probe_cols = input_.num_columns();
  for (size_t c = 0; c < n_probe_cols; c++) {
    GatherProbe(input_.column(c), probe_pos, batch, &out->column(c));
  }
  // Payload: sentinel rows (unmatched outer) get zero/empty values.
  bool has_sentinel = false;
  for (size_t i = 0; i < batch; i++) has_sentinel |= (build_rows[i] == kNoRow);
  for (size_t k = 0; k < build_payload_cols_.size(); k++) {
    Vector& dst = out->column(n_probe_cols + k);
    if (!has_sentinel) {
      build_payload_cols_[k].Gather(build_rows, batch, &dst);
    } else {
      const ColumnStore& store = build_payload_cols_[k];
      for (size_t i = 0; i < batch; i++) {
        if (build_rows[i] == kNoRow) {
          ZeroFill(&dst, i);
          continue;
        }
        size_t row = build_rows[i];
        switch (dst.type()) {
          case TypeId::kU8:
            dst.Data<uint8_t>()[i] = store.Get<uint8_t>(row);
            break;
          case TypeId::kI32:
            dst.Data<int32_t>()[i] = store.Get<int32_t>(row);
            break;
          case TypeId::kI64:
            dst.Data<int64_t>()[i] = store.Get<int64_t>(row);
            break;
          case TypeId::kF64:
            dst.Data<double>()[i] = store.Get<double>(row);
            break;
          case TypeId::kStr:
            dst.Data<StringVal>()[i] = store.Strs()[row];
            break;
        }
      }
      if (store.heap()) dst.AddStringHeapRef(store.heap());
    }
  }
  if (spec_.type == JoinType::kLeftOuter) {
    uint8_t* flag = out->column(out_types_.size() - 1).Data<uint8_t>();
    for (size_t i = 0; i < batch; i++) flag[i] = build_rows[i] != kNoRow;
  }
  out->SetCount(batch);
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

Status HashJoinOperator::Next(DataChunk* out) {
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
    // Probe hashing, residual gathers, and pair emission read the probe
    // columns positionally; decode any encoded columns first.
    input_.NormalizeColumns();
    VWISE_RETURN_IF_ERROR(ProcessProbeChunk());
    if (spec_.type == JoinType::kLeftSemi || spec_.type == JoinType::kLeftAnti) {
      VWISE_RETURN_IF_ERROR(EmitSemiAnti(out));
      if (out->ActiveCount() == 0) continue;  // nothing qualified: next chunk
      return Status::OK();
    }
  }
}

void HashJoinOperator::Close() {
  probe_->Close();
  // Normally closed at the end of ConsumeBuildSide; close again (idempotent)
  // so an error/cancel unwind still reaches fragments below.
  build_->Close();
  build_key_cols_.clear();
  build_payload_cols_.clear();
  bucket_heads_.clear();
  chain_next_.clear();
  probe_reader_.reset();
  spill_.Drop();
  probe_partitioned_ = false;
  build_bytes_ = 0;
  probe_pos_.Release();
  build_row_idx_.Release();
  residual_sel_.Release();
  mem_.ReleaseAll();
}

}  // namespace vwise
