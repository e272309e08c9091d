#include "exec/hash_agg.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "exec/profile.h"
#include "storage/spill_file.h"

namespace vwise {

namespace {

// Numeric value of column `vec` at `pos` widened to T (double / int64).
template <typename T>
T NumberAt(const Vector& vec, sel_t pos) {
  return DispatchType(vec.type(), [&](auto tag) -> T {
    using V = typename decltype(tag)::type;
    if constexpr (std::is_same_v<V, StringVal>) {
      return 0;
    } else {
      return static_cast<T>(vec.Data<V>()[pos]);
    }
  });
}

bool IntFamily(TypeId t) {
  return t == TypeId::kU8 || t == TypeId::kI32 || t == TypeId::kI64;
}

}  // namespace

HashAggOperator::HashAggOperator(OperatorPtr child,
                                 std::vector<size_t> group_cols,
                                 std::vector<AggSpec> aggs,
                                 const Config& config)
    : child_(InterposeChild(std::move(child), config, "hash_agg.child")),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      config_(config) {
  const auto& in_types = child_->OutputTypes();
  for (size_t c : group_cols_) out_types_.push_back(in_types[c]);
  for (const AggSpec& a : aggs_) {
    switch (a.fn) {
      case AggSpec::Fn::kSum:
        out_types_.push_back(IntFamily(in_types[a.col]) ? TypeId::kI64
                                                        : TypeId::kF64);
        break;
      case AggSpec::Fn::kMin:
      case AggSpec::Fn::kMax:
        out_types_.push_back(in_types[a.col] == TypeId::kF64 ? TypeId::kF64
                             : in_types[a.col] == TypeId::kI32 ? TypeId::kI32
                                                               : TypeId::kI64);
        break;
      case AggSpec::Fn::kCount:
      case AggSpec::Fn::kCountStar:
        out_types_.push_back(TypeId::kI64);
        break;
      case AggSpec::Fn::kAvg:
        out_types_.push_back(TypeId::kF64);
        break;
    }
  }
}

HashAggOperator::~HashAggOperator() = default;

Status HashAggOperator::OpenImpl() {
  VWISE_RETURN_IF_ERROR(child_->Open(ctx()));
  const auto& in_types = child_->OutputTypes();
  std::vector<TypeId> key_types;
  for (size_t c : group_cols_) key_types.push_back(in_types[c]);
  table_.Init(key_types, config_.vector_size);
  n_groups_ = 0;
  // Budget accounting: estimated footprint of one group row — owned key
  // copies plus per-aggregate state (i64/f64/count lanes) plus the stored
  // hash and its link. The buckets are reserved as they grow.
  mem_.Bind(ctx(), "hash aggregation");
  table_bytes_ = 0;
  per_group_bytes_ = KeyTable::kRowBytes;
  for (TypeId t : key_types) {
    per_group_bytes_ += t == TypeId::kStr ? 32 : TypeWidth(t);
  }
  per_group_bytes_ += aggs_.size() * 24;
  states_.assign(aggs_.size(), AggState{});
  for (size_t i = 0; i < aggs_.size(); i++) {
    states_[i].in_type =
        aggs_[i].fn == AggSpec::Fn::kCountStar ? TypeId::kI64 : in_types[aggs_[i].col];
  }
  consumed_ = false;
  emit_cursor_ = 0;
  BuildStateSchema();
  spill_.Init(ctx(), &config_, {{state_types_, identity_cols_, "agg_part"}});
  hash_scratch_.resize(config_.vector_size);
  group_idx_.resize(config_.vector_size);
  emit_idx_.resize(config_.vector_size);
  return Status::OK();
}

Status HashAggOperator::ReserveGroups(size_t rows) {
  size_t bytes =
      rows * per_group_bytes_ + table_.BucketGrowth(n_groups_ + rows);
  VWISE_RETURN_IF_ERROR(mem_.Grow(bytes));
  table_bytes_ += bytes;
  return Status::OK();
}

void HashAggOperator::TrimReservation() {
  size_t held = n_groups_ * per_group_bytes_ + table_.bucket_bytes();
  VWISE_DCHECK(held <= table_bytes_);
  mem_.Shrink(table_bytes_ - held);
  table_bytes_ = held;
}

void HashAggOperator::ResolveGroups(const DataChunk& chunk,
                                    const std::vector<size_t>& key_cols,
                                    const sel_t* sel, size_t n) {
  uint64_t* hashes = hash_scratch_.data();
  KeyTable::Hash(chunk, key_cols, sel, n, hashes);
  table_.FindOrInsert(chunk, key_cols, sel, n, hashes, group_idx_.data());
  if (table_.size() > n_groups_) {
    // vwise-hotpath: allow(cold-call): per-new-group state growth, warm-up
    // only; a stabilized group set never reaches it
    AddGroups();
  }
}

void HashAggOperator::AddGroups() {
  // One zeroed value lane per aggregate plus a count lane for min/max
  // (first-touch marker) and avg, as laid out by BuildStateSchema.
  n_groups_ = table_.size();
  for (size_t a = 0; a < aggs_.size(); a++) {
    AggState& st = states_[a];
    if (lanes_[a].is_i64) {
      st.i64.resize(n_groups_);
    } else {
      st.f64.resize(n_groups_);
    }
    if (lanes_[a].count_col != SIZE_MAX) st.count.resize(n_groups_);
  }
}

// VWISE_HOT: the per-chunk aggregation core — hashed, resolved and updated
// without leaving the OpenImpl-sized scratch (group creation is the annotated
// warm-up tail of ResolveGroups).
VWISE_HOT Status HashAggOperator::ProcessChunk(DataChunk& chunk) {
  size_t n = chunk.ActiveCount();
  const sel_t* sel = chunk.sel();
  // Compressed execution: group keys and aggregate inputs are read
  // value-at-a-time below, so encoded columns decode first.
  for (size_t k = 0; k < group_cols_.size(); k++) {
    Vector& key = chunk.column(group_cols_[k]);
    if (key.IsEncoded()) {
      // vwise-hotpath: allow(cold-call): per-chunk decode boundary
      key.Normalize(chunk.count());
    }
  }
  for (size_t a = 0; a < aggs_.size(); a++) {
    const AggSpec& spec = aggs_[a];
    if (spec.fn == AggSpec::Fn::kCount || spec.fn == AggSpec::Fn::kCountStar) {
      continue;  // counting never reads the input values
    }
    Vector& agg_in = chunk.column(spec.col);
    if (agg_in.IsEncoded()) {
      // vwise-hotpath: allow(cold-call): per-chunk decode boundary
      agg_in.Normalize(chunk.count());
    }
  }
  // 1. Resolve the group indices.
  ResolveGroups(chunk, group_cols_, sel, n);
  const uint32_t* groups = group_idx_.data();
  // 2. Per-aggregate update loops.
  for (size_t a = 0; a < aggs_.size(); a++) {
    AggState& st = states_[a];
    const AggSpec& spec = aggs_[a];
    switch (spec.fn) {
      case AggSpec::Fn::kSum: {
        const Vector& in = chunk.column(spec.col);
        if (IntFamily(st.in_type)) {
          for (size_t i = 0; i < n; i++) {
            sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
            st.i64[groups[i]] += NumberAt<int64_t>(in, pos);
          }
        } else {
          for (size_t i = 0; i < n; i++) {
            sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
            st.f64[groups[i]] += NumberAt<double>(in, pos);
          }
        }
        break;
      }
      case AggSpec::Fn::kMin:
      case AggSpec::Fn::kMax: {
        const Vector& in = chunk.column(spec.col);
        bool is_min = spec.fn == AggSpec::Fn::kMin;
        for (size_t i = 0; i < n; i++) {
          sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
          uint32_t g = groups[i];
          if (st.in_type == TypeId::kF64) {
            double v = NumberAt<double>(in, pos);
            if (!st.count[g] || (is_min ? v < st.f64[g] : v > st.f64[g])) {
              st.f64[g] = v;
            }
          } else {
            int64_t v = NumberAt<int64_t>(in, pos);
            if (!st.count[g] || (is_min ? v < st.i64[g] : v > st.i64[g])) {
              st.i64[g] = v;
            }
          }
          st.count[g] = 1;
        }
        break;
      }
      case AggSpec::Fn::kCount:
      case AggSpec::Fn::kCountStar:
        for (size_t i = 0; i < n; i++) st.i64[groups[i]]++;
        break;
      case AggSpec::Fn::kAvg: {
        const Vector& in = chunk.column(spec.col);
        for (size_t i = 0; i < n; i++) {
          sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
          uint32_t g = groups[i];
          st.f64[g] += NumberAt<double>(in, pos);
          st.count[g]++;
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status HashAggOperator::ConsumeInput() {
  DataChunk chunk;
  chunk.Init(child_->OutputTypes(), config_.vector_size);
  std::vector<sel_t> orig_sel;  // snapshot of active positions when slicing
  while (true) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    chunk.Reset();
    VWISE_RETURN_IF_ERROR(child_->Next(&chunk));
    size_t n = chunk.ActiveCount();
    if (n == 0) break;
    // Budget-accounting fix: reserve a worst-case bound (every incoming row
    // a fresh group, and the buckets for them) BEFORE ProcessChunk inserts
    // anything, then trim the reservation to the groups actually created.
    // The old reserve-after-insert let a single chunk of fresh groups
    // overshoot the budget — and the spill trigger below must fire before
    // allocation to help at all.
    size_t done = 0;
    bool sliced = false;
    while (done < n) {
      size_t slice = n - done;
      while (true) {
        Status grown = ReserveGroups(slice);
        if (grown.ok()) break;
        VWISE_RETURN_IF_ERROR(
            ShouldSpill(ctx(), config_, grown, mem_.bytes()).status());
        if (n_groups_ > 0) {
          // Flush the table to the radix partitions and retry with the
          // budget freed up.
          VWISE_RETURN_IF_ERROR(SpillGroups());
          continue;
        }
        if (slice > 1) {
          // Empty table and still over budget: the worst-case bound for the
          // whole slice is what does not fit — narrow the slice instead of
          // failing (the real group count is usually far below worst case).
          slice = (slice + 1) / 2;
          continue;
        }
        return grown;  // budget cannot hold even one group
      }
      if (slice < n) {
        // Narrow the chunk to the active-position window [done, done+slice).
        if (!sliced) {
          orig_sel.resize(n);
          if (chunk.has_selection()) {
            std::memcpy(orig_sel.data(), chunk.sel(), n * sizeof(sel_t));
          } else {
            for (size_t i = 0; i < n; i++) orig_sel[i] = static_cast<sel_t>(i);
          }
          sliced = true;
        }
        std::memcpy(chunk.MutableSel(), orig_sel.data() + done,
                    slice * sizeof(sel_t));
        chunk.SetSelection(slice);
      }
      VWISE_RETURN_IF_ERROR(ProcessChunk(chunk));
      TrimReservation();
      done += slice;
    }
    bool spill = false;
    VWISE_ASSIGN_OR_RETURN(
        spill, ShouldSpill(ctx(), config_, Status::OK(), mem_.bytes()));
    if (spill) VWISE_RETURN_IF_ERROR(SpillGroups());
  }
  child_->Close();
  if (spill_.spilled()) {
    // Flush the tail so every group lives in exactly one partition, then
    // close the writers; emission reloads partitions one at a time.
    VWISE_RETURN_IF_ERROR(SpillGroups());
    spill_.Seal();
    return Status::OK();
  }
  // An ungrouped aggregate always emits one row, even on empty input.
  if (group_cols_.empty() && n_groups_ == 0) {
    // Materialize the single global group with zeroed states: one row
    // without key columns.
    ResolveGroups(DataChunk(), group_cols_, nullptr, 1);
  }
  return Status::OK();
}

void HashAggOperator::BuildStateSchema() {
  const auto& in_types = child_->OutputTypes();
  state_types_.clear();
  lanes_.clear();
  identity_cols_.clear();
  for (size_t k = 0; k < group_cols_.size(); k++) {
    state_types_.push_back(in_types[group_cols_[k]]);
    identity_cols_.push_back(k);
  }
  for (size_t a = 0; a < aggs_.size(); a++) {
    const AggState& st = states_[a];
    bool is_i64 = false;
    bool has_count = false;
    switch (aggs_[a].fn) {
      case AggSpec::Fn::kSum:
        is_i64 = IntFamily(st.in_type);
        break;
      case AggSpec::Fn::kMin:
      case AggSpec::Fn::kMax:
        is_i64 = st.in_type != TypeId::kF64;
        has_count = true;
        break;
      case AggSpec::Fn::kCount:
      case AggSpec::Fn::kCountStar:
        is_i64 = true;
        break;
      case AggSpec::Fn::kAvg:
        is_i64 = false;
        has_count = true;
        break;
    }
    StateLane lane{state_types_.size(), SIZE_MAX, is_i64};
    state_types_.push_back(is_i64 ? TypeId::kI64 : TypeId::kF64);
    if (has_count) {
      lane.count_col = state_types_.size();
      state_types_.push_back(TypeId::kI64);
    }
    lanes_.push_back(lane);
  }
}

void HashAggOperator::ClearTable() {
  mem_.Shrink(table_bytes_);
  table_bytes_ = 0;
  table_.Clear();
  n_groups_ = 0;
  for (AggState& st : states_) {
    st.i64.clear();
    st.f64.clear();
    st.count.clear();
  }
}

Status HashAggOperator::SpillGroups() {
  if (n_groups_ == 0) return Status::OK();
  VWISE_RETURN_IF_ERROR(spill_.Flush(
      0, n_groups_, [this](uint32_t g) { return table_.hash(g); },
      [this](const uint32_t* ids, size_t n, DataChunk* out) {
        for (size_t k = 0; k < group_cols_.size(); k++) {
          table_.key(k).Gather(ids, n, &out->column(k));
        }
        for (size_t a = 0; a < aggs_.size(); a++) {
          const AggState& st = states_[a];
          const StateLane& lane = lanes_[a];
          Vector& value = out->column(lane.value_col);
          for (size_t j = 0; j < n; j++) {
            uint32_t g = ids[j];
            if (lane.is_i64) {
              value.Data<int64_t>()[j] = st.i64[g];
            } else {
              value.Data<double>()[j] = st.f64[g];
            }
            if (lane.count_col != SIZE_MAX) {
              out->column(lane.count_col).Data<int64_t>()[j] = st.count[g];
            }
          }
        }
      }));
  ClearTable();
  return Status::OK();
}

Status HashAggOperator::ProcessStateChunk(const DataChunk& chunk) {
  size_t n = chunk.count();  // state chunks are dense
  ResolveGroups(chunk, identity_cols_, nullptr, n);
  const uint32_t* groups = group_idx_.data();
  // Merge the partial states: sums/counts add, min/max compare (their count
  // lane is the first-touch marker), avg adds both lanes.
  for (size_t a = 0; a < aggs_.size(); a++) {
    AggState& st = states_[a];
    const StateLane& lane = lanes_[a];
    const Vector& value = chunk.column(lane.value_col);
    switch (aggs_[a].fn) {
      case AggSpec::Fn::kSum:
      case AggSpec::Fn::kCount:
      case AggSpec::Fn::kCountStar:
        for (size_t i = 0; i < n; i++) {
          if (lane.is_i64) {
            st.i64[groups[i]] += value.Data<int64_t>()[i];
          } else {
            st.f64[groups[i]] += value.Data<double>()[i];
          }
        }
        break;
      case AggSpec::Fn::kMin:
      case AggSpec::Fn::kMax: {
        const Vector& cnt = chunk.column(lane.count_col);
        bool is_min = aggs_[a].fn == AggSpec::Fn::kMin;
        for (size_t i = 0; i < n; i++) {
          if (cnt.Data<int64_t>()[i] == 0) continue;  // no-data partial
          uint32_t g = groups[i];
          if (lane.is_i64) {
            int64_t v = value.Data<int64_t>()[i];
            if (!st.count[g] || (is_min ? v < st.i64[g] : v > st.i64[g])) {
              st.i64[g] = v;
            }
          } else {
            double v = value.Data<double>()[i];
            if (!st.count[g] || (is_min ? v < st.f64[g] : v > st.f64[g])) {
              st.f64[g] = v;
            }
          }
          st.count[g] = 1;
        }
        break;
      }
      case AggSpec::Fn::kAvg: {
        const Vector& cnt = chunk.column(lane.count_col);
        for (size_t i = 0; i < n; i++) {
          uint32_t g = groups[i];
          st.f64[g] += value.Data<double>()[i];
          st.count[g] += cnt.Data<int64_t>()[i];
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status HashAggOperator::LoadPartition() {
  ClearTable();
  std::unique_ptr<SpillReader> reader;
  VWISE_ASSIGN_OR_RETURN(reader, spill_.Read(0));
  DataChunk chunk;
  chunk.Init(state_types_, config_.vector_size);
  while (true) {
    VWISE_RETURN_IF_ERROR(ctx()->Check());
    bool more = false;
    VWISE_ASSIGN_OR_RETURN(more, reader->Next(&chunk));
    if (!more) break;
    size_t n = chunk.count();
    // Same reserve-before-insert protocol as the consume path.
    // ResourceExhausted here means one partition's groups alone exceed the
    // budget; the caller splits it onto a fresh radix level
    // (RadixSpill::Split) instead of failing the query, so the partially
    // merged groups go first.
    Status grown = ReserveGroups(n);
    if (!grown.ok()) {
      ClearTable();
      return grown;
    }
    VWISE_RETURN_IF_ERROR(ProcessStateChunk(chunk));
    TrimReservation();
  }
  return Status::OK();
}

Status HashAggOperator::Next(DataChunk* out) {
  if (!consumed_) {
    // vwise-hotpath: allow(cold-call): consumes the whole input once per
    // query; the per-chunk work inside is ProcessChunk, a root of its own
    VWISE_RETURN_IF_ERROR(ConsumeInput());
    consumed_ = true;
    emit_cursor_ = 0;
  }
  if (spill_.spilled()) {
    // Partition-at-a-time emission: when the resident table is drained,
    // reload and merge the next pending partition (skipping empty ones). A
    // partition whose groups alone overflow the budget is split onto the
    // next radix level and its children retried, up to the depth bound.
    while (emit_cursor_ >= n_groups_) {
      if (!spill_.Next()) {
        out->SetCount(0);
        return Status::OK();
      }
      // vwise-hotpath: allow(cold-call): partition reload runs only after
      // the aggregation degraded to disk under a memory budget
      Status load = LoadPartition();
      if (!load.ok()) {
        // vwise-hotpath: allow(cold-call): budget-driven degradation path
        VWISE_RETURN_IF_ERROR(spill_.Split(load));
        continue;
      }
      emit_cursor_ = 0;
    }
  }
  size_t batch = std::min(out->capacity(), n_groups_ - emit_cursor_);
  // The emit gather runs through emit_idx_, sized to one vector at Open, so
  // cap the batch at its size (out may be larger than one vector).
  batch = std::min(batch, config_.vector_size);
  if (batch == 0) {
    out->SetCount(0);
    return Status::OK();
  }
  uint32_t* idx = emit_idx_.data();
  for (size_t i = 0; i < batch; i++) idx[i] = static_cast<uint32_t>(emit_cursor_ + i);
  for (size_t k = 0; k < group_cols_.size(); k++) {
    table_.key(k).Gather(idx, batch, &out->column(k));
  }
  for (size_t a = 0; a < aggs_.size(); a++) {
    Vector& dst = out->column(group_cols_.size() + a);
    const AggState& st = states_[a];
    // The output type follows the state lane (see the constructor): f64
    // lanes emit f64, i64 lanes i64, narrowed for an i32 min/max.
    for (size_t i = 0; i < batch; i++) {
      size_t g = emit_cursor_ + i;
      if (aggs_[a].fn == AggSpec::Fn::kAvg) {
        dst.Data<double>()[i] =
            st.count[g] == 0 ? 0.0 : st.f64[g] / static_cast<double>(st.count[g]);
      } else if (dst.type() == TypeId::kF64) {
        dst.Data<double>()[i] = st.f64[g];
      } else if (dst.type() == TypeId::kI32) {
        dst.Data<int32_t>()[i] = static_cast<int32_t>(st.i64[g]);
      } else {
        dst.Data<int64_t>()[i] = st.i64[g];
      }
    }
  }
  out->SetCount(batch);
  emit_cursor_ += batch;
  return Status::OK();
}

void HashAggOperator::Close() {
  // The child is normally closed at the end of ConsumeInput; close it again
  // here (idempotent) so an error/cancel unwind that skipped the consume
  // still reaches Xchg fragments running below on pool threads.
  child_->Close();
  table_.Clear();
  states_.clear();
  spill_.Drop();
  mem_.ReleaseAll();
  table_bytes_ = 0;
}

}  // namespace vwise
