#include "exec/hash_agg.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "storage/spill_file.h"

namespace vwise {

namespace {

// The aggregate typing rules, stated once: `fn` over an input of physical
// type `in` keeps its state in a value lane of type `value` (i64 or f64),
// plus an i64 count lane when `counted`, and emits `out`. The plan verifier
// checks the output types against its own copy of these rules.
struct AggTypes {
  TypeId value;
  bool counted;
  TypeId out;
};

AggTypes TypeAggregate(AggSpec::Fn fn, TypeId in) {
  bool int_family =
      in == TypeId::kU8 || in == TypeId::kI32 || in == TypeId::kI64;
  switch (fn) {
    case AggSpec::Fn::kSum:
      return int_family ? AggTypes{TypeId::kI64, false, TypeId::kI64}
                        : AggTypes{TypeId::kF64, false, TypeId::kF64};
    case AggSpec::Fn::kMin:
    case AggSpec::Fn::kMax: {
      TypeId value = in == TypeId::kF64 ? TypeId::kF64 : TypeId::kI64;
      return {value, true, in == TypeId::kI32 ? TypeId::kI32 : value};
    }
    case AggSpec::Fn::kCount:
    case AggSpec::Fn::kCountStar:
      break;
    case AggSpec::Fn::kAvg:
      return {TypeId::kF64, true, TypeId::kF64};
  }
  return {TypeId::kI64, false, TypeId::kI64};
}

// Gathers lane rows idx[0..n) into `out`, a vector of the lane's type.
template <typename T>
void GatherLane(const std::vector<T>& lane, const uint32_t* idx, size_t n,
                Vector* out) {
  T* dst = out->Data<T>();
  for (size_t i = 0; i < n; i++) dst[i] = lane[idx[i]];
}

// The one aggregate update: merges n source rows into the lanes (value,
// and count for min/max/avg) of groups[0..n). Source row i is value
// src[sel[i]] (src[i] without a selection) standing for counts[i] input
// rows (1 each without counts); a null src is a count, worth 1 a row.
// Sums and counts add; min/max compare with IEEE `<`/`>`, take the first
// value a group sees (count 0 is the first-touch marker) and skip count-0
// partials; avg adds both lanes.
template <typename V, typename S>
void MergeLane(AggSpec::Fn fn, const S* src, const sel_t* sel,
               const int64_t* counts, const uint32_t* groups, size_t n,
               V* value, int64_t* count) {
  switch (fn) {
    case AggSpec::Fn::kSum:
    case AggSpec::Fn::kCount:
    case AggSpec::Fn::kCountStar:
      if (src == nullptr) {
        for (size_t i = 0; i < n; i++) value[groups[i]] += 1;
        break;
      }
      for (size_t i = 0; i < n; i++) {
        value[groups[i]] += static_cast<V>(src[sel ? sel[i] : i]);
      }
      break;
    case AggSpec::Fn::kMin:
    case AggSpec::Fn::kMax: {
      bool is_min = fn == AggSpec::Fn::kMin;
      for (size_t i = 0; i < n; i++) {
        if (counts != nullptr && counts[i] == 0) continue;  // no-data partial
        uint32_t g = groups[i];
        V v = static_cast<V>(src[sel ? sel[i] : i]);
        if (!count[g] || (is_min ? v < value[g] : v > value[g])) value[g] = v;
        count[g] = 1;
      }
      break;
    }
    case AggSpec::Fn::kAvg:
      for (size_t i = 0; i < n; i++) {
        uint32_t g = groups[i];
        value[g] += static_cast<V>(src[sel ? sel[i] : i]);
        count[g] += counts != nullptr ? counts[i] : 1;
      }
      break;
  }
}

}  // namespace

HashAggOperator::HashAggOperator(OperatorPtr child,
                                 std::vector<size_t> group_cols,
                                 std::vector<AggSpec> aggs,
                                 const Config& config)
    : Operator(config),
      child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      config_(config) {
  const auto& in_types = child_->OutputTypes();
  for (size_t c : group_cols_) {
    identity_cols_.push_back(state_types_.size());
    state_types_.push_back(in_types[c]);
    out_types_.push_back(in_types[c]);
  }
  for (const AggSpec& a : aggs_) {
    AggTypes t = TypeAggregate(
        a.fn, a.fn == AggSpec::Fn::kCountStar ? TypeId::kI64 : in_types[a.col]);
    AggLanes lanes{state_types_.size() - group_cols_.size(), SIZE_MAX};
    state_types_.push_back(t.value);
    if (t.counted) {
      lanes.count = lanes.value + 1;
      state_types_.push_back(TypeId::kI64);
    }
    agg_lanes_.push_back(lanes);
    out_types_.push_back(t.out);
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
  // copies plus per-aggregate state (value and count lanes) plus the stored
  // hash and its link. The buckets are reserved as they grow.
  mem_.Bind(ctx(), "hash aggregation");
  table_bytes_ = 0;
  per_group_bytes_ = KeyTable::kRowBytes;
  for (TypeId t : key_types) {
    per_group_bytes_ += t == TypeId::kStr ? 32 : TypeWidth(t);
  }
  per_group_bytes_ += aggs_.size() * 24;
  lanes_.clear();
  for (size_t c = group_cols_.size(); c < state_types_.size(); c++) {
    if (state_types_[c] == TypeId::kF64) {
      lanes_.emplace_back(std::vector<double>());
    } else {
      lanes_.emplace_back(std::vector<int64_t>());
    }
  }
  consumed_ = false;
  emit_cursor_ = 0;
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
  n_groups_ = table_.size();
  for (Lane& lane : lanes_) {
    std::visit([this](auto& v) { v.resize(n_groups_); }, lane);
  }
}

void HashAggOperator::UpdateLanes(const DataChunk& chunk, const sel_t* sel,
                                  size_t n, bool state_rows) {
  const size_t n_keys = group_cols_.size();
  for (size_t a = 0; a < aggs_.size(); a++) {
    const AggSpec& spec = aggs_[a];
    const AggLanes& l = agg_lanes_[a];
    int64_t* count =
        l.count == SIZE_MAX
            ? nullptr
            : std::get<std::vector<int64_t>>(lanes_[l.count]).data();
    const int64_t* counts =
        state_rows && count != nullptr
            ? chunk.column(n_keys + l.count).Data<int64_t>()
            : nullptr;
    auto merge = [&](const auto* src) {
      std::visit(
          [&](auto& value) {
            MergeLane(spec.fn, src, sel, counts, group_idx_.data(), n,
                      value.data(), count);
          },
          lanes_[l.value]);
    };
    bool count_rows =
        spec.fn == AggSpec::Fn::kCount || spec.fn == AggSpec::Fn::kCountStar;
    if (count_rows && !state_rows) {
      merge(static_cast<const int64_t*>(nullptr));  // reads no input values
      continue;
    }
    const Vector& src = chunk.column(state_rows ? n_keys + l.value : spec.col);
    DispatchType(src.type(), [&](auto tag) {
      using S = typename decltype(tag)::type;
      // Strings have no lane (the plan verifier rejects such aggregates).
      if constexpr (!std::is_same_v<S, StringVal>) merge(src.Data<S>());
    });
  }
}

// VWISE_HOT: the per-chunk aggregation core — hashed, resolved and updated
// without leaving the OpenImpl-sized scratch (group creation is the annotated
// warm-up tail of ResolveGroups).
VWISE_HOT Status HashAggOperator::ProcessChunk(const DataChunk& chunk) {
  size_t n = chunk.ActiveCount();
  const sel_t* sel = chunk.sel();
  ResolveGroups(chunk, group_cols_, sel, n);
  UpdateLanes(chunk, sel, n, /*state_rows=*/false);
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

void HashAggOperator::ClearTable() {
  mem_.Shrink(table_bytes_);
  table_bytes_ = 0;
  table_.Clear();
  n_groups_ = 0;
  for (Lane& lane : lanes_) {
    std::visit([](auto& v) { v.clear(); }, lane);
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
        for (size_t c = 0; c < lanes_.size(); c++) {
          Vector* dst = &out->column(group_cols_.size() + c);
          std::visit([&](const auto& v) { GatherLane(v, ids, n, dst); },
                     lanes_[c]);
        }
      }));
  ClearTable();
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
    ResolveGroups(chunk, identity_cols_, nullptr, n);  // state chunks are dense
    UpdateLanes(chunk, nullptr, n, /*state_rows=*/true);
    TrimReservation();
  }
  return Status::OK();
}

Status HashAggOperator::NextImpl(DataChunk* out) {
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
    const Lane& value = lanes_[agg_lanes_[a].value];
    if (aggs_[a].fn == AggSpec::Fn::kAvg) {
      const auto& sum = std::get<std::vector<double>>(value);
      const auto& count =
          std::get<std::vector<int64_t>>(lanes_[agg_lanes_[a].count]);
      double* avg = dst.Data<double>();
      for (size_t i = 0; i < batch; i++) {
        avg[i] = count[idx[i]] == 0
                     ? 0.0
                     : sum[idx[i]] / static_cast<double>(count[idx[i]]);
      }
    } else if (dst.type() == TypeId::kI32) {  // an i32 min/max narrows
      const auto& v = std::get<std::vector<int64_t>>(value);
      int32_t* narrow = dst.Data<int32_t>();
      for (size_t i = 0; i < batch; i++) {
        narrow[i] = static_cast<int32_t>(v[idx[i]]);
      }
    } else {
      std::visit([&](const auto& v) { GatherLane(v, idx, batch, &dst); },
                 value);
    }
  }
  out->SetCount(batch);
  emit_cursor_ += batch;
  return Status::OK();
}

void HashAggOperator::CloseImpl() {
  // The child is normally closed at the end of ConsumeInput; close it again
  // here (idempotent) so an error/cancel unwind that skipped the consume
  // still reaches Xchg fragments running below on pool threads.
  child_->Close();
  table_.Clear();
  lanes_.clear();
  spill_.Drop();
  mem_.ReleaseAll();
  table_bytes_ = 0;
}

}  // namespace vwise
