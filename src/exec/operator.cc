#include "exec/operator.h"

#include <sstream>
#include <type_traits>

#include "common/macros.h"
#include "service/query_context.h"

namespace vwise {

Status Operator::Open(QueryContext* ctx) {
  ctx_ = ctx != nullptr ? ctx : QueryContext::Background();
  return OpenImpl();
}

void DeepCopyChunk(const DataChunk& src, DataChunk* dst) {
  size_t n = src.ActiveCount();
  VWISE_CHECK(dst->num_columns() == src.num_columns());
  VWISE_CHECK(dst->capacity() >= n);
  const sel_t* sel = src.sel();
  for (size_t c = 0; c < src.num_columns(); c++) {
    const Vector& in = src.column(c);
    Vector& out = dst->column(c);
    DispatchType(in.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      const T* s = in.Data<T>();
      T* d = out.Data<T>();
      if constexpr (std::is_same_v<T, StringVal>) {
        StringHeap* heap = out.GetStringHeap();
        for (size_t i = 0; i < n; i++) d[i] = heap->Add(s[sel ? sel[i] : i].view());
      } else {
        for (size_t i = 0; i < n; i++) d[i] = s[sel ? sel[i] : i];
      }
    });
  }
  dst->SetCount(n);
  dst->ClearSelection();
}

size_t EstimateChunkBytes(const DataChunk& chunk) {
  size_t n = chunk.ActiveCount();
  const sel_t* sel = chunk.sel();
  size_t bytes = 0;
  for (size_t c = 0; c < chunk.num_columns(); c++) {
    const Vector& col = chunk.column(c);
    if (col.type() == TypeId::kStr) {
      bytes += n * sizeof(StringVal);
      const StringVal* s = col.Data<StringVal>();
      for (size_t i = 0; i < n; i++) {
        bytes += s[sel ? sel[i] : i].view().size();
      }
    } else {
      bytes += n * TypeWidth(col.type());
    }
  }
  return bytes;
}

Result<QueryResult> CollectRows(Operator* root, QueryContext* ctx,
                                size_t vector_size,
                                std::vector<std::string> names,
                                std::vector<DataType> types) {
  if (ctx == nullptr) ctx = QueryContext::Background();
  QueryResult result;
  result.column_names = std::move(names);
  result.column_types = std::move(types);
  // The tree is closed on EVERY exit, including cancellation, deadline
  // expiry, and Open/Next errors: Xchg fragments on shared pool threads keep
  // referencing `ctx` until Close() joins them, so skipping the unwind would
  // let a fragment outlive the query that owns the context. Close() is
  // idempotent for every operator (see CheckedOperator::Close), so closing a
  // partially-opened tree is safe.
  Status status = root->Open(ctx);
  if (!status.ok()) {
    root->Close();
    return status;
  }
  DataChunk chunk;
  chunk.Init(root->OutputTypes(), vector_size);
  while (true) {
    status = ctx->Check();
    if (!status.ok()) break;
    chunk.Reset();
    status = root->Next(&chunk);
    if (!status.ok()) break;
    size_t n = chunk.ActiveCount();
    if (n == 0) break;
    for (size_t i = 0; i < n; i++) {
      std::vector<Value> row;
      row.reserve(chunk.num_columns());
      for (size_t c = 0; c < chunk.num_columns(); c++) {
        const DataType* t =
            c < result.column_types.size() ? &result.column_types[c] : nullptr;
        row.push_back(chunk.GetValue(c, i, t));
      }
      result.rows.push_back(std::move(row));
    }
  }
  root->Close();
  if (!status.ok()) return status;
  return result;
}

Result<QueryResult> CollectRows(Operator* root, size_t vector_size,
                                std::vector<std::string> names,
                                std::vector<DataType> types) {
  return CollectRows(root, nullptr, vector_size, std::move(names),
                     std::move(types));
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t c = 0; c < column_names.size(); c++) {
    if (c > 0) os << " | ";
    os << column_names[c];
  }
  if (!column_names.empty()) os << "\n";
  size_t shown = 0;
  for (const auto& row : rows) {
    if (shown++ >= max_rows) {
      os << "... (" << rows.size() << " rows total)\n";
      break;
    }
    for (size_t c = 0; c < row.size(); c++) {
      if (c > 0) os << " | ";
      os << row[c].ToString();
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace vwise
