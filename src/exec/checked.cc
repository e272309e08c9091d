#include "exec/checked.h"

#include <sstream>

namespace vwise {

namespace {

Status Violation(const std::string& context, const std::string& what) {
  return Status::Internal("chunk contract violation [" + context + "]: " +
                          what);
}

}  // namespace

// vwise-hotpath: allow(alloc): violation messages are formatted only after a
// contract check has failed — the query is already being torn down, and the
// success path touches nothing but the chunk metadata
Status ChunkValidator::Validate(const DataChunk& chunk,
                                const std::vector<TypeId>& expected_types,
                                const std::string& context) {
  if (chunk.count() > chunk.capacity()) {
    std::ostringstream os;
    os << "count " << chunk.count() << " exceeds capacity " << chunk.capacity();
    return Violation(context, os.str());
  }

  if (chunk.has_selection()) {
    if (chunk.sel_count() > chunk.count()) {
      std::ostringstream os;
      os << "sel_count " << chunk.sel_count() << " exceeds count "
         << chunk.count();
      return Violation(context, os.str());
    }
    const sel_t* sel = chunk.sel();
    for (size_t i = 0; i < chunk.sel_count(); i++) {
      if (sel[i] >= chunk.count()) {
        std::ostringstream os;
        os << "sel[" << i << "] = " << sel[i] << " out of range (count "
           << chunk.count() << ")";
        return Violation(context, os.str());
      }
      if (i > 0 && sel[i] <= sel[i - 1]) {
        std::ostringstream os;
        os << "selection not strictly increasing at " << i << ": sel[" << i - 1
           << "] = " << sel[i - 1] << ", sel[" << i << "] = " << sel[i];
        return Violation(context, os.str());
      }
    }
  }

  // An end-of-stream chunk (ActiveCount() == 0) carries no data to type-check.
  if (chunk.ActiveCount() == 0) return Status::OK();

  if (chunk.num_columns() != expected_types.size()) {
    std::ostringstream os;
    os << "operator declares " << expected_types.size()
       << " output columns, chunk has " << chunk.num_columns();
    return Violation(context, os.str());
  }
  for (size_t c = 0; c < chunk.num_columns(); c++) {
    const Vector& col = chunk.column(c);
    if (col.type() != expected_types[c]) {
      std::ostringstream os;
      os << "column " << c << " has type " << TypeIdToString(col.type())
         << ", operator declares " << TypeIdToString(expected_types[c]);
      return Violation(context, os.str());
    }
    if (col.capacity() < chunk.count()) {
      std::ostringstream os;
      os << "column " << c << " capacity " << col.capacity()
         << " smaller than chunk count " << chunk.count();
      return Violation(context, os.str());
    }
    if (col.type() == TypeId::kStr) {
      const StringVal* vals = col.Data<StringVal>();
      const sel_t* sel = chunk.sel();
      size_t n = chunk.ActiveCount();
      bool any_bytes = false;
      for (size_t i = 0; i < n; i++) {
        const StringVal& v = vals[sel ? sel[i] : i];
        if (v.len > 0) {
          any_bytes = true;
          if (v.ptr == nullptr) {
            std::ostringstream os;
            os << "column " << c << " row " << i << " holds a StringVal of "
               << "length " << v.len << " with a null pointer";
            return Violation(context, os.str());
          }
        }
      }
      if (any_bytes && col.heaps().empty() && !col.has_keepalive()) {
        std::ostringstream os;
        os << "string column " << c << " carries bytes but registers no "
           << "StringHeap ref or keepalive (dangling once the producer "
           << "advances)";
        return Violation(context, os.str());
      }
    }
  }
  return Status::OK();
}

// vwise-hotpath: allow(alloc): same as Validate — formatting on failure only
Status ChunkValidator::ValidateReset(const DataChunk& chunk,
                                     const std::string& context) {
  if (chunk.count() != 0 || chunk.has_selection()) {
    std::ostringstream os;
    os << "chunk passed to Next() without Reset(): count " << chunk.count()
       << ", has_selection " << chunk.has_selection();
    return Violation(context, os.str());
  }
  for (size_t c = 0; c < chunk.num_columns(); c++) {
    if (!chunk.column(c).heaps().empty()) {
      std::ostringstream os;
      os << "chunk passed to Next() with stale heap refs on column " << c
         << " (Reset() clears keepalives between refills)";
      return Violation(context, os.str());
    }
  }
  return Status::OK();
}

CheckedOperator::CheckedOperator(OperatorPtr child, std::string label)
    : child_(std::move(child)), label_(std::move(label)) {}

Status CheckedOperator::OpenImpl() {
  VWISE_RETURN_IF_ERROR(child_->Open(ctx()));
  open_ = true;
  return Status::OK();
}

Status CheckedOperator::Next(DataChunk* out) {
  if (!open_) {
    return Status::Internal("operator contract violation [" + label_ +
                            "]: Next() before Open()");
  }
  VWISE_RETURN_IF_ERROR(ChunkValidator::ValidateReset(*out, label_));
  VWISE_RETURN_IF_ERROR(child_->Next(out));
  return ChunkValidator::Validate(*out, child_->OutputTypes(), label_);
}

void CheckedOperator::Close() {
  // Close() must be idempotent for every operator; delegate unconditionally
  // so double-Close bugs in children surface under the checker too.
  open_ = false;
  child_->Close();
}

OperatorPtr MaybeChecked(OperatorPtr op, const Config& config,
                         const char* label) {
  if (!config.check_contracts || op == nullptr) return op;
  return std::make_unique<CheckedOperator>(std::move(op), label);
}

}  // namespace vwise
