#include "exec/checked.h"

#include <sstream>

namespace vwise {

namespace {

Status Violation(const Operator& producer, const std::string& what) {
  return Status::Internal("chunk contract violation [" + producer.Name() +
                          "]: " + what);
}

}  // namespace

// vwise-hotpath: allow(alloc): violation messages are formatted only after a
// contract check has failed — the query is already being torn down, and the
// success path touches nothing but the chunk metadata
Status ChunkValidator::Validate(const DataChunk& chunk,
                                const Operator& producer) {
  const std::vector<TypeId>& expected_types = producer.OutputTypes();
  if (chunk.count() > chunk.capacity()) {
    std::ostringstream os;
    os << "count " << chunk.count() << " exceeds capacity " << chunk.capacity();
    return Violation(producer, os.str());
  }

  if (chunk.has_selection()) {
    if (chunk.sel_count() > chunk.count()) {
      std::ostringstream os;
      os << "sel_count " << chunk.sel_count() << " exceeds count "
         << chunk.count();
      return Violation(producer, os.str());
    }
    const sel_t* sel = chunk.sel();
    for (size_t i = 0; i < chunk.sel_count(); i++) {
      if (sel[i] >= chunk.count()) {
        std::ostringstream os;
        os << "sel[" << i << "] = " << sel[i] << " out of range (count "
           << chunk.count() << ")";
        return Violation(producer, os.str());
      }
      if (i > 0 && sel[i] <= sel[i - 1]) {
        std::ostringstream os;
        os << "selection not strictly increasing at " << i << ": sel[" << i - 1
           << "] = " << sel[i - 1] << ", sel[" << i << "] = " << sel[i];
        return Violation(producer, os.str());
      }
    }
  }

  // An end-of-stream chunk (ActiveCount() == 0) carries no data to type-check.
  if (chunk.ActiveCount() == 0) return Status::OK();

  if (chunk.num_columns() != expected_types.size()) {
    std::ostringstream os;
    os << "operator declares " << expected_types.size()
       << " output columns, chunk has " << chunk.num_columns();
    return Violation(producer, os.str());
  }
  for (size_t c = 0; c < chunk.num_columns(); c++) {
    const Vector& col = chunk.column(c);
    if (col.type() != expected_types[c]) {
      std::ostringstream os;
      os << "column " << c << " has type " << TypeIdToString(col.type())
         << ", operator declares " << TypeIdToString(expected_types[c]);
      return Violation(producer, os.str());
    }
    if (col.capacity() < chunk.count()) {
      std::ostringstream os;
      os << "column " << c << " capacity " << col.capacity()
         << " smaller than chunk count " << chunk.count();
      return Violation(producer, os.str());
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
            return Violation(producer, os.str());
          }
        }
      }
      if (any_bytes && col.heaps().empty() && !col.has_keepalive()) {
        std::ostringstream os;
        os << "string column " << c << " carries bytes but registers no "
           << "StringHeap ref or keepalive (dangling once the producer "
           << "advances)";
        return Violation(producer, os.str());
      }
    }
  }
  return Status::OK();
}

// vwise-hotpath: allow(alloc): same as Validate — formatting on failure only
Status ChunkValidator::ValidateReset(const DataChunk& chunk,
                                     const Operator& producer) {
  if (chunk.count() != 0 || chunk.has_selection()) {
    std::ostringstream os;
    os << "chunk passed to Next() without Reset(): count " << chunk.count()
       << ", has_selection " << chunk.has_selection();
    return Violation(producer, os.str());
  }
  for (size_t c = 0; c < chunk.num_columns(); c++) {
    if (!chunk.column(c).heaps().empty()) {
      std::ostringstream os;
      os << "chunk passed to Next() with stale heap refs on column " << c
         << " (Reset() clears keepalives between refills)";
      return Violation(producer, os.str());
    }
  }
  return Status::OK();
}

}  // namespace vwise
