#include "exec/key_table.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/macros.h"
#include "exec/key_hash.h"

namespace vwise {

namespace {

size_t BucketCount(size_t rows) { return bit::NextPowerOfTwo(2 * rows + 1); }

}  // namespace

size_t KeyTable::BucketGrowth(size_t rows) const {
  return (std::max(BucketCount(rows), heads_.size()) - heads_.size()) *
         sizeof(uint32_t);
}

void KeyTable::Hash(const DataChunk& chunk, const std::vector<size_t>& cols,
                    const sel_t* sel, size_t n, uint64_t* hashes) {
  std::fill(hashes, hashes + n, 0);
  for (size_t c : cols) {
    const Vector& col = chunk.column(c);
    DispatchType(col.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      const T* v = col.Data<T>();
      for (size_t i = 0; i < n; i++) {
        hashes[i] = HashCombine(hashes[i], HashKey(v[sel ? sel[i] : i]));
      }
    });
  }
}

void KeyTable::Init(const std::vector<TypeId>& types, size_t vector_size) {
  keys_.clear();
  for (TypeId t : types) keys_.emplace_back(t);
  Clear();
  hash_scratch_.resize(vector_size);
  work_.resize(vector_size);
  rejected_.resize(vector_size);
  missing_.resize(vector_size);
  inserted_.resize(vector_size);
  top_.resize(vector_size);
}

void KeyTable::Clear() {
  for (ColumnStore& key : keys_) key = ColumnStore(key.type());
  hashes_.clear();
  next_.clear();
  heads_.clear();
}

void KeyTable::Append(const DataChunk& chunk, const std::vector<size_t>& cols,
                      const sel_t* sel, size_t n) {
  for (size_t k = 0; k < cols.size(); k++) {
    keys_[k].AppendFrom(chunk.column(cols[k]), sel, n);
  }
  size_t old = hashes_.size();
  hashes_.resize(old + n);
  Hash(chunk, cols, sel, n, hashes_.data() + old);
}

void KeyTable::Link() { Rebuild(BucketCount(size())); }

void KeyTable::Rebuild(size_t buckets) {
  heads_.assign(buckets, kNoRow);
  next_.resize(size());
  for (uint32_t row = 0; row < size(); row++) {
    uint32_t& first = heads_[hashes_[row] & (buckets - 1)];
    next_[row] = first;
    first = row;
  }
}

size_t KeyTable::KeepEqual(const DataChunk& chunk,
                           const std::vector<size_t>& cols, const sel_t* sel,
                           Match* m, size_t n, Match* rejected,
                           size_t* n_rejected) const {
  for (size_t k = 0; k < cols.size() && n > 0; k++) {
    const Vector& col = chunk.column(cols[k]);
    n = DispatchType(col.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      const T* probe = col.Data<T>();
      const T* stored = static_cast<const T*>(keys_[k].raw());
      size_t kept = 0;
      for (size_t j = 0; j < n; j++) {
        sel_t pos = sel != nullptr ? sel[m[j].pos] : m[j].pos;
        if (KeyEq(probe[pos], stored[m[j].row])) {
          m[kept++] = m[j];
        } else if (rejected != nullptr) {
          rejected[(*n_rejected)++] = m[j];
        }
      }
      return kept;
    });
  }
  return n;
}

void KeyTable::Probe(const DataChunk& chunk, const std::vector<size_t>& cols,
                     const sel_t* sel, size_t n,
                     std::vector<Match>* matches) {
  matches->clear();
  if (size() == 0) return;
  uint64_t* hashes = hash_scratch_.data();
  Hash(chunk, cols, sel, n, hashes);
  for (size_t i = 0; i < n; i++) {
    sel_t pos = sel != nullptr ? sel[i] : static_cast<sel_t>(i);
    uint64_t h = hashes[i];
    for (uint32_t row = head(h); row != kNoRow; row = next_[row]) {
      // vwise-hotpath: allow(alloc): amortized growth, the caller's matches
      // keep their capacity across probe chunks
      if (hashes_[row] == h) matches->push_back(Match{pos, row});
    }
  }
  size_t kept = KeepEqual(chunk, cols, nullptr, matches->data(),
                          matches->size(), nullptr, nullptr);
  matches->erase(matches->begin() + kept, matches->end());
}

void KeyTable::FindOrInsert(const DataChunk& chunk,
                            const std::vector<size_t>& cols, const sel_t* sel,
                            size_t n, const uint64_t* hashes, uint32_t* rows) {
  VWISE_DCHECK(n <= work_.size());
  if (heads_.empty()) {
    // vwise-hotpath: allow(cold-call): the first chunk after a Clear only
    Rebuild(BucketCount(0));
  }
  // Work list: Match{i, next table row to examine} per unresolved row i.
  Match* work = work_.data();
  for (size_t i = 0; i < n; i++) {
    work[i] = Match{static_cast<sel_t>(i), head(hashes[i])};
    top_[i] = static_cast<uint32_t>(size());
  }
  size_t n_work = n;
  while (n_work > 0) {
    // 1. Walk each chain to its next row with an equal stored hash. A row
    // whose chain ran out has a key the table lacked at top_[i].
    size_t n_cand = 0;
    size_t n_missing = 0;
    for (size_t j = 0; j < n_work; j++) {
      uint64_t h = hashes[work[j].pos];
      uint32_t row = work[j].row;
      while (row != kNoRow && hashes_[row] != h) row = next_[row];
      if (row == kNoRow) {
        missing_[n_missing++] = work[j].pos;
      } else {
        work[n_cand++] = Match{work[j].pos, row};
      }
    }
    // 2. Check the keys: equal resolves the row, unequal walks on.
    size_t n_rejected = 0;
    size_t n_found = KeepEqual(chunk, cols, sel, work, n_cand,
                               rejected_.data(), &n_rejected);
    for (size_t j = 0; j < n_found; j++) rows[work[j].pos] = work[j].row;
    n_work = 0;
    if (n_missing > 0) {
      // vwise-hotpath: allow(cold-call): runs only for keys new to the
      // table (new groups); a stabilized group set never reaches it
      InsertMissing(chunk, cols, sel, hashes, n_missing, rows, &n_work);
    }
    // After InsertMissing, which may have relinked the chains: a relinked
    // chain is a subset of the old one, still in descending row order.
    for (size_t j = 0; j < n_rejected; j++) {
      work[n_work++] = Match{rejected_[j].pos, next_[rejected_[j].row]};
    }
  }
}

void KeyTable::InsertMissing(const DataChunk& chunk,
                             const std::vector<size_t>& cols, const sel_t* sel,
                             const uint64_t* hashes, size_t n_missing,
                             uint32_t* rows, size_t* n_work) {
  size_t n_inserted = 0;
  for (size_t j = 0; j < n_missing; j++) {
    uint32_t i = missing_[j];
    uint64_t h = hashes[i];
    // Rows from top_[i] up joined the chain after row i walked it, and sit
    // at its front. An equal hash among them is almost surely the same key,
    // inserted by an earlier row of this chunk: check it next round.
    uint32_t row = head(h);
    while (row != kNoRow && row >= top_[i] && hashes_[row] != h) {
      row = next_[row];
    }
    if (row != kNoRow && row >= top_[i]) {
      work_[(*n_work)++] = Match{i, row};
      top_[i] = static_cast<uint32_t>(size());
      continue;
    }
    if (BucketCount(size() + 1) > heads_.size()) {
      Rebuild(BucketCount(size() + 1));
    }
    uint32_t& first = heads_[h & (heads_.size() - 1)];
    rows[i] = static_cast<uint32_t>(size());
    hashes_.push_back(h);
    next_.push_back(first);
    first = rows[i];
    inserted_[n_inserted++] = sel != nullptr ? sel[i] : static_cast<sel_t>(i);
  }
  for (size_t k = 0; k < cols.size(); k++) {
    keys_[k].AppendFrom(chunk.column(cols[k]), inserted_.data(), n_inserted);
  }
}

}  // namespace vwise
