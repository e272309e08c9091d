#ifndef VWISE_EXEC_KEY_TABLE_H_
#define VWISE_EXEC_KEY_TABLE_H_

#include <cstdint>
#include <vector>

#include "exec/column_store.h"
#include "vector/chunk.h"

namespace vwise {

// The engine's one hash table and one key hash, as in the X100 join: the
// hash join's build side and the hash aggregation's groups. It owns the key
// columns, one stored 64-bit hash per row, and one chained layout: power-of-
// two bucket heads and a `next` link per row, each chain in descending row
// order. Chain walks compare stored hashes before they check keys, and keys
// are checked a column at a time.
//
// A row's key hash is HashCombine(...HashCombine(0, h(k0))..., h(kn)), h =
// HashKey (exec/key_hash.h), computed a column at a time with the type
// resolved once per column. RadixSpill routes by the same hash, so a key
// lands in the same partition from a chunk, a table or a spill file.
class KeyTable {
 public:
  // A (chunk row, table row) pair: a join match or a resolved group.
  struct Match {
    sel_t pos;
    uint32_t row;
  };

  // Bytes a row holds beyond its keys: its stored hash and its link.
  static constexpr size_t kRowBytes = sizeof(uint64_t) + sizeof(uint32_t);

  // Hashes key columns `cols` of the rows sel[0..n) (nullptr = dense) of
  // `chunk` into hashes[0..n).
  static void Hash(const DataChunk& chunk, const std::vector<size_t>& cols,
                   const sel_t* sel, size_t n, uint64_t* hashes);

  // Declares the key types and sizes the scratch for chunks of up to
  // `vector_size` rows; empties the table. Clear() keeps the types.
  void Init(const std::vector<TypeId>& types, size_t vector_size);
  void Clear();

  size_t size() const { return hashes_.size(); }
  const ColumnStore& key(size_t k) const { return keys_[k]; }
  uint64_t hash(uint32_t row) const { return hashes_[row]; }
  size_t bucket_bytes() const { return heads_.size() * sizeof(uint32_t); }
  // Bytes the buckets grow by to hold `rows` rows at a load factor of at
  // most 1/2: what Link() for size() rows adds, and the most FindOrInsert
  // adds while the table grows to `rows` rows.
  size_t BucketGrowth(size_t rows) const;

  // Join build: Append adds rows sel[0..n) of key columns `cols` with their
  // hashes, unlinked; Link then sizes the buckets and links every row.
  void Append(const DataChunk& chunk, const std::vector<size_t>& cols,
              const sel_t* sel, size_t n);
  void Link();

  // Join probe: replaces *matches with the (chunk row, table row) pairs of
  // equal keys for the rows sel[0..n), in row order and then chain order.
  void Probe(const DataChunk& chunk, const std::vector<size_t>& cols,
             const sel_t* sel, size_t n, std::vector<Match>* matches);

  // Aggregation: sets rows[i] to the table row holding the key of chunk row
  // sel[i] (hash hashes[i]), appending the keys not yet present in order of
  // first appearance and growing the buckets with them.
  void FindOrInsert(const DataChunk& chunk, const std::vector<size_t>& cols,
                    const sel_t* sel, size_t n, const uint64_t* hashes,
                    uint32_t* rows);

 private:
  uint32_t head(uint64_t hash) const {
    return heads_[hash & (heads_.size() - 1)];
  }
  void Rebuild(size_t buckets);  // sizes the heads, relinks every row
  // Keeps, in order, the matches whose table row has the keys of chunk row
  // sel[m.pos] (m.pos when sel is null) and returns their count; the others
  // go to rejected[(*n_rejected)++] when rejected is given.
  size_t KeepEqual(const DataChunk& chunk, const std::vector<size_t>& cols,
                   const sel_t* sel, Match* m, size_t n, Match* rejected,
                   size_t* n_rejected) const;
  // FindOrInsert's tail for the rows whose chains ran out.
  void InsertMissing(const DataChunk& chunk, const std::vector<size_t>& cols,
                     const sel_t* sel, const uint64_t* hashes, size_t n_missing,
                     uint32_t* rows, size_t* n_work);

  std::vector<ColumnStore> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> next_;
  std::vector<uint32_t> heads_;

  // Per-chunk scratch, sized in Init: Probe's hashes; FindOrInsert's work
  // list, rejected matches, missing rows and inserted positions, and per
  // row the table size when it last walked its chain from the head.
  std::vector<uint64_t> hash_scratch_;
  std::vector<Match> work_;
  std::vector<Match> rejected_;
  std::vector<uint32_t> missing_;
  std::vector<sel_t> inserted_;
  std::vector<uint32_t> top_;
};

}  // namespace vwise

#endif  // VWISE_EXEC_KEY_TABLE_H_
