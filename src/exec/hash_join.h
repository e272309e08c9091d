#ifndef VWISE_EXEC_HASH_JOIN_H_
#define VWISE_EXEC_HASH_JOIN_H_

#include <memory>
#include <vector>

#include "exec/column_store.h"
#include "exec/key_table.h"
#include "exec/operator.h"
#include "exec/radix_spill.h"
#include "expr/expression.h"
#include "service/query_context.h"

namespace vwise {

enum class JoinType : uint8_t {
  kInner = 0,
  kLeftSemi = 1,   // emit probe rows with >= 1 match
  kLeftAnti = 2,   // emit probe rows with no match
  kLeftOuter = 3,  // inner matches plus unmatched probe rows
};

// Vectorized hash join. The build child is consumed fully at Open() into a
// KeyTable (build keys, stored hashes, chained buckets) plus owned payload
// columns; probing hashes a vector at a time, collects the matching (probe,
// build) pairs, applies the optional residual predicate, and emits gathered
// output chunks.
//
// Output layout: all probe columns, then `build_payload` columns; kLeftOuter
// additionally appends a u8 "matched" flag column (1 for joined rows, 0 for
// padded unmatched probe rows whose payload is zero/empty). The residual
// filter is evaluated against that combined layout.
//
// When the build side overruns the query's memory budget (and
// Config::enable_spill is on), the operator degrades to a Grace hash join:
// buffered and remaining build rows are radix-partitioned to disk by the
// high bits of the key hash, the probe side is partitioned the same way,
// and partitions are then joined one at a time (load build partition, build
// its table, stream its probe file). Equal keys hash identically, so every
// probe row still sees all of its potential matches — inner/semi/anti/outer
// semantics are unchanged. Output order becomes partition-major, but within
// a partition probe order is preserved.
class HashJoinOperator final : public Operator {
 public:
  struct Spec {
    JoinType type = JoinType::kInner;
    std::vector<size_t> probe_keys;
    std::vector<size_t> build_keys;
    std::vector<size_t> build_payload;
    FilterPtr residual;
  };

  HashJoinOperator(OperatorPtr probe, OperatorPtr build, Spec spec,
                   const Config& config);
  ~HashJoinOperator() override;

  const std::vector<TypeId>& OutputTypes() const override { return out_types_; }
  Status Next(DataChunk* out) override;
  void Close() override;

  // Static-analysis surface (plan verifier).
  const Operator& probe() const { return *probe_; }
  const Operator& build() const { return *build_; }
  const Spec& spec() const { return spec_; }
  // Spill telemetry (EXPLAIN ANALYZE); survives Close() and resets on the
  // next Open.
  const RadixSpill::Stats& spill_stats() const { return spill_.stats(); }
  size_t spill_repartitions() const { return spill_.stats().repartitions; }
  size_t spill_repartition_depth() const { return spill_.stats().depth; }

 private:
  using Pair = KeyTable::Match;  // (probe position, build row)

  Status OpenImpl() override;
  Status ConsumeBuildSide();
  // Links the resident build rows into the key table's chains; a budget
  // that cannot hold the buckets degrades to the grace join.
  Status BuildTable();
  Status ProcessProbeChunk();  // fills pairs_ / probe_match_ for input_
  // Gathers the probe columns, then the build payload, of pairs[0..n)
  // (n <= vector_size) into `out`.
  void GatherPairs(const Pair* pairs, size_t n, DataChunk* out);
  void EmitPairs(DataChunk* out);
  Status EmitSemiAnti(DataChunk* out);

  // Appends rows of a spill-schema chunk (keys then payload) to the
  // resident build side.
  void AppendBuildRows(const DataChunk& rows, const sel_t* sel, size_t n);

  // Spill path (Grace hash join). SpillBuildRows flushes the buffered build
  // rows to the radix partitions and returns their reservation;
  // PartitionProbeSide drains the probe child into the probe partitions;
  // LoadBuildPartition reloads the current partition's build rows and
  // rebuilds the table; FetchProbeChunk fills input_ from the probe child
  // (in-memory) or the current partition's probe file.
  Status SpillBuildRows();
  Status PartitionProbeSide();
  Status LoadBuildPartition();
  Status FetchProbeChunk();
  // Resets the resident build rows/table and returns their reservation.
  void ReleaseBuildSide();

  OperatorPtr probe_;
  OperatorPtr build_;
  Spec spec_;
  Config config_;
  std::vector<TypeId> out_types_;

  // Build side: keys in the table, payload beside it, row for row.
  KeyTable table_;
  std::vector<ColumnStore> build_payload_cols_;

  // Probe state.
  DataChunk input_;
  bool input_exhausted_ = false;
  std::vector<Pair> pairs_;        // surviving pairs for current input chunk
  std::vector<Pair> candidates_;   // pre-residual pairs (capacity persists)
  size_t pair_cursor_ = 0;
  std::vector<uint8_t> probe_match_;  // per probe position: any match
  DataChunk residual_scratch_;
  // Emit/residual gather arrays, sized in OpenImpl — the per-chunk emit and
  // residual loops allocate nothing.
  std::vector<sel_t> probe_pos_;         // [vector_size]
  std::vector<uint32_t> build_row_idx_;  // [vector_size]
  std::vector<sel_t> residual_sel_;      // [vector_size]

  // Per-query memory budget accounting for the owned build side + table.
  // build_bytes_ tracks the reservation held for the currently resident
  // build rows + table so a spill flush / partition swap can return it.
  MemoryReservation mem_;
  size_t build_bytes_ = 0;

  // Grace partitions, one build and one probe stream. Build spill rows carry
  // [build keys..., build payload...]; probe rows are full probe rows.
  RadixSpill spill_;
  bool probe_partitioned_ = false;
  std::vector<TypeId> spill_types_;
  std::vector<size_t> spill_keys_;  // key columns of a spill row: 0..n_keys
  std::unique_ptr<SpillReader> probe_reader_;  // current partition's probe
  DataChunk build_view_;  // spill-schema view over a streamed build chunk
};

}  // namespace vwise

#endif  // VWISE_EXEC_HASH_JOIN_H_
