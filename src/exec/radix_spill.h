#ifndef VWISE_EXEC_RADIX_SPILL_H_
#define VWISE_EXEC_RADIX_SPILL_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "common/status.h"
#include "service/query_context.h"
#include "storage/spill_file.h"
#include "vector/chunk.h"

namespace vwise {

// The spill-trigger policy of every pipeline breaker (external sort, hash
// join build side, hash aggregation table). Returns true when the breaker
// should flush its buffered input now:
//   - `grown`, the reservation for the next input, failed with
//     ResourceExhausted and spilling is on (any other failure, or spilling
//     off, is returned as the error);
//   - the governor signals pressure while the breaker holds at least
//     Config::pressure_spill_min_bytes (`held`); counted as a pressure spill;
//   - the breaker holds more than half the query budget — the coexistence
//     cap that leaves stacked breakers headroom for each other's buffers
//     and partition reloads.
Result<bool> ShouldSpill(QueryContext* ctx, const Config& config,
                         const Status& grown, size_t held);

// Grace partitioning for the hash-based pipeline breakers. A spilled input
// is split into radix partitions by the high byte of its KeyTable key hash; a
// partition carries one run per *stream* — one (state rows) for hash
// aggregation, two (build rows, probe rows) for hash join. Each stream
// declares its row types and key columns, so every stream is re-hashed the
// same way when a partition is split. Every run of every partition and level
// lives in one scratch file (SpillFile), created on the first spill.
//
// Lifecycle:
//   1. Write: Flush() and Scatter() route rows to a stream's level-0
//      partition runs. Each run's writer stages its rows and writes them in
//      blocks of Config::vector_size rows.
//   2. CloseStream() finishes one stream's writers (their last, partial
//      blocks); Seal() finishes every stream's and queues the level-0
//      partitions. Both return the status of those last writes.
//   3. Reload: Next() makes the front partition current (releasing the runs
//      of the previous one) and Read() opens a reader on one of its runs.
//      When the primary stream (stream 0, the one reloaded into memory)
//      does not fit the budget, Split() re-partitions the current partition
//      onto the next radix level — a fresh byte of the same hash — and
//      queues the children ahead of the rest (depth-first: live spill disk
//      stays one lineage per level), up to
//      Config::spill_max_repartition_depth. The children are finished before
//      the parent's runs are released.
//
// A released run's space is reused by later blocks, so the file stays about
// as large as the live lineage. Drop() (also run by the destructor) removes
// the file on any exit path.
class RadixSpill {
 public:
  struct Stream {
    std::vector<TypeId> types;
    std::vector<size_t> keys;  // key columns of a row in `types`
  };

  // EXPLAIN ANALYZE telemetry. Survives Drop() — the profile is rendered
  // after the tree is closed — and resets in Init().
  struct Stats {
    size_t partitions = 0;    // partitions written, all levels
    size_t repartitions = 0;  // oversized partitions split onto a new level
    size_t depth = 0;         // deepest level reached (0 = level 0 sufficed)
    uint64_t rows = 0;        // rows written to partition runs, all levels
    uint64_t blocks = 0;      // blocks those rows were written in
  };

  ~RadixSpill();

  // Binds the query and declares the streams; drops any previous state and
  // resets the stats. `tag` names the scratch file. `config` must outlive
  // this object.
  void Init(QueryContext* ctx, const Config* config, const char* tag,
            std::vector<Stream> streams);

  // True once level-0 partitions exist; false again after Drop().
  bool spilled() const { return spilled_; }
  const Stats& stats() const { return stats_; }

  // Writes `n` resident rows partition-major, each partition in blocks of
  // one vector. `hash(i)` is row i's key hash; `gather(ids, count, out)`
  // fills `out` (the stream's types) with rows ids[0..count).
  Status Flush(size_t stream, size_t n,
               const std::function<uint64_t(uint32_t)>& hash,
               const std::function<void(const uint32_t*, size_t,
                                        DataChunk*)>& gather);
  // Routes `n` rows of `chunk` (the stream's schema) at positions `sel`
  // (nullptr = dense) to the level-0 partitions by their key hash.
  Status Scatter(size_t stream, const DataChunk& chunk, const sel_t* sel,
                 size_t n);
  // Finishes and closes the stream's level-0 writers.
  Status CloseStream(size_t stream);
  // Finishes and closes every writer and queues the level-0 partitions for
  // reload.
  Status Seal();

  // Makes the next queued partition current, releasing the runs of the
  // previous one. False when none is left.
  bool Next();
  // Opens a reader on the current partition's run of `stream`.
  Result<std::unique_ptr<SpillReader>> Read(size_t stream);
  // Handles a failed reload of the current partition: a ResourceExhausted
  // below the depth bound splits it onto the next radix level (returns OK;
  // the caller moves on with Next()); any other failure is returned.
  Status Split(const Status& reload);

  // Closes every writer (writing nothing more) and removes the scratch
  // file.
  void Drop();

 private:
  struct Partition {
    std::vector<SpillRun> runs;  // one per stream
    size_t level = 0;
  };

  // Opens the stream's level-0 writers unless they are open, creating the
  // file and the level-0 partitions on the first spill.
  Status OpenStream(size_t stream);
  // Opens one writer per child of `children` on their runs of `stream`.
  void OpenWriters(size_t stream, std::vector<Partition>* children,
                   std::vector<SpillWriter>* writers);
  Status Route(size_t stream, const DataChunk& chunk, const sel_t* sel,
               size_t n, size_t shift, size_t fanout,
               std::vector<SpillWriter>* writers);
  // Finishes every writer of `writers`, counts their blocks into the stats
  // and closes them.
  Status FinishWriters(std::vector<SpillWriter>* writers);
  size_t RepartitionFanout(uint64_t part_bytes) const;
  void ReleaseRuns(Partition* part);

  QueryContext* ctx_ = nullptr;
  const Config* config_ = nullptr;
  const char* tag_ = nullptr;
  std::vector<Stream> streams_;
  SpillFile file_;                      // every run of every partition
  size_t fanout_ = 0;                   // level-0 partition count
  std::vector<Partition> level0_;       // being written, until Seal()
  std::vector<std::vector<SpillWriter>> writers_;  // [stream]
  std::deque<Partition> pending_;       // sealed, awaiting reload
  Partition current_;                   // the partition being reloaded
  std::vector<std::vector<sel_t>> buckets_;  // per-partition row lists
  std::vector<uint64_t> hashes_;             // Route's key hashes
  bool spilled_ = false;
  Stats stats_;
};

}  // namespace vwise

#endif  // VWISE_EXEC_RADIX_SPILL_H_
