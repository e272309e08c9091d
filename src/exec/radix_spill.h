#ifndef VWISE_EXEC_RADIX_SPILL_H_
#define VWISE_EXEC_RADIX_SPILL_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "common/status.h"
#include "service/query_context.h"
#include "vector/chunk.h"

namespace vwise {

class SpillReader;  // storage/spill_file.h
class SpillWriter;

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

// Removes one spill file, best effort (the query's spill directory, removed
// with its context, is the backstop). No-op for an empty path.
void RemoveSpillFile(const std::string& path);

// Grace partitioning for the hash-based pipeline breakers. A spilled input
// is split into radix partitions by the high byte of its KeyTable key hash; a
// partition carries one file per *stream* — one (state rows) for hash
// aggregation, two (build rows, probe rows) for hash join. Each stream
// declares its row types and key columns, so every stream is re-hashed the
// same way when a partition is split.
//
// Lifecycle:
//   1. Write: Flush() and Scatter() route rows to a stream's level-0
//      partition files, creating them on first use.
//   2. Seal() closes the writers and queues the level-0 partitions.
//   3. Reload: Next() makes the front partition current (removing the files
//      of the previous one) and Read() opens its files. When the primary
//      stream (stream 0, the one reloaded into memory) does not fit the
//      budget, Split() re-partitions the current partition onto the next
//      radix level — a fresh byte of the same hash — and queues the
//      children ahead of the rest (depth-first: live spill disk stays one
//      lineage per level), up to Config::spill_max_repartition_depth.
//
// Every file is recorded before it is written, so Drop() (also run by the
// destructor) removes all of them on any exit path.
class RadixSpill {
 public:
  struct Stream {
    std::vector<TypeId> types;
    std::vector<size_t> keys;  // key columns of a row in `types`
    const char* tag;           // spill file name prefix
  };

  // EXPLAIN ANALYZE telemetry. Survives Drop() — the profile is rendered
  // after the tree is closed — and resets in Init().
  struct Stats {
    size_t partitions = 0;    // partitions written, all levels
    size_t repartitions = 0;  // oversized partitions split onto a new level
    size_t depth = 0;         // deepest level reached (0 = level 0 sufficed)
  };

  ~RadixSpill();

  // Binds the query and declares the streams; drops any previous state and
  // resets the stats. `config` must outlive this object.
  void Init(QueryContext* ctx, const Config* config,
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
  // Creates the stream's level-0 files (no-op when they exist), so a stream
  // that receives no rows still has its (empty) files.
  Status OpenStream(size_t stream);
  // Closes the stream's level-0 writers.
  void CloseStream(size_t stream);
  // Closes every writer and queues the level-0 partitions for reload.
  void Seal();

  // Makes the next queued partition current, removing the files of the
  // previous one. False when none is left.
  bool Next();
  Result<std::unique_ptr<SpillReader>> Read(size_t stream) const;
  // Handles a failed reload of the current partition: a ResourceExhausted
  // below the depth bound splits it onto the next radix level (returns OK;
  // the caller moves on with Next()); any other failure is returned.
  Status Split(const Status& reload);

  // Closes every writer and removes every file this spill created.
  void Drop();

 private:
  struct Partition {
    std::vector<std::string> paths;  // one per stream
    size_t level = 0;
  };

  Status Route(size_t stream, const DataChunk& chunk, const sel_t* sel,
               size_t n, size_t shift, size_t fanout,
               std::vector<std::unique_ptr<SpillWriter>>* writers);
  size_t RepartitionFanout(uint64_t part_bytes) const;
  static void RemoveFiles(Partition* part);

  QueryContext* ctx_ = nullptr;
  const Config* config_ = nullptr;
  std::vector<Stream> streams_;
  size_t fanout_ = 0;                   // level-0 partition count
  std::vector<Partition> level0_;       // being written, until Seal()
  std::vector<std::vector<std::unique_ptr<SpillWriter>>> writers_;  // [stream]
  std::deque<Partition> pending_;       // sealed, awaiting reload
  Partition current_;                   // the partition being reloaded
  std::vector<std::vector<sel_t>> buckets_;  // per-partition row lists
  std::vector<uint64_t> hashes_;             // Route's key hashes
  bool spilled_ = false;
  Stats stats_;
};

}  // namespace vwise

#endif  // VWISE_EXEC_RADIX_SPILL_H_
