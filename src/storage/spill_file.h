#ifndef VWISE_STORAGE_SPILL_FILE_H_
#define VWISE_STORAGE_SPILL_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "service/query_context.h"
#include "storage/io_file.h"
#include "vector/chunk.h"
#include "vector/types.h"

namespace vwise {

// Chunk-at-a-time temp-file format for the spilling pipeline breakers
// (external sort runs, radix partitions of hash join / aggregation inputs).
//
// Layout:
//
//   file   := file_header block*
//   file_header := magic:u32 ncols:u32 type_id:u8 * ncols
//   block  := magic:u32 rows:u32 payload_bytes:u64 payload crc:u32
//
// A block holds at most `block_rows` rows — the writer's vector size — and
// every block but a file's last holds exactly that many, so a reload runs at
// full vector size however the rows were routed in.
//
// The payload serializes each column in declaration order: fixed-width
// columns as `rows * width` dense bytes, string columns as `rows` u32
// lengths followed by the concatenated string bytes (StringVal pointers are
// process-local and never hit disk). The CRC covers the payload, so a torn
// or bit-flipped block surfaces as Status::Corruption on read instead of
// silently wrong query results.
//
// Spill files are query-private scratch: byte order is native, there is no
// sync-for-durability (a crash discards the query anyway), and the whole
// per-query directory is removed when the QueryContext dies — or, after a
// crash, by SweepSpillDir at the next Database::Open.
//
// All I/O goes through IoFile with scope "spill", so the spill.create /
// spill.open / spill.append / spill.read failpoint sites can inject
// err/torn/short/corrupt/crash faults (common/failpoint.h).

// Writes one spill file. Not thread-safe; each partition/run has its own
// writer.
//
// Rows are staged per column (a string column's lengths and bytes apart) and
// written as one block each time `block_rows` of them are staged; Finish()
// writes the staged tail as the last, partial block. A writer destroyed
// without Finish() writes nothing more — its owners delete the file on those
// paths anyway. Staged rows are not reserved against the query budget: an
// open writer holds at most one staged block plus the buffer it assembles a
// block in, about 2 * block_rows * row bytes (string bytes included).
class SpillWriter {
 public:
  // `counters` (may be null) receives bytes-written accounting; pass
  // &ctx->spill_counters() so EXPLAIN ANALYZE sees the traffic.
  static Result<std::unique_ptr<SpillWriter>> Create(
      const std::string& path, const std::vector<TypeId>& types,
      size_t block_rows, QueryContext::SpillCounters* counters);

  // Stages the chunk's active rows (honors the selection vector). No-op for
  // an empty chunk.
  Status Append(const DataChunk& chunk);

  // Stages the `n` physical positions listed in `rows` (nullptr = the dense
  // positions [0, n)) — the radix partitioner hands each partition its slice
  // of the input chunk.
  Status AppendRows(const DataChunk& chunk, const sel_t* rows, size_t n);

  // Writes the staged rows as the file's last block; no block when none are
  // staged. Returns the status of that write.
  Status Finish();

  // Rows and blocks on disk (staged rows are not counted until written).
  uint64_t rows_written() const { return rows_written_; }
  uint64_t blocks_written() const { return blocks_written_; }
  uint64_t bytes_written() const { return file_->size(); }
  const std::string& path() const { return file_->path(); }

 private:
  // One column's staged rows: fixed-width values, or a string column's u32
  // lengths in `data` and its concatenated bytes in `strings`.
  struct StagedColumn {
    std::vector<uint8_t> data;
    std::vector<uint8_t> strings;
  };

  SpillWriter(std::unique_ptr<IoFile> file, std::vector<TypeId> types,
              size_t block_rows, QueryContext::SpillCounters* counters)
      : file_(std::move(file)),
        types_(std::move(types)),
        block_rows_(block_rows),
        counters_(counters),
        staged_(types_.size()) {}

  void Stage(size_t c, const Vector& col, const sel_t* rows, size_t first,
             size_t n);
  Status WriteBlock();

  std::unique_ptr<IoFile> file_;
  std::vector<TypeId> types_;
  size_t block_rows_;
  QueryContext::SpillCounters* counters_;
  std::vector<StagedColumn> staged_;
  size_t staged_rows_ = 0;
  std::vector<uint8_t> buf_;  // block assembly buffer, reused across blocks
  uint64_t rows_written_ = 0;
  uint64_t blocks_written_ = 0;
};

// Reads a spill file back block by block. Not thread-safe.
class SpillReader {
 public:
  // Validates the file header against `types` (Corruption on mismatch).
  static Result<std::unique_ptr<SpillReader>> Open(
      const std::string& path, const std::vector<TypeId>& types,
      QueryContext::SpillCounters* counters);

  // Fills `out` (Init'ed with the writer's types and capacity >= the
  // writer's block_rows) with the next block. Returns false at EOF.
  Result<bool> Next(DataChunk* out);

  // Rows decoded so far — the recursive-repartition tests assert a
  // re-partitioned level actually re-read its parent's rows.
  uint64_t rows_read() const { return rows_read_; }

 private:
  SpillReader(std::unique_ptr<IoFile> file, std::vector<TypeId> types,
              uint64_t offset, QueryContext::SpillCounters* counters)
      : file_(std::move(file)),
        types_(std::move(types)),
        offset_(offset),
        counters_(counters) {}

  std::unique_ptr<IoFile> file_;
  std::vector<TypeId> types_;
  uint64_t offset_;  // next unread byte
  QueryContext::SpillCounters* counters_;
  std::vector<uint8_t> buf_;  // payload buffer, reused across blocks
  uint64_t rows_read_ = 0;
};

// Clamps Config::spill_partitions to the power of two in [2, 256] the radix
// partitioners actually use (partition = high hash bits & (count - 1)).
size_t SpillPartitionCount(size_t requested);

// Removes every per-query spill subdirectory under `base` — crash recovery
// for spill scratch. Called by Database::Open before any query runs; a live
// query of another process sharing `base` would lose its temp files, which
// is why the default base is per-database ("<db dir>/spill"). Best effort:
// returns the number of entries removed, never fails.
size_t SweepSpillDir(const std::string& base);

}  // namespace vwise

#endif  // VWISE_STORAGE_SPILL_FILE_H_
