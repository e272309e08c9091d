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

// Chunk-at-a-time scratch format for the spilling pipeline breakers
// (external sort runs, radix partitions of hash join / aggregation inputs).
//
// Each spilling operator owns one scratch file (SpillFile). Its runs — one
// sort run, or one stream of one radix partition — are interleaved in that
// file as blocks, and a run is the in-memory list of its blocks' extents
// (SpillRun); the file itself has no header and no directory:
//
//   block := magic:u32 rows:u32 payload_bytes:u64 payload crc:u32
//
// A block holds at most `block_rows` rows — the writer's vector size — and
// every block but a run's last holds exactly that many, so a reload runs at
// full vector size however the rows were routed in. The row types live with
// the run's owner in memory; a reader is handed them with the run.
//
// The payload serializes each column in declaration order: fixed-width
// columns as `rows * width` dense bytes, string columns as `rows` u32
// lengths followed by the concatenated string bytes (StringVal pointers are
// process-local and never hit disk). The CRC covers the payload, so a torn
// or bit-flipped block surfaces as Status::Corruption on read instead of
// silently wrong query results.
//
// Space is reused: releasing a run returns its extents to the file's free
// list (sorted by offset, neighbours coalesced, a free tail folded back into
// the end), and a new block goes into the first free extent that fits
// before the file grows. An operator that releases each run once it is
// consumed therefore keeps its file as large as its live runs.
//
// Spill files are query-private scratch: byte order is native, there is no
// sync-for-durability (a crash discards the query anyway), and the whole
// per-query directory is removed when the QueryContext dies — or, after a
// crash, by SweepSpillDir at the next Database::Open.
//
// All I/O goes through IoFile with scope "spill", so failpoints can inject
// err/torn/short/corrupt/crash faults (common/failpoint.h): spill.create
// fires when an operator's file is created, spill.append and spill.read
// once per block. Opening a reader on a run is the spill.open site.

// Where one block lies in its operator's scratch file.
struct SpillExtent {
  uint64_t offset = 0;
  uint64_t length = 0;  // the whole block: header, payload and CRC
};

// One written run: its blocks in write order.
struct SpillRun {
  std::vector<SpillExtent> blocks;
  uint64_t rows = 0;
  uint64_t bytes = 0;  // sum of the blocks' lengths
};

// One spilling operator's scratch file and its free space. Not thread-safe:
// each file belongs to one single-threaded operator.
class SpillFile {
 public:
  SpillFile() = default;
  ~SpillFile() { Remove(); }
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  // Creates the file under the query's spill directory (no-op once
  // created). The path is recorded before the file is created, so Remove()
  // finds it on any exit path. Byte traffic is counted into
  // ctx->spill_counters().
  Status Create(QueryContext* ctx, const char* tag);

  // Writes one block into the first free extent that fits, else at the end
  // of the file, and returns where it went.
  Status Write(const uint8_t* data, uint64_t size, SpillExtent* at);
  // Reads the block at `at` into `out` (one pread).
  Status Read(const SpillExtent& at, uint8_t* out);
  // Returns the run's extents to the free list and empties the run.
  void Release(SpillRun* run);
  // Closes and unlinks the file and forgets its space; a later Create()
  // makes a new one. Idempotent.
  void Remove();

  // One past the last byte in use: the file's extent minus a free tail.
  uint64_t end() const { return end_; }
  const std::string& path() const { return path_; }

 private:
  bool created() const { return file_ != nullptr; }
  void Free(SpillExtent extent);

  std::string path_;
  std::unique_ptr<IoFile> file_;
  QueryContext::SpillCounters* counters_ = nullptr;
  uint64_t end_ = 0;
  // Free extents below end_, sorted by offset; no two touch.
  std::vector<SpillExtent> free_;
};

// Writes one run into a SpillFile. Not thread-safe; each run being written
// has its own writer.
//
// Rows are staged per column (a string column's lengths and bytes apart) and
// written as one block each time `block_rows` of them are staged; Finish()
// writes the staged tail as the last, partial block. A writer destroyed
// without Finish() writes nothing more — its owners drop the file on those
// paths anyway. Staged rows are not reserved against the query budget: an
// open writer holds at most one staged block plus the buffer it assembles a
// block in, about 2 * block_rows * row bytes (string bytes included).
class SpillWriter {
 public:
  // Appends blocks of `types` rows to `file` and records them in `run`;
  // both must outlive the writer.
  SpillWriter(SpillFile* file, SpillRun* run, std::vector<TypeId> types,
              size_t block_rows);

  // Stages the chunk's active rows (honors the selection vector). No-op for
  // an empty chunk.
  Status Append(const DataChunk& chunk);

  // Stages the `n` physical positions listed in `rows` (nullptr = the dense
  // positions [0, n)) — the radix partitioner hands each partition its slice
  // of the input chunk.
  Status AppendRows(const DataChunk& chunk, const sel_t* rows, size_t n);

  // Writes the staged rows as the run's last block; no block when none are
  // staged. Returns the status of that write.
  Status Finish();

  // Rows and blocks on disk (staged rows are not counted until written).
  uint64_t rows_written() const { return run_->rows; }
  uint64_t blocks_written() const { return run_->blocks.size(); }

 private:
  // One column's staged rows: fixed-width values, or a string column's u32
  // lengths in `data` and its concatenated bytes in `strings`.
  struct StagedColumn {
    std::vector<uint8_t> data;
    std::vector<uint8_t> strings;
  };

  void Stage(size_t c, const Vector& col, const sel_t* rows, size_t first,
             size_t n);
  Status WriteBlock();

  SpillFile* file_;
  SpillRun* run_;
  std::vector<TypeId> types_;
  size_t block_rows_;
  std::vector<StagedColumn> staged_;
  size_t staged_rows_ = 0;
  std::vector<uint8_t> buf_;  // block assembly buffer, reused across blocks
};

// Reads one run back block by block, one pread a block. Not thread-safe.
class SpillReader {
 public:
  // Opens a reader on `run`, whose rows are of `types`. The run must not be
  // released while the reader is in use.
  static Result<std::unique_ptr<SpillReader>> Open(
      SpillFile* file, const SpillRun& run, const std::vector<TypeId>& types);

  // Fills `out` (Init'ed with the writer's types and capacity >= the
  // writer's block_rows) with the next block. Returns false at the run's
  // end.
  Result<bool> Next(DataChunk* out);

 private:
  SpillReader(SpillFile* file, std::vector<SpillExtent> blocks,
              std::vector<TypeId> types)
      : file_(file), blocks_(std::move(blocks)), types_(std::move(types)) {}

  SpillFile* file_;
  std::vector<SpillExtent> blocks_;
  std::vector<TypeId> types_;
  size_t next_ = 0;           // next unread block
  std::vector<uint8_t> buf_;  // block buffer, reused across blocks
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
