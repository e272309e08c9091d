#ifndef VWISE_STORAGE_TABLE_FILE_H_
#define VWISE_STORAGE_TABLE_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/config.h"
#include "common/result.h"
#include "compression/codec.h"
#include "storage/buffer_manager.h"
#include "storage/io_file.h"
#include "vector/chunk.h"

namespace vwise {

// On-disk layout of one immutable table version:
//
//   [magic][blob blob blob ...][footer][footer_size u64][footer crc u32][magic]
//
// Rows are split into fixed-size *stripes*; within a stripe each column
// group (PAX/DSM assignment, see ColumnGroups) is one contiguous *blob* —
// the I/O and buffer-management unit, and the "chunk" of Cooperative Scans.
// Inside a blob, each column is one compressed segment (PFOR family), which
// the scan decodes a vector at a time straight out of the pinned blob. The
// footer carries per-segment codecs/offsets and per-column min-max values
// used for stripe skipping.

// Location + decode info of one column's segment within its group blob.
struct SegmentInfo {
  uint32_t offset_in_blob = 0;
  uint32_t size = 0;
  Codec codec = Codec::kPlain;
  uint32_t count = 0;
  bool has_minmax = false;
  int64_t min = 0;
  int64_t max = 0;
};

struct StripeInfo {
  uint32_t rows = 0;
  std::vector<uint64_t> group_offset;  // per group: blob offset in file
  std::vector<uint64_t> group_size;    // per group: blob size
  std::vector<uint32_t> group_crc;     // per group: CRC32 of the blob bytes
  std::vector<SegmentInfo> segments;   // per column
};

// Writes a table version file stripe by stripe. Append() takes dense chunks
// (no selection); Finish() flushes the tail stripe and the footer.
class TableWriter {
 public:
  TableWriter(const TableSchema& schema, const ColumnGroups& groups,
              const Config& config, std::string path, IoDevice* device);
  ~TableWriter();

  Status Append(const DataChunk& chunk);
  // Appends a single row given boundary values (test/API convenience).
  Status AppendRow(const std::vector<Value>& row);
  Status Finish();

  uint64_t rows_written() const { return rows_written_; }

 private:
  Status FlushStripe();
  Status EnsureOpen();

  TableSchema schema_;
  ColumnGroups groups_;
  Config config_;
  std::string path_;
  IoDevice* device_;
  std::unique_ptr<IoFile> file_;

  // Staging for the current stripe.
  struct ColStage {
    std::vector<uint8_t> fixed;        // raw bytes for fixed-width types
    std::vector<std::string> strings;  // owned string values
  };
  std::vector<ColStage> stage_;
  size_t stage_rows_ = 0;
  uint64_t rows_written_ = 0;
  std::vector<StripeInfo> stripes_;
  bool finished_ = false;
};

// One column of one stripe, opened for decoding a vector at a time. `blob`
// pins the group blob the cursor reads from; nothing is decoded ahead of the
// reader. Strings decode to StringVals that point into the blob, and `heap`
// — a StringHeap that holds the same pin — is the heap ref string vectors
// register for them.
struct StripeColumn {
  TypeId type = TypeId::kI64;
  size_t count = 0;
  std::shared_ptr<Buffer> blob;
  std::shared_ptr<StringHeap> heap;  // string columns only
  compression::SegmentCursor cursor;
};

// Read-side view of one table version file.
class TableFile {
 public:
  static Result<std::unique_ptr<TableFile>> Open(const std::string& path,
                                                 const TableSchema& schema,
                                                 IoDevice* device,
                                                 BufferManager* buffers);
  // Drops the file's blobs from the buffer manager, if it still exists:
  // with the last reader of this version gone, they can never hit again.
  ~TableFile();

  uint64_t row_count() const { return row_count_; }
  size_t stripe_count() const { return stripes_.size(); }
  const StripeInfo& stripe(size_t i) const { return stripes_[i]; }
  const ColumnGroups& groups() const { return groups_; }
  const TableSchema& schema() const { return schema_; }
  uint64_t file_id() const { return file_->id(); }
  // First row id of stripe `i` in the stable table image.
  uint64_t stripe_first_row(size_t i) const { return stripe_start_[i]; }

  // Blob identity of (stripe, group) for buffer-residency queries.
  uint64_t GroupBlobOffset(size_t stripe, uint32_t group) const {
    return stripes_[stripe].group_offset[group];
  }

  // Opens column `col` of stripe `stripe` for decoding (fetching its group
  // blob through the buffer manager; the segment header is validated here).
  // Every codec decodes flat through out->cursor. `out` is reused across
  // stripes.
  Status OpenStripeColumn(size_t stripe, uint32_t col, StripeColumn* out);

  // True if the stripe might contain values of `col` within [lo, hi]
  // (integer-family columns only; returns true when unknown).
  bool StripeOverlapsRange(size_t stripe, uint32_t col, int64_t lo,
                           int64_t hi) const;

 private:
  TableFile() = default;

  TableSchema schema_;
  ColumnGroups groups_;
  std::vector<uint32_t> col_to_group_;
  std::unique_ptr<IoFile> file_;
  BufferManager* buffers_ = nullptr;
  std::weak_ptr<const void> buffers_alive_;  // BufferManager::alive()
  uint64_t row_count_ = 0;
  std::vector<StripeInfo> stripes_;
  std::vector<uint64_t> stripe_start_;
};

}  // namespace vwise

#endif  // VWISE_STORAGE_TABLE_FILE_H_
