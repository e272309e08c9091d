#include "storage/spill_file.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/crc32.h"
#include "common/macros.h"
#include "vector/string_heap.h"
#include "vector/vector.h"

namespace vwise {

namespace {

constexpr uint32_t kFileMagic = 0x4650'5356;   // "VSPF"
constexpr uint32_t kBlockMagic = 0x4C50'5356;  // "VSPL"
// A block holds at most one vector's rows; anything beyond a generous bound
// on `vector_size * widest row` is a corrupt length field, not real data.
constexpr uint64_t kMaxBlockPayload = 1ull << 30;

template <typename T>
void PutRaw(std::vector<uint8_t>* buf, T v) {
  size_t off = buf->size();
  buf->resize(off + sizeof(v));
  std::memcpy(buf->data() + off, &v, sizeof(v));
}

void PutU32(std::vector<uint8_t>* buf, uint32_t v) { PutRaw(buf, v); }
void PutU64(std::vector<uint8_t>* buf, uint64_t v) { PutRaw(buf, v); }

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Copies the W-byte values at positions rows[0..n) of `src` densely to `dst`.
template <size_t W>
void GatherFixed(const uint8_t* src, const sel_t* rows, size_t n,
                 uint8_t* dst) {
  for (size_t i = 0; i < n; i++) std::memcpy(dst + i * W, src + rows[i] * W, W);
}

// Appends `n` bytes to `out` (resize + memcpy rather than a range insert).
void PutBytes(std::vector<uint8_t>* out, const uint8_t* p, size_t n) {
  size_t off = out->size();
  out->resize(off + n);
  if (n > 0) std::memcpy(out->data() + off, p, n);
}

}  // namespace

Result<std::unique_ptr<SpillWriter>> SpillWriter::Create(
    const std::string& path, const std::vector<TypeId>& types,
    size_t block_rows, QueryContext::SpillCounters* counters) {
  VWISE_DCHECK(block_rows > 0);
  std::unique_ptr<IoFile> file;
  VWISE_ASSIGN_OR_RETURN(file, IoFile::Create(path, nullptr, "spill"));
  std::vector<uint8_t> header;
  PutU32(&header, kFileMagic);
  PutU32(&header, static_cast<uint32_t>(types.size()));
  for (TypeId t : types) header.push_back(static_cast<uint8_t>(t));
  VWISE_RETURN_IF_ERROR(file->Append(header.data(), header.size()));
  if (counters != nullptr) {
    counters->bytes_written.fetch_add(header.size(),
                                      std::memory_order_relaxed);
  }
  return std::unique_ptr<SpillWriter>(
      new SpillWriter(std::move(file), types, block_rows, counters));
}

Status SpillWriter::Append(const DataChunk& chunk) {
  if (chunk.has_selection()) {
    return AppendRows(chunk, chunk.sel(), chunk.sel_count());
  }
  return AppendRows(chunk, nullptr, chunk.count());
}

Status SpillWriter::AppendRows(const DataChunk& chunk, const sel_t* rows,
                               size_t n) {
  VWISE_DCHECK(chunk.num_columns() == types_.size());
  size_t done = 0;
  while (done < n) {
    size_t take = std::min(n - done, block_rows_ - staged_rows_);
    const sel_t* part = rows != nullptr ? rows + done : nullptr;
    for (size_t c = 0; c < types_.size(); c++) {
      Stage(c, chunk.column(c), part, done, take);
    }
    staged_rows_ += take;
    done += take;
    if (staged_rows_ == block_rows_) VWISE_RETURN_IF_ERROR(WriteBlock());
  }
  return Status::OK();
}

Status SpillWriter::Finish() {
  if (staged_rows_ == 0) return Status::OK();
  return WriteBlock();
}

void SpillWriter::Stage(size_t c, const Vector& col, const sel_t* rows,
                        size_t first, size_t n) {
  StagedColumn& st = staged_[c];
  const size_t width =
      types_[c] == TypeId::kStr ? sizeof(uint32_t) : TypeWidth(types_[c]);
  // A full block's values (or string lengths) exactly, not a doubling's
  // worth more: every open writer holds its staged block.
  if (st.data.capacity() == 0) st.data.reserve(block_rows_ * width);
  if (types_[c] == TypeId::kStr) {
    const StringVal* vals = col.Data<StringVal>();
    size_t len_off = st.data.size();
    st.data.resize(len_off + n * sizeof(uint32_t));
    uint64_t total = 0;
    for (size_t i = 0; i < n; i++) {
      const StringVal& sv = vals[rows != nullptr ? rows[i] : first + i];
      std::memcpy(st.data.data() + len_off + i * sizeof(uint32_t), &sv.len,
                  sizeof(uint32_t));
      total += sv.len;
    }
    size_t str_off = st.strings.size();
    st.strings.resize(str_off + total);
    uint8_t* dst = st.strings.data() + str_off;
    for (size_t i = 0; i < n; i++) {
      const StringVal& sv = vals[rows != nullptr ? rows[i] : first + i];
      if (sv.len > 0) std::memcpy(dst, sv.ptr, sv.len);
      dst += sv.len;
    }
    return;
  }
  const uint8_t* src = reinterpret_cast<const uint8_t*>(col.raw());
  size_t off = st.data.size();
  st.data.resize(off + n * width);
  uint8_t* dst = st.data.data() + off;
  if (rows == nullptr) {
    std::memcpy(dst, src + first * width, n * width);
    return;
  }
  switch (width) {
    case 1:
      GatherFixed<1>(src, rows, n, dst);
      break;
    case 4:
      GatherFixed<4>(src, rows, n, dst);
      break;
    case 8:
      GatherFixed<8>(src, rows, n, dst);
      break;
    default:
      for (size_t i = 0; i < n; i++) {
        std::memcpy(dst + i * width, src + rows[i] * width, width);
      }
  }
}

Status SpillWriter::WriteBlock() {
  uint64_t payload_bytes = 0;
  for (const StagedColumn& st : staged_) {
    payload_bytes += st.data.size() + st.strings.size();
  }
  buf_.clear();
  buf_.reserve(16 + payload_bytes + 4);
  PutU32(&buf_, kBlockMagic);
  PutU32(&buf_, static_cast<uint32_t>(staged_rows_));
  PutU64(&buf_, payload_bytes);
  const size_t payload_start = buf_.size();
  for (const StagedColumn& st : staged_) {
    PutBytes(&buf_, st.data.data(), st.data.size());
    PutBytes(&buf_, st.strings.data(), st.strings.size());
  }
  PutU32(&buf_, Crc32(buf_.data() + payload_start, payload_bytes));
  VWISE_RETURN_IF_ERROR(file_->Append(buf_.data(), buf_.size()));
  rows_written_ += staged_rows_;
  blocks_written_++;
  staged_rows_ = 0;
  for (StagedColumn& st : staged_) {
    st.data.clear();
    st.strings.clear();
  }
  if (counters_ != nullptr) {
    counters_->bytes_written.fetch_add(buf_.size(), std::memory_order_relaxed);
  }
  return Status::OK();
}

Result<std::unique_ptr<SpillReader>> SpillReader::Open(
    const std::string& path, const std::vector<TypeId>& types,
    QueryContext::SpillCounters* counters) {
  std::unique_ptr<IoFile> file;
  VWISE_ASSIGN_OR_RETURN(file, IoFile::OpenRead(path, nullptr, "spill"));
  const uint64_t header_size = 8 + types.size();
  if (file->size() < header_size) {
    return Status::Corruption("spill file " + path + " truncated header");
  }
  std::vector<uint8_t> header(header_size);
  VWISE_RETURN_IF_ERROR(file->Read(0, header_size, header.data()));
  if (GetU32(header.data()) != kFileMagic ||
      GetU32(header.data() + 4) != types.size()) {
    return Status::Corruption("spill file " + path + " bad header");
  }
  for (size_t c = 0; c < types.size(); c++) {
    if (header[8 + c] != static_cast<uint8_t>(types[c])) {
      return Status::Corruption("spill file " + path + " schema mismatch");
    }
  }
  if (counters != nullptr) {
    counters->bytes_read.fetch_add(header_size, std::memory_order_relaxed);
  }
  return std::unique_ptr<SpillReader>(
      new SpillReader(std::move(file), types, header_size, counters));
}

Result<bool> SpillReader::Next(DataChunk* out) {
  out->Reset();
  if (offset_ >= file_->size()) return false;
  uint8_t header[16];
  if (file_->size() - offset_ < sizeof(header)) {
    return Status::Corruption("spill file " + file_->path() +
                              " truncated block header");
  }
  VWISE_RETURN_IF_ERROR(file_->Read(offset_, sizeof(header), header));
  const uint32_t rows = GetU32(header + 4);
  const uint64_t payload_bytes = GetU64(header + 8);
  if (GetU32(header) != kBlockMagic || payload_bytes > kMaxBlockPayload ||
      rows > out->capacity() ||
      file_->size() - offset_ < sizeof(header) + payload_bytes + 4) {
    return Status::Corruption("spill file " + file_->path() +
                              " bad block at offset " +
                              std::to_string(offset_));
  }
  buf_.resize(payload_bytes + 4);
  VWISE_RETURN_IF_ERROR(
      file_->Read(offset_ + sizeof(header), payload_bytes + 4, buf_.data()));
  if (Crc32(buf_.data(), payload_bytes) != GetU32(buf_.data() + payload_bytes)) {
    return Status::Corruption("spill file " + file_->path() +
                              " CRC mismatch at offset " +
                              std::to_string(offset_));
  }
  const uint8_t* p = buf_.data();
  const uint8_t* end = buf_.data() + payload_bytes;
  for (size_t c = 0; c < types_.size(); c++) {
    Vector& col = out->column(c);
    if (types_[c] == TypeId::kStr) {
      if (static_cast<uint64_t>(end - p) < rows * sizeof(uint32_t)) {
        return Status::Corruption("spill block payload underrun");
      }
      const uint8_t* lens = p;
      p += rows * sizeof(uint32_t);
      uint64_t total = 0;
      for (uint32_t i = 0; i < rows; i++) total += GetU32(lens + i * 4);
      if (static_cast<uint64_t>(end - p) < total) {
        return Status::Corruption("spill block payload underrun");
      }
      StringHeap* heap = col.GetStringHeap();
      char* dst = heap->Reserve(total);
      std::memcpy(dst, p, total);
      p += total;
      StringVal* vals = col.Data<StringVal>();
      uint64_t off = 0;
      for (uint32_t i = 0; i < rows; i++) {
        const uint32_t len = GetU32(lens + i * 4);
        vals[i] = StringVal(dst + off, len);
        off += len;
      }
    } else {
      const size_t width = TypeWidth(types_[c]);
      if (static_cast<uint64_t>(end - p) < rows * width) {
        return Status::Corruption("spill block payload underrun");
      }
      std::memcpy(col.raw(), p, rows * width);
      p += rows * width;
    }
  }
  if (p != end) {
    return Status::Corruption("spill block payload overrun");
  }
  offset_ += sizeof(header) + payload_bytes + 4;
  out->SetCount(rows);
  rows_read_ += rows;
  if (counters_ != nullptr) {
    counters_->bytes_read.fetch_add(sizeof(header) + payload_bytes + 4,
                                    std::memory_order_relaxed);
  }
  return true;
}

size_t SpillPartitionCount(size_t requested) {
  size_t p = 2;
  while (p < requested && p < 256) p <<= 1;
  return p;
}

size_t SweepSpillDir(const std::string& base) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(base, ec);
  if (ec) return 0;  // base does not exist yet — nothing to sweep
  size_t removed = 0;
  for (const auto& entry : it) {
    std::error_code rm_ec;
    fs::remove_all(entry.path(), rm_ec);
    if (!rm_ec) removed++;
  }
  return removed;
}

}  // namespace vwise
