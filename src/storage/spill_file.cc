#include "storage/spill_file.h"

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
// A block holds at most one chunk's rows; anything beyond a generous bound
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

}  // namespace

Result<std::unique_ptr<SpillWriter>> SpillWriter::Create(
    const std::string& path, const std::vector<TypeId>& types,
    QueryContext::SpillCounters* counters) {
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
      new SpillWriter(std::move(file), types, counters));
}

Status SpillWriter::Append(const DataChunk& chunk) {
  if (chunk.has_selection()) {
    return AppendRows(chunk, chunk.sel(), chunk.sel_count());
  }
  return AppendRows(chunk, nullptr, chunk.count());
}

Status SpillWriter::AppendRows(const DataChunk& chunk, const sel_t* rows,
                               size_t n) {
  if (n == 0) return Status::OK();
  VWISE_DCHECK(chunk.num_columns() == types_.size());
  buf_.clear();
  // Block header; payload_bytes backpatched once the payload is assembled.
  PutU32(&buf_, kBlockMagic);
  PutU32(&buf_, static_cast<uint32_t>(n));
  PutU64(&buf_, 0);
  const size_t payload_start = buf_.size();
  for (size_t c = 0; c < types_.size(); c++) {
    const Vector& col = chunk.column(c);
    if (types_[c] == TypeId::kStr) {
      const StringVal* vals = col.Data<StringVal>();
      for (size_t i = 0; i < n; i++) {
        PutU32(&buf_, vals[rows != nullptr ? rows[i] : i].len);
      }
      for (size_t i = 0; i < n; i++) {
        const StringVal& sv = vals[rows != nullptr ? rows[i] : i];
        const uint8_t* p = reinterpret_cast<const uint8_t*>(sv.ptr);
        buf_.insert(buf_.end(), p, p + sv.len);
      }
    } else {
      const size_t width = TypeWidth(types_[c]);
      const uint8_t* data = reinterpret_cast<const uint8_t*>(col.raw());
      if (rows == nullptr) {
        buf_.insert(buf_.end(), data, data + n * width);
      } else {
        for (size_t i = 0; i < n; i++) {
          buf_.insert(buf_.end(), data + rows[i] * width,
                      data + rows[i] * width + width);
        }
      }
    }
  }
  const uint64_t payload_bytes = buf_.size() - payload_start;
  std::memcpy(buf_.data() + payload_start - sizeof(uint64_t), &payload_bytes,
              sizeof(payload_bytes));
  PutU32(&buf_, Crc32(buf_.data() + payload_start, payload_bytes));
  VWISE_RETURN_IF_ERROR(file_->Append(buf_.data(), buf_.size()));
  rows_written_ += n;
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
