#include "storage/spill_file.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/macros.h"
#include "vector/string_heap.h"
#include "vector/vector.h"

namespace vwise {

namespace {

constexpr uint32_t kBlockMagic = 0x4C50'5356;  // "VSPL"
// magic, rows and payload length before the payload, the CRC after it.
constexpr uint64_t kBlockHeader = 16;
constexpr uint64_t kBlockOverhead = kBlockHeader + 4;

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

Status SpillFile::Create(QueryContext* ctx, const char* tag) {
  if (created()) return Status::OK();
  VWISE_ASSIGN_OR_RETURN(path_, ctx->NewSpillPath(tag));
  VWISE_ASSIGN_OR_RETURN(file_, IoFile::Create(path_, nullptr, "spill"));
  counters_ = &ctx->spill_counters();
  return Status::OK();
}

Status SpillFile::Write(const uint8_t* data, uint64_t size, SpillExtent* at) {
  VWISE_DCHECK(created());
  auto fit = std::find_if(free_.begin(), free_.end(),
                          [size](const SpillExtent& e) {
                            return e.length >= size;
                          });
  const uint64_t offset = fit != free_.end() ? fit->offset : end_;
  VWISE_RETURN_IF_ERROR(file_->WriteAt(offset, data, size));
  if (fit == free_.end()) {
    end_ += size;
  } else if (fit->length == size) {
    free_.erase(fit);
  } else {
    fit->offset += size;
    fit->length -= size;
  }
  *at = SpillExtent{offset, size};
  counters_->bytes_written.fetch_add(size, std::memory_order_relaxed);
  return Status::OK();
}

Status SpillFile::Read(const SpillExtent& at, uint8_t* out) {
  VWISE_DCHECK(created() && at.offset + at.length <= end_);
  VWISE_RETURN_IF_ERROR(file_->Read(at.offset, at.length, out));
  counters_->bytes_read.fetch_add(at.length, std::memory_order_relaxed);
  return Status::OK();
}

void SpillFile::Release(SpillRun* run) {
  for (const SpillExtent& extent : run->blocks) Free(extent);
  *run = SpillRun();
}

void SpillFile::Free(SpillExtent extent) {
  auto next = std::lower_bound(
      free_.begin(), free_.end(), extent.offset,
      [](const SpillExtent& e, uint64_t offset) { return e.offset < offset; });
  if (next != free_.end() && extent.offset + extent.length == next->offset) {
    extent.length += next->length;
    next = free_.erase(next);
  }
  if (next != free_.begin()) {
    auto prev = next - 1;
    if (prev->offset + prev->length == extent.offset) {
      extent = SpillExtent{prev->offset, prev->length + extent.length};
      next = free_.erase(prev);
    }
  }
  // A free tail is not kept: the end moves back over it, so the next
  // block that fits nowhere else lands there too.
  if (extent.offset + extent.length == end_) {
    end_ = extent.offset;
    return;
  }
  free_.insert(next, extent);
}

void SpillFile::Remove() {
  file_.reset();
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(path_, ec);  // best effort: the query's spill
    path_.clear();                       // directory is the backstop
  }
  free_.clear();
  end_ = 0;
}

SpillWriter::SpillWriter(SpillFile* file, SpillRun* run,
                         std::vector<TypeId> types, size_t block_rows)
    : file_(file),
      run_(run),
      types_(std::move(types)),
      block_rows_(block_rows),
      staged_(types_.size()) {
  VWISE_DCHECK(block_rows > 0);
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
  buf_.reserve(kBlockOverhead + payload_bytes);
  PutU32(&buf_, kBlockMagic);
  PutU32(&buf_, static_cast<uint32_t>(staged_rows_));
  PutU64(&buf_, payload_bytes);
  const size_t payload_start = buf_.size();
  for (const StagedColumn& st : staged_) {
    PutBytes(&buf_, st.data.data(), st.data.size());
    PutBytes(&buf_, st.strings.data(), st.strings.size());
  }
  PutU32(&buf_, Crc32(buf_.data() + payload_start, payload_bytes));
  SpillExtent at;
  VWISE_RETURN_IF_ERROR(file_->Write(buf_.data(), buf_.size(), &at));
  run_->blocks.push_back(at);
  run_->rows += staged_rows_;
  run_->bytes += at.length;
  staged_rows_ = 0;
  for (StagedColumn& st : staged_) {
    st.data.clear();
    st.strings.clear();
  }
  return Status::OK();
}

Result<std::unique_ptr<SpillReader>> SpillReader::Open(
    SpillFile* file, const SpillRun& run, const std::vector<TypeId>& types) {
  VWISE_FAILPOINT("spill.open");
  return std::unique_ptr<SpillReader>(
      new SpillReader(file, run.blocks, types));
}

Result<bool> SpillReader::Next(DataChunk* out) {
  out->Reset();
  if (next_ == blocks_.size()) return false;
  const SpillExtent& at = blocks_[next_];
  VWISE_DCHECK(at.length >= kBlockOverhead);
  buf_.resize(at.length);
  VWISE_RETURN_IF_ERROR(file_->Read(at, buf_.data()));
  const uint32_t rows = GetU32(buf_.data() + 4);
  const uint64_t payload_bytes = GetU64(buf_.data() + 8);
  if (GetU32(buf_.data()) != kBlockMagic || rows > out->capacity() ||
      payload_bytes != at.length - kBlockOverhead) {
    return Status::Corruption("spill file " + file_->path() +
                              " bad block at offset " +
                              std::to_string(at.offset));
  }
  const uint8_t* payload = buf_.data() + kBlockHeader;
  if (Crc32(payload, payload_bytes) != GetU32(payload + payload_bytes)) {
    return Status::Corruption("spill file " + file_->path() +
                              " CRC mismatch at offset " +
                              std::to_string(at.offset));
  }
  const uint8_t* p = payload;
  const uint8_t* end = payload + payload_bytes;
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
  next_++;
  out->SetCount(rows);
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
