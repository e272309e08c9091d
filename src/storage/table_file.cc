#include "storage/table_file.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/crc32.h"
#include "common/macros.h"

namespace vwise {

namespace {

constexpr uint32_t kMagic = 0x56575442;  // "VWTB"
// v2: per-group blob CRC32s in the footer, verified on buffer-manager miss.
constexpr uint32_t kFormatVersion = 2;

void PutBytes(std::vector<uint8_t>* out, const void* p, size_t n) {
  const uint8_t* b = static_cast<const uint8_t*>(p);
  out->insert(out->end(), b, b + n);
}
template <typename T>
void Put(std::vector<uint8_t>* out, T v) {
  PutBytes(out, &v, sizeof(T));
}

class FooterReader {
 public:
  FooterReader(const uint8_t* p, size_t n) : p_(p), end_(p + n) {}
  template <typename T>
  Status Get(T* out) {
    if (p_ + sizeof(T) > end_) return Status::Corruption("footer truncated");
    std::memcpy(out, p_, sizeof(T));
    p_ += sizeof(T);
    return Status::OK();
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

bool IntFamily(TypeId t) { return t == TypeId::kI32 || t == TypeId::kI64; }

}  // namespace

// ---------------------------------------------------------------------------
// TableWriter
// ---------------------------------------------------------------------------

TableWriter::TableWriter(const TableSchema& schema, const ColumnGroups& groups,
                         const Config& config, std::string path,
                         IoDevice* device)
    : schema_(schema),
      groups_(groups),
      config_(config),
      path_(std::move(path)),
      device_(device),
      stage_(schema.num_columns()) {}

TableWriter::~TableWriter() = default;

Status TableWriter::EnsureOpen() {
  if (file_ != nullptr) return Status::OK();
  VWISE_ASSIGN_OR_RETURN(file_, IoFile::Create(path_, device_, "table"));
  uint32_t header[2] = {kMagic, kFormatVersion};
  return file_->Append(header, sizeof(header));
}

Status TableWriter::Append(const DataChunk& chunk) {
  VWISE_CHECK_MSG(!chunk.has_selection(), "TableWriter needs dense chunks");
  if (chunk.num_columns() != schema_.num_columns()) {
    return Status::InvalidArgument("chunk arity mismatch");
  }
  VWISE_RETURN_IF_ERROR(EnsureOpen());
  for (size_t row = 0; row < chunk.count(); row++) {
    for (size_t c = 0; c < schema_.num_columns(); c++) {
      const Vector& v = chunk.column(c);
      TypeId t = v.type();
      if (t == TypeId::kStr) {
        stage_[c].strings.push_back(v.Data<StringVal>()[row].ToString());
      } else {
        size_t w = TypeWidth(t);
        const uint8_t* src = static_cast<const uint8_t*>(v.raw()) + row * w;
        stage_[c].fixed.insert(stage_[c].fixed.end(), src, src + w);
      }
    }
    stage_rows_++;
    if (stage_rows_ == config_.stripe_rows) {
      VWISE_RETURN_IF_ERROR(FlushStripe());
    }
  }
  return Status::OK();
}

Status TableWriter::AppendRow(const std::vector<Value>& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  VWISE_RETURN_IF_ERROR(EnsureOpen());
  for (size_t c = 0; c < row.size(); c++) {
    DispatchType(schema_.column(c).type.physical(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      if constexpr (std::is_same_v<T, StringVal>) {
        stage_[c].strings.push_back(row[c].AsString());
      } else {
        T v = row[c].AsNumber<T>();
        PutBytes(&stage_[c].fixed, &v, sizeof(T));
      }
    });
  }
  stage_rows_++;
  if (stage_rows_ == config_.stripe_rows) return FlushStripe();
  return Status::OK();
}

Status TableWriter::FlushStripe() {
  if (stage_rows_ == 0) return Status::OK();
  StripeInfo stripe;
  stripe.rows = static_cast<uint32_t>(stage_rows_);
  stripe.segments.resize(schema_.num_columns());

  // Encode every column first (so group blobs can be laid out), then write
  // one blob per group.
  std::vector<CompressedSegment> segs(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); c++) {
    TypeId t = schema_.column(c).type.physical();
    // The encoder surface is Vector-typed: wrap the staged bytes in a
    // stripe-sized vector. Strings reference the staged std::strings, which
    // stay alive for the synchronous encode below.
    Vector values(t, stage_rows_);
    if (t == TypeId::kStr) {
      StringVal* sv = values.Data<StringVal>();
      for (size_t i = 0; i < stage_rows_; i++) {
        sv[i] = StringVal(stage_[c].strings[i]);
      }
    } else {
      std::memcpy(values.raw(), stage_[c].fixed.data(),
                  stage_rows_ * TypeWidth(t));
    }
    if (config_.enable_compression) {
      VWISE_ASSIGN_OR_RETURN(segs[c],
                             compression::EncodeBest(values, stage_rows_));
    } else {
      VWISE_ASSIGN_OR_RETURN(
          segs[c], compression::Encode(Codec::kPlain, values, stage_rows_));
    }
    SegmentInfo& info = stripe.segments[c];
    info.codec = segs[c].codec;
    info.count = segs[c].count;
    info.size = static_cast<uint32_t>(segs[c].data.size());
    if (IntFamily(t) && stage_rows_ > 0) {
      info.has_minmax = true;
      if (t == TypeId::kI32) {
        const int32_t* d = reinterpret_cast<const int32_t*>(stage_[c].fixed.data());
        auto [mn, mx] = std::minmax_element(d, d + stage_rows_);
        info.min = *mn;
        info.max = *mx;
      } else {
        const int64_t* d = reinterpret_cast<const int64_t*>(stage_[c].fixed.data());
        auto [mn, mx] = std::minmax_element(d, d + stage_rows_);
        info.min = *mn;
        info.max = *mx;
      }
    }
  }

  stripe.group_offset.resize(groups_.groups.size());
  stripe.group_size.resize(groups_.groups.size());
  stripe.group_crc.resize(groups_.groups.size());
  for (size_t g = 0; g < groups_.groups.size(); g++) {
    std::vector<uint8_t> blob;
    for (uint32_t c : groups_.groups[g]) {
      stripe.segments[c].offset_in_blob = static_cast<uint32_t>(blob.size());
      PutBytes(&blob, segs[c].data.data(), segs[c].data.size());
    }
    uint64_t offset = 0;
    VWISE_RETURN_IF_ERROR(file_->Append(blob.data(), blob.size(), &offset));
    stripe.group_offset[g] = offset;
    stripe.group_size[g] = blob.size();
    stripe.group_crc[g] = Crc32(blob.data(), blob.size());
  }

  stripes_.push_back(std::move(stripe));
  rows_written_ += stage_rows_;
  stage_rows_ = 0;
  for (auto& s : stage_) {
    s.fixed.clear();
    s.strings.clear();
  }
  return Status::OK();
}

Status TableWriter::Finish() {
  VWISE_CHECK_MSG(!finished_, "Finish called twice");
  VWISE_RETURN_IF_ERROR(EnsureOpen());
  VWISE_RETURN_IF_ERROR(FlushStripe());
  finished_ = true;

  std::vector<uint8_t> footer;
  Put<uint64_t>(&footer, rows_written_);
  Put<uint32_t>(&footer, static_cast<uint32_t>(config_.stripe_rows));
  Put<uint32_t>(&footer, static_cast<uint32_t>(schema_.num_columns()));
  for (const auto& col : schema_.columns()) {
    Put<uint8_t>(&footer, static_cast<uint8_t>(col.type.kind));
    Put<uint8_t>(&footer, col.type.scale);
    Put<uint8_t>(&footer, col.nullable ? 1 : 0);
  }
  Put<uint32_t>(&footer, static_cast<uint32_t>(groups_.groups.size()));
  for (const auto& g : groups_.groups) {
    Put<uint32_t>(&footer, static_cast<uint32_t>(g.size()));
    for (uint32_t c : g) Put<uint32_t>(&footer, c);
  }
  Put<uint32_t>(&footer, static_cast<uint32_t>(stripes_.size()));
  for (const auto& s : stripes_) {
    Put<uint32_t>(&footer, s.rows);
    for (size_t g = 0; g < groups_.groups.size(); g++) {
      Put<uint64_t>(&footer, s.group_offset[g]);
      Put<uint64_t>(&footer, s.group_size[g]);
      Put<uint32_t>(&footer, s.group_crc[g]);
    }
    for (const auto& seg : s.segments) {
      Put<uint32_t>(&footer, seg.offset_in_blob);
      Put<uint32_t>(&footer, seg.size);
      Put<uint8_t>(&footer, static_cast<uint8_t>(seg.codec));
      Put<uint32_t>(&footer, seg.count);
      Put<uint8_t>(&footer, seg.has_minmax ? 1 : 0);
      Put<int64_t>(&footer, seg.min);
      Put<int64_t>(&footer, seg.max);
    }
  }

  uint64_t footer_size = footer.size();
  uint32_t crc = Crc32(footer.data(), footer.size());
  VWISE_RETURN_IF_ERROR(file_->Append(footer.data(), footer.size()));
  VWISE_RETURN_IF_ERROR(file_->Append(&footer_size, 8));
  VWISE_RETURN_IF_ERROR(file_->Append(&crc, 4));
  uint32_t magic = kMagic;
  VWISE_RETURN_IF_ERROR(file_->Append(&magic, 4));
  VWISE_RETURN_IF_ERROR(file_->Sync());
  file_.reset();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TableFile
// ---------------------------------------------------------------------------

Result<std::unique_ptr<TableFile>> TableFile::Open(const std::string& path,
                                                   const TableSchema& schema,
                                                   IoDevice* device,
                                                   BufferManager* buffers) {
  VWISE_ASSIGN_OR_RETURN(auto file, IoFile::OpenRead(path, device, "table"));
  if (file->size() < 24) return Status::Corruption("table file too small");

  uint32_t header[2];
  VWISE_RETURN_IF_ERROR(file->Read(0, sizeof(header), header));
  if (header[0] != kMagic) return Status::Corruption("bad table header magic");
  if (header[1] != kFormatVersion) {
    return Status::Corruption("unsupported table format version " +
                              std::to_string(header[1]));
  }

  uint8_t tail[16];
  VWISE_RETURN_IF_ERROR(file->Read(file->size() - 16, 16, tail));
  uint64_t footer_size;
  uint32_t crc, magic;
  std::memcpy(&footer_size, tail, 8);
  std::memcpy(&crc, tail + 8, 4);
  std::memcpy(&magic, tail + 12, 4);
  if (magic != kMagic) return Status::Corruption("bad table magic");
  if (footer_size + 24 > file->size()) {
    return Status::Corruption("bad footer size");
  }
  std::vector<uint8_t> footer(footer_size);
  VWISE_RETURN_IF_ERROR(
      file->Read(file->size() - 16 - footer_size, footer_size, footer.data()));
  if (Crc32(footer.data(), footer.size()) != crc) {
    return Status::Corruption("footer checksum mismatch");
  }

  auto tf = std::unique_ptr<TableFile>(new TableFile());
  tf->schema_ = schema;
  tf->file_ = std::move(file);
  tf->buffers_ = buffers;
  if (buffers != nullptr) tf->buffers_alive_ = buffers->alive();

  FooterReader r(footer.data(), footer.size());
  VWISE_RETURN_IF_ERROR(r.Get(&tf->row_count_));
  uint32_t stripe_rows, n_cols;
  VWISE_RETURN_IF_ERROR(r.Get(&stripe_rows));
  VWISE_RETURN_IF_ERROR(r.Get(&n_cols));
  if (n_cols != schema.num_columns()) {
    return Status::Corruption("schema/file column count mismatch");
  }
  for (uint32_t c = 0; c < n_cols; c++) {
    uint8_t kind, scale, nullable;
    VWISE_RETURN_IF_ERROR(r.Get(&kind));
    VWISE_RETURN_IF_ERROR(r.Get(&scale));
    VWISE_RETURN_IF_ERROR(r.Get(&nullable));
    if (kind != static_cast<uint8_t>(schema.column(c).type.kind)) {
      return Status::Corruption("schema/file type mismatch for column " +
                                schema.column(c).name);
    }
  }
  uint32_t n_groups;
  VWISE_RETURN_IF_ERROR(r.Get(&n_groups));
  tf->groups_.groups.resize(n_groups);
  for (uint32_t g = 0; g < n_groups; g++) {
    uint32_t sz;
    VWISE_RETURN_IF_ERROR(r.Get(&sz));
    tf->groups_.groups[g].resize(sz);
    for (uint32_t i = 0; i < sz; i++) {
      VWISE_RETURN_IF_ERROR(r.Get(&tf->groups_.groups[g][i]));
    }
  }
  tf->col_to_group_.resize(n_cols);
  for (uint32_t g = 0; g < n_groups; g++) {
    for (uint32_t c : tf->groups_.groups[g]) {
      if (c >= n_cols) return Status::Corruption("bad group column index");
      tf->col_to_group_[c] = g;
    }
  }
  uint32_t n_stripes;
  VWISE_RETURN_IF_ERROR(r.Get(&n_stripes));
  tf->stripes_.resize(n_stripes);
  tf->stripe_start_.resize(n_stripes);
  uint64_t row_acc = 0;
  for (uint32_t s = 0; s < n_stripes; s++) {
    StripeInfo& stripe = tf->stripes_[s];
    VWISE_RETURN_IF_ERROR(r.Get(&stripe.rows));
    tf->stripe_start_[s] = row_acc;
    row_acc += stripe.rows;
    stripe.group_offset.resize(n_groups);
    stripe.group_size.resize(n_groups);
    stripe.group_crc.resize(n_groups);
    for (uint32_t g = 0; g < n_groups; g++) {
      VWISE_RETURN_IF_ERROR(r.Get(&stripe.group_offset[g]));
      VWISE_RETURN_IF_ERROR(r.Get(&stripe.group_size[g]));
      VWISE_RETURN_IF_ERROR(r.Get(&stripe.group_crc[g]));
    }
    stripe.segments.resize(n_cols);
    for (uint32_t c = 0; c < n_cols; c++) {
      SegmentInfo& seg = stripe.segments[c];
      uint8_t codec, has_minmax;
      VWISE_RETURN_IF_ERROR(r.Get(&seg.offset_in_blob));
      VWISE_RETURN_IF_ERROR(r.Get(&seg.size));
      VWISE_RETURN_IF_ERROR(r.Get(&codec));
      VWISE_RETURN_IF_ERROR(r.Get(&seg.count));
      VWISE_RETURN_IF_ERROR(r.Get(&has_minmax));
      VWISE_RETURN_IF_ERROR(r.Get(&seg.min));
      VWISE_RETURN_IF_ERROR(r.Get(&seg.max));
      seg.codec = static_cast<Codec>(codec);
      seg.has_minmax = has_minmax != 0;
    }
  }
  if (row_acc != tf->row_count_) {
    return Status::Corruption("stripe row counts disagree with total");
  }
  return tf;
}

TableFile::~TableFile() {
  if (file_ != nullptr && !buffers_alive_.expired()) {
    buffers_->DropFile(file_id());
  }
}

Status TableFile::OpenStripeColumn(size_t stripe, uint32_t col,
                                   StripeColumn* out) {
  if (stripe >= stripes_.size() || col >= schema_.num_columns()) {
    return Status::InvalidArgument("stripe/column out of range");
  }
  const StripeInfo& si = stripes_[stripe];
  const SegmentInfo& seg = si.segments[col];
  uint32_t g = col_to_group_[col];
  // Drop the previous stripe's pins first, so the fetch below may evict that
  // blob like any other unpinned one.
  out->blob.reset();
  out->heap.reset();
  VWISE_ASSIGN_OR_RETURN(
      out->blob, buffers_->Fetch(file_.get(), si.group_offset[g],
                                 si.group_size[g], &si.group_crc[g]));
  if (seg.offset_in_blob + static_cast<uint64_t>(seg.size) >
      out->blob->capacity()) {
    return Status::Corruption("segment exceeds blob");
  }
  TypeId t = schema_.column(col).type.physical();
  out->type = t;
  out->count = seg.count;
  if (t == TypeId::kStr) out->heap = std::make_shared<StringHeap>(out->blob);
  return out->cursor.Open(seg.codec, t, seg.count,
                          out->blob->data() + seg.offset_in_blob, seg.size);
}

bool TableFile::StripeOverlapsRange(size_t stripe, uint32_t col, int64_t lo,
                                    int64_t hi) const {
  const SegmentInfo& seg = stripes_[stripe].segments[col];
  if (!seg.has_minmax) return true;
  return seg.max >= lo && seg.min <= hi;
}

}  // namespace vwise
