#include "exec/radix_spill.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "common/failpoint.h"
#include "exec/key_table.h"
#include "storage/spill_file.h"

namespace vwise {

namespace {

// A fresh radix byte per level: level L routes on hash bits
// [56 - 8L, 64 - 8L). Level 0 uses the top byte — the tables that reload a
// partition mask the low bits, so low-bit partitioning would collapse each
// partition into a few buckets — and each deeper level splits what its
// parent could not. The 8 hash bytes bound useful depth; levels past 7
// reuse the last byte, and floods of one key that no byte can split exhaust
// Config::spill_max_repartition_depth and fail cleanly.
size_t LevelShift(size_t level) { return 56 - 8 * std::min<size_t>(level, 7); }

}  // namespace

Result<bool> ShouldSpill(QueryContext* ctx, const Config& config,
                         const Status& grown, size_t held) {
  if (!grown.ok()) {
    if (grown.code() != StatusCode::kResourceExhausted ||
        !config.enable_spill) {
      return grown;
    }
    return true;
  }
  if (!config.enable_spill) return false;
  // Governor pressure signal (polled alongside ctx->Check()): queries are
  // waiting for global memory, so flush early instead of holding the
  // reservation until the budget forces the issue.
  if (held >= config.pressure_spill_min_bytes && ctx->MemoryPressure()) {
    ctx->NotePressureSpill();
    return true;
  }
  // Coexistence cap: a breaker that grows until its own Grow fails
  // saturates the budget and starves the other breakers of the query (a
  // partition reload cannot wait for a downstream buffer to flush).
  return ctx->memory_budget() > 0 && held > ctx->memory_budget() / 2;
}

void RemoveSpillFile(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

RadixSpill::~RadixSpill() { Drop(); }

void RadixSpill::Init(QueryContext* ctx, const Config* config,
                      std::vector<Stream> streams) {
  Drop();
  ctx_ = ctx;
  config_ = config;
  streams_ = std::move(streams);
  writers_.clear();
  writers_.resize(streams_.size());
  stats_ = Stats();
}

Status RadixSpill::OpenStream(size_t stream) {
  if (!level0_.empty() && !level0_[0].paths[stream].empty()) {
    return Status::OK();
  }
  if (level0_.empty()) {
    spilled_ = true;
    fanout_ = SpillPartitionCount(config_->spill_partitions);
    stats_.partitions = fanout_;
    level0_.assign(fanout_,
                   Partition{std::vector<std::string>(streams_.size()), 0});
  }
  for (Partition& part : level0_) {
    VWISE_ASSIGN_OR_RETURN(part.paths[stream],
                           ctx_->NewSpillPath(streams_[stream].tag));
    std::unique_ptr<SpillWriter> writer;
    VWISE_ASSIGN_OR_RETURN(writer,
                           SpillWriter::Create(part.paths[stream],
                                               streams_[stream].types,
                                               &ctx_->spill_counters()));
    writers_[stream].push_back(std::move(writer));
  }
  return Status::OK();
}

void RadixSpill::CloseStream(size_t stream) { writers_[stream].clear(); }

Status RadixSpill::Flush(
    size_t stream, size_t n, const std::function<uint64_t(uint32_t)>& hash,
    const std::function<void(const uint32_t*, size_t, DataChunk*)>& gather) {
  VWISE_RETURN_IF_ERROR(OpenStream(stream));
  buckets_.resize(fanout_);
  for (auto& rows : buckets_) rows.clear();
  for (uint32_t i = 0; i < n; i++) {
    buckets_[(hash(i) >> LevelShift(0)) & (fanout_ - 1)].push_back(i);
  }
  DataChunk scratch;
  scratch.Init(streams_[stream].types, config_->vector_size);
  for (size_t p = 0; p < fanout_; p++) {
    const std::vector<sel_t>& ids = buckets_[p];
    for (size_t i = 0; i < ids.size(); i += scratch.capacity()) {
      VWISE_RETURN_IF_ERROR(ctx_->Check());
      size_t batch = std::min(scratch.capacity(), ids.size() - i);
      scratch.Reset();
      gather(ids.data() + i, batch, &scratch);
      scratch.SetCount(batch);
      VWISE_RETURN_IF_ERROR(writers_[stream][p]->Append(scratch));
    }
  }
  return Status::OK();
}

Status RadixSpill::Scatter(size_t stream, const DataChunk& chunk,
                           const sel_t* sel, size_t n) {
  VWISE_RETURN_IF_ERROR(OpenStream(stream));
  return Route(stream, chunk, sel, n, LevelShift(0), fanout_,
               &writers_[stream]);
}

Status RadixSpill::Route(size_t stream, const DataChunk& chunk,
                         const sel_t* sel, size_t n, size_t shift,
                         size_t fanout,
                         std::vector<std::unique_ptr<SpillWriter>>* writers) {
  buckets_.resize(fanout);
  for (auto& rows : buckets_) rows.clear();
  hashes_.resize(n);
  KeyTable::Hash(chunk, streams_[stream].keys, sel, n, hashes_.data());
  for (size_t i = 0; i < n; i++) {
    sel_t pos = sel ? sel[i] : static_cast<sel_t>(i);
    buckets_[(hashes_[i] >> shift) & (fanout - 1)].push_back(pos);
  }
  for (size_t f = 0; f < fanout; f++) {
    VWISE_RETURN_IF_ERROR((*writers)[f]->AppendRows(chunk, buckets_[f].data(),
                                                    buckets_[f].size()));
  }
  return Status::OK();
}

void RadixSpill::Seal() {
  for (auto& writers : writers_) writers.clear();  // readers reopen the files
  for (Partition& part : level0_) pending_.push_back(std::move(part));
  level0_.clear();
}

bool RadixSpill::Next() {
  RemoveFiles(&current_);
  if (pending_.empty()) return false;
  current_ = std::move(pending_.front());
  pending_.pop_front();
  return true;
}

Result<std::unique_ptr<SpillReader>> RadixSpill::Read(size_t stream) const {
  return SpillReader::Open(current_.paths[stream], streams_[stream].types,
                           &ctx_->spill_counters());
}

size_t RadixSpill::RepartitionFanout(uint64_t part_bytes) const {
  // Aim each child at a fraction of the budget: serialized spill bytes
  // understate resident bytes (string headers, table slots, stored hashes),
  // and a join's reload must coexist with its probe stream. Per-level fanout
  // is capped at the configured partition count — every child holds open
  // writers with their own buffers, so one level never fans wider than the
  // initial flush did; depth supplies the remaining capacity (fanout^depth).
  size_t budget = ctx_->memory_budget();
  uint64_t target = budget > 0 ? static_cast<uint64_t>(budget) / 4
                               : (32ull << 20);
  if (target == 0) target = 1;
  uint64_t need = part_bytes / target + 2;
  size_t fanout =
      SpillPartitionCount(static_cast<size_t>(need > 256 ? 256 : need));
  size_t cap = SpillPartitionCount(config_->spill_partitions);
  return fanout > cap ? cap : fanout;
}

Status RadixSpill::Split(const Status& reload) {
  if (reload.code() != StatusCode::kResourceExhausted ||
      current_.level >= config_->spill_max_repartition_depth) {
    return reload;
  }
  VWISE_FAILPOINT("spill.repartition");
  size_t level = current_.level + 1;
  std::error_code ec;
  uint64_t part_bytes = std::filesystem::file_size(current_.paths[0], ec);
  if (ec) part_bytes = 0;
  size_t fanout = RepartitionFanout(part_bytes);
  stats_.repartitions++;
  stats_.depth = std::max(stats_.depth, level);
  stats_.partitions += fanout;

  // The children go to the front of the queue (depth-first) before any of
  // their files exists, so Drop() finds every file on any exit path.
  pending_.insert(pending_.begin(), fanout,
                  Partition{std::vector<std::string>(streams_.size()), level});
  std::vector<std::vector<std::unique_ptr<SpillWriter>>> writers(
      streams_.size());
  for (size_t f = 0; f < fanout; f++) {
    for (size_t s = 0; s < streams_.size(); s++) {
      VWISE_ASSIGN_OR_RETURN(pending_[f].paths[s],
                             ctx_->NewSpillPath(streams_[s].tag));
      std::unique_ptr<SpillWriter> writer;
      VWISE_ASSIGN_OR_RETURN(writer,
                             SpillWriter::Create(pending_[f].paths[s],
                                                 streams_[s].types,
                                                 &ctx_->spill_counters()));
      writers[s].push_back(std::move(writer));
    }
  }
  // Stream every parent file into the children, routed by the next byte of
  // the same key hash — matching rows of different streams land in
  // matching children.
  for (size_t s = 0; s < streams_.size(); s++) {
    std::unique_ptr<SpillReader> reader;
    VWISE_ASSIGN_OR_RETURN(reader, Read(s));
    DataChunk chunk;
    chunk.Init(streams_[s].types, config_->vector_size);
    while (true) {
      VWISE_RETURN_IF_ERROR(ctx_->Check());
      bool more = false;
      VWISE_ASSIGN_OR_RETURN(more, reader->Next(&chunk));
      if (!more) break;
      VWISE_RETURN_IF_ERROR(Route(s, chunk, nullptr, chunk.count(),
                                  LevelShift(level), fanout, &writers[s]));
    }
  }
  writers.clear();  // close the children before the parent is unlinked
  RemoveFiles(&current_);
  return Status::OK();
}

void RadixSpill::RemoveFiles(Partition* part) {
  for (const std::string& path : part->paths) RemoveSpillFile(path);
  *part = Partition();
}

void RadixSpill::Drop() {
  for (auto& writers : writers_) writers.clear();
  for (Partition& part : level0_) RemoveFiles(&part);
  level0_.clear();
  for (Partition& part : pending_) RemoveFiles(&part);
  pending_.clear();
  RemoveFiles(&current_);
  buckets_.clear();
  hashes_.clear();
  fanout_ = 0;
  spilled_ = false;
}

}  // namespace vwise
