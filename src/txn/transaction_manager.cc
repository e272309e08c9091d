#include "txn/transaction_manager.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "common/failpoint.h"
#include "common/serialize.h"
#include "exec/scan.h"

namespace vwise {

namespace {

constexpr uint32_t kCatalogMagic = 0x56574354;  // "VWCT"

// Streams the visible rows of `snap` into `writer` through the scan's
// vectorized positional merge of stable image and deltas. The scan emits
// dense chunks, the kind TableWriter::Append takes.
Status WriteSnapshot(const TableSnapshot& snap, const Config& config,
                     TableWriter* writer) {
  std::vector<uint32_t> columns(snap.schema->num_columns());
  std::iota(columns.begin(), columns.end(), 0u);
  ScanOperator scan(snap, std::move(columns), config);
  Status s = scan.Open();
  DataChunk chunk;
  chunk.Init(scan.OutputTypes(), config.vector_size);
  while (s.ok()) {
    chunk.Reset();
    s = scan.Next(&chunk);
    if (!s.ok() || chunk.count() == 0) break;
    s = writer->Append(chunk);
  }
  scan.Close();
  return s;
}

bool SortedIntersects(const std::vector<uint64_t>& a,
                      const std::vector<uint64_t>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      i++;
    } else if (a[i] > b[j]) {
      j++;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Transaction
// ---------------------------------------------------------------------------

Result<Transaction::PerTable*> Transaction::Touch(const std::string& table) {
  VWISE_CHECK_MSG(!finished_, "transaction already finished");
  auto it = tables_.find(table);
  if (it != tables_.end()) return &it->second;
  VWISE_ASSIGN_OR_RETURN(TableSnapshot snap, mgr_->GetSnapshot(table));
  PerTable pt;
  pt.snapshot_version = snap.version;
  pt.stable = snap.stable;
  pt.snapshot_pdt = snap.deltas;
  pt.view = snap.deltas ? std::shared_ptr<Pdt>(snap.deltas->Clone())
                        : std::make_shared<Pdt>();
  pt.visible_rows = snap.visible_rows();
  return &tables_.emplace(table, std::move(pt)).first->second;
}

Status Transaction::Insert(const std::string& table, uint64_t rid,
                           std::vector<Value> row) {
  VWISE_ASSIGN_OR_RETURN(PerTable * pt, Touch(table));
  if (rid > pt->visible_rows) {
    return Status::InvalidArgument("insert position beyond table end");
  }
  PdtLogOp op;
  op.kind = PdtOpKind::kIns;
  op.rid = rid;
  op.is_append = rid == pt->visible_rows;
  op.row = row;
  VWISE_RETURN_IF_ERROR(pt->view->Insert(rid, std::move(row)));
  pt->ops.push_back(std::move(op));
  pt->visible_rows++;
  return Status::OK();
}

Status Transaction::Append(const std::string& table, std::vector<Value> row) {
  VWISE_ASSIGN_OR_RETURN(PerTable * pt, Touch(table));
  return Insert(table, pt->visible_rows, std::move(row));
}

Status Transaction::Delete(const std::string& table, uint64_t rid) {
  VWISE_ASSIGN_OR_RETURN(PerTable * pt, Touch(table));
  if (rid >= pt->visible_rows) {
    return Status::InvalidArgument("delete position beyond table end");
  }
  ResolvedRow resolved;
  VWISE_RETURN_IF_ERROR(pt->view->Delete(rid, &resolved));
  PdtLogOp op;
  op.kind = PdtOpKind::kDel;
  op.rid = rid;
  if (resolved.is_delta) {
    pt->touched_delta = true;
  } else {
    op.has_sid = true;
    op.sid = resolved.sid;
    pt->touched_sids.push_back(resolved.sid);
  }
  pt->ops.push_back(std::move(op));
  pt->visible_rows--;
  return Status::OK();
}

Status Transaction::Modify(const std::string& table, uint64_t rid,
                           uint32_t col, Value v) {
  VWISE_ASSIGN_OR_RETURN(PerTable * pt, Touch(table));
  if (rid >= pt->visible_rows) {
    return Status::InvalidArgument("modify position beyond table end");
  }
  ResolvedRow resolved;
  VWISE_RETURN_IF_ERROR(pt->view->Modify(rid, col, v, &resolved));
  PdtLogOp op;
  op.kind = PdtOpKind::kMod;
  op.rid = rid;
  op.col = col;
  op.value = std::move(v);
  if (resolved.is_delta) {
    pt->touched_delta = true;
  } else {
    op.has_sid = true;
    op.sid = resolved.sid;
    pt->touched_sids.push_back(resolved.sid);
  }
  pt->ops.push_back(std::move(op));
  return Status::OK();
}

Result<TableSnapshot> Transaction::GetView(const std::string& table) {
  VWISE_ASSIGN_OR_RETURN(PerTable * pt, Touch(table));
  TableSnapshot snap;
  snap.schema = mgr_->GetSchema(table);
  snap.stable = pt->stable;
  snap.deltas = pt->view;
  snap.version = pt->snapshot_version;
  return snap;
}

// ---------------------------------------------------------------------------
// TransactionManager: open / catalog
// ---------------------------------------------------------------------------

TransactionManager::~TransactionManager() = default;

std::string TransactionManager::TableFilePath(const std::string& name,
                                              uint64_t version) const {
  return dir_ + "/" + name + ".v" + std::to_string(version);
}
std::string TransactionManager::CatalogPath() const { return dir_ + "/CATALOG"; }
std::string TransactionManager::WalPath() const { return dir_ + "/wal.log"; }

Result<std::unique_ptr<TransactionManager>> TransactionManager::Open(
    const std::string& dir, const Config& config, IoDevice* device,
    BufferManager* buffers) {
  failpoint::ArmFromEnv();
  if (!config.failpoints.empty()) {
    VWISE_RETURN_IF_ERROR(failpoint::Arm(config.failpoints));
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
  }
  auto mgr = std::unique_ptr<TransactionManager>(
      new TransactionManager(dir, config, device, buffers));
  {
    MutexLock lock(&mgr->mu_);
    VWISE_RETURN_IF_ERROR(mgr->LoadCatalogLocked());
    VWISE_RETURN_IF_ERROR(mgr->CleanStaleFilesLocked());
    for (auto& [name, st] : mgr->tables_) {
      (void)name;
      VWISE_RETURN_IF_ERROR(mgr->OpenTableFileLocked(&st));
    }
    VWISE_RETURN_IF_ERROR(mgr->RecoverLocked());
    VWISE_ASSIGN_OR_RETURN(mgr->wal_, Wal::Open(mgr->WalPath(), device,
                                                config.wal_sync_on_commit));
  }
  return mgr;
}

Status TransactionManager::OpenTableFileLocked(TableState* st) {
  VWISE_ASSIGN_OR_RETURN(
      auto tf, TableFile::Open(TableFilePath(st->schema.name(), st->file_version),
                               st->schema, device_, buffers_));
  st->stable = std::shared_ptr<TableFile>(std::move(tf));
  return Status::OK();
}

Status TransactionManager::SaveCatalogLocked() {
  std::vector<uint8_t> buf;
  ser::Put<uint32_t>(&buf, kCatalogMagic);
  ser::Put<uint64_t>(&buf, wal_epoch_);
  ser::Put<uint32_t>(&buf, static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, st] : tables_) {
    ser::PutString(&buf, name);
    ser::Put<uint32_t>(&buf, static_cast<uint32_t>(st.schema.num_columns()));
    for (const auto& col : st.schema.columns()) {
      ser::PutString(&buf, col.name);
      ser::Put<uint8_t>(&buf, static_cast<uint8_t>(col.type.kind));
      ser::Put<uint8_t>(&buf, col.type.scale);
      ser::Put<uint8_t>(&buf, col.nullable ? 1 : 0);
    }
    ser::Put<uint32_t>(&buf, static_cast<uint32_t>(st.groups.groups.size()));
    for (const auto& g : st.groups.groups) {
      ser::Put<uint32_t>(&buf, static_cast<uint32_t>(g.size()));
      for (uint32_t c : g) ser::Put<uint32_t>(&buf, c);
    }
    ser::Put<uint64_t>(&buf, st.file_version);
  }
  std::string tmp = CatalogPath() + ".tmp";
  {
    VWISE_ASSIGN_OR_RETURN(auto file, IoFile::Create(tmp, device_, "catalog"));
    VWISE_RETURN_IF_ERROR(file->Append(buf.data(), buf.size()));
    VWISE_RETURN_IF_ERROR(file->Sync());
  }
  if (::rename(tmp.c_str(), CatalogPath().c_str()) != 0) {
    return Status::IOError("rename catalog: " + std::string(std::strerror(errno)));
  }
  return SyncDir(dir_);
}

Status TransactionManager::LoadCatalogLocked() {
  struct stat st;
  if (::stat(CatalogPath().c_str(), &st) != 0) return Status::OK();  // fresh db
  VWISE_ASSIGN_OR_RETURN(auto file,
                         IoFile::OpenRead(CatalogPath(), device_, "catalog"));
  std::vector<uint8_t> buf(file->size());
  VWISE_RETURN_IF_ERROR(file->Read(0, buf.size(), buf.data()));
  ser::Reader r(buf.data(), buf.size());
  uint32_t magic, n_tables;
  VWISE_RETURN_IF_ERROR(r.Get(&magic));
  if (magic != kCatalogMagic) return Status::Corruption("bad catalog magic");
  VWISE_RETURN_IF_ERROR(r.Get(&wal_epoch_));
  VWISE_RETURN_IF_ERROR(r.Get(&n_tables));
  for (uint32_t t = 0; t < n_tables; t++) {
    std::string name;
    VWISE_RETURN_IF_ERROR(r.GetString(&name));
    uint32_t n_cols;
    VWISE_RETURN_IF_ERROR(r.Get(&n_cols));
    std::vector<ColumnDef> cols;
    for (uint32_t c = 0; c < n_cols; c++) {
      std::string cname;
      uint8_t kind, scale, nullable;
      VWISE_RETURN_IF_ERROR(r.GetString(&cname));
      VWISE_RETURN_IF_ERROR(r.Get(&kind));
      VWISE_RETURN_IF_ERROR(r.Get(&scale));
      VWISE_RETURN_IF_ERROR(r.Get(&nullable));
      cols.emplace_back(cname, DataType(static_cast<LType>(kind), scale),
                        nullable != 0);
    }
    TableState ts;
    ts.schema = TableSchema(name, std::move(cols));
    uint32_t n_groups;
    VWISE_RETURN_IF_ERROR(r.Get(&n_groups));
    ts.groups.groups.resize(n_groups);
    for (uint32_t g = 0; g < n_groups; g++) {
      uint32_t sz;
      VWISE_RETURN_IF_ERROR(r.Get(&sz));
      ts.groups.groups[g].resize(sz);
      for (uint32_t i = 0; i < sz; i++) {
        VWISE_RETURN_IF_ERROR(r.Get(&ts.groups.groups[g][i]));
      }
    }
    VWISE_RETURN_IF_ERROR(r.Get(&ts.file_version));
    tables_.emplace(name, std::move(ts));
  }
  return Status::OK();
}

Status TransactionManager::RecoverLocked() {
  VWISE_ASSIGN_OR_RETURN(auto commits, Wal::ReadAll(WalPath(), device_));
  uint64_t max_txn_id = 0;
  for (const WalCommit& commit : commits) {
    max_txn_id = std::max(max_txn_id, commit.txn_id);
    // Records older than the catalog's epoch were merged into the published
    // table files by a checkpoint that crashed before resetting the log;
    // replaying them would apply those deltas twice.
    if (commit.epoch < wal_epoch_) continue;
    for (const auto& [table, ops] : commit.ops) {
      auto it = tables_.find(table);
      if (it == tables_.end()) {
        return Status::Corruption("WAL references unknown table " + table);
      }
      TableState& st = it->second;
      auto pdt = st.committed ? st.committed->Clone() : std::make_unique<Pdt>();
      for (const PdtLogOp& op : ops) {
        VWISE_RETURN_IF_ERROR(pdt->Apply(op));
      }
      st.committed = std::shared_ptr<const Pdt>(std::move(pdt));
      st.commit_version = ++next_commit_version_;
    }
  }
  next_txn_id_ = max_txn_id + 1;
  return Status::OK();
}

Status TransactionManager::CleanStaleFilesLocked() {
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) {
    return Status::IOError("opendir " + dir_ + ": " + std::strerror(errno));
  }
  std::vector<std::string> doomed;
  while (struct dirent* e = ::readdir(d)) {
    std::string fname = e->d_name;
    if (fname == "." || fname == "..") continue;
    if (fname.size() > 4 && fname.compare(fname.size() - 4, 4, ".tmp") == 0) {
      doomed.push_back(fname);  // unfinished catalog/checkpoint/load temp
      continue;
    }
    size_t dot = fname.rfind(".v");
    if (dot == std::string::npos || dot == 0) continue;
    std::string version_str = fname.substr(dot + 2);
    if (version_str.empty() ||
        version_str.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    uint64_t version = std::stoull(version_str);
    auto it = tables_.find(fname.substr(0, dot));
    // A version file the catalog doesn't reference is a checkpoint or bulk
    // load that crashed before (new version) or after (old version)
    // publishing the catalog.
    if (it == tables_.end() || version != it->second.file_version) {
      doomed.push_back(fname);
    }
  }
  ::closedir(d);
  for (const std::string& fname : doomed) {
    ::unlink((dir_ + "/" + fname).c_str());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DDL / load
// ---------------------------------------------------------------------------

Status TransactionManager::CreateTable(const TableSchema& schema,
                                       const ColumnGroups& groups) {
  MutexLock publish(&publish_mu_);
  {
    MutexLock lock(&mu_);
    if (tables_.count(schema.name()) > 0) {
      return Status::AlreadyExists("table " + schema.name());
    }
  }
  TableState created;
  created.schema = schema;
  created.groups = groups;
  std::vector<PublishJob> jobs = {
      {&created, [](TableWriter*) { return Status::OK(); }}};
  VWISE_RETURN_IF_ERROR(WriteVersions(jobs));
  // Inserted and published in one critical section: no reader ever sees the
  // table without its version 0.
  MutexLock lock(&mu_);
  jobs[0].st = &tables_.emplace(schema.name(), std::move(created)).first->second;
  Status s = InstallVersionsLocked(jobs, wal_epoch_);
  if (!s.ok()) tables_.erase(schema.name());  // the table never existed
  return s;
}

Status TransactionManager::BulkLoad(
    const std::string& table, const std::function<Status(TableWriter*)>& fill) {
  MutexLock publish(&publish_mu_);
  std::vector<PublishJob> jobs;
  {
    MutexLock lock(&mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) return Status::NotFound("table " + table);
    TableState& st = it->second;
    if (st.stable->row_count() > 0 || (st.committed && !st.committed->empty())) {
      return Status::InvalidArgument("bulk load requires an empty table");
    }
    jobs.push_back({&st, fill});
  }
  VWISE_RETURN_IF_ERROR(WriteVersions(jobs));
  MutexLock lock(&mu_);
  return InstallVersionsLocked(jobs, wal_epoch_);
}

Status TransactionManager::WriteVersions(const std::vector<PublishJob>& jobs) {
  std::vector<std::string> temps;
  for (const PublishJob& job : jobs) {
    temps.push_back(
        TableFilePath(job.st->schema.name(), NextFileVersion(*job.st)) + ".tmp");
  }
  for (size_t i = 0; i < jobs.size(); i++) {
    Status s;
    if (failpoint::Armed()) s = failpoint::Check("ckpt.table");
    if (s.ok()) {
      TableWriter writer(jobs[i].st->schema, jobs[i].st->groups, config_,
                         temps[i], device_);
      s = jobs[i].fill(&writer);
      if (s.ok()) s = writer.Finish();
    }
    if (!s.ok()) {
      // Nothing is published yet: rollback is deleting the temps, this one
      // included (the writer may leave a partial one behind). A *crash*
      // skips this — reopen sweeps the same files as stale.
      for (size_t j = 0; j <= i; j++) ::unlink(temps[j].c_str());
      return s;
    }
  }
  return Status::OK();
}

Status TransactionManager::InstallVersionsLocked(
    const std::vector<PublishJob>& jobs, uint64_t epoch) {
  std::vector<uint64_t> versions;
  std::vector<std::string> paths;
  for (const PublishJob& job : jobs) {
    versions.push_back(NextFileVersion(*job.st));
    paths.push_back(TableFilePath(job.st->schema.name(), versions.back()));
  }

  // Undo before the commit point: delete the new-version files, renamed or
  // still temps.
  size_t renamed = 0;
  auto undo = [&](Status s) {
    for (size_t i = 0; i < paths.size(); i++) {
      std::string path = i < renamed ? paths[i] : paths[i] + ".tmp";
      ::unlink(path.c_str());
    }
    return s;
  };

  // Phase 2: rename temps into place, make the renames durable, and open the
  // new versions while an error can still roll back.
  for (size_t i = 0; i < jobs.size(); i++) {
    Status s;
    if (failpoint::Armed()) s = failpoint::Check("ckpt.rename");
    std::string tmp = paths[i] + ".tmp";
    if (s.ok() && ::rename(tmp.c_str(), paths[i].c_str()) != 0) {
      s = Status::IOError("rename " + tmp + ": " +
                          std::string(std::strerror(errno)));
    }
    if (!s.ok()) return undo(s);
    renamed++;
  }
  if (!jobs.empty()) {
    Status s = SyncDir(dir_);
    if (!s.ok()) return undo(s);
  }
  std::vector<std::shared_ptr<TableFile>> files;
  for (size_t i = 0; i < jobs.size(); i++) {
    auto tf = TableFile::Open(paths[i], jobs[i].st->schema, device_, buffers_);
    if (!tf.ok()) return undo(tf.status());
    files.push_back(std::shared_ptr<TableFile>(std::move(*tf)));
  }

  // Phase 3: the commit point. Saving the catalog (itself tmp+rename)
  // atomically switches recovery to the new versions and `epoch`.
  Status s;
  if (failpoint::Armed()) s = failpoint::Check("ckpt.publish");
  if (s.ok()) {
    uint64_t old_epoch = wal_epoch_;
    for (size_t i = 0; i < jobs.size(); i++) {
      std::swap(jobs[i].st->file_version, versions[i]);
    }
    wal_epoch_ = epoch;
    s = SaveCatalogLocked();
    if (!s.ok()) {
      wal_epoch_ = old_epoch;
      for (size_t i = 0; i < jobs.size(); i++) {
        std::swap(jobs[i].st->file_version, versions[i]);
      }
    }
  }
  if (!s.ok()) return undo(s);

  // Phase 4: swap the new versions in; `versions` now holds the old ones.
  for (size_t i = 0; i < jobs.size(); i++) {
    TableState* st = jobs[i].st;
    if (st->stable) {
      ::unlink(TableFilePath(st->schema.name(), versions[i]).c_str());
    }
    st->stable = std::move(files[i]);
  }
  return Status::OK();
}

bool TransactionManager::HasTable(const std::string& name) const {
  MutexLock lock(&mu_);
  return tables_.count(name) > 0;
}

const TableSchema* TransactionManager::GetSchema(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second.schema;
}

std::vector<std::string> TransactionManager::TableNames() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  for (const auto& [name, st] : tables_) {
    (void)st;
    names.push_back(name);
  }
  return names;
}

Result<TableSnapshot> TransactionManager::GetSnapshot(
    const std::string& table) const {
  MutexLock lock(&mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  const TableState& st = it->second;
  TableSnapshot snap;
  snap.schema = &st.schema;
  snap.stable = st.stable;
  snap.deltas = st.committed;
  snap.version = st.commit_version;
  return snap;
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

std::unique_ptr<Transaction> TransactionManager::Begin() {
  MutexLock lock(&mu_);
  return std::unique_ptr<Transaction>(new Transaction(this, next_txn_id_++));
}

void TransactionManager::Abort(Transaction* txn) {
  txn->finished_ = true;
  MutexLock lock(&mu_);
  n_aborts_++;
}

Status TransactionManager::Commit(Transaction* txn) {
  VWISE_CHECK_MSG(!txn->finished_, "transaction already finished");
  txn->finished_ = true;
  MutexLock publish(&publish_mu_);
  MutexLock lock(&mu_);

  // Read-only transactions commit trivially.
  bool has_writes = false;
  for (auto& [name, pt] : txn->tables_) {
    (void)name;
    if (!pt.ops.empty()) has_writes = true;
    std::sort(pt.touched_sids.begin(), pt.touched_sids.end());
  }
  if (!has_writes) {
    n_commits_++;
    return Status::OK();
  }

  // --- Validate: first-committer-wins on overlapping stable rows. ---------
  for (auto& [name, pt] : txn->tables_) {
    if (pt.ops.empty()) continue;
    TableState& st = tables_.at(name);
    // A checkpoint republished the table since the snapshot: the stable row
    // ids resolved against the old image mean other rows in the new one, and
    // the commit log that validated them went with it.
    if (st.stable != pt.stable) {
      n_aborts_++;
      return Status::TransactionConflict(
          "a checkpoint republished " + name + " since the snapshot");
    }
    for (const CommitEntry& entry : st.commit_log) {
      if (entry.version <= pt.snapshot_version) continue;
      if (entry.touched_delta && pt.touched_delta) {
        n_aborts_++;
        return Status::TransactionConflict(
            "concurrent transactions touched delta rows of " + name);
      }
      if (SortedIntersects(entry.touched_sids, pt.touched_sids)) {
        n_aborts_++;
        return Status::TransactionConflict(
            "concurrent update of the same rows in " + name);
      }
    }
  }

  // --- Re-anchor and apply. -------------------------------------------------
  std::map<std::string, std::shared_ptr<const Pdt>> new_pdts;
  WalCommit wc;
  wc.txn_id = txn->id_;
  wc.epoch = wal_epoch_;
  for (auto& [name, pt] : txn->tables_) {
    if (pt.ops.empty()) continue;
    TableState& st = tables_.at(name);
    auto pdt = st.committed ? st.committed->Clone() : std::make_unique<Pdt>();
    uint64_t visible =
        static_cast<uint64_t>(static_cast<int64_t>(st.stable->row_count()) +
                              pdt->net_displacement());
    bool rebased = st.commit_version != pt.snapshot_version;
    std::vector<PdtLogOp>& final_ops = wc.ops[name];
    final_ops.reserve(pt.ops.size());
    for (const PdtLogOp& op : pt.ops) {
      PdtLogOp f = op;
      if (rebased) {
        if (f.has_sid) {
          // Exact: recompute the stable row's current position.
          f.rid = pdt->RidOfStableRow(f.sid);
        } else if (f.kind == PdtOpKind::kIns && f.is_append) {
          f.rid = visible;
        } else {
          // Positional heuristic for delta-row targets under concurrency;
          // validation already guaranteed row-level disjointness.
          if (f.rid > visible) f.rid = visible;
        }
      }
      VWISE_RETURN_IF_ERROR(pdt->Apply(f));
      if (f.kind == PdtOpKind::kIns) visible++;
      if (f.kind == PdtOpKind::kDel) visible--;
      final_ops.push_back(std::move(f));
    }
    new_pdts[name] = std::shared_ptr<const Pdt>(std::move(pdt));
  }

  // --- WAL first, then publish. ----------------------------------------------
  VWISE_RETURN_IF_ERROR(wal_->AppendCommit(wc));
  // Crash window: the commit is durable but not yet visible in memory.
  // Recovery must resurrect it from the WAL record alone.
  VWISE_FAILPOINT("commit.publish");
  uint64_t version = ++next_commit_version_;
  for (auto& [name, pt] : txn->tables_) {
    if (pt.ops.empty()) continue;
    TableState& st = tables_.at(name);
    st.committed = new_pdts[name];
    st.commit_version = version;
    st.commit_log.push_back(
        CommitEntry{version, std::move(pt.touched_sids), pt.touched_delta});
  }
  n_commits_++;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

Status TransactionManager::Checkpoint() {
  MutexLock publish(&publish_mu_);
  VWISE_FAILPOINT("ckpt.begin");
  std::vector<PublishJob> jobs;
  std::vector<std::shared_ptr<const Pdt>> merged;  // the deltas each holds
  {
    MutexLock lock(&mu_);
    for (auto& [name, st] : tables_) {
      (void)name;
      if (!st.committed || st.committed->empty()) continue;
      TableSnapshot snap;
      snap.schema = &st.schema;
      snap.stable = st.stable;
      snap.deltas = st.committed;
      merged.push_back(st.committed);
      jobs.push_back({&st, [this, snap](TableWriter* w) {
                        return WriteSnapshot(snap, config_, w);
                      }});
    }
  }
  // Readers go on with the current versions while the merges are written;
  // commits wait on publish_mu_, so no delta arrives that the new versions
  // would miss.
  VWISE_RETURN_IF_ERROR(WriteVersions(jobs));
  MutexLock lock(&mu_);
  // The bumped epoch makes recovery skip the WAL's records: the new
  // versions hold their deltas.
  VWISE_RETURN_IF_ERROR(InstallVersionsLocked(jobs, wal_epoch_ + 1));
  for (size_t i = 0; i < jobs.size(); i++) {
    TableState* st = jobs[i].st;
    VWISE_CHECK_MSG(st->committed == merged[i],
                    "a commit ran during the checkpoint");
    st->committed = nullptr;
    // Only republished tables lose their log: the others' entries still
    // validate against an unchanged stable image.
    st->commit_log.clear();
  }

  // The WAL's records are all pre-publish now; empty it. A failure or crash
  // here only costs recovery the work of skipping them.
  VWISE_FAILPOINT("ckpt.reset");
  VWISE_RETURN_IF_ERROR(wal_->Reset());
  VWISE_FAILPOINT("ckpt.done");
  return Status::OK();
}

}  // namespace vwise
