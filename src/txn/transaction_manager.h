#ifndef VWISE_TXN_TRANSACTION_MANAGER_H_
#define VWISE_TXN_TRANSACTION_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

#include "catalog/schema.h"
#include "common/config.h"
#include "common/result.h"
#include "pdt/pdt.h"
#include "storage/buffer_manager.h"
#include "storage/table_file.h"
#include "txn/wal.h"

namespace vwise {

// A consistent view of one table: the immutable stable image plus the PDT
// deltas visible to the reader. `deltas` may be null (no deltas).
struct TableSnapshot {
  const TableSchema* schema = nullptr;
  std::shared_ptr<TableFile> stable;
  std::shared_ptr<const Pdt> deltas;
  uint64_t version = 0;

  uint64_t visible_rows() const {
    uint64_t n = stable->row_count();
    if (deltas) n = static_cast<uint64_t>(static_cast<int64_t>(n) + deltas->net_displacement());
    return n;
  }
};

class TransactionManager;

// An interactive transaction: positional updates against a snapshot, with
// read-your-writes views, validated optimistically at commit (paper Sec.
// I-B: "optimistic PDT-based concurrency control").
class Transaction {
 public:
  uint64_t id() const { return id_; }

  Status Insert(const std::string& table, uint64_t rid, std::vector<Value> row);
  // Insert at the end of the visible table.
  Status Append(const std::string& table, std::vector<Value> row);
  Status Delete(const std::string& table, uint64_t rid);
  Status Modify(const std::string& table, uint64_t rid, uint32_t col, Value v);

  // Snapshot including this transaction's own uncommitted writes.
  Result<TableSnapshot> GetView(const std::string& table);

 private:
  friend class TransactionManager;

  struct PerTable {
    uint64_t snapshot_version = 0;
    std::shared_ptr<TableFile> stable;
    std::shared_ptr<const Pdt> snapshot_pdt;  // may be null
    std::shared_ptr<Pdt> view;                // snapshot clone + own ops
    std::vector<PdtLogOp> ops;
    std::vector<uint64_t> touched_sids;  // stable rows deleted/modified
    bool touched_delta = false;          // modified rows born in deltas
    uint64_t visible_rows = 0;
  };

  explicit Transaction(TransactionManager* mgr, uint64_t id)
      : mgr_(mgr), id_(id) {}

  Result<PerTable*> Touch(const std::string& table);

  TransactionManager* mgr_;
  uint64_t id_;
  bool finished_ = false;
  std::map<std::string, PerTable> tables_;
};

// Owns the catalog, table versions, committed PDTs, the WAL and commit
// validation. One instance per database directory.
class TransactionManager {
 public:
  // Opens (or initializes) the database in `dir`, replaying the WAL.
  static Result<std::unique_ptr<TransactionManager>> Open(
      const std::string& dir, const Config& config, IoDevice* device,
      BufferManager* buffers);

  ~TransactionManager();

  // Creates an empty table: publishes version 0 (see WriteVersions and
  // InstallVersionsLocked). The table becomes visible at the commit point.
  Status CreateTable(const TableSchema& schema, const ColumnGroups& groups)
      VWISE_EXCLUDES(publish_mu_, mu_);

  // Bulk-loads the next version of `table` by streaming rows into the
  // provided writer callback. Only valid while the table is empty. On error
  // nothing is published: the table stays empty, also after reopen.
  Status BulkLoad(const std::string& table,
                  const std::function<Status(TableWriter*)>& fill)
      VWISE_EXCLUDES(publish_mu_, mu_);

  bool HasTable(const std::string& name) const VWISE_EXCLUDES(mu_);
  const TableSchema* GetSchema(const std::string& name) const
      VWISE_EXCLUDES(mu_);
  std::vector<std::string> TableNames() const VWISE_EXCLUDES(mu_);

  // Latest committed snapshot (auto-commit reads).
  Result<TableSnapshot> GetSnapshot(const std::string& table) const
      VWISE_EXCLUDES(mu_);

  std::unique_ptr<Transaction> Begin() VWISE_EXCLUDES(mu_);
  // Validates and applies the transaction. On kTransactionConflict the
  // transaction is rolled back and may be retried by the caller; that
  // includes a transaction that wrote a table a checkpoint republished after
  // the transaction's snapshot of it. Waits for a running checkpoint.
  Status Commit(Transaction* txn) VWISE_EXCLUDES(publish_mu_, mu_);
  void Abort(Transaction* txn) VWISE_EXCLUDES(mu_);

  // Publishes, for every table with committed deltas, a new version holding
  // the scan's merge of stable image and deltas, at a bumped WAL epoch; then
  // drops the merged PDTs and truncates the WAL (ckpt.begin, ckpt.reset and
  // ckpt.done bracket the publish). A crash before the catalog commit point
  // recovers from the old catalog + full WAL replay; a crash after it
  // recovers from the new catalog, skipping the WAL's old-epoch records,
  // whose deltas the new files already contain. Readers are not blocked
  // while the new versions are written; commits wait for the checkpoint.
  Status Checkpoint() VWISE_EXCLUDES(publish_mu_, mu_);

  const Config& config() const { return config_; }
  IoDevice* device() { return device_; }
  BufferManager* buffers() { return buffers_; }

  // Counters for benches/tests. Locked: concurrent sessions commit while
  // benches read these (the unlocked originals were a data race the
  // thread-safety annotation sweep flushed out).
  uint64_t commits() const VWISE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return n_commits_;
  }
  uint64_t aborts() const VWISE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return n_aborts_;
  }

 private:
  friend class Transaction;

  struct CommitEntry {
    uint64_t version;
    std::vector<uint64_t> touched_sids;  // sorted
    bool touched_delta;
  };

  struct TableState {
    TableSchema schema;
    ColumnGroups groups;
    uint64_t file_version = 0;  // version number in the file name
    std::shared_ptr<TableFile> stable;
    std::shared_ptr<const Pdt> committed;  // may be null (empty)
    uint64_t commit_version = 0;
    std::vector<CommitEntry> commit_log;  // since last checkpoint
  };

  TransactionManager(std::string dir, const Config& config, IoDevice* device,
                     BufferManager* buffers)
      : dir_(std::move(dir)), config_(config), device_(device),
        buffers_(buffers) {}

  std::string TableFilePath(const std::string& name, uint64_t version) const;
  std::string CatalogPath() const;
  std::string WalPath() const;

  Status SaveCatalogLocked() VWISE_REQUIRES(mu_);
  Status LoadCatalogLocked() VWISE_REQUIRES(mu_);
  Status RecoverLocked() VWISE_REQUIRES(mu_);
  Status OpenTableFileLocked(TableState* st) VWISE_REQUIRES(mu_);

  // One new table version: `fill` streams its rows into the writer.
  struct PublishJob {
    TableState* st;
    std::function<Status(TableWriter*)> fill;
  };
  // The version a job publishes: 0 for a table without an open file, else
  // N+1.
  static uint64_t NextFileVersion(const TableState& st) {
    return st.stable ? st.file_version + 1 : 0;
  }
  // The one crash-safe publication protocol for new table versions (create,
  // bulk load, checkpoint), in two calls. Each phase keeps its failpoint
  // site:
  //   1. ckpt.table    WriteVersions: write every `<table>.v<N>.tmp`, synced
  //                    by Finish
  //   2. ckpt.rename   InstallVersionsLocked: rename the temps into place,
  //                    fsync the dir, open the new files — nothing after the
  //                    commit point can fail
  //   3. ckpt.publish  save the catalog with the new versions and `epoch`
  //                    (itself tmp+rename): the single atomic commit point
  //   4.               swap in the new files, unlink the old versions
  // An error before 3 unlinks the new files and changes nothing; a crash
  // before 3 leaves them to CleanStaleFilesLocked on reopen.
  //
  // Phase 1 is the expensive part and runs without mu_, so readers keep
  // using the current versions meanwhile. It uses the jobs' TableStates
  // without mu_: publish_mu_, held by every writer of a TableState
  // (CreateTable, BulkLoad, Checkpoint, Commit), keeps them unchanged.
  Status WriteVersions(const std::vector<PublishJob>& jobs)
      VWISE_REQUIRES(publish_mu_) VWISE_EXCLUDES(mu_);
  Status InstallVersionsLocked(const std::vector<PublishJob>& jobs,
                               uint64_t epoch)
      VWISE_REQUIRES(publish_mu_, mu_);
  // Removes *.tmp litter and version files the catalog doesn't reference —
  // what a crash mid-checkpoint/bulk-load leaves behind.
  Status CleanStaleFilesLocked() VWISE_REQUIRES(mu_);

  std::string dir_;
  Config config_;
  IoDevice* device_;
  BufferManager* buffers_;

  // Serializes the publishers and committers; always taken before mu_.
  Mutex publish_mu_ VWISE_ACQUIRED_BEFORE(mu_);
  // Guards the catalog state below; readers take only this one.
  mutable Mutex mu_;
  std::unique_ptr<Wal> wal_ VWISE_GUARDED_BY(mu_);
  std::map<std::string, TableState> tables_ VWISE_GUARDED_BY(mu_);
  // Checkpoint epoch, persisted in the catalog and stamped into every WAL
  // record; recovery skips records older than the catalog's epoch.
  uint64_t wal_epoch_ VWISE_GUARDED_BY(mu_) = 0;
  uint64_t next_txn_id_ VWISE_GUARDED_BY(mu_) = 1;
  uint64_t next_commit_version_ VWISE_GUARDED_BY(mu_) = 1;
  uint64_t n_commits_ VWISE_GUARDED_BY(mu_) = 0;
  uint64_t n_aborts_ VWISE_GUARDED_BY(mu_) = 0;
};

}  // namespace vwise

#endif  // VWISE_TXN_TRANSACTION_MANAGER_H_
