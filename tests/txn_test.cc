#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "txn/transaction_manager.h"
#include "stripe_decode.h"

namespace vwise {
namespace {

using Row = std::vector<Value>;

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vwise_txn_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    config_.stripe_rows = 64;
    device_ = std::make_unique<IoDevice>(config_);
    buffers_ = std::make_unique<BufferManager>(config_.buffer_pool_bytes);
    ReopenManager();
  }
  void TearDown() override {
    mgr_.reset();
    std::filesystem::remove_all(dir_);
  }

  void ReopenManager() {
    mgr_.reset();
    buffers_->EvictAll();
    auto mgr = TransactionManager::Open(dir_, config_, device_.get(), buffers_.get());
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    mgr_ = std::move(*mgr);
  }

  // Creates an accounts-shaped table; n == 0 leaves the empty version 0.
  void CreateAccounts(int64_t n, const std::string& name = "accounts") {
    TableSchema schema(name, {ColumnDef("id", DataType::Int64()),
                              ColumnDef("balance", DataType::Int64()),
                              ColumnDef("owner", DataType::Varchar())});
    ASSERT_TRUE(mgr_->CreateTable(schema, ColumnGroups::Dsm(3)).ok());
    if (n == 0) return;
    ASSERT_TRUE(mgr_
                    ->BulkLoad(name,
                               [&](TableWriter* w) -> Status {
                                 for (int64_t i = 0; i < n; i++) {
                                   std::string owner = "u";
                                   owner += std::to_string(i);
                                   VWISE_RETURN_IF_ERROR(w->AppendRow(
                                       {Value::Int(i), Value::Int(100),
                                        Value::String(owner)}));
                                 }
                                 return Status::OK();
                               })
                    .ok());
  }

  // Materializes the visible table of a snapshot through the merge scanner.
  std::vector<Row> VisibleRows(const TableSnapshot& snap) {
    std::vector<Row> out;
    size_t n_cols = snap.schema->num_columns();
    Pdt empty;
    const Pdt* pdt = snap.deltas ? snap.deltas.get() : &empty;
    Pdt::MergeScanner scanner(*pdt, snap.stable->row_count());
    Pdt::MergeEvent ev;
    std::vector<Vector> cols(n_cols);
    size_t cur_stripe = SIZE_MAX;
    auto stable_row = [&](uint64_t sid) {
      size_t stripe = 0;
      while (stripe + 1 < snap.stable->stripe_count() &&
             snap.stable->stripe_first_row(stripe + 1) <= sid) {
        stripe++;
      }
      if (stripe != cur_stripe) {
        for (size_t c = 0; c < n_cols; c++) {
          EXPECT_TRUE(test::DecodeStripeColumn(snap.stable.get(), stripe,
                                               static_cast<uint32_t>(c), &cols[c])
                          .ok());
        }
        cur_stripe = stripe;
      }
      size_t local = sid - snap.stable->stripe_first_row(stripe);
      Row row;
      for (size_t c = 0; c < n_cols; c++) {
        switch (cols[c].type()) {
          case TypeId::kI64:
            row.push_back(Value::Int(cols[c].Data<int64_t>()[local]));
            break;
          case TypeId::kStr:
            row.push_back(Value::String(cols[c].Data<StringVal>()[local].ToString()));
            break;
          default:
            row.push_back(Value::Null());
        }
      }
      return row;
    };
    while (scanner.Next(&ev, 1024)) {
      switch (ev.kind) {
        case Pdt::MergeEvent::kStableRun:
          for (uint64_t i = 0; i < ev.count; i++) out.push_back(stable_row(ev.sid + i));
          break;
        case Pdt::MergeEvent::kModifiedRow: {
          Row r = stable_row(ev.sid);
          for (const auto& [col, v] : ev.rec->mods) r[col] = v;
          out.push_back(std::move(r));
          break;
        }
        case Pdt::MergeEvent::kDeletedRow:
          break;
        case Pdt::MergeEvent::kInsertedRow:
          out.push_back(ev.rec->row);
          break;
      }
    }
    return out;
  }

  Config config_;
  std::string dir_;
  std::unique_ptr<IoDevice> device_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<TransactionManager> mgr_;
};

TEST_F(TxnTest, CreateAndSnapshot) {
  CreateAccounts(10);
  auto snap = mgr_->GetSnapshot("accounts");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->visible_rows(), 10u);
  EXPECT_EQ(VisibleRows(*snap).size(), 10u);
}

TEST_F(TxnTest, CommitPublishesWrites) {
  CreateAccounts(5);
  auto txn = mgr_->Begin();
  ASSERT_TRUE(txn->Modify("accounts", 2, 1, Value::Int(250)).ok());
  ASSERT_TRUE(txn->Append("accounts", {Value::Int(5), Value::Int(7), Value::String("new")}).ok());
  ASSERT_TRUE(txn->Delete("accounts", 0).ok());
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());

  auto snap = mgr_->GetSnapshot("accounts");
  auto rows = VisibleRows(*snap);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][0].AsInt(), 1);      // id 0 deleted
  EXPECT_EQ(rows[1][1].AsInt(), 250);    // id 2 modified
  EXPECT_EQ(rows[4][2].AsString(), "new");
}

TEST_F(TxnTest, SnapshotIsolation) {
  CreateAccounts(4);
  auto reader = mgr_->Begin();
  auto view_before = reader->GetView("accounts");
  ASSERT_TRUE(view_before.ok());

  auto writer = mgr_->Begin();
  ASSERT_TRUE(writer->Modify("accounts", 1, 1, Value::Int(999)).ok());
  ASSERT_TRUE(mgr_->Commit(writer.get()).ok());

  // The reader's view must still see the old balance.
  auto rows = VisibleRows(*view_before);
  EXPECT_EQ(rows[1][1].AsInt(), 100);
  // A fresh snapshot sees the new one.
  auto fresh = mgr_->GetSnapshot("accounts");
  EXPECT_EQ(VisibleRows(*fresh)[1][1].AsInt(), 999);
}

TEST_F(TxnTest, ReadYourOwnWrites) {
  CreateAccounts(3);
  auto txn = mgr_->Begin();
  ASSERT_TRUE(txn->Modify("accounts", 0, 1, Value::Int(1)).ok());
  auto view = txn->GetView("accounts");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(VisibleRows(*view)[0][1].AsInt(), 1);
  // Not visible to others before commit.
  auto other = mgr_->GetSnapshot("accounts");
  EXPECT_EQ(VisibleRows(*other)[0][1].AsInt(), 100);
  mgr_->Abort(txn.get());
}

TEST_F(TxnTest, WriteWriteConflictAborts) {
  CreateAccounts(4);
  auto t1 = mgr_->Begin();
  auto t2 = mgr_->Begin();
  ASSERT_TRUE(t1->Modify("accounts", 2, 1, Value::Int(10)).ok());
  ASSERT_TRUE(t2->Modify("accounts", 2, 1, Value::Int(20)).ok());
  ASSERT_TRUE(mgr_->Commit(t1.get()).ok());
  Status s = mgr_->Commit(t2.get());
  EXPECT_TRUE(s.IsConflict()) << s.ToString();
  EXPECT_EQ(mgr_->aborts(), 1u);
  auto snap = mgr_->GetSnapshot("accounts");
  EXPECT_EQ(VisibleRows(*snap)[2][1].AsInt(), 10);  // first committer wins
}

TEST_F(TxnTest, DisjointConcurrentCommitsBothApply) {
  CreateAccounts(6);
  auto t1 = mgr_->Begin();
  auto t2 = mgr_->Begin();
  ASSERT_TRUE(t1->Modify("accounts", 1, 1, Value::Int(11)).ok());
  ASSERT_TRUE(t2->Modify("accounts", 4, 1, Value::Int(44)).ok());
  ASSERT_TRUE(t2->Delete("accounts", 5).ok());
  ASSERT_TRUE(mgr_->Commit(t1.get()).ok());
  ASSERT_TRUE(mgr_->Commit(t2.get()).ok()) << "disjoint rows must not conflict";
  auto rows = VisibleRows(*mgr_->GetSnapshot("accounts"));
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[1][1].AsInt(), 11);
  EXPECT_EQ(rows[4][1].AsInt(), 44);
}

// Regression: commits() / aborts() used to read their counters without
// taking mu_, racing with the counter increments inside Commit(). The reads
// are now locked (TransactionManager::commits/aborts take a MutexLock);
// under TSan the old code makes this test fail.
TEST_F(TxnTest, CommitCounterReadsDoNotRaceWithCommits) {
  constexpr int kWriters = 4;
  constexpr int kCommitsEach = 25;
  CreateAccounts(kWriters * kCommitsEach);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t now = mgr_->commits() + mgr_->aborts();
      EXPECT_GE(now, last);  // monotonic under concurrent committers
      last = now;
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kCommitsEach; i++) {
        auto txn = mgr_->Begin();
        // Disjoint row ranges: every commit must succeed.
        int64_t row = w * kCommitsEach + i;
        ASSERT_TRUE(txn->Modify("accounts", row, 1, Value::Int(row)).ok());
        ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(mgr_->commits(), static_cast<uint64_t>(kWriters) * kCommitsEach);
  EXPECT_EQ(mgr_->aborts(), 0u);
}

TEST_F(TxnTest, ConcurrentAppendsBothSurvive) {
  CreateAccounts(2);
  auto t1 = mgr_->Begin();
  auto t2 = mgr_->Begin();
  ASSERT_TRUE(t1->Append("accounts", {Value::Int(10), Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(t2->Append("accounts", {Value::Int(20), Value::Int(2), Value::String("b")}).ok());
  ASSERT_TRUE(mgr_->Commit(t1.get()).ok());
  ASSERT_TRUE(mgr_->Commit(t2.get()).ok());
  auto rows = VisibleRows(*mgr_->GetSnapshot("accounts"));
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[2][0].AsInt(), 10);
  EXPECT_EQ(rows[3][0].AsInt(), 20);
}

TEST_F(TxnTest, DeleteShiftsConcurrentModifyExactly) {
  CreateAccounts(6);
  auto t1 = mgr_->Begin();
  auto t2 = mgr_->Begin();
  // t1 deletes row 0; t2 modifies visible row 3 (stable sid 3).
  ASSERT_TRUE(t1->Delete("accounts", 0).ok());
  ASSERT_TRUE(t2->Modify("accounts", 3, 1, Value::Int(33)).ok());
  ASSERT_TRUE(mgr_->Commit(t1.get()).ok());
  ASSERT_TRUE(mgr_->Commit(t2.get()).ok());
  auto rows = VisibleRows(*mgr_->GetSnapshot("accounts"));
  ASSERT_EQ(rows.size(), 5u);
  // Stable row id=3 must carry the modification despite the shift.
  EXPECT_EQ(rows[2][0].AsInt(), 3);
  EXPECT_EQ(rows[2][1].AsInt(), 33);
}

TEST_F(TxnTest, WalRecoveryReplaysCommits) {
  CreateAccounts(4);
  auto txn = mgr_->Begin();
  ASSERT_TRUE(txn->Modify("accounts", 1, 1, Value::Int(777)).ok());
  ASSERT_TRUE(txn->Append("accounts", {Value::Int(9), Value::Int(9), Value::String("r")}).ok());
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());

  // "Crash": reopen without checkpoint. WAL must restore the deltas.
  ReopenManager();
  auto rows = VisibleRows(*mgr_->GetSnapshot("accounts"));
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[1][1].AsInt(), 777);
  EXPECT_EQ(rows[4][2].AsString(), "r");
}

TEST_F(TxnTest, TornWalTailIgnored) {
  CreateAccounts(3);
  auto t1 = mgr_->Begin();
  ASSERT_TRUE(t1->Modify("accounts", 0, 1, Value::Int(5)).ok());
  ASSERT_TRUE(mgr_->Commit(t1.get()).ok());
  auto t2 = mgr_->Begin();
  ASSERT_TRUE(t2->Modify("accounts", 1, 1, Value::Int(6)).ok());
  ASSERT_TRUE(mgr_->Commit(t2.get()).ok());
  mgr_.reset();

  // Tear the last record: truncate a few bytes off the WAL.
  std::string wal = dir_ + "/wal.log";
  auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 5);

  ReopenManager();
  auto rows = VisibleRows(*mgr_->GetSnapshot("accounts"));
  EXPECT_EQ(rows[0][1].AsInt(), 5);    // first commit survived
  EXPECT_EQ(rows[1][1].AsInt(), 100);  // torn second commit rolled back
}

TEST_F(TxnTest, CheckpointMergesAndSurvivesReopen) {
  CreateAccounts(100);
  auto txn = mgr_->Begin();
  // Modify id 50 first, then delete id 10 (order matters: positions shift).
  ASSERT_TRUE(txn->Modify("accounts", 50, 1, Value::Int(5000)).ok());
  ASSERT_TRUE(txn->Delete("accounts", 10).ok());
  ASSERT_TRUE(txn->Append("accounts", {Value::Int(100), Value::Int(1), Value::String("z")}).ok());
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  ASSERT_TRUE(mgr_->Checkpoint().ok());

  // After checkpoint the PDT is empty and the file carries the merge.
  auto snap = mgr_->GetSnapshot("accounts");
  EXPECT_TRUE(snap->deltas == nullptr || snap->deltas->empty());
  EXPECT_EQ(snap->stable->row_count(), 100u);

  ReopenManager();
  auto rows = VisibleRows(*mgr_->GetSnapshot("accounts"));
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[10][0].AsInt(), 11);  // row 10 gone
  // Row with id 50 now at index 49.
  EXPECT_EQ(rows[49][0].AsInt(), 50);
  EXPECT_EQ(rows[49][1].AsInt(), 5000);
  EXPECT_EQ(rows[99][2].AsString(), "z");

  // Seeded random commits over every merge case (stripes of 64 rows): a
  // deleted whole stripe, inserts mid-table and at the end, int and string
  // modifies, random deletes and the deleted last row. Two edge tables ride
  // along in the same checkpoint: an empty stable image with only inserts,
  // and a table with every row deleted.
  CreateAccounts(0, "inserts_only");
  CreateAccounts(70, "all_deleted");
  {
    auto txn = mgr_->Begin();
    for (int i = 0; i < 64; i++) ASSERT_TRUE(txn->Delete("accounts", 0).ok());
    for (int i = 0; i < 70; i++) ASSERT_TRUE(txn->Delete("all_deleted", 0).ok());
    ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  }
  Rng rng(14);
  uint64_t n = 36;  // visible rows of "accounts"
  uint64_t n_inserts_only = 0;
  for (int round = 0; round < 40; round++) {
    auto txn = mgr_->Begin();
    for (int op = 0; op < 5; op++) {
      int64_t v = static_cast<int64_t>(rng.Next() % 100000);
      Row row = {Value::Int(1000 + v), Value::Int(v),
                 Value::String("r" + std::to_string(v))};
      switch (rng.Next() % 5) {
        case 0:
          ASSERT_TRUE(txn->Insert("accounts", rng.Next() % (n + 1), row).ok());
          n++;
          break;
        case 1:
          ASSERT_TRUE(txn->Append("accounts", row).ok());
          n++;
          break;
        case 2:
          ASSERT_TRUE(txn->Modify("accounts", rng.Next() % n, 1, row[1]).ok());
          break;
        case 3:
          ASSERT_TRUE(txn->Modify("accounts", rng.Next() % n, 2, row[2]).ok());
          break;
        case 4:
          ASSERT_TRUE(txn->Delete("accounts", rng.Next() % n).ok());
          n--;
          break;
      }
    }
    Row row = {Value::Int(round), Value::Int(round),
               Value::String("i" + std::to_string(round))};
    ASSERT_TRUE(txn->Insert("inserts_only", rng.Next() % (n_inserts_only + 1),
                            row)
                    .ok());
    n_inserts_only++;
    ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  }
  {
    auto txn = mgr_->Begin();
    ASSERT_TRUE(txn->Delete("accounts", n - 1).ok());
    ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  }

  const char* tables[] = {"accounts", "inserts_only", "all_deleted"};
  std::vector<std::vector<Row>> before;
  for (const char* t : tables) {
    before.push_back(VisibleRows(*mgr_->GetSnapshot(t)));
  }
  EXPECT_EQ(before[0].size(), n - 1);
  EXPECT_EQ(before[1].size(), n_inserts_only);
  EXPECT_TRUE(before[2].empty());
  ASSERT_TRUE(mgr_->Checkpoint().ok());
  for (size_t i = 0; i < 3; i++) {
    SCOPED_TRACE(tables[i]);
    auto snap = mgr_->GetSnapshot(tables[i]);
    EXPECT_TRUE(snap->deltas == nullptr || snap->deltas->empty());
    EXPECT_EQ(VisibleRows(*snap), before[i]);
  }
  ReopenManager();
  for (size_t i = 0; i < 3; i++) {
    SCOPED_TRACE(tables[i]);
    EXPECT_EQ(VisibleRows(*mgr_->GetSnapshot(tables[i])), before[i]);
  }
}

// Regression: a checkpoint between a transaction's snapshot and its commit
// cleared the commit log the validation reads, so a write to a row another
// transaction had changed since the snapshot committed unchecked (a lost
// update).
TEST_F(TxnTest, CheckpointSinceSnapshotConflictsOnSameRow) {
  CreateAccounts(6);
  auto t1 = mgr_->Begin();
  ASSERT_TRUE(t1->GetView("accounts").ok());  // t1's snapshot
  auto t2 = mgr_->Begin();
  ASSERT_TRUE(t2->Modify("accounts", 2, 1, Value::Int(20)).ok());
  ASSERT_TRUE(mgr_->Commit(t2.get()).ok());
  ASSERT_TRUE(mgr_->Checkpoint().ok());
  ASSERT_TRUE(t1->Modify("accounts", 2, 1, Value::Int(10)).ok());
  Status s = mgr_->Commit(t1.get());
  EXPECT_TRUE(s.IsConflict()) << s.ToString();
  EXPECT_EQ(VisibleRows(*mgr_->GetSnapshot("accounts"))[2][1].AsInt(), 20);
}

// Regression: the commit rebased the stable row ids of the transaction's
// snapshot onto the checkpoint's new image, where they name other rows: the
// write meant for id 5 landed on id 6.
TEST_F(TxnTest, CheckpointSinceSnapshotConflictsOnShiftedRows) {
  CreateAccounts(8);
  auto t1 = mgr_->Begin();
  ASSERT_TRUE(t1->GetView("accounts").ok());  // t1's snapshot
  auto t2 = mgr_->Begin();
  ASSERT_TRUE(t2->Delete("accounts", 0).ok());
  ASSERT_TRUE(mgr_->Commit(t2.get()).ok());
  ASSERT_TRUE(mgr_->Checkpoint().ok());
  auto t3 = mgr_->Begin();
  ASSERT_TRUE(t3->Modify("accounts", 0, 1, Value::Int(1)).ok());
  ASSERT_TRUE(mgr_->Commit(t3.get()).ok());
  ASSERT_TRUE(t1->Modify("accounts", 5, 1, Value::Int(555)).ok());  // id 5
  Status s = mgr_->Commit(t1.get());
  EXPECT_TRUE(s.IsConflict()) << s.ToString();
  auto rows = VisibleRows(*mgr_->GetSnapshot("accounts"));
  ASSERT_EQ(rows.size(), 7u);
  for (const Row& row : rows) {
    if (row[0].AsInt() == 1) continue;  // t3's row
    EXPECT_EQ(row[1].AsInt(), 100) << "id " << row[0].AsInt();
  }
}

// A checkpoint writes its new versions without the manager's mutex. Held in
// that phase by a ckpt.table delay, it lets another thread's snapshot and
// full scan finish first, on the pre-checkpoint rows, while a commit
// started meanwhile waits for it and then lands on top of the new version.
// (The commit writes a second table the checkpoint leaves alone: its
// snapshot predates the checkpoint, so a write to "accounts" would
// conflict.)
TEST_F(TxnTest, CheckpointDoesNotBlockReaders) {
  CreateAccounts(300);
  CreateAccounts(10, "ledger");
  {
    auto txn = mgr_->Begin();
    ASSERT_TRUE(txn->Modify("accounts", 70, 1, Value::Int(7000)).ok());
    ASSERT_TRUE(txn->Delete("accounts", 3).ok());
    ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  }
  auto pre = mgr_->GetSnapshot("accounts");
  ASSERT_TRUE(pre.ok());
  const std::vector<Row> pre_rows = VisibleRows(*pre);

  ASSERT_TRUE(failpoint::Arm("ckpt.table=delay:1500000").ok());
  std::atomic<bool> ckpt_done{false};
  Status ckpt_status;
  std::thread checkpointer([&] {
    ckpt_status = mgr_->Checkpoint();
    ckpt_done = true;
  });
  while (failpoint::Hits("ckpt.table") == 0) std::this_thread::yield();

  std::atomic<bool> commit_done{false};
  Status commit_status;
  std::thread committer([&] {
    auto txn = mgr_->Begin();
    commit_status = txn->Modify("ledger", 4, 1, Value::Int(44));
    if (commit_status.ok()) commit_status = mgr_->Commit(txn.get());
    commit_done = true;
  });

  // No ASSERT until both threads are joined.
  auto during = mgr_->GetSnapshot("accounts");
  EXPECT_EQ(during->stable, pre->stable);
  EXPECT_EQ(VisibleRows(*during), pre_rows);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(ckpt_done) << "the reader waited for the checkpoint";
  EXPECT_FALSE(commit_done) << "the commit did not wait for the checkpoint";

  checkpointer.join();
  committer.join();
  failpoint::DisarmAll();
  ASSERT_TRUE(ckpt_status.ok()) << ckpt_status.ToString();
  ASSERT_TRUE(commit_status.ok()) << commit_status.ToString();
  auto after = mgr_->GetSnapshot("accounts");
  EXPECT_NE(after->stable, pre->stable);
  EXPECT_TRUE(after->deltas == nullptr || after->deltas->empty());
  EXPECT_EQ(VisibleRows(*after), pre_rows);
  EXPECT_EQ(VisibleRows(*mgr_->GetSnapshot("ledger"))[4][1].AsInt(), 44);
  EXPECT_EQ(VisibleRows(*during), pre_rows);  // the old version lives on

  // The commit's WAL record carries the new epoch, so it survives the reset
  // the checkpoint made before it.
  ReopenManager();
  EXPECT_EQ(VisibleRows(*mgr_->GetSnapshot("accounts")), pre_rows);
  EXPECT_EQ(VisibleRows(*mgr_->GetSnapshot("ledger"))[4][1].AsInt(), 44);
}

// A version a checkpoint superseded leaves the buffer pool with its last
// reader: none of its blobs can hit again.
TEST_F(TxnTest, SupersededVersionLeavesBufferPool) {
  CreateAccounts(300);
  {
    auto txn = mgr_->Begin();
    ASSERT_TRUE(txn->Modify("accounts", 5, 1, Value::Int(5)).ok());
    ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  }
  {
    auto old_snap = mgr_->GetSnapshot("accounts");
    EXPECT_EQ(VisibleRows(*old_snap).size(), 300u);  // caches the old version
    ASSERT_TRUE(mgr_->Checkpoint().ok());
  }
  auto rows = VisibleRows(*mgr_->GetSnapshot("accounts"));
  size_t cached = buffers_->bytes_cached();
  EXPECT_GT(cached, 0u);
  buffers_->EvictAll();
  EXPECT_EQ(buffers_->bytes_cached(), 0u);
  EXPECT_EQ(VisibleRows(*mgr_->GetSnapshot("accounts")), rows);
  EXPECT_EQ(buffers_->bytes_cached(), cached) << "only the new version";
}

TEST_F(TxnTest, CatalogPersistsSchemas) {
  CreateAccounts(3);
  ReopenManager();
  ASSERT_TRUE(mgr_->HasTable("accounts"));
  const TableSchema* schema = mgr_->GetSchema("accounts");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->num_columns(), 3u);
  EXPECT_EQ(schema->column(1).name, "balance");
}

TEST_F(TxnTest, ReadOnlyTxnAlwaysCommits) {
  CreateAccounts(2);
  auto t1 = mgr_->Begin();
  (void)t1->GetView("accounts");
  auto t2 = mgr_->Begin();
  ASSERT_TRUE(t2->Modify("accounts", 0, 1, Value::Int(1)).ok());
  ASSERT_TRUE(mgr_->Commit(t2.get()).ok());
  EXPECT_TRUE(mgr_->Commit(t1.get()).ok());
}

TEST_F(TxnTest, BulkLoadRequiresEmptyTable) {
  CreateAccounts(2);
  Status s = mgr_->BulkLoad("accounts", [](TableWriter*) { return Status::OK(); });
  EXPECT_FALSE(s.ok());
}

TEST_F(TxnTest, UnknownTableErrors) {
  EXPECT_FALSE(mgr_->GetSnapshot("ghost").ok());
  auto txn = mgr_->Begin();
  EXPECT_FALSE(txn->Delete("ghost", 0).ok());
  mgr_->Abort(txn.get());
}

}  // namespace
}  // namespace vwise
