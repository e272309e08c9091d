#include <filesystem>

#include "api/database.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/scan.h"
#include "exec/select.h"
#include "exec/sort.h"
#include "exec/xchg.h"
#include "gtest/gtest.h"
#include "service/worker_pool.h"

namespace vwise {
namespace {

// Edge-case and failure-injection coverage for the execution layer.
class ExecEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vwise_edge_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    config_.stripe_rows = 64;
    config_.vector_size = 32;
    auto db = Database::Open(dir_, config_);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    TableSchema t("t", {ColumnDef("k", DataType::Int64()),
                        ColumnDef("s", DataType::Varchar())});
    ASSERT_TRUE(db_->CreateTable(t).ok());
    ASSERT_TRUE(db_->BulkLoad("t", [](TableWriter* w) -> Status {
      for (int64_t i = 0; i < 300; i++) {
        VWISE_RETURN_IF_ERROR(w->AppendRow(
            {Value::Int(i % 5), Value::String(std::string("s") + std::to_string(i % 3))}));
      }
      return Status::OK();
    }).ok());
    TableSchema empty("empty", {ColumnDef("k", DataType::Int64())});
    ASSERT_TRUE(db_->CreateTable(empty).ok());
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  OperatorPtr ScanT(std::vector<uint32_t> cols) {
    auto snap = db_->Internals().tm->GetSnapshot("t");
    EXPECT_TRUE(snap.ok());
    return std::make_unique<ScanOperator>(*snap, std::move(cols), config_);
  }
  OperatorPtr ScanEmpty() {
    auto snap = db_->Internals().tm->GetSnapshot("empty");
    EXPECT_TRUE(snap.ok());
    return std::make_unique<ScanOperator>(*snap, std::vector<uint32_t>{0}, config_);
  }

  size_t Count(Operator* op) {
    auto r = CollectRows(op, config_.vector_size);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows.size();
  }

  Config config_;
  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(ExecEdgeTest, ScanEmptyTable) {
  auto scan = ScanEmpty();
  EXPECT_EQ(Count(scan.get()), 0u);
}

TEST_F(ExecEdgeTest, EmptyTableWithOnlyInsertedRows) {
  auto txn = db_->Begin();
  ASSERT_TRUE(txn->Append("empty", {Value::Int(1)}).ok());
  ASSERT_TRUE(txn->Append("empty", {Value::Int(2)}).ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  auto scan = ScanEmpty();
  EXPECT_EQ(Count(scan.get()), 2u);
}

TEST_F(ExecEdgeTest, JoinWithEmptyBuildSide) {
  HashJoinOperator::Spec inner;
  inner.type = JoinType::kInner;
  inner.probe_keys = {0};
  inner.build_keys = {0};
  HashJoinOperator join(ScanT({0}), ScanEmpty(), std::move(inner), config_);
  EXPECT_EQ(Count(&join), 0u);

  HashJoinOperator::Spec anti;
  anti.type = JoinType::kLeftAnti;
  anti.probe_keys = {0};
  anti.build_keys = {0};
  HashJoinOperator join2(ScanT({0}), ScanEmpty(), std::move(anti), config_);
  EXPECT_EQ(Count(&join2), 300u);  // nothing matches: everything survives anti
}

TEST_F(ExecEdgeTest, JoinWithEmptyProbeSide) {
  HashJoinOperator::Spec spec;
  spec.type = JoinType::kInner;
  spec.probe_keys = {0};
  spec.build_keys = {0};
  HashJoinOperator join(ScanEmpty(), ScanT({0}), std::move(spec), config_);
  EXPECT_EQ(Count(&join), 0u);
}

TEST_F(ExecEdgeTest, JoinDuplicateKeysExplode) {
  // 300 rows with k in 0..4 joined to itself on k: 5 groups of 60 -> 60*60*5.
  HashJoinOperator::Spec spec;
  spec.type = JoinType::kInner;
  spec.probe_keys = {0};
  spec.build_keys = {0};
  spec.build_payload = {0};
  HashJoinOperator join(ScanT({0}), ScanT({0}), std::move(spec), config_);
  EXPECT_EQ(Count(&join), 5u * 60u * 60u);
}

TEST_F(ExecEdgeTest, LeftOuterAllUnmatched) {
  HashJoinOperator::Spec spec;
  spec.type = JoinType::kLeftOuter;
  spec.probe_keys = {0};
  spec.build_keys = {0};
  spec.build_payload = {0};
  HashJoinOperator join(ScanT({0}), ScanEmpty(), std::move(spec), config_);
  auto r = CollectRows(&join, config_.vector_size);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 300u);
  for (const auto& row : r->rows) {
    EXPECT_EQ(row[2].AsInt(), 0);  // match flag off everywhere
  }
}

TEST_F(ExecEdgeTest, SortEmptyInput) {
  SortOperator sort(ScanEmpty(), {{0, true}}, config_);
  EXPECT_EQ(Count(&sort), 0u);
}

TEST_F(ExecEdgeTest, SortAllEqualKeysIsStable) {
  // Sorting on k (5 distinct) with stable tie-break keeps input order
  // within each key group; verify by checking the string column cycles.
  SortOperator sort(ScanT({0, 1}), {{0, true}}, config_);
  auto r = CollectRows(&sort, config_.vector_size);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 300u);
  for (size_t i = 1; i < r->rows.size(); i++) {
    EXPECT_LE(r->rows[i - 1][0].AsInt(), r->rows[i][0].AsInt());
  }
}

TEST_F(ExecEdgeTest, TopNLargerThanInput) {
  SortOperator sort(ScanT({0}), {{0, true}}, config_, 100000);
  EXPECT_EQ(Count(&sort), 300u);
}

TEST_F(ExecEdgeTest, LimitZero) {
  LimitOperator limit(ScanT({0}), config_, 0);
  EXPECT_EQ(Count(&limit), 0u);
}

TEST_F(ExecEdgeTest, LimitOffsetBeyondEnd) {
  LimitOperator limit(ScanT({0}), config_, 10, 1000);
  EXPECT_EQ(Count(&limit), 0u);
}

TEST_F(ExecEdgeTest, AggManyGroupsForcesRehash) {
  // Group by a computed expression with ~300 distinct values through a
  // table that starts the agg at 1024 slots.
  auto snap = db_->Internals().tm->GetSnapshot("t");
  ASSERT_TRUE(snap.ok());
  // Build a wider table inline: group keys 0..9999.
  TableSchema wide("wide", {ColumnDef("g", DataType::Int64())});
  ASSERT_TRUE(db_->CreateTable(wide).ok());
  ASSERT_TRUE(db_->BulkLoad("wide", [](TableWriter* w) -> Status {
    for (int64_t i = 0; i < 10000; i++) {
      VWISE_RETURN_IF_ERROR(w->AppendRow({Value::Int(i)}));
    }
    return Status::OK();
  }).ok());
  auto wsnap = db_->Internals().tm->GetSnapshot("wide");
  auto scan = std::make_unique<ScanOperator>(*wsnap, std::vector<uint32_t>{0},
                                             config_);
  HashAggOperator agg(std::move(scan), {0}, {AggSpec::CountStar()}, config_);
  EXPECT_EQ(Count(&agg), 10000u);
  EXPECT_EQ(agg.num_groups(), 10000u);
}

TEST_F(ExecEdgeTest, AggStringKeysDeduplicate) {
  auto scan = ScanT({1});
  HashAggOperator agg(std::move(scan), {0}, {AggSpec::CountStar()}, config_);
  auto r = CollectRows(&agg, config_.vector_size);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);
  int64_t total = 0;
  for (const auto& row : r->rows) total += row[1].AsInt();
  EXPECT_EQ(total, 300);
}

// A one-column i64 source whose every Next fails.
struct FailingSource final : Operator {
  const std::vector<TypeId>& OutputTypes() const override { return types; }
  Status OpenImpl() override { return Status::OK(); }
  Status NextImpl(DataChunk*) override { return Status::Internal("injected"); }
  void CloseImpl() override {}
  std::vector<TypeId> types{TypeId::kI64};
};

TEST_F(ExecEdgeTest, XchgPropagatesProducerErrors) {
  std::vector<OperatorPtr> fragments;
  fragments.push_back(std::make_unique<FailingSource>());
  fragments.push_back(std::make_unique<FailingSource>());
  XchgOperator xchg(std::move(fragments), {TypeId::kI64}, config_);
  ASSERT_TRUE(xchg.Open().ok());
  DataChunk chunk;
  chunk.Init(xchg.OutputTypes(), config_.vector_size);
  Status s = xchg.Next(&chunk);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  xchg.Close();
}

// A closed Xchg never touches its pool again, so a plan may be destroyed
// after the pool (the database's) is gone.
TEST_F(ExecEdgeTest, ClosedXchgOutlivesItsPool) {
  auto pool = std::make_unique<WorkerPool>(2);
  Config cfg = config_;
  cfg.worker_pool = pool.get();
  std::vector<OperatorPtr> fragments;
  fragments.push_back(ScanT({0}));
  XchgOperator xchg(std::move(fragments), {TypeId::kI64}, cfg);
  EXPECT_EQ(Count(&xchg), 300u);  // CollectRows closes the tree
  pool.reset();
}

TEST_F(ExecEdgeTest, TinyBufferPoolStillScans) {
  // Re-open with a pool smaller than a single blob: fetches overflow
  // transiently but scans stay correct.
  db_.reset();
  Config cfg = config_;
  cfg.buffer_pool_bytes = 256;
  auto db = Database::Open(dir_, cfg);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  auto snap = db_->Internals().tm->GetSnapshot("t");
  ASSERT_TRUE(snap.ok());
  ScanOperator scan(*snap, {0, 1}, cfg);
  auto r = CollectRows(&scan, cfg.vector_size);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 300u);
  EXPECT_GT(db_->Internals().buffers->stats().evictions, 0u);
}

TEST_F(ExecEdgeTest, SelectAllFilteredThenRefill) {
  // A filter that rejects whole chunks must keep pulling until data or EOS.
  auto scan = ScanT({0});
  SelectOperator select(std::move(scan), e::Eq(e::Col(0, DataType::Int64()),
                                               e::I64(4)),
                        config_);
  EXPECT_EQ(Count(&select), 60u);
}

}  // namespace
}  // namespace vwise
