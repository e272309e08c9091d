#include <bit>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/select.h"
#include "exec/sort.h"
#include "exec/xchg.h"
#include "expr/primitive_profiler.h"
#include "gtest/gtest.h"
#include "txn/transaction_manager.h"

namespace vwise {
namespace {

// End-to-end operator tests over a real stored table: orders(id, cust,
// amount DECIMAL(2), tag).
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vwise_exec_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    config_.stripe_rows = 128;
    config_.vector_size = 64;  // force many chunks and stripe boundaries
    device_ = std::make_unique<IoDevice>(config_);
    buffers_ = std::make_unique<BufferManager>(config_.buffer_pool_bytes);
    auto mgr = TransactionManager::Open(dir_, config_, device_.get(), buffers_.get());
    ASSERT_TRUE(mgr.ok());
    mgr_ = std::move(*mgr);

    TableSchema orders("orders", {ColumnDef("id", DataType::Int64()),
                                  ColumnDef("cust", DataType::Int64()),
                                  ColumnDef("amount", DataType::Decimal(2)),
                                  ColumnDef("tag", DataType::Varchar())});
    ASSERT_TRUE(mgr_->CreateTable(orders, ColumnGroups::Dsm(4)).ok());
    static const char* kTags[] = {"alpha", "beta", "gamma"};
    ASSERT_TRUE(mgr_
                    ->BulkLoad("orders",
                               [&](TableWriter* w) -> Status {
                                 for (int64_t i = 0; i < 1000; i++) {
                                   VWISE_RETURN_IF_ERROR(w->AppendRow(
                                       {Value::Int(i), Value::Int(i % 10),
                                        Value::Int(100 * (i % 7)),  // cents
                                        Value::String(kTags[i % 3])}));
                                 }
                                 return Status::OK();
                               })
                    .ok());

    TableSchema cust("customers", {ColumnDef("cid", DataType::Int64()),
                                   ColumnDef("name", DataType::Varchar())});
    ASSERT_TRUE(mgr_->CreateTable(cust, ColumnGroups::Dsm(2)).ok());
    ASSERT_TRUE(mgr_
                    ->BulkLoad("customers",
                               [&](TableWriter* w) -> Status {
                                 for (int64_t i = 0; i < 7; i++) {  // cust 7,8,9 missing
                                   VWISE_RETURN_IF_ERROR(w->AppendRow(
                                       {Value::Int(i),
                                        Value::String(std::string("c") + std::to_string(i))}));
                                 }
                                 return Status::OK();
                               })
                    .ok());
  }
  void TearDown() override {
    mgr_.reset();
    std::filesystem::remove_all(dir_);
  }

  TableSnapshot Snap(const std::string& t) {
    auto s = mgr_->GetSnapshot(t);
    EXPECT_TRUE(s.ok());
    return *s;
  }

  QueryResult Run(Operator* root) {
    auto r = CollectRows(root, config_.vector_size);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(*r);
  }

  Config config_;
  std::string dir_;
  std::unique_ptr<IoDevice> device_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<TransactionManager> mgr_;
};

TEST_F(ExecTest, ScanAllRows) {
  ScanOperator scan(Snap("orders"), {0, 3}, config_);
  auto result = Run(&scan);
  ASSERT_EQ(result.rows.size(), 1000u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 0);
  EXPECT_EQ(result.rows[999][0].AsInt(), 999);
  EXPECT_EQ(result.rows[4][1].AsString(), "beta");
}

TEST_F(ExecTest, ScanMergesPdtDeltas) {
  auto txn = mgr_->Begin();
  ASSERT_TRUE(txn->Delete("orders", 0).ok());
  ASSERT_TRUE(txn->Modify("orders", 500, 3, Value::String("patched")).ok());
  ASSERT_TRUE(txn->Append("orders", {Value::Int(9999), Value::Int(1),
                                     Value::Int(0), Value::String("tail")}).ok());
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());

  ScanOperator scan(Snap("orders"), {0, 3}, config_);
  auto result = Run(&scan);
  ASSERT_EQ(result.rows.size(), 1000u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 1);  // id 0 deleted
  // Modify(500) hit the row visible at position 500 after the delete,
  // i.e. stable id 501.
  EXPECT_EQ(result.rows[500][0].AsInt(), 501);
  EXPECT_EQ(result.rows[500][1].AsString(), "patched");
  EXPECT_EQ(result.rows[999][0].AsInt(), 9999);
  EXPECT_EQ(result.rows[999][1].AsString(), "tail");
}

TEST_F(ExecTest, MinMaxSkipsStripes) {
  ScanOperator::Options opts;
  opts.ranges.push_back(ScanRange{0, 0, 100});  // id <= 100: first stripe only
  ScanOperator scan(Snap("orders"), {0}, config_, opts);
  auto result = Run(&scan);
  EXPECT_EQ(scan.stripes_read(), 1u);
  EXPECT_EQ(result.rows.size(), 128u);  // stripe granularity, not exact
}

TEST_F(ExecTest, SelectFilters) {
  auto scan = std::make_unique<ScanOperator>(Snap("orders"),
                                             std::vector<uint32_t>{0, 1}, config_);
  SelectOperator select(std::move(scan),
                        e::Lt(e::Col(0, DataType::Int64()), e::I64(10)), config_);
  auto result = Run(&select);
  EXPECT_EQ(result.rows.size(), 10u);
}

TEST_F(ExecTest, SelectOnStrings) {
  auto scan = std::make_unique<ScanOperator>(Snap("orders"),
                                             std::vector<uint32_t>{3}, config_);
  SelectOperator select(std::move(scan),
                        e::Eq(e::Col(0, DataType::Varchar()), e::Str("gamma")),
                        config_);
  auto result = Run(&select);
  EXPECT_EQ(result.rows.size(), 333u);  // i%3==2 for i in [0,1000)
}

TEST_F(ExecTest, ProjectComputes) {
  auto scan = std::make_unique<ScanOperator>(Snap("orders"),
                                             std::vector<uint32_t>{0, 2}, config_);
  std::vector<ExprPtr> exprs;
  exprs.push_back(e::Mul(e::ToF64(e::Col(1, DataType::Decimal(2))), e::F64(2.0)));
  ProjectOperator project(std::move(scan), std::move(exprs), config_);
  auto result = Run(&project);
  ASSERT_EQ(result.rows.size(), 1000u);
  EXPECT_DOUBLE_EQ(result.rows[1][0].AsDouble(), 2.0);   // amount 1.00 * 2
  EXPECT_DOUBLE_EQ(result.rows[6][0].AsDouble(), 12.0);  // amount 6.00 * 2
}

TEST_F(ExecTest, SelectThenProjectPropagatesSelection) {
  auto scan = std::make_unique<ScanOperator>(Snap("orders"),
                                             std::vector<uint32_t>{0}, config_);
  auto select = std::make_unique<SelectOperator>(
      std::move(scan), e::Ge(e::Col(0, DataType::Int64()), e::I64(995)), config_);
  std::vector<ExprPtr> exprs;
  exprs.push_back(e::Add(e::Col(0, DataType::Int64()), e::I64(1)));
  ProjectOperator project(std::move(select), std::move(exprs), config_);
  auto result = Run(&project);
  ASSERT_EQ(result.rows.size(), 5u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 996);
  EXPECT_EQ(result.rows[4][0].AsInt(), 1000);
}

TEST_F(ExecTest, HashAggGrouped) {
  auto scan = std::make_unique<ScanOperator>(Snap("orders"),
                                             std::vector<uint32_t>{1, 2}, config_);
  HashAggOperator agg(std::move(scan), {0},
                      {AggSpec::CountStar(), AggSpec::Sum(1)}, config_);
  auto result = Run(&agg);
  ASSERT_EQ(result.rows.size(), 10u);  // cust 0..9
  int64_t total = 0, count = 0;
  for (const auto& row : result.rows) {
    count += row[1].AsInt();
    total += row[2].AsInt();
  }
  EXPECT_EQ(count, 1000);
  // Sum of 100*(i%7) over i in [0,1000).
  int64_t expect = 0;
  for (int64_t i = 0; i < 1000; i++) expect += 100 * (i % 7);
  EXPECT_EQ(total, expect);
}

TEST_F(ExecTest, HashAggUngroupedOnEmptyInput) {
  auto scan = std::make_unique<ScanOperator>(Snap("orders"),
                                             std::vector<uint32_t>{0}, config_);
  auto select = std::make_unique<SelectOperator>(
      std::move(scan), e::Lt(e::Col(0, DataType::Int64()), e::I64(-1)), config_);
  HashAggOperator agg(std::move(select), {},
                      {AggSpec::CountStar(), AggSpec::Sum(0)}, config_);
  auto result = Run(&agg);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 0);
  EXPECT_EQ(result.rows[0][1].AsInt(), 0);
}

TEST_F(ExecTest, HashAggMinMaxAvg) {
  auto scan = std::make_unique<ScanOperator>(Snap("orders"),
                                             std::vector<uint32_t>{0}, config_);
  HashAggOperator agg(std::move(scan), {},
                      {AggSpec::Min(0), AggSpec::Max(0), AggSpec::Avg(0)}, config_);
  auto result = Run(&agg);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 0);
  EXPECT_EQ(result.rows[0][1].AsInt(), 999);
  EXPECT_DOUBLE_EQ(result.rows[0][2].AsDouble(), 499.5);
}

TEST_F(ExecTest, HashJoinInner) {
  auto orders = std::make_unique<ScanOperator>(Snap("orders"),
                                               std::vector<uint32_t>{0, 1}, config_);
  auto cust = std::make_unique<ScanOperator>(Snap("customers"),
                                             std::vector<uint32_t>{0, 1}, config_);
  HashJoinOperator::Spec spec;
  spec.type = JoinType::kInner;
  spec.probe_keys = {1};           // orders.cust
  spec.build_keys = {0};           // customers.cid
  spec.build_payload = {1};        // customers.name
  HashJoinOperator join(std::move(orders), std::move(cust), std::move(spec), config_);
  auto result = Run(&join);
  EXPECT_EQ(result.rows.size(), 700u);  // cust 0..6 have 100 orders each
  for (const auto& row : result.rows) {
    EXPECT_EQ(row[2].AsString(), std::string("c") + std::to_string(row[1].AsInt()));
  }
}

TEST_F(ExecTest, HashJoinSemiAnti) {
  auto make_spec = [](JoinType t) {
    HashJoinOperator::Spec spec;
    spec.type = t;
    spec.probe_keys = {1};
    spec.build_keys = {0};
    return spec;
  };
  {
    auto orders = std::make_unique<ScanOperator>(
        Snap("orders"), std::vector<uint32_t>{0, 1}, config_);
    auto cust = std::make_unique<ScanOperator>(Snap("customers"),
                                               std::vector<uint32_t>{0}, config_);
    HashJoinOperator semi(std::move(orders), std::move(cust),
                          make_spec(JoinType::kLeftSemi), config_);
    EXPECT_EQ(Run(&semi).rows.size(), 700u);
  }
  {
    auto orders = std::make_unique<ScanOperator>(
        Snap("orders"), std::vector<uint32_t>{0, 1}, config_);
    auto cust = std::make_unique<ScanOperator>(Snap("customers"),
                                               std::vector<uint32_t>{0}, config_);
    HashJoinOperator anti(std::move(orders), std::move(cust),
                          make_spec(JoinType::kLeftAnti), config_);
    auto result = Run(&anti);
    EXPECT_EQ(result.rows.size(), 300u);  // cust 7,8,9
    for (const auto& row : result.rows) EXPECT_GE(row[1].AsInt(), 7);
  }
}

TEST_F(ExecTest, HashJoinLeftOuter) {
  // Probe customers against a build side of orders with id < 3 (cust 0,1,2).
  auto cust = std::make_unique<ScanOperator>(Snap("customers"),
                                             std::vector<uint32_t>{0, 1}, config_);
  auto orders_scan = std::make_unique<ScanOperator>(
      Snap("orders"), std::vector<uint32_t>{0, 1}, config_);
  auto orders = std::make_unique<SelectOperator>(
      std::move(orders_scan), e::Lt(e::Col(0, DataType::Int64()), e::I64(3)),
      config_);
  HashJoinOperator::Spec spec;
  spec.type = JoinType::kLeftOuter;
  spec.probe_keys = {0};
  spec.build_keys = {1};
  spec.build_payload = {0};
  HashJoinOperator join(std::move(cust), std::move(orders), std::move(spec),
                        config_);
  auto result = Run(&join);
  // cust 0,1,2 match one order each; cust 3..6 unmatched with flag 0.
  ASSERT_EQ(result.rows.size(), 7u);
  size_t matched = 0;
  for (const auto& row : result.rows) matched += row[3].AsInt();
  EXPECT_EQ(matched, 3u);
}

TEST_F(ExecTest, HashJoinResidual) {
  auto orders = std::make_unique<ScanOperator>(Snap("orders"),
                                               std::vector<uint32_t>{0, 1}, config_);
  auto cust = std::make_unique<ScanOperator>(Snap("customers"),
                                             std::vector<uint32_t>{0}, config_);
  HashJoinOperator::Spec spec;
  spec.type = JoinType::kInner;
  spec.probe_keys = {1};
  spec.build_keys = {0};
  spec.build_payload = {0};
  // Residual over [orders.id, orders.cust, cust.cid]: id < 50.
  spec.residual = e::Lt(e::Col(0, DataType::Int64()), e::I64(50));
  HashJoinOperator join(std::move(orders), std::move(cust), std::move(spec),
                        config_);
  auto result = Run(&join);
  EXPECT_EQ(result.rows.size(), 35u);  // ids 0..49 with cust<7: 50*7/10
}

TEST_F(ExecTest, SortOrdersRows) {
  auto scan = std::make_unique<ScanOperator>(Snap("orders"),
                                             std::vector<uint32_t>{0, 1}, config_);
  SortOperator sort(std::move(scan), {{1, false}, {0, true}}, config_);
  auto result = Run(&sort);
  ASSERT_EQ(result.rows.size(), 1000u);
  EXPECT_EQ(result.rows[0][1].AsInt(), 9);  // cust desc
  EXPECT_EQ(result.rows[0][0].AsInt(), 9);  // id asc within cust
  EXPECT_EQ(result.rows[999][1].AsInt(), 0);
}

TEST_F(ExecTest, TopNLimitsAndSorts) {
  auto scan = std::make_unique<ScanOperator>(Snap("orders"),
                                             std::vector<uint32_t>{0}, config_);
  SortOperator sort(std::move(scan), {{0, false}}, config_, 5);
  auto result = Run(&sort);
  ASSERT_EQ(result.rows.size(), 5u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 999);
  EXPECT_EQ(result.rows[4][0].AsInt(), 995);
}

TEST_F(ExecTest, LimitOffset) {
  auto scan = std::make_unique<ScanOperator>(Snap("orders"),
                                             std::vector<uint32_t>{0}, config_);
  LimitOperator limit(std::move(scan), config_, 10, 3);
  auto result = Run(&limit);
  ASSERT_EQ(result.rows.size(), 10u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 3);
  EXPECT_EQ(result.rows[9][0].AsInt(), 12);
}

TEST_F(ExecTest, XchgParallelScanCoversAllStripes) {
  for (int workers : {1, 2, 4}) {
    TableSnapshot snap = Snap("orders");
    size_t n_stripes = snap.stable->stripe_count();
    std::vector<OperatorPtr> fragments;
    for (int w = 0; w < workers; w++) {
      ScanOperator::Options opts;
      opts.stripe_begin = n_stripes * w / workers;
      opts.stripe_end = n_stripes * (w + 1) / workers;
      fragments.push_back(std::make_unique<ScanOperator>(
          snap, std::vector<uint32_t>{0}, config_, opts));
    }
    XchgOperator xchg(std::move(fragments), {TypeId::kI64}, config_);
    auto result = Run(&xchg);
    ASSERT_EQ(result.rows.size(), 1000u) << "workers=" << workers;
    std::vector<int64_t> ids;
    for (const auto& row : result.rows) ids.push_back(row[0].AsInt());
    std::sort(ids.begin(), ids.end());
    for (int64_t i = 0; i < 1000; i++) EXPECT_EQ(ids[i], i);
  }
}

TEST_F(ExecTest, XchgParallelPartialAggregation) {
  TableSnapshot snap = Snap("orders");
  size_t n_stripes = snap.stable->stripe_count();
  std::vector<OperatorPtr> fragments;
  for (size_t w = 0; w < 4; w++) {
    ScanOperator::Options opts;
    opts.stripe_begin = n_stripes * w / 4;
    opts.stripe_end = n_stripes * (w + 1) / 4;
    fragments.push_back(std::make_unique<HashAggOperator>(
        std::make_unique<ScanOperator>(snap, std::vector<uint32_t>{1, 2},
                                       config_, opts),
        std::vector<size_t>{0},
        std::vector<AggSpec>{AggSpec::CountStar(), AggSpec::Sum(1)}, config_));
  }
  auto xchg = std::make_unique<XchgOperator>(
      std::move(fragments),
      std::vector<TypeId>{TypeId::kI64, TypeId::kI64, TypeId::kI64}, config_);
  // Final combine: regroup partials, summing counts and sums.
  HashAggOperator final_agg(std::move(xchg), {0},
                            {AggSpec::Sum(1), AggSpec::Sum(2)}, config_);
  auto result = Run(&final_agg);
  ASSERT_EQ(result.rows.size(), 10u);
  int64_t count = 0;
  for (const auto& row : result.rows) count += row[1].AsInt();
  EXPECT_EQ(count, 1000);
}

// Every storage codec decodes flat at the scan (DESIGN.md §12). events(id
// ascending, level and level2 in runs of 100, tag from a 3-value domain):
// `tag` stores as PDICT, `level` and `level2` as RLE. The levels are doubles
// because integer runs store as PFOR-delta (the run boundary is one patch
// exception, 3 bytes cheaper than an RLE run entry); for f64 the PFOR family
// does not apply and RLE wins outright. `level` holds integral values,
// `level2` the non-integral 0.1 * k, whose sums depend on the order of the
// additions.
class StoredCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vwise_codec_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    config_.stripe_rows = 256;
    config_.vector_size = 64;
    device_ = std::make_unique<IoDevice>(config_);
    buffers_ = std::make_unique<BufferManager>(config_.buffer_pool_bytes);
    auto mgr =
        TransactionManager::Open(dir_, config_, device_.get(), buffers_.get());
    ASSERT_TRUE(mgr.ok());
    mgr_ = std::move(*mgr);

    TableSchema events("events", {ColumnDef("id", DataType::Int64()),
                                  ColumnDef("level", DataType::Double()),
                                  ColumnDef("tag", DataType::Varchar()),
                                  ColumnDef("level2", DataType::Double())});
    ASSERT_TRUE(mgr_->CreateTable(events, ColumnGroups::Dsm(4)).ok());
    static const char* kTags[] = {"alpha", "beta", "gamma"};
    ASSERT_TRUE(mgr_
                    ->BulkLoad("events",
                               [&](TableWriter* w) -> Status {
                                 for (int64_t i = 0; i < 1000; i++) {
                                   VWISE_RETURN_IF_ERROR(w->AppendRow(
                                       {Value::Int(i),
                                        Value::Double(static_cast<double>(i / 100)),
                                        Value::String(kTags[i % 3]),
                                        Value::Double(Level2(i))}));
                                 }
                                 return Status::OK();
                               })
                    .ok());
  }
  static double Level2(int64_t i) {
    return 0.1 * static_cast<double>(1 + i / 100);
  }

  void TearDown() override {
    mgr_.reset();
    std::filesystem::remove_all(dir_);
  }

  TableSnapshot Snap() {
    auto s = mgr_->GetSnapshot("events");
    EXPECT_TRUE(s.ok());
    return *s;
  }

  void ExpectCodec(uint32_t col, Codec codec) {
    const TableSnapshot snap = Snap();
    for (size_t s = 0; s < snap.stable->stripe_count(); s++) {
      ASSERT_EQ(snap.stable->stripe(s).segments[col].codec, codec)
          << "column " << col << " stripe " << s;
    }
  }

  QueryResult Run(Operator* root) {
    auto r = CollectRows(root, config_.vector_size);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(*r);
  }

  // Rows of `tag <op> needle` over a scan of (id, tag).
  QueryResult TagCmp(CmpOp op, const std::string& needle) {
    auto scan = std::make_unique<ScanOperator>(
        Snap(), std::vector<uint32_t>{0, 2}, config_);
    SelectOperator select(
        std::move(scan),
        e::Cmp(op, e::Col(1, DataType::Varchar()), e::Str(needle)), config_);
    return Run(&select);
  }

  Config config_;
  std::string dir_;
  std::unique_ptr<IoDevice> device_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<TransactionManager> mgr_;
};

// `=` and `<>` against a PDICT column run the flat string kernels over the
// decoded vector, with the constant present in and absent from the
// dictionary; every tuple is accounted to the flat kernel.
TEST_F(StoredCodecTest, PdictEqNeAgainstConstantInAndOutOfDictionary) {
  ExpectCodec(2, Codec::kPdict);
  struct Case {
    CmpOp op;
    const char* needle;
    size_t rows;
    PrimitiveId kernel;
  };
  const Case cases[] = {
      {CmpOp::kEq, "gamma", 333, kPrim_sel_eq_str_col_str_val},
      {CmpOp::kNe, "gamma", 667, kPrim_sel_ne_str_col_str_val},
      {CmpOp::kEq, "delta", 0, kPrim_sel_eq_str_col_str_val},
      {CmpOp::kNe, "delta", 1000, kPrim_sel_ne_str_col_str_val},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.op == CmpOp::kEq ? "= " : "<> ") + c.needle);
    PrimitiveProfiler::ScopedEnable enable(true);
    PrimitiveProfiler::Reset();
    QueryResult result = TagCmp(c.op, c.needle);
    EXPECT_EQ(PrimitiveProfiler::Snapshot()[c.kernel].tuples, 1000u);
    ASSERT_EQ(result.rows.size(), c.rows);
    for (const auto& row : result.rows) {
      const bool match = row[1].AsString() == c.needle;
      EXPECT_EQ(match, c.op == CmpOp::kEq) << "id " << row[0].AsInt();
    }
  }
  // LIKE and substr read the decoded string bytes.
  auto scan = std::make_unique<ScanOperator>(Snap(), std::vector<uint32_t>{2},
                                             config_);
  SelectOperator like(std::move(scan),
                      e::Like(e::Col(0, DataType::Varchar()), "%amm%"), config_);
  EXPECT_EQ(Run(&like).rows.size(), 333u);  // only "gamma" contains "amm"
  scan = std::make_unique<ScanOperator>(Snap(), std::vector<uint32_t>{2},
                                        config_);
  std::vector<ExprPtr> exprs;
  exprs.push_back(e::Substr(e::Col(0, DataType::Varchar()), 1, 2));
  ProjectOperator project(std::move(scan), std::move(exprs), config_);
  auto prefixes = Run(&project);
  ASSERT_EQ(prefixes.rows.size(), 1000u);
  EXPECT_EQ(prefixes.rows[0][0].AsString(), "al");
  EXPECT_EQ(prefixes.rows[2][0].AsString(), "ga");
}

// A PDICT row modified under pending deltas shows its new value, both one
// present in the dictionary and one absent from it.
TEST_F(StoredCodecTest, PdictRowModifiedUnderPendingDeltas) {
  auto txn = mgr_->Begin();
  ASSERT_TRUE(txn->Modify("events", 0, 2, Value::String("gamma")).ok());
  ASSERT_TRUE(txn->Modify("events", 1, 2, Value::String("delta")).ok());
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());

  QueryResult gamma = TagCmp(CmpOp::kEq, "gamma");
  ASSERT_EQ(gamma.rows.size(), 334u);  // row 0 ("alpha") patched to "gamma"
  EXPECT_EQ(gamma.rows[0][0].AsInt(), 0);
  QueryResult delta = TagCmp(CmpOp::kEq, "delta");
  ASSERT_EQ(delta.rows.size(), 1u);  // row 1 ("beta") patched to "delta"
  EXPECT_EQ(delta.rows[0][0].AsInt(), 1);
  EXPECT_EQ(TagCmp(CmpOp::kNe, "beta").rows.size(), 668u);
}

uint64_t Bits(const Value& v) { return std::bit_cast<uint64_t>(v.AsDouble()); }

// RLE-stored doubles decode flat at the scan, so a global aggregate adds
// them once per row in row order — a per-run `value * run_length` fold
// would round differently for 0.1 * k.
TEST_F(StoredCodecTest, RleDoublesAggregateBitIdenticalToRowOrder) {
  ExpectCodec(1, Codec::kRle);
  ExpectCodec(3, Codec::kRle);
  struct Expected {
    uint32_t col;
    double bound;  // `col < bound` keeps the first three runs
    double sum, min, max;
  };
  double level2_sum = 0;
  for (int64_t i = 0; i < 1000; i++) level2_sum += Level2(i);
  const Expected cases[] = {{1, 3.0, 4500.0, 0.0, 9.0},
                            {3, 0.35, level2_sum, Level2(0), Level2(999)}};
  for (const Expected& x : cases) {
    SCOPED_TRACE("column " + std::to_string(x.col));
    auto scan = std::make_unique<ScanOperator>(
        Snap(), std::vector<uint32_t>{x.col}, config_);
    HashAggOperator agg(std::move(scan), {},
                        {AggSpec::Sum(0), AggSpec::Min(0), AggSpec::Max(0),
                         AggSpec::Avg(0), AggSpec::CountStar()},
                        config_);
    QueryResult r = Run(&agg);
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(Bits(r.rows[0][0]), std::bit_cast<uint64_t>(x.sum));
    EXPECT_EQ(Bits(r.rows[0][1]), std::bit_cast<uint64_t>(x.min));
    EXPECT_EQ(Bits(r.rows[0][2]), std::bit_cast<uint64_t>(x.max));
    EXPECT_EQ(Bits(r.rows[0][3]), std::bit_cast<uint64_t>(x.sum / 1000));
    EXPECT_EQ(r.rows[0][4].AsInt(), 1000);

    scan = std::make_unique<ScanOperator>(Snap(), std::vector<uint32_t>{x.col},
                                          config_);
    SelectOperator lt(std::move(scan),
                      e::Lt(e::Col(0, DataType::Double()), e::F64(x.bound)),
                      config_);
    QueryResult rows = Run(&lt);
    ASSERT_EQ(rows.rows.size(), 300u);  // runs 0, 1, 2 cover i in [0, 300)
    for (size_t i = 0; i < rows.rows.size(); i++) {
      const double want = x.col == 1 ? static_cast<double>(i / 100)
                                     : Level2(static_cast<int64_t>(i));
      EXPECT_EQ(Bits(rows.rows[i][0]), std::bit_cast<uint64_t>(want))
          << "row " << i;
    }
  }
}

}  // namespace
}  // namespace vwise
