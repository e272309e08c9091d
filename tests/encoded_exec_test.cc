// Compressed execution (DESIGN.md §12): dict-encoded vectors flow from the
// scan into the executor and the capability-declared kernels consume PDICT
// codes directly. These tests assert the *mechanism*, not just the results:
// the primitive profiler shows the dict twins running and the flat string
// kernels staying silent (no decode, no string-heap traffic), the
// PDT-delta fallback forcing the classic eager-decode path, and RLE-stored
// columns decoding flat so the knob cannot change a single bit.

#include <bit>
#include <cstdint>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "exec/hash_agg.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/select.h"
#include "exec/sort.h"
#include "expr/primitive_profiler.h"
#include "gtest/gtest.h"
#include "planner/plan_verifier.h"
#include "txn/transaction_manager.h"

namespace vwise {
namespace {

// events(id ascending, level and level2 in runs of 100, tag from a 3-value
// domain): `tag` stores as PDICT, `level` and `level2` as RLE, `id` as
// PFOR-delta. The levels are doubles because integer runs store as
// PFOR-delta (the run boundary is one patch exception, 3 bytes cheaper than
// an RLE run entry); for f64 the PFOR family does not apply and RLE wins
// outright. `level` holds integral values, `level2` the non-integral
// 0.1 * k, whose sums depend on the order of the additions.
class EncodedExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vwise_encoded_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    config_.stripe_rows = 256;
    config_.vector_size = 64;
    config_.enable_encoded_exec = true;  // independent of VWISE_ENCODED_EXEC
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

  QueryResult Run(Operator* root) {
    auto r = CollectRows(root, config_.vector_size);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(*r);
  }

  // Runs `make_plan` under the profiler and returns the counter snapshot.
  template <typename Fn>
  std::vector<PrimitiveCounters> Profiled(Fn make_plan, QueryResult* out) {
    PrimitiveProfiler::SetEnabled(true);
    PrimitiveProfiler::Reset();
    auto plan = make_plan();
    *out = Run(plan.get());
    auto snap = PrimitiveProfiler::Snapshot();
    PrimitiveProfiler::SetEnabled(false);
    return snap;
  }

  Config config_;
  std::string dir_;
  std::unique_ptr<IoDevice> device_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<TransactionManager> mgr_;
};

std::unique_ptr<Operator> TagEq(TransactionManager* mgr, const Config& cfg,
                                const std::string& needle, CmpOp op) {
  auto snap = mgr->GetSnapshot("events");
  EXPECT_TRUE(snap.ok());
  auto scan = std::make_unique<ScanOperator>(*snap, std::vector<uint32_t>{2},
                                             cfg);
  return std::make_unique<SelectOperator>(
      std::move(scan),
      e::Cmp(op, e::Col(0, DataType::Varchar()), e::Str(needle)), cfg);
}

// The tentpole acceptance check: string equality over a PDICT column runs on
// integer codes — the encoded kernel's counters advance, the flat string
// kernel's never do (it would have had to decode and chase StringVal heap
// pointers), and every active tuple is accounted to the dict kernel.
TEST_F(EncodedExecTest, DictSelEqRunsOnCodesWithoutDecode) {
  QueryResult result;
  auto snap = Profiled(
      [&] { return TagEq(mgr_.get(), config_, "gamma", CmpOp::kEq); },
      &result);
  EXPECT_EQ(result.rows.size(), 333u);  // i%3==2 for i in [0,1000)

  const auto& dict = snap[kPrim_sel_eq_str_dict_str_val];
  const auto& flat = snap[kPrim_sel_eq_str_col_str_val];
  EXPECT_GT(dict.calls, 0u) << "dict kernel never ran";
  EXPECT_EQ(dict.tuples, 1000u) << "dict kernel saw a partial input";
  EXPECT_EQ(flat.calls, 0u)
      << "flat string kernel ran — the column was decoded";
}

// A constant absent from every dictionary: eq selects nothing, ne selects
// everything (the kDictCodeNotFound sentinel matches no code), still without
// touching the flat kernels.
TEST_F(EncodedExecTest, DictSelHandlesConstantAbsentFromDictionary) {
  QueryResult eq_result;
  auto eq_snap = Profiled(
      [&] { return TagEq(mgr_.get(), config_, "delta", CmpOp::kEq); },
      &eq_result);
  EXPECT_EQ(eq_result.rows.size(), 0u);
  EXPECT_GT(eq_snap[kPrim_sel_eq_str_dict_str_val].calls, 0u);
  EXPECT_EQ(eq_snap[kPrim_sel_eq_str_col_str_val].calls, 0u);

  QueryResult ne_result;
  auto ne_snap = Profiled(
      [&] { return TagEq(mgr_.get(), config_, "delta", CmpOp::kNe); },
      &ne_result);
  EXPECT_EQ(ne_result.rows.size(), 1000u);
  EXPECT_GT(ne_snap[kPrim_sel_ne_str_dict_str_val].calls, 0u);
  EXPECT_EQ(ne_snap[kPrim_sel_ne_str_col_str_val].calls, 0u);
}

// A consumer with no encoded capability (LIKE walks string bytes) lands on
// the Normalize() boundary: the query still answers correctly.
TEST_F(EncodedExecTest, NonCapableConsumerNormalizesOnDemand) {
  auto scan = std::make_unique<ScanOperator>(Snap(), std::vector<uint32_t>{2},
                                             config_);
  SelectOperator select(std::move(scan),
                        e::Like(e::Col(0, DataType::Varchar()), "%amm%"),
                        config_);
  auto result = Run(&select);
  EXPECT_EQ(result.rows.size(), 333u);  // only "gamma" contains "amm"
}

// Projection expressions (substr) read flat data; the ColRefExpr boundary
// decodes the dict column before the kernel sees it.
TEST_F(EncodedExecTest, ProjectionNormalizesEncodedInput) {
  auto scan = std::make_unique<ScanOperator>(Snap(), std::vector<uint32_t>{2},
                                             config_);
  std::vector<ExprPtr> exprs;
  exprs.push_back(e::Substr(e::Col(0, DataType::Varchar()), 1, 2));
  ProjectOperator project(std::move(scan), std::move(exprs), config_);
  auto result = Run(&project);
  ASSERT_EQ(result.rows.size(), 1000u);
  EXPECT_EQ(result.rows[0][0].AsString(), "al");
  EXPECT_EQ(result.rows[2][0].AsString(), "ga");
}

// Pending PDT deltas disable encoded adoption (delta merging writes through
// flat buffers): the same query now runs the flat kernel, and the modified
// row is visible.
TEST_F(EncodedExecTest, PdtDeltasForceEagerDecode) {
  auto txn = mgr_->Begin();
  ASSERT_TRUE(txn->Modify("events", 0, 2, Value::String("gamma")).ok());
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());

  QueryResult result;
  auto snap = Profiled(
      [&] { return TagEq(mgr_.get(), config_, "gamma", CmpOp::kEq); },
      &result);
  EXPECT_EQ(result.rows.size(), 334u);  // row 0 ("alpha") patched to "gamma"
  EXPECT_EQ(snap[kPrim_sel_eq_str_dict_str_val].calls, 0u)
      << "dict kernel ran over a snapshot with pending deltas";
  EXPECT_GT(snap[kPrim_sel_eq_str_col_str_val].calls, 0u);
}

uint64_t Bits(const Value& v) { return std::bit_cast<uint64_t>(v.AsDouble()); }

std::string Exact(const Value& v) {
  std::ostringstream os;
  os << std::setprecision(17) << v.AsDouble();
  return os.str();
}

// The config knob is the other gate: with enable_encoded_exec off the scan
// decodes eagerly and results are bit-identical. That covers the RLE-stored
// doubles too: they decode flat at the scan either way, so a global
// aggregate adds them once per row in row order — a per-run
// `value * run_length` fold would round differently for 0.1 * k.
TEST_F(EncodedExecTest, KnobOffMatchesKnobOnExactly) {
  Config off = config_;
  off.enable_encoded_exec = false;

  const TableSnapshot snap = Snap();
  for (uint32_t col : {1u, 3u}) {
    for (size_t s = 0; s < snap.stable->stripe_count(); s++) {
      ASSERT_EQ(snap.stable->stripe(s).segments[col].codec, Codec::kRle)
          << "column " << col << " stripe " << s;
    }
  }

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
    auto agg = [&](const Config& cfg) {
      auto scan = std::make_unique<ScanOperator>(
          Snap(), std::vector<uint32_t>{x.col}, cfg);
      HashAggOperator plan(std::move(scan), {},
                           {AggSpec::Sum(0), AggSpec::Min(0), AggSpec::Max(0),
                            AggSpec::Avg(0), AggSpec::CountStar()},
                           cfg);
      return Run(&plan);
    };
    QueryResult agg_on = agg(config_);
    QueryResult agg_off = agg(off);
    ASSERT_EQ(agg_on.rows.size(), 1u);
    ASSERT_EQ(agg_off.rows.size(), 1u);
    for (size_t c = 0; c < 4; c++) {
      EXPECT_EQ(Bits(agg_on.rows[0][c]), Bits(agg_off.rows[0][c]))
          << "aggregate " << c << ": " << Exact(agg_on.rows[0][c])
          << " (knob on) vs " << Exact(agg_off.rows[0][c]) << " (off)";
    }
    EXPECT_EQ(Bits(agg_off.rows[0][0]), std::bit_cast<uint64_t>(x.sum));
    EXPECT_EQ(Bits(agg_off.rows[0][1]), std::bit_cast<uint64_t>(x.min));
    EXPECT_EQ(Bits(agg_off.rows[0][2]), std::bit_cast<uint64_t>(x.max));
    EXPECT_EQ(Bits(agg_off.rows[0][3]), std::bit_cast<uint64_t>(x.sum / 1000));
    EXPECT_EQ(agg_off.rows[0][4].AsInt(), 1000);

    auto lt = [&](const Config& cfg) {
      auto scan = std::make_unique<ScanOperator>(
          Snap(), std::vector<uint32_t>{x.col}, cfg);
      SelectOperator plan(
          std::move(scan),
          e::Lt(e::Col(0, DataType::Double()), e::F64(x.bound)), cfg);
      return Run(&plan);
    };
    QueryResult lt_on = lt(config_);
    QueryResult lt_off = lt(off);
    ASSERT_EQ(lt_on.rows.size(), 300u);  // runs 0, 1, 2 cover i in [0, 300)
    ASSERT_EQ(lt_off.rows.size(), 300u);
    for (size_t i = 0; i < lt_on.rows.size(); i++) {
      EXPECT_EQ(Bits(lt_on.rows[i][0]), Bits(lt_off.rows[i][0])) << "row " << i;
    }
  }

  auto on_plan = TagEq(mgr_.get(), config_, "beta", CmpOp::kEq);
  auto off_plan = TagEq(mgr_.get(), off, "beta", CmpOp::kEq);
  auto on_rows = Run(on_plan.get());
  auto off_rows = Run(off_plan.get());
  ASSERT_EQ(on_rows.rows.size(), off_rows.rows.size());
  for (size_t i = 0; i < on_rows.rows.size(); i++) {
    ASSERT_EQ(on_rows.rows[i].size(), off_rows.rows[i].size());
    for (size_t c = 0; c < on_rows.rows[i].size(); c++) {
      EXPECT_EQ(on_rows.rows[i][c].ToString(), off_rows.rows[i][c].ToString())
          << "row " << i << " col " << c;
    }
  }
}

// EXPLAIN ANALYZE surfaces what the scan actually published: a run over
// encoded segments renders the repr= note on the scan line.
TEST_F(EncodedExecTest, ExplainAnalyzeRendersReprCounts) {
  auto plan = TagEq(mgr_.get(), config_, "gamma", CmpOp::kEq);
  (void)Run(plan.get());
  const std::string analyzed = ExplainAnalyzePlan(*plan);
  EXPECT_NE(analyzed.find("repr=dict:"), std::string::npos) << analyzed;
  // The plain rendering stays free of runtime telemetry.
  const std::string plain = ExplainPlan(*plan);
  EXPECT_EQ(plain.find("repr="), std::string::npos) << plain;
}

}  // namespace
}  // namespace vwise
