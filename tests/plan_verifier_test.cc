// Tests for the static plan verifier (planner/plan_verifier.h): acceptance
// over all 22 TPC-H plans, the parallelize rewriter's postconditions, and
// rejection of seeded-broken plans — every rejection must carry an
// ExplainPlan / ExplainExpr / ExplainFilter dump so the failure is
// actionable without a debugger.

#include <filesystem>
#include <string>
#include <vector>

#include "api/database.h"
#include "gtest/gtest.h"
#include "planner/plan_builder.h"
#include "planner/plan_verifier.h"
#include "rewriter/null_rewrite.h"
#include "rewriter/parallelize.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace vwise {
namespace {

// --- TPC-H acceptance --------------------------------------------------------

// Plan construction only needs the catalog, so the smallest SF suffices.
class PlanVerifierTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/vwise_verifier_tpch");
    std::filesystem::remove_all(*dir_);
    config_ = new Config();
    config_->verify_plans = true;
    device_ = new IoDevice(*config_);
    buffers_ = new BufferManager(config_->buffer_pool_bytes);
    auto mgr = TransactionManager::Open(*dir_, *config_, device_, buffers_);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    mgr_ = mgr->release();
    tpch::Generator gen(0.002);
    ASSERT_TRUE(gen.LoadAll(mgr_).ok());
  }
  static void TearDownTestSuite() {
    delete mgr_;
    std::filesystem::remove_all(*dir_);
    delete buffers_;
    delete device_;
    delete config_;
    delete dir_;
  }

  static std::string* dir_;
  static Config* config_;
  static IoDevice* device_;
  static BufferManager* buffers_;
  static TransactionManager* mgr_;
};

std::string* PlanVerifierTpchTest::dir_ = nullptr;
Config* PlanVerifierTpchTest::config_ = nullptr;
IoDevice* PlanVerifierTpchTest::device_ = nullptr;
BufferManager* PlanVerifierTpchTest::buffers_ = nullptr;
TransactionManager* PlanVerifierTpchTest::mgr_ = nullptr;

// Every TPC-H plan passes the verifier — both inside Build() (which also
// cross-checks the builder's declared logical types) and when re-verified
// directly on the finished tree.
TEST_F(PlanVerifierTpchTest, AcceptsAll22SerialPlans) {
  for (int q = 1; q <= 22; q++) {
    auto root = tpch::BuildQuery(q, mgr_, *config_);
    ASSERT_TRUE(root.ok()) << "Q" << q << ": " << root.status().ToString();
    PlanVerifier verifier;
    PlanProperties props;
    Status st = verifier.Verify(**root, &props);
    EXPECT_TRUE(st.ok()) << "Q" << q << ": " << st.ToString();
    EXPECT_EQ(props.types, (*root)->OutputTypes()) << "Q" << q;
  }
}

// --- seeded-broken plans -----------------------------------------------------

// A Project whose caller declares the wrong logical type for an expression.
TEST_F(PlanVerifierTpchTest, RejectsWrongProjectTypeVector) {
  using namespace tpch::col;
  PlanBuilder b(mgr_, *config_);
  ASSERT_TRUE(b.Scan("orders", {o::kOrderkey}).ok());
  auto root = b.Project(Es(b.Col(0)), {DataType::Varchar()}).Build();
  ASSERT_FALSE(root.ok());
  const std::string msg = root.status().ToString();
  EXPECT_NE(msg.find("plan verifier"), std::string::npos) << msg;
  EXPECT_NE(msg.find("in plan:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("Project"), std::string::npos) << msg;
}

// An aggregation whose declared output types contradict the AggSpec rules
// (sum over an integer column produces i64, not a string).
TEST_F(PlanVerifierTpchTest, RejectsAggOutputTypeMismatch) {
  using namespace tpch::col;
  PlanBuilder b(mgr_, *config_);
  ASSERT_TRUE(b.Scan("orders", {o::kCustkey, o::kShippriority}).ok());
  auto root =
      b.Agg({0}, {AggSpec::Sum(1)}, {DataType::Int64(), DataType::Varchar()})
          .Build();
  ASSERT_FALSE(root.ok());
  const std::string msg = root.status().ToString();
  EXPECT_NE(msg.find("plan verifier"), std::string::npos) << msg;
  EXPECT_NE(msg.find("in plan:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("HashAgg"), std::string::npos) << msg;
}

// Join keys whose physical types disagree (i64 orderkey vs varchar clerk).
TEST_F(PlanVerifierTpchTest, RejectsJoinKeyTypeMismatch) {
  using namespace tpch::col;
  PlanBuilder probe(mgr_, *config_);
  ASSERT_TRUE(probe.Scan("lineitem", {l::kOrderkey}).ok());
  PlanBuilder build(mgr_, *config_);
  ASSERT_TRUE(build.Scan("orders", {o::kOrderkey, o::kClerk}).ok());
  auto root =
      probe.Join(std::move(build), JoinType::kLeftSemi, {0}, {1}).Build();
  ASSERT_FALSE(root.ok());
  const std::string msg = root.status().ToString();
  EXPECT_NE(msg.find("HashJoin"), std::string::npos) << msg;
  EXPECT_NE(msg.find("in plan:"), std::string::npos) << msg;
}

// A comparison between mismatched physical types inside a Select.
TEST_F(PlanVerifierTpchTest, RejectsIllTypedFilter) {
  using namespace tpch::col;
  PlanBuilder b(mgr_, *config_);
  // o_orderstatus is Varchar; a ColRef declaring it Int64 constructs fine
  // (both comparison sides agree) but contradicts the scan layout — only
  // the verifier's bottom-up inference can catch it.
  ASSERT_TRUE(b.Scan("orders", {o::kOrderstatus}).ok());
  auto root =
      b.Select(e::Eq(e::Col(0, DataType::Int64()), e::I64(1))).Build();
  ASSERT_FALSE(root.ok());
  const std::string msg = root.status().ToString();
  EXPECT_NE(msg.find("plan verifier"), std::string::npos) << msg;
  EXPECT_NE(msg.find("type mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("in plan:"), std::string::npos) << msg;
}

// --- NULL decomposition postconditions ---------------------------------------

TEST(NullRewriteVerification, AcceptsTheRealRules) {
  rewriter::NullableRef x{0, 1, DataType::Int64()};
  auto f = rewriter::RewriteNullableCmp(CmpOp::kLt, x, e::I64(10));
  EXPECT_TRUE(VerifyNullRewriteFilter(*f, 0, TypeId::kI64, 1, 2).ok());
  EXPECT_TRUE(
      VerifyNullRewriteFilter(*rewriter::RewriteIsNull(x), 0, TypeId::kI64, 1, 2)
          .ok());
  rewriter::NullableRef y{2, 3, DataType::Int64()};
  auto pair = rewriter::RewriteNullableArith(ArithOp::kAdd, x, y);
  EXPECT_TRUE(VerifyNullRewritePair(*pair.value, *pair.indicator, 0, 1, 2, 3,
                                    TypeId::kI64, 4)
                  .ok());
}

// The classic rule mutation: the rewritten comparison forgets the indicator
// conjunct, so NULL rows (safe value 0) would qualify.
TEST(NullRewriteVerification, RejectsFilterThatDropsTheIndicator) {
  auto mutated = e::Lt(e::Col(0, DataType::Int64()), e::I64(10));
  Status st = VerifyNullRewriteFilter(*mutated, 0, TypeId::kI64, 1, 2);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("indicator"), std::string::npos)
      << st.ToString();
}

// An arithmetic rewrite whose indicator expression silently un-NULLs one
// operand (references only one of the two indicator columns).
TEST(NullRewriteVerification, RejectsPairThatDropsAnIndicatorColumn) {
  rewriter::NullableRef x{0, 1, DataType::Int64()};
  rewriter::NullableRef y{2, 3, DataType::Int64()};
  auto pair = rewriter::RewriteNullableArith(ArithOp::kAdd, x, y);
  auto mutated_ind =
      e::Cast(e::Col(1, DataType::Bool()), DataType::Int64());  // drops col 3
  Status st = VerifyNullRewritePair(*pair.value, *mutated_ind, 0, 1, 2, 3,
                                    TypeId::kI64, 4);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("indicator"), std::string::npos)
      << st.ToString();
}

// --- nullability as a plan property ------------------------------------------

class NullablePlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vwise_verifier_nullable_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    Config cfg;
    cfg.verify_plans = true;
    auto db = Database::Open(dir_, cfg);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    // x is catalog-NULLable, decomposed in storage as (x @0, x_ind @1).
    TableSchema t("t", {ColumnDef("x", DataType::Int64(), /*nullable=*/true),
                        ColumnDef("x_ind", DataType::Bool()),
                        ColumnDef("y", DataType::Int64())});
    ASSERT_TRUE(db_->CreateTable(t).ok());
    ASSERT_TRUE(db_->BulkLoad("t", [](TableWriter* w) -> Status {
      for (int64_t i = 0; i < 100; i++) {
        VWISE_RETURN_IF_ERROR(w->AppendRow({Value::Int(i % 7 == 0 ? 0 : i),
                                            Value::Int(i % 7 == 0 ? 1 : 0),
                                            Value::Int(2 * i)}));
      }
      return Status::OK();
    }).ok());
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

// Filtering on a NULLable column without the rewriter's decomposition is a
// plan bug (primitives are NULL-oblivious, so NULL rows would qualify).
TEST_F(NullablePlanTest, RejectsDirectFilterOnNullableColumn) {
  PlanBuilder b(db_->Internals().tm, db_->config());
  ASSERT_TRUE(b.Scan("t", {0, 1, 2}).ok());
  auto root = b.Select(e::Lt(b.Col(0), e::I64(50))).Build();
  ASSERT_FALSE(root.ok());
  const std::string msg = root.status().ToString();
  EXPECT_NE(msg.find("NULL"), std::string::npos) << msg;
  EXPECT_NE(msg.find("in plan:"), std::string::npos) << msg;
}

// The same predicate with the indicator guard (the shape RewriteNullableCmp
// emits) is accepted — and executes with SQL NULL semantics.
TEST_F(NullablePlanTest, AcceptsDecomposedFilterAndExecutes) {
  PlanBuilder b(db_->Internals().tm, db_->config());
  ASSERT_TRUE(b.Scan("t", {0, 1, 2}).ok());
  rewriter::NullableRef x{0, 1, DataType::Int64()};
  auto root =
      b.Select(rewriter::RewriteNullableCmp(CmpOp::kLt, x, e::I64(20))).Build();
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  auto result = CollectRows(root->get(), db_->config().vector_size);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // i < 20 with every 7th row NULL: {1..19} minus {7, 14}, and row 0 is NULL.
  EXPECT_EQ(result->rows.size(), 17u);
}

// Aggregating a NULLable column directly is rejected too.
TEST_F(NullablePlanTest, RejectsAggOverNullableColumn) {
  PlanBuilder b(db_->Internals().tm, db_->config());
  ASSERT_TRUE(b.Scan("t", {0, 1, 2}).ok());
  auto root = b.Agg({}, {AggSpec::Sum(0)}, {DataType::Int64()}).Build();
  ASSERT_FALSE(root.ok());
  EXPECT_NE(root.status().ToString().find("NULL"), std::string::npos)
      << root.status().ToString();
}

// --- parallelize rewriter postconditions -------------------------------------

class ParallelizeVerifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vwise_verifier_par_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    Config cfg;
    cfg.stripe_rows = 97;
    cfg.verify_plans = true;
    auto db = Database::Open(dir_, cfg);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    TableSchema t("t", {ColumnDef("g", DataType::Int64()),
                        ColumnDef("v", DataType::Int64())});
    ASSERT_TRUE(db_->CreateTable(t).ok());
    ASSERT_TRUE(db_->BulkLoad("t", [](TableWriter* w) -> Status {
      for (int64_t i = 0; i < 2000; i++) {
        VWISE_RETURN_IF_ERROR(w->AppendRow({Value::Int(i % 13), Value::Int(i)}));
      }
      return Status::OK();
    }).ok());
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  rewriter::ParallelAggSpec MakeSpec(const Config& cfg) {
    rewriter::ParallelAggSpec spec;
    auto snap = db_->Internals().tm->GetSnapshot("t");
    EXPECT_TRUE(snap.ok());
    spec.snapshot = *snap;
    spec.scan_cols = {0, 1};
    Config worker_cfg = cfg;
    spec.build_pipeline = [worker_cfg](OperatorPtr scan) -> Result<OperatorPtr> {
      return OperatorPtr(std::make_unique<HashAggOperator>(
          std::move(scan), std::vector<size_t>{0},
          std::vector<AggSpec>{AggSpec::Sum(1), AggSpec::CountStar()},
          worker_cfg));
    };
    spec.partial_types = {TypeId::kI64, TypeId::kI64, TypeId::kI64};
    spec.final_group_cols = {0};
    spec.final_aggs = {AggSpec::Sum(1), AggSpec::Sum(2)};
    return spec;
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(ParallelizeVerifierTest, AcceptsSoundRewrite) {
  Config cfg = db_->config();
  cfg.num_threads = 3;
  auto plan = rewriter::ParallelizeScanAgg(MakeSpec(cfg), cfg);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(PlanVerifier().Verify(**plan).ok());
}

// EXPLAIN ANALYZE of a parallel plan that ran shows every worker's live
// fragment: each line under a fragment(w): header has real counters, and the
// Xchg's input is the sum of its fragment roots' output.
TEST_F(ParallelizeVerifierTest, ExplainAnalyzeShowsEveryLiveFragment) {
  Config cfg = db_->config();
  cfg.num_threads = 3;
  cfg.profile = true;
  auto plan = rewriter::ParallelizeScanAgg(MakeSpec(cfg), cfg);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(CollectRows(plan->get(), cfg.vector_size).ok());
  const std::vector<PlanNodeProfile> nodes = CollectPlanProfile(**plan);
  const std::string text = ExplainAnalyzePlan(**plan);
  ASSERT_EQ(nodes[1].op.rfind("Xchg", 0), 0u) << text;  // under the final agg
  int fragments = 0;
  uint64_t fragment_rows = 0;
  for (size_t i = 2; i < nodes.size(); i++) {
    if (nodes[i].op.rfind("fragment(", 0) == 0) {
      fragments++;
      fragment_rows += nodes[i + 1].rows_out;
    } else {
      EXPECT_TRUE(nodes[i].profiled && nodes[i].rows_out > 0 &&
                  nodes[i].next_calls > 0)
          << nodes[i].op << "\n" << text;
    }
  }
  EXPECT_EQ(fragments, 3) << text;
  EXPECT_GT(fragment_rows, 0u) << text;
  EXPECT_EQ(nodes[1].rows_in, fragment_rows) << text;
}

// The rule mutated to drop a column: the declared partial layout is missing
// the partial count, so every worker fragment disagrees with the Xchg's
// declared types. The error names the rule and dumps the fragment plan.
TEST_F(ParallelizeVerifierTest, RejectsRewriteThatDropsAColumn) {
  Config cfg = db_->config();
  cfg.num_threads = 3;
  auto spec = MakeSpec(cfg);
  spec.partial_types = {TypeId::kI64, TypeId::kI64};  // dropped the count
  spec.final_aggs = {AggSpec::Sum(1)};
  auto plan = rewriter::ParallelizeScanAgg(std::move(spec), cfg);
  ASSERT_FALSE(plan.ok());
  const std::string msg = plan.status().ToString();
  EXPECT_NE(msg.find("parallelize rewriter"), std::string::npos) << msg;
  EXPECT_NE(msg.find("Xchg"), std::string::npos) << msg;
}

// --- expression inference surface --------------------------------------------

TEST(InferExprType, ChecksBoundsAndOperandTypes) {
  std::vector<TypeId> layout = {TypeId::kI64, TypeId::kStr};
  auto ok = InferExprType(*e::Add(e::Col(0, DataType::Int64()), e::I64(1)),
                          layout);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, TypeId::kI64);

  // Column index beyond the layout.
  auto oob = InferExprType(*e::Col(7, DataType::Int64()), layout);
  ASSERT_FALSE(oob.ok());
  EXPECT_NE(oob.status().ToString().find("col7"), std::string::npos)
      << oob.status().ToString();

  // Arithmetic over a string operand.
  auto bad = InferExprType(
      *e::Add(e::Cast(e::Col(0, DataType::Int64()), DataType::Int64()),
              e::Col(1, DataType::Int64())),
      layout);
  EXPECT_FALSE(bad.ok());
}

TEST(ExplainPrinters, RenderExpressionsAndFilters) {
  auto expr = e::Mul(e::Col(2, DataType::Int64()), e::I64(3));
  const std::string rendered = ExplainExpr(*expr);
  EXPECT_NE(rendered.find("col2"), std::string::npos) << rendered;
  auto filter = e::And(
      Fs(e::Lt(e::Col(0, DataType::Int64()), e::I64(9)),
         e::Like(e::Col(1, DataType::Varchar()), "%x%")));
  const std::string frendered = ExplainFilter(*filter);
  EXPECT_NE(frendered.find("and"), std::string::npos) << frendered;
  EXPECT_NE(frendered.find("like"), std::string::npos) << frendered;
}

}  // namespace
}  // namespace vwise
