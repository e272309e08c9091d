// Tests for the query profiling layer: per-operator counters kept by
// Operator's own Open/Next, per-primitive counters, EXPLAIN ANALYZE
// rendering, and the guarantee that profiling never changes plan shape
// semantics or query results.

#include <filesystem>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "exec/select.h"
#include "expr/primitive_profiler.h"
#include "gtest/gtest.h"
#include "planner/plan_verifier.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace vwise {
namespace {

constexpr double kSf = 0.005;

// One shared TPC-H database for the whole suite: loading is the slow part.
class ProfilerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/vwise_profiler_suite");
    std::filesystem::remove_all(*dir_);
    config_ = new Config();
    config_->stripe_rows = 4096;
    device_ = new IoDevice(*config_);
    buffers_ = new BufferManager(config_->buffer_pool_bytes);
    auto mgr = TransactionManager::Open(*dir_, *config_, device_, buffers_);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    mgr_ = mgr->release();
    tpch::Generator gen(kSf);
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

  static Config ProfiledConfig() {
    Config cfg = *config_;
    cfg.profile = true;
    return cfg;
  }

  static std::string* dir_;
  static Config* config_;
  static IoDevice* device_;
  static BufferManager* buffers_;
  static TransactionManager* mgr_;
};

std::string* ProfilerTest::dir_ = nullptr;
Config* ProfilerTest::config_ = nullptr;
IoDevice* ProfilerTest::device_ = nullptr;
BufferManager* ProfilerTest::buffers_ = nullptr;
TransactionManager* ProfilerTest::mgr_ = nullptr;

const PlanNodeProfile* FindNode(const std::vector<PlanNodeProfile>& nodes,
                                const std::string& prefix) {
  for (const auto& n : nodes) {
    if (n.op.rfind(prefix, 0) == 0) return &n;
  }
  return nullptr;
}

// Q1 is the multi-operator pipeline Agg(Project(Select(Scan))) (plus Sort):
// the per-operator counters must be mutually consistent across the whole
// tree.
TEST_F(ProfilerTest, OperatorCountersSumAcrossPlan) {
  Config cfg = ProfiledConfig();
  auto plan = tpch::BuildQuery(1, mgr_, cfg);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto result = CollectRows(plan->get(), cfg.vector_size);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<PlanNodeProfile> nodes = CollectPlanProfile(**plan);
  ASSERT_GE(nodes.size(), 4u);
  for (const auto& n : nodes) {
    EXPECT_TRUE(n.profiled) << "unprofiled node in a profiled plan: " << n.op;
  }

  // Root hands the collector exactly the rows the query returned.
  EXPECT_EQ(nodes[0].rows_out, result->rows.size());

  // The leaf scan reads (at most, minmax skipping aside) all of lineitem,
  // and the Select can only drop rows, never invent them.
  auto snap = mgr_->GetSnapshot("lineitem");
  ASSERT_TRUE(snap.ok());
  const PlanNodeProfile* scan = FindNode(nodes, "Scan lineitem");
  ASSERT_NE(scan, nullptr);
  EXPECT_GT(scan->rows_out, 0u);
  EXPECT_LE(scan->rows_out, snap->visible_rows());
  const PlanNodeProfile* select = FindNode(nodes, "Select");
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->rows_in, scan->rows_out);
  EXPECT_LE(select->rows_out, select->rows_in);
  EXPECT_GT(select->rows_out, 0u);

  // Every inner node's rows_in is its children's rows_out, summed.
  const PlanNodeProfile* agg = FindNode(nodes, "HashAgg");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->rows_out, result->rows.size());
  for (const auto& n : nodes) {
    if (!n.profiled) continue;
    EXPECT_GT(n.next_calls, 0u) << n.op;
    EXPECT_GE(n.next_calls, n.chunks_out) << n.op;
  }
}

TEST_F(ProfilerTest, PrimitiveCountersMonotoneAndWellNamed) {
  PrimitiveProfiler::ScopedEnable enable(true);
  std::vector<PrimitiveCounters> before = PrimitiveProfiler::Snapshot();
  auto r = tpch::RunQuery(1, mgr_, *config_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<PrimitiveCounters> after = PrimitiveProfiler::Snapshot();

  ASSERT_EQ(before.size(), static_cast<size_t>(kNumPrimitives));
  ASSERT_EQ(after.size(), before.size());
  uint64_t advanced = 0;
  for (size_t i = 0; i < after.size(); i++) {
    EXPECT_GE(after[i].calls, before[i].calls) << after[i].name;
    EXPECT_GE(after[i].tuples, before[i].tuples) << after[i].name;
    EXPECT_GE(after[i].cycles, before[i].cycles) << after[i].name;
    if (after[i].calls > before[i].calls) {
      advanced++;
      // A call processes at least one tuple and consumes some time.
      EXPECT_GT(after[i].tuples, before[i].tuples) << after[i].name;
    }
  }
  // Q1 runs map (disc_price/charge arithmetic) and sel (shipdate filter)
  // primitives; several counters must have moved.
  EXPECT_GE(advanced, 2u);

  std::string rendered = RenderPrimitiveProfile(before, after);
  EXPECT_NE(rendered.find("primitives:"), std::string::npos);
  EXPECT_NE(rendered.find("cycles/tuple"), std::string::npos);
  EXPECT_NE(rendered.find("map_mul_f64_col_f64_col"), std::string::npos);
}

TEST_F(ProfilerTest, ExplainAnalyzeOutputParses) {
  Config cfg = ProfiledConfig();
  auto plan = tpch::BuildQuery(1, mgr_, cfg);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PrimitiveProfiler::ScopedEnable enable(true);
  std::vector<PrimitiveCounters> before = PrimitiveProfiler::Snapshot();
  auto result = CollectRows(plan->get(), cfg.vector_size);
  ASSERT_TRUE(result.ok());
  std::string text = ExplainAnalyzePlan(**plan) +
                     RenderPrimitiveProfile(before,
                                            PrimitiveProfiler::Snapshot());

  // EXPLAIN ANALYZE must line up with EXPLAIN: same tree, annotations added.
  std::string plain = ExplainPlan(**plan);
  // Timing annotations are EXPLAIN ANALYZE-only.
  std::regex ann(
      R"( \[rows=\d+ in=\d+ chunks=\d+ next_calls=\d+ open=\d+\.\d{3}ms next=\d+\.\d{3}ms\])");
  EXPECT_EQ(std::regex_replace(text.substr(0, text.find("primitives:")), ann,
                               ""),
            plain);

  // Every operator line carries a parsable annotation.
  size_t plan_lines = 0, annotated = 0;
  std::istringstream is(text.substr(0, text.find("primitives:")));
  for (std::string line; std::getline(is, line);) {
    if (line.empty()) continue;
    plan_lines++;
    if (std::regex_search(line, ann)) annotated++;
  }
  EXPECT_EQ(plan_lines, annotated);
  EXPECT_GE(annotated, 4u);

  // The primitive section names catalog entries with cycles/tuple figures.
  EXPECT_NE(text.find("primitives:"), std::string::npos);
  std::regex prim_line(R"((map|sel)_\w+\s+\d+\s+\d+\s+\d+\.\d{2})");
  EXPECT_TRUE(std::regex_search(text, prim_line)) << text;
}

TEST_F(ProfilerTest, ProfileFlagControlsOperatorIdentity) {
  // Off: nothing in the walk claims profiled.
  Config off = *config_;
  off.profile = false;
  off.check_contracts = false;
  auto plain = tpch::BuildQuery(6, mgr_, off);
  ASSERT_TRUE(plain.ok());
  for (const auto& n : CollectPlanProfile(**plain)) {
    EXPECT_FALSE(n.profiled) << n.op;
  }

  // On, with or without contract checking: every node, root included.
  for (bool check : {false, true}) {
    Config on = *config_;
    on.profile = true;
    on.check_contracts = check;
    auto profiled = tpch::BuildQuery(6, mgr_, on);
    ASSERT_TRUE(profiled.ok());
    std::vector<PlanNodeProfile> nodes = CollectPlanProfile(**profiled);
    ASSERT_GE(nodes.size(), 4u);
    for (const auto& n : nodes) {
      EXPECT_TRUE(n.profiled) << n.op << " check_contracts=" << check;
    }
  }
}

// A tree built without PlanBuilder and handed straight to PrepareRoot (no
// MaybeProfiled call) still reports its root: the root profiles itself.
TEST_F(ProfilerTest, BareTreeThroughPrepareRootHasProfiledRoot) {
  std::string dir = ::testing::TempDir() + "/vwise_profiler_bare";
  std::filesystem::remove_all(dir);
  Config cfg;
  cfg.profile = true;
  auto db = Database::Open(dir, cfg);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  TableSchema t("t", {ColumnDef("k", DataType::Int64())});
  ASSERT_TRUE((*db)->CreateTable(t).ok());
  ASSERT_TRUE((*db)
                  ->BulkLoad("t",
                             [](TableWriter* w) -> Status {
                               for (int64_t i = 0; i < 3000; i++) {
                                 VWISE_RETURN_IF_ERROR(
                                     w->AppendRow({Value::Int(i)}));
                               }
                               return Status::OK();
                             })
                  .ok());

  auto snap = (*db)->Internals().tm->GetSnapshot("t");
  ASSERT_TRUE(snap.ok());
  auto scan = std::make_unique<ScanOperator>(*snap, std::vector<uint32_t>{0},
                                             cfg);
  OperatorPtr root = std::make_unique<SelectOperator>(
      std::move(scan), e::Lt(e::Col(0, DataType::Int64()), e::I64(1000)),
      cfg);
  const Operator* raw = root.get();
  std::unique_ptr<Session> session = (*db)->Connect();
  std::unique_ptr<PreparedQuery> prepared =
      session->PrepareRoot(std::move(root), {"k"});
  std::unique_ptr<QueryHandle> handle = prepared->Execute();
  const Result<QueryResult>& result = handle->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1000u);

  std::vector<PlanNodeProfile> nodes = CollectPlanProfile(*raw);
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_TRUE(nodes[0].profiled) << nodes[0].op;
  EXPECT_EQ(nodes[0].rows_out, 1000u);
  EXPECT_EQ(nodes[0].rows_in, 3000u);
  EXPECT_GT(nodes[0].next_calls, 0u);
  EXPECT_EQ(result->profile.rfind("Select", 0), 0u) << result->profile;
  EXPECT_NE(result->profile.find("[rows=1000 in=3000"), std::string::npos)
      << result->profile;
  handle.reset();
  prepared.reset();
  session.reset();
  db->reset();
  std::filesystem::remove_all(dir);
}

TEST_F(ProfilerTest, ProfiledResultsBitIdentical) {
  for (int q : {1, 3, 6}) {
    Config cfg = *config_;
    auto base = tpch::RunQuery(q, mgr_, cfg);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    Config prof_cfg = ProfiledConfig();
    auto prof = tpch::RunQuery(q, mgr_, prof_cfg);
    ASSERT_TRUE(prof.ok()) << prof.status().ToString();
    ASSERT_EQ(base->rows.size(), prof->rows.size()) << "Q" << q;
    for (size_t r = 0; r < base->rows.size(); r++) {
      ASSERT_EQ(base->rows[r].size(), prof->rows[r].size());
      for (size_t c = 0; c < base->rows[r].size(); c++) {
        EXPECT_EQ(base->rows[r][c].ToString(), prof->rows[r][c].ToString())
            << "Q" << q << " row " << r << " col " << c;
      }
    }
  }
}

// The Database facade surfaces the profile through QueryResult::profile.
TEST_F(ProfilerTest, DatabaseRunFillsQueryResultProfile) {
  std::string dir = ::testing::TempDir() + "/vwise_profiler_db";
  std::filesystem::remove_all(dir);
  Config cfg;
  cfg.profile = true;
  auto db = Database::Open(dir, cfg);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  TableSchema t("t", {ColumnDef("k", DataType::Int64()),
                      ColumnDef("v", DataType::Int64())});
  ASSERT_TRUE((*db)->CreateTable(t).ok());
  ASSERT_TRUE((*db)
                  ->BulkLoad("t",
                             [](TableWriter* w) -> Status {
                               for (int64_t i = 0; i < 5000; i++) {
                                 VWISE_RETURN_IF_ERROR(w->AppendRow(
                                     {Value::Int(i), Value::Int(i * 3)}));
                               }
                               return Status::OK();
                             })
                  .ok());

  PlanBuilder q = (*db)->NewPlan();
  ASSERT_TRUE(q.Scan("t", {0, 1}).ok());
  q.Select(e::Ge(q.Col(1), e::I64(600)));
  auto result = (*db)->Run(&q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->profile.find("Scan t"), std::string::npos);
  EXPECT_NE(result->profile.find("[rows="), std::string::npos);
  EXPECT_NE(result->profile.find("primitives:"), std::string::npos);
  EXPECT_NE(result->profile.find("sel_ge_i64_col_i64_val"), std::string::npos);

  // Without the flag the very same query reports no profile.
  Config off;
  off.profile = false;
  db->reset();
  auto db2 = Database::Open(dir, off);
  ASSERT_TRUE(db2.ok());
  PlanBuilder q2 = (*db2)->NewPlan();
  ASSERT_TRUE(q2.Scan("t", {0, 1}).ok());
  q2.Select(e::Ge(q2.Col(1), e::I64(600)));
  auto result2 = (*db2)->Run(&q2);
  ASSERT_TRUE(result2.ok());
  EXPECT_TRUE(result2->profile.empty());
  db2->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vwise
