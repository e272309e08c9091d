#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/database.h"
#include "baseline/tuple_engine.h"
#include "common/failpoint.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/xchg.h"
#include "gtest/gtest.h"
#include "service/session.h"
#include "storage/spill_file.h"

namespace vwise {
namespace {

namespace fs = std::filesystem;

// Spill-to-disk coverage: pipeline breakers degrading gracefully under
// per-query memory budgets (external sort, radix-partitioned hash join and
// aggregation), the budget-accounting regressions that rode along
// (offset+limit size_t wrap in Sort, reserve-after-insert in HashAgg,
// build_rows_ surviving re-execution in HashJoin), spill failpoint
// injection, and temp-file lifecycle.

// Parks deliberately-abandoned objects in a static sink so LeakSanitizer
// sees them as reachable: a simulated crash must run no destructors (that is
// what the recovery assertions are about), but the bytes are not "lost".
void AbandonAfterSimulatedCrash(void* p) {
  static std::vector<void*>* sink = new std::vector<void*>();
  sink->push_back(p);
}

// Counts regular files under `base`, recursively. 0 for a missing dir.
// Other test binaries create and remove entries under the same directory
// concurrently, so nothing here throws: an entry or a subdirectory that
// vanishes mid-walk is skipped.
size_t CountSpillFiles(const fs::path& base) {
  std::error_code ec;
  size_t n = 0;
  for (fs::directory_iterator it(base, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code type_ec;
    if (it->is_directory(type_ec)) {
      n += CountSpillFiles(it->path());
    } else if (it->is_regular_file(type_ec)) {
      n++;
    }
  }
  return n;
}

class SpillTest : public ::testing::Test {
 protected:
  static constexpr int64_t kLRows = 4000;
  static constexpr int64_t kORows = 1200;

  void SetUp() override {
    failpoint::DisarmAll();
    dir_ = ::testing::TempDir() + "/vwise_spill_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    fs::remove_all(dir_);
    config_.vector_size = 64;
    config_.stripe_rows = 512;
    auto db = Database::Open(dir_, config_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    // "l": lineitem-shaped. l_key unique (join/build key and a unique sort
    // tiebreaker), l_grp a low-cardinality string, l_qty / l_price numeric.
    TableSchema l("l", {ColumnDef("l_key", DataType::Int64()),
                        ColumnDef("l_grp", DataType::Varchar()),
                        ColumnDef("l_qty", DataType::Int64()),
                        ColumnDef("l_price", DataType::Double())});
    ASSERT_TRUE(db_->CreateTable(l).ok());
    ASSERT_TRUE(db_->BulkLoad("l", [](TableWriter* w) -> Status {
      for (int64_t i = 0; i < kLRows; i++) {
        std::string grp = "g";
        grp += std::to_string(i % 7);
        VWISE_RETURN_IF_ERROR(w->AppendRow(
            {Value::Int(i), Value::String(grp),
             Value::Int(i % 50),
             Value::Double(static_cast<double>(i % 97) * 1.5)}));
      }
      return Status::OK();
    }).ok());
    // "o": orders-shaped probe side; keys stride past kLRows so outer and
    // anti joins see both matched and unmatched probe rows.
    TableSchema o("o", {ColumnDef("o_key", DataType::Int64()),
                        ColumnDef("o_prio", DataType::Int64())});
    ASSERT_TRUE(db_->CreateTable(o).ok());
    ASSERT_TRUE(db_->BulkLoad("o", [](TableWriter* w) -> Status {
      for (int64_t i = 0; i < kORows; i++) {
        VWISE_RETURN_IF_ERROR(
            w->AppendRow({Value::Int(i * 5), Value::Int(i % 3)}));
      }
      return Status::OK();
    }).ok());
  }

  void TearDown() override {
    failpoint::DisarmAll();
    db_.reset();
    fs::remove_all(dir_);
  }

  std::string SpillBase() const { return dir_ + "/spill"; }

  // Runs `build` twice through one session: unlimited budget (baseline) and
  // under `budget`. Asserts the budgeted run spilled, stayed within budget,
  // and produced bit-identical rows; returns the budgeted result.
  QueryResult RunAndCompare(PlanBuilder* plan, Session* session,
                            size_t budget) {
    auto prepared = session->Prepare(plan);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    Result<QueryResult> base = (*prepared)->Run();
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_EQ(base->spill_bytes_written, 0u)
        << "baseline run must stay in memory — lower the working set";
    QueryOptions opt;
    opt.memory_budget_bytes = budget;
    Result<QueryResult> budgeted = (*prepared)->Run(opt);
    EXPECT_TRUE(budgeted.ok()) << budgeted.status().ToString();
    if (!base.ok() || !budgeted.ok()) return {};
    EXPECT_GT(budgeted->spill_bytes_written, 0u)
        << "budget " << budget << " did not force a spill";
    EXPECT_LE(budgeted->peak_reserved_bytes, budget);
    EXPECT_EQ(base->rows.size(), budgeted->rows.size());
    if (base->rows.size() == budgeted->rows.size()) {
      for (size_t i = 0; i < base->rows.size(); i++) {
        EXPECT_EQ(base->rows[i], budgeted->rows[i]) << "row " << i;
      }
    }
    // Spill scratch is torn down eagerly when the breakers close.
    EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
    return std::move(*budgeted);
  }

  Config config_;
  std::string dir_;
  std::unique_ptr<Database> db_;
};

// --- accounting-bug regressions ---------------------------------------------

// offset_ + limit_ used to be added raw in ConsumeAndSort ("want") and
// Next ("end"); with limit near SIZE_MAX and a nonzero offset the sum
// wrapped to a tiny value and the sort silently emitted nothing.
TEST_F(SpillTest, SortOffsetPlusLimitDoesNotWrap) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("l", {0}).ok());
  q.Sort({SortKey{0, true}}, /*limit=*/SIZE_MAX - 2, /*offset=*/5);
  auto r = session->Query(&q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), static_cast<size_t>(kLRows - 5));
  EXPECT_EQ(r->rows.front()[0].AsInt(), 5);
  EXPECT_EQ(r->rows.back()[0].AsInt(), kLRows - 1);
}

// HashAgg used to reserve group memory only AFTER ProcessChunk had already
// inserted the groups, so the table could overrun the budget untracked.
// With the worst-case pre-reserve the overrun is caught up front and turns
// into a spill: total spilled state far exceeds the budget while the
// reservation high-water mark never does.
TEST_F(SpillTest, AggReservesWorstCaseBeforeInsertion) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("l", {0, 2}).ok());
  q.Agg({0}, {AggSpec::Sum(1)}, {DataType::Int64(), DataType::Int64()});
  q.Sort({SortKey{0, true}});
  constexpr size_t kBudget = 64 << 10;
  QueryResult r = RunAndCompare(&q, session.get(), kBudget);
  // ~4000 groups of state on disk: the table contents alone exceeded the
  // budget, which only a reserve-before-insert protocol can catch in time.
  EXPECT_GT(r.spill_bytes_written, kBudget);
}

// build_rows_ survived Close() and was never reset by OpenImpl, so the
// second execution of a prepared join indexed a rebuilt (smaller) build
// store with the stale doubled row count.
TEST_F(SpillTest, PreparedJoinReExecutesBitIdentically) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("o", {0, 1}).ok());
  PlanBuilder build = session->NewPlan();
  ASSERT_TRUE(build.Scan("l", {0, 2}).ok());
  q.Join(std::move(build), JoinType::kInner, {0}, {0}, {1});
  q.Sort({SortKey{0, true}});
  auto prepared = session->Prepare(&q);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Result<QueryResult> first = (*prepared)->Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->rows.size(), 800u);  // o keys 0,5,..,3995 hit l's 0..3999
  Result<QueryResult> second = (*prepared)->Run();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(first->rows.size(), second->rows.size());
  for (size_t i = 0; i < first->rows.size(); i++) {
    EXPECT_EQ(first->rows[i], second->rows[i]) << "row " << i;
  }
}

TEST_F(SpillTest, PreparedSortWithLimitReExecutesBitIdentically) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("l", {2, 0}).ok());
  q.Sort({SortKey{0, false}, SortKey{1, true}}, /*limit=*/50, /*offset=*/10);
  auto prepared = session->Prepare(&q);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Result<QueryResult> first = (*prepared)->Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->rows.size(), 50u);
  Result<QueryResult> second = (*prepared)->Run();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  for (size_t i = 0; i < first->rows.size(); i++) {
    EXPECT_EQ(first->rows[i], second->rows[i]) << "row " << i;
  }
}

// --- spill-path bit-identity (TPC-H-shaped plans) ----------------------------

// Q1 shape: scan -> filter -> grouped aggregation (string group key, sum /
// avg / min / max / count) -> sort. Budget ~1/8 of the in-memory working
// set: the agg radix-spills, the sort runs externally, and the final rows
// must come out bit-identical (the sort key is a unique total order).
TEST_F(SpillTest, Q1ShapeBitIdenticalUnderBudget) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("l", {1, 0, 2, 3}).ok());
  q.Select(e::Lt(q.Col(2), e::I64(48)));
  // Group by (l_grp, l_key): 7 * kLRows-ish distinct groups, string keys.
  q.Agg({0, 1},
        {AggSpec::Sum(2), AggSpec::Avg(3), AggSpec::Min(3), AggSpec::Max(2),
         AggSpec::CountStar()},
        {DataType::Varchar(), DataType::Int64(), DataType::Int64(),
         DataType::Double(), DataType::Double(), DataType::Int64(),
         DataType::Int64()});
  q.Sort({SortKey{0, true}, SortKey{1, true}});
  // ~1/8 of the in-memory working set (the agg state alone is ~360KB), but
  // enough headroom for one reloaded radix partition plus its table.
  RunAndCompare(&q, session.get(), /*budget=*/128 << 10);
}

// Q6 shape: scan -> filter -> ungrouped aggregation. The global aggregate
// never spills (one group), so this pins the budget path around it: the
// f64 sum must be bit-identical because input order never changes.
TEST_F(SpillTest, Q6ShapeBitIdenticalUnderBudget) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("l", {2, 3, 0}).ok());
  q.Select(e::Lt(q.Col(0), e::I64(25)));
  q.Agg({}, {AggSpec::Sum(1), AggSpec::CountStar()},
        {DataType::Double(), DataType::Int64()});
  // An ungrouped agg under any budget stays in memory; drive the spill from
  // a sort below it instead to keep the shape end-to-end spilling.
  auto prepared = session->Prepare(&q);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Result<QueryResult> base = (*prepared)->Run();
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  QueryOptions opt;
  opt.memory_budget_bytes = 16 << 10;
  Result<QueryResult> budgeted = (*prepared)->Run(opt);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  ASSERT_EQ(base->rows.size(), 1u);
  ASSERT_EQ(budgeted->rows.size(), 1u);
  EXPECT_EQ(base->rows[0], budgeted->rows[0]);
}

// Q3 shape: join -> grouped aggregation -> sort, everything under budget at
// once. Join partitions preserve within-partition probe order and a group's
// rows never straddle partitions (same key => same hash => same partition),
// so the f64 aggregate of every group adds in the same order and the final
// sorted rows are bit-identical.
TEST_F(SpillTest, Q3ShapeBitIdenticalUnderBudget) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("o", {0, 1}).ok());
  PlanBuilder build = session->NewPlan();
  ASSERT_TRUE(build.Scan("l", {0, 3}).ok());
  q.Join(std::move(build), JoinType::kInner, {0}, {0}, {1});
  q.Agg({0, 1}, {AggSpec::Sum(2), AggSpec::CountStar()},
        {DataType::Int64(), DataType::Int64(), DataType::Double(),
         DataType::Int64()});
  q.Sort({SortKey{0, true}, SortKey{1, true}});
  // Three stacked breakers share this budget; the join's partition reload
  // needs headroom next to the capped agg and sort buffers.
  RunAndCompare(&q, session.get(), /*budget=*/48 << 10);
}

// The join's own spill: inner join with string payload under a budget far
// below the build side. Sorted by the unique probe key, the spilled run
// must match the in-memory run row for row. Then f64 keys through the join
// and the aggregation, against the tuple engine.
TEST_F(SpillTest, JoinSpillBitIdentical) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("o", {0, 1}).ok());
  PlanBuilder build = session->NewPlan();
  ASSERT_TRUE(build.Scan("l", {0, 1, 3}).ok());
  q.Join(std::move(build), JoinType::kInner, {0}, {0}, {1, 2});
  q.Sort({SortKey{0, true}});
  RunAndCompare(&q, session.get(), /*budget=*/64 << 10);

  // f64 keys — negative, fractional, and both zeros (-0.0 == +0.0 must join
  // and group as one key) — through the join and the aggregation, in memory
  // and spilled, against the tuple engine. A hash that tells -0.0 from +0.0
  // misses matches and splits the zero group.
  TableSchema fk("fk", {ColumnDef("k", DataType::Double()),
                        ColumnDef("v", DataType::Int64())});
  ASSERT_TRUE(db_->CreateTable(fk).ok());
  std::vector<baseline::Row> fk_rows;
  for (int64_t i = 0; i < 3010; i++) {
    double k = static_cast<double>(i % 301 - 150) * 0.25;  // -37.5 .. 37.5
    if (k == 0.0 && i % 2 == 1) k = -0.0;
    fk_rows.push_back({Value::Double(k), Value::Int(i)});
  }
  ASSERT_TRUE(db_->BulkLoad("fk", [&](TableWriter* w) -> Status {
    for (const baseline::Row& row : fk_rows) {
      VWISE_RETURN_IF_ERROR(w->AppendRow(row));
    }
    return Status::OK();
  }).ok());
  auto canonical = [](std::vector<std::vector<Value>> rows) {
    std::sort(rows.begin(), rows.end(),
              [](const std::vector<Value>& a, const std::vector<Value>& b) {
                for (size_t i = 0; i < a.size(); i++) {
                  int c = Compare(a[i], b[i]);
                  if (c != 0) return c < 0;
                }
                return false;
              });
    return rows;
  };
  auto run = [&](PlanBuilder* plan, size_t budget) {
    auto prepared = session->Prepare(plan);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    if (!prepared.ok()) return std::vector<std::vector<Value>>();
    QueryOptions opt;
    opt.memory_budget_bytes = budget;
    Result<QueryResult> r = (*prepared)->Run(opt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return std::vector<std::vector<Value>>();
    EXPECT_EQ(r->spill_bytes_written > 0, budget > 0) << "budget " << budget;
    return canonical(std::move(r->rows));
  };
  {
    SCOPED_TRACE("f64 join");
    baseline::TupleHashJoin tuple(
        std::make_unique<baseline::TupleScan>(&fk_rows),
        std::make_unique<baseline::TupleScan>(&fk_rows),
        baseline::TupleHashJoin::Type::kInner, {0}, {0}, {1});
    auto expect = canonical(baseline::TupleCollect(&tuple));
    ASSERT_EQ(expect.size(), 30100u);  // 301 keys x 10 x 10
    for (size_t budget : {size_t{0}, size_t{16} << 10}) {
      PlanBuilder j = session->NewPlan();
      ASSERT_TRUE(j.Scan("fk", {0, 1}).ok());
      PlanBuilder jb = session->NewPlan();
      ASSERT_TRUE(jb.Scan("fk", {0, 1}).ok());
      j.Join(std::move(jb), JoinType::kInner, {0}, {0}, {1});
      EXPECT_EQ(run(&j, budget), expect) << "budget " << budget;
    }
  }
  {
    SCOPED_TRACE("f64 agg");
    baseline::TupleAgg tuple(
        std::make_unique<baseline::TupleScan>(&fk_rows), {0},
        {{baseline::TupleAgg::Fn::kCountStar, 0},
         {baseline::TupleAgg::Fn::kSumI64, 1}});
    auto expect = canonical(baseline::TupleCollect(&tuple));
    ASSERT_EQ(expect.size(), 301u);
    for (size_t budget : {size_t{0}, size_t{8} << 10}) {
      PlanBuilder a = session->NewPlan();
      ASSERT_TRUE(a.Scan("fk", {0, 1}).ok());
      a.Agg({0}, {AggSpec::CountStar(), AggSpec::Sum(1)},
            {DataType::Double(), DataType::Int64(), DataType::Int64()});
      EXPECT_EQ(run(&a, budget), expect) << "budget " << budget;
    }
  }
}

TEST_F(SpillTest, LeftOuterJoinSpillBitIdentical) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("o", {0, 1}).ok());
  PlanBuilder build = session->NewPlan();
  ASSERT_TRUE(build.Scan("l", {0, 1}).ok());
  q.Join(std::move(build), JoinType::kLeftOuter, {0}, {0}, {1});
  q.Sort({SortKey{0, true}});
  QueryResult r = RunAndCompare(&q, session.get(), /*budget=*/40 << 10);
  // Probe keys stride to 5995; l stops at 3999, so the tail rows are
  // unmatched and zero-padded with the match flag down.
  ASSERT_EQ(r.rows.size(), static_cast<size_t>(kORows));
}

TEST_F(SpillTest, SemiAndAntiJoinSpillBitIdentical) {
  auto session = db_->Connect();
  for (JoinType type : {JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    SCOPED_TRACE(static_cast<int>(type));
    PlanBuilder q = session->NewPlan();
    ASSERT_TRUE(q.Scan("o", {0, 1}).ok());
    PlanBuilder build = session->NewPlan();
    ASSERT_TRUE(build.Scan("l", {0}).ok());
    q.Join(std::move(build), type, {0}, {0});
    q.Sort({SortKey{0, true}});
    QueryResult r = RunAndCompare(&q, session.get(), /*budget=*/24 << 10);
    // o keys 0,5,...: 800 land inside l's 0..3999, 400 beyond it.
    ASSERT_EQ(r.rows.size(), type == JoinType::kLeftSemi ? 800u : 400u);
  }
}

// The external sort alone, with a string column in flight and a unique
// total order.
TEST_F(SpillTest, ExternalSortBitIdentical) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("l", {2, 1, 0}).ok());
  q.Sort({SortKey{0, false}, SortKey{2, true}});
  RunAndCompare(&q, session.get(), /*budget=*/24 << 10);
}

// A budget below one chunk of input (64 rows of about 40 bytes): every chunk
// becomes a run of its own, and the runs, far too many to merge at once,
// are merged on disk first. Ties must still resolve in input order.
TEST_F(SpillTest, ExternalSortMergesOnDiskUnderTinyBudget) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("l", {2, 1, 0}).ok());
  q.Sort({SortKey{0, false}, SortKey{1, true}});
  RunAndCompare(&q, session.get(), /*budget=*/2 << 10);
}

TEST_F(SpillTest, ExternalSortHonorsLimitAndOffset) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("l", {2, 0}).ok());
  q.Sort({SortKey{0, true}, SortKey{1, false}}, /*limit=*/100, /*offset=*/37);
  QueryResult r = RunAndCompare(&q, session.get(), /*budget=*/24 << 10);
  ASSERT_EQ(r.rows.size(), 100u);
}

// EXPLAIN ANALYZE surfaces the degradation: per-node spill annotations plus
// the query-level byte and file totals.
TEST_F(SpillTest, ExplainAnalyzeShowsSpill) {
  Config cfg = config_;
  cfg.profile = true;
  auto db = Database::Open(dir_ + "_prof", cfg);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  TableSchema t("t", {ColumnDef("k", DataType::Int64()),
                      ColumnDef("v", DataType::Int64())});
  ASSERT_TRUE((*db)->CreateTable(t).ok());
  ASSERT_TRUE((*db)->BulkLoad("t", [](TableWriter* w) -> Status {
    for (int64_t i = 0; i < 4000; i++) {
      VWISE_RETURN_IF_ERROR(w->AppendRow({Value::Int(i), Value::Int(i % 9)}));
    }
    return Status::OK();
  }).ok());
  auto session = (*db)->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("t", {0, 1}).ok());
  q.Agg({0}, {AggSpec::Sum(1)}, {DataType::Int64(), DataType::Int64()});
  q.Sort({SortKey{0, true}});
  auto prepared = session->Prepare(&q);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  QueryOptions opt;
  // Half of this budget must cover one reloaded agg partition (~24KB for
  // 4000 unique groups over 8 partitions) beside the capped sort buffer.
  opt.memory_budget_bytes = 64 << 10;
  auto handle = (*prepared)->Execute(opt);
  const Result<QueryResult>& r = handle->Wait();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->spill_bytes_written, 0u);
  const std::string& profile = handle->profile();
  EXPECT_NE(profile.find("spill_partitions="), std::string::npos) << profile;
  EXPECT_NE(profile.find("spill_runs="), std::string::npos) << profile;
  EXPECT_NE(profile.find("spill: bytes_written="), std::string::npos)
      << profile;
  // One scratch file per spilling operator: the aggregation's, the sort's.
  EXPECT_NE(profile.find(" files=2\n"), std::string::npos) << profile;
  // Unbudgeted, the same plan reports no spill lines.
  auto clean = (*prepared)->Execute();
  ASSERT_TRUE(clean->Wait().ok());
  EXPECT_EQ(clean->profile().find("spill"), std::string::npos)
      << clean->profile();
  session.reset();
  db->reset();
  fs::remove_all(dir_ + "_prof");
}

// --- recursive repartitioning -----------------------------------------------

// Sorts rows by their (unique, integer) first column: spilled output is
// partition-major, so comparisons against an in-memory baseline need a
// canonical order that doesn't depend on partitioning shape.
void SortRowsByFirstCol(std::vector<std::vector<Value>>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              return a[0].AsInt() < b[0].AsInt();
            });
}

// Reads "<key>=<number>" from the first profile line containing `node`;
// -1 when the node or the key is missing.
int64_t ProfileField(const std::string& profile, const std::string& node,
                     const std::string& key) {
  size_t at = profile.find(node);
  if (at == std::string::npos) return -1;
  size_t eol = profile.find('\n', at);
  std::string line = profile.substr(at, eol == std::string::npos
                                            ? std::string::npos
                                            : eol - at);
  size_t k = line.find(" " + key + "=");
  if (k == std::string::npos) k = line.find("[" + key + "=");
  if (k == std::string::npos) return -1;
  return std::stoll(line.substr(k + key.size() + 2));
}

// Spilled rows travel in full vectors: however a grace join or a spilled
// aggregation routes rows into partitions and splits them, the partition
// runs hold blocks of one vector, so the reload (and the grace join's
// probe, which runs on the reloaded blocks) works at vector size. With a
// block per partition per input chunk, a split's children reloaded a few
// rows per chunk. EXPLAIN ANALYZE shows both: the join's rows per emitted
// chunk and each breaker's spill_rows / spill_blocks. However many
// partitions, levels or sort runs a breaker writes, they share its one
// scratch file: the query-level spill line reports files=1.
TEST_F(SpillTest, SpilledRowsReloadAtVectorSize) {
  Config cfg = config_;
  cfg.profile = true;
  const std::string db_dir = dir_ + "_vec";
  auto db = Database::Open(db_dir, cfg);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  TableSchema t("t", {ColumnDef("k", DataType::Int64()),
                      ColumnDef("v", DataType::Int64())});
  ASSERT_TRUE((*db)->CreateTable(t).ok());
  ASSERT_TRUE((*db)->BulkLoad("t", [](TableWriter* w) -> Status {
    for (int64_t i = 0; i < 8000; i++) {
      VWISE_RETURN_IF_ERROR(w->AppendRow({Value::Int(i), Value::Int(i % 9)}));
    }
    return Status::OK();
  }).ok());
  auto session = (*db)->Connect();
  const int64_t half_vector = static_cast<int64_t>(cfg.vector_size / 2);
  auto run = [&](PlanBuilder* q, size_t budget, const char* node) {
    SCOPED_TRACE(node);
    auto prepared = session->Prepare(q);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto base = (*prepared)->Execute();
    const Result<QueryResult>& expect = base->Wait();
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();
    QueryOptions opt;
    opt.memory_budget_bytes = budget;
    auto handle = (*prepared)->Execute(opt);
    const Result<QueryResult>& r = handle->Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::vector<Value>> want = expect->rows;
    std::vector<std::vector<Value>> got = r->rows;
    SortRowsByFirstCol(&want);
    SortRowsByFirstCol(&got);
    EXPECT_EQ(got, want);
    const std::string& profile = handle->profile();
    EXPECT_EQ(ProfileField(profile, "spill:", "files"), 1) << profile;
    if (std::string(node) == "Sort") {
      EXPECT_GE(ProfileField(profile, node, "spill_runs"), 2) << profile;
      return;
    }
    EXPECT_GE(ProfileField(profile, node, "repartitions"), 1) << profile;
    int64_t rows = ProfileField(profile, node, "spill_rows");
    int64_t blocks = ProfileField(profile, node, "spill_blocks");
    ASSERT_GT(blocks, 0) << profile;
    EXPECT_GE(rows / blocks, half_vector) << profile;
    if (std::string(node) == "HashJoin") {
      int64_t out = ProfileField(profile, node, "rows");
      int64_t chunks = ProfileField(profile, node, "chunks");
      ASSERT_GT(chunks, 0) << profile;
      EXPECT_GE(out / chunks, half_vector) << profile;
    }
  };
  {
    PlanBuilder q = session->NewPlan();
    ASSERT_TRUE(q.Scan("t", {0, 1}).ok());
    PlanBuilder build = session->NewPlan();
    ASSERT_TRUE(build.Scan("t", {0, 1}).ok());
    q.Join(std::move(build), JoinType::kInner, {0}, {0}, {1});
    run(&q, 32 << 10, "HashJoin");
  }
  {
    PlanBuilder q = session->NewPlan();
    ASSERT_TRUE(q.Scan("t", {0, 1}).ok());
    q.Agg({0}, {AggSpec::Sum(1)}, {DataType::Int64(), DataType::Int64()});
    run(&q, 32 << 10, "HashAgg");
  }
  {
    PlanBuilder q = session->NewPlan();
    ASSERT_TRUE(q.Scan("t", {0, 1}).ok());
    q.Sort({SortKey{0, true}});
    run(&q, 32 << 10, "Sort");
  }
  session.reset();
  db->reset();
  fs::remove_all(db_dir);
}

// A build side within half the budget whose buckets did not fit in the other
// half used to fail the query with ResourceExhausted instead of spilling, so
// success was not monotone in the budget. Every budget of the sweep must
// answer, with the unlimited run's rows.
TEST_F(SpillTest, JoinBudgetSweepSpillsWhenTheTableDoesNotFit) {
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("o", {0, 1}).ok());
  PlanBuilder build = session->NewPlan();
  ASSERT_TRUE(build.Scan("l", {0}).ok());
  q.Join(std::move(build), JoinType::kLeftSemi, {0}, {0});
  auto prepared = session->Prepare(&q);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Result<QueryResult> base = (*prepared)->Run();
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_EQ(base->rows.size(), 800u);
  std::vector<std::vector<Value>> expect = base->rows;
  SortRowsByFirstCol(&expect);
  for (size_t budget = 16 << 10; budget <= 128 << 10; budget += 4 << 10) {
    QueryOptions opt;
    opt.memory_budget_bytes = budget;
    Result<QueryResult> r = (*prepared)->Run(opt);
    ASSERT_TRUE(r.ok()) << "budget " << budget << ": " << r.status().ToString();
    SortRowsByFirstCol(&r->rows);
    EXPECT_EQ(r->rows, expect) << "budget " << budget;
    EXPECT_EQ(CountSpillFiles(SpillBase()), 0u) << "budget " << budget;
  }
}

// The buckets can outgrow the rows they link: 1 025 one-byte keys hold 13
// bytes a row (key, stored hash, link) but need 16 KiB of buckets. Budgets
// of at least twice the rows, yet below rows plus buckets, keep the rows in
// memory and then cannot reserve the buckets; the join must degrade to the
// grace join there. Spilling stops once the budget holds both.
TEST_F(SpillTest, JoinSpillsWhenOnlyTheBucketsDoNotFit) {
  TableSchema b("b", {ColumnDef("flag", DataType::Bool())});
  ASSERT_TRUE(db_->CreateTable(b).ok());
  ASSERT_TRUE(db_->BulkLoad("b", [](TableWriter* w) -> Status {
    for (int64_t i = 0; i < 1025; i++) {
      VWISE_RETURN_IF_ERROR(w->AppendRow({Value::Int(i % 2)}));
    }
    return Status::OK();
  }).ok());
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("b", {0}).ok());
  PlanBuilder build = session->NewPlan();
  ASSERT_TRUE(build.Scan("b", {0}).ok());
  q.Join(std::move(build), JoinType::kLeftSemi, {0}, {0});
  auto prepared = session->Prepare(&q);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  bool in_memory = false;
  for (size_t budget = 20 << 10; budget <= 36 << 10; budget += 1 << 10) {
    QueryOptions opt;
    opt.memory_budget_bytes = budget;
    Result<QueryResult> r = (*prepared)->Run(opt);
    ASSERT_TRUE(r.ok()) << "budget " << budget << ": " << r.status().ToString();
    EXPECT_EQ(r->rows.size(), 1025u) << "budget " << budget;
    EXPECT_LE(r->peak_reserved_bytes, budget);
    bool spilled = r->spill_bytes_written > 0;
    EXPECT_FALSE(in_memory && spilled) << "budget " << budget;
    in_memory |= !spilled;
  }
  EXPECT_TRUE(in_memory);
  EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
}

// A budget small enough that a level-0 partition's build side alone overruns
// it forces the join to re-partition recursively. With spill_partitions=2
// every level halves the partition, so the first one or two halvings still
// do not fit and the join must go depth >= 2 — exactly the shape that used
// to die with ResourceExhausted when one grace level was all there was.
TEST_F(SpillTest, JoinRepartitionsOversizedPartitionBeyondDepth2) {
  Config cfg = config_;
  cfg.spill_partitions = 2;
  cfg.spill_max_repartition_depth = 6;
  auto snap_l = db_->Internals().tm->GetSnapshot("l");
  ASSERT_TRUE(snap_l.ok());
  auto snap_o = db_->Internals().tm->GetSnapshot("o");
  ASSERT_TRUE(snap_o.ok());
  auto make_join = [&]() -> OperatorPtr {
    HashJoinOperator::Spec spec;
    spec.probe_keys = {0};
    spec.build_keys = {0};
    spec.build_payload = {1};
    return std::make_unique<HashJoinOperator>(
        std::make_unique<ScanOperator>(*snap_o, std::vector<uint32_t>{0, 1},
                                       cfg),
        std::make_unique<ScanOperator>(*snap_l, std::vector<uint32_t>{0, 2},
                                       cfg),
        std::move(spec), cfg);
  };
  // Baseline: unconstrained, in memory.
  OperatorPtr base_op = make_join();
  QueryContext base_ctx;
  Result<QueryResult> base = CollectRows(base_op.get(), &base_ctx,
                                         cfg.vector_size);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_EQ(base->rows.size(), 800u);

  OperatorPtr op = make_join();
  auto* join = static_cast<HashJoinOperator*>(op.get());
  QueryContext ctx;
  ctx.set_memory_budget(8 << 10);  // far below one half of the build side
  ctx.set_spill_dir(SpillBase());
  Result<QueryResult> r = CollectRows(op.get(), &ctx, cfg.vector_size);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(join->spill_repartition_depth(), 2u)
      << "budget fit after " << join->spill_repartitions()
      << " repartitions — tighten it";
  EXPECT_GE(join->spill_repartitions(), 2u);
  SortRowsByFirstCol(&base->rows);
  SortRowsByFirstCol(&r->rows);
  ASSERT_EQ(base->rows.size(), r->rows.size());
  for (size_t i = 0; i < base->rows.size(); i++) {
    EXPECT_EQ(base->rows[i], r->rows[i]) << "row " << i;
  }
  op->Close();
  EXPECT_EQ(ctx.reserved_bytes(), 0u);
  EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
}

// The aggregation-side twin: one partition's merged groups alone exceed the
// budget, so the emit phase splits it onto fresh radix levels until each
// child's group set fits.
TEST_F(SpillTest, AggRepartitionsOversizedPartitionBeyondDepth2) {
  Config cfg = config_;
  cfg.spill_partitions = 2;
  cfg.spill_max_repartition_depth = 6;
  auto snap = db_->Internals().tm->GetSnapshot("l");
  ASSERT_TRUE(snap.ok());
  auto make_agg = [&]() -> OperatorPtr {
    return std::make_unique<HashAggOperator>(
        std::make_unique<ScanOperator>(*snap, std::vector<uint32_t>{0, 2},
                                       cfg),
        std::vector<size_t>{0}, std::vector<AggSpec>{AggSpec::Sum(1)}, cfg);
  };
  OperatorPtr base_op = make_agg();
  QueryContext base_ctx;
  Result<QueryResult> base = CollectRows(base_op.get(), &base_ctx,
                                         cfg.vector_size);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_EQ(base->rows.size(), static_cast<size_t>(kLRows));

  OperatorPtr op = make_agg();
  auto* agg = static_cast<HashAggOperator*>(op.get());
  QueryContext ctx;
  ctx.set_memory_budget(8 << 10);  // ~2000 groups per level-0 partition
  ctx.set_spill_dir(SpillBase());
  Result<QueryResult> r = CollectRows(op.get(), &ctx, cfg.vector_size);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(agg->spill_repartition_depth(), 2u)
      << "budget fit after " << agg->spill_repartitions()
      << " repartitions — tighten it";
  SortRowsByFirstCol(&base->rows);
  SortRowsByFirstCol(&r->rows);
  ASSERT_EQ(base->rows.size(), r->rows.size());
  for (size_t i = 0; i < base->rows.size(); i++) {
    EXPECT_EQ(base->rows[i], r->rows[i]) << "row " << i;
  }
  op->Close();
  EXPECT_EQ(ctx.reserved_bytes(), 0u);
  EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
}

// --- aggregate lanes ---------------------------------------------------------

// One generated row of LaneSource: two group keys and one aggregate input
// per numeric physical type. f64 inputs are multiples of 0.25 below 2^20 and
// integer sums stay below 2^53, so every sum and average is exact in any
// accumulation order and spilled runs must match bit for bit. No NaN: MIN/MAX
// over NaN is unspecified.
struct LaneRow {
  int64_t g1;
  int32_t g2;
  uint8_t u8;
  int32_t i32;
  int64_t i64;
  double f64;
};

LaneRow MakeLaneRow(int64_t i) {
  // Groups 0-4 take two rows in three, so they gather several rows between
  // two spills and their spilled partials carry counts above 1.
  return {i % 3 == 0 ? i % 97 : i % 5,
          static_cast<int32_t>((i / 7) % 5 - 2),
          static_cast<uint8_t>((i * 7) % 251),
          static_cast<int32_t>((i * 7919) % 20011 - 10000),
          ((i * 1000003) % 2000003 - 1000000) * 100003,
          static_cast<double>((i * 7877) % 4000001 - 2000000) * 0.25};
}

// LaneSource's column types: g1, g2, then the aggregate inputs.
const std::vector<TypeId>& LaneTypes() {
  static const std::vector<TypeId> types = {TypeId::kI64, TypeId::kI32,
                                            TypeId::kU8,  TypeId::kI32,
                                            TypeId::kI64, TypeId::kF64};
  return types;
}

// Emits LaneRows [0, rows) as LaneTypes() chunks of `vector_size` rows;
// every third chunk selects all but each fourth row.
class LaneSource final : public Operator {
 public:
  LaneSource(int64_t rows, size_t vector_size)
      : rows_(rows), vector_size_(vector_size) {}

  // Whether row i reaches the consumer (is not dropped by a selection).
  static bool Active(int64_t i, size_t vector_size) {
    return (i / static_cast<int64_t>(vector_size)) % 3 != 1 || i % 4 != 3;
  }

  const std::vector<TypeId>& OutputTypes() const override {
    return LaneTypes();
  }

 private:
  Status NextImpl(DataChunk* out) override {
    size_t n = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(vector_size_), rows_ - next_));
    size_t active = 0;
    for (size_t i = 0; i < n; i++) {
      int64_t row = next_ + static_cast<int64_t>(i);
      LaneRow r = MakeLaneRow(row);
      out->column(0).Data<int64_t>()[i] = r.g1;
      out->column(1).Data<int32_t>()[i] = r.g2;
      out->column(2).Data<uint8_t>()[i] = r.u8;
      out->column(3).Data<int32_t>()[i] = r.i32;
      out->column(4).Data<int64_t>()[i] = r.i64;
      out->column(5).Data<double>()[i] = r.f64;
      if (Active(row, vector_size_)) {
        out->MutableSel()[active++] = static_cast<sel_t>(i);
      }
    }
    out->SetCount(n);
    if (active < n) out->SetSelection(active);
    next_ += static_cast<int64_t>(n);
    return Status::OK();
  }
  void CloseImpl() override {}
  Status OpenImpl() override {
    next_ = 0;
    return Status::OK();
  }

  int64_t rows_;
  size_t vector_size_;
  int64_t next_ = 0;
};

// Expected aggregate columns of HashAgg over `rows` (one group's active
// LaneRows; empty for the global group of an empty input), computed a row at
// a time: SUM/COUNT/MIN/MAX/AVG by the typing rules.
std::vector<Value> ReferenceAggs(const std::vector<AggSpec>& aggs,
                                 const std::vector<LaneRow>& rows) {
  std::vector<Value> out;
  for (const AggSpec& a : aggs) {
    int64_t n = static_cast<int64_t>(rows.size());
    if (a.fn == AggSpec::Fn::kCount || a.fn == AggSpec::Fn::kCountStar) {
      out.push_back(Value::Int(n));
      continue;
    }
    auto input = [&](const LaneRow& r) -> double {
      switch (a.col) {
        case 2: return r.u8;
        case 3: return r.i32;
        case 4: return static_cast<double>(r.i64);
        default: return r.f64;
      }
    };
    bool is_f64 = a.col == 5;
    int64_t isum = 0;
    double fsum = 0;
    double lo = 0, hi = 0;
    for (size_t i = 0; i < rows.size(); i++) {
      double v = input(rows[i]);
      if (!is_f64) {
        isum += a.col == 4 ? rows[i].i64 : static_cast<int64_t>(v);
      }
      fsum += v;
      lo = i == 0 ? v : std::min(lo, v);
      hi = i == 0 ? v : std::max(hi, v);
    }
    auto number = [&](double v) {
      return is_f64 ? Value::Double(v) : Value::Int(static_cast<int64_t>(v));
    };
    switch (a.fn) {
      case AggSpec::Fn::kSum:
        out.push_back(is_f64 ? Value::Double(fsum) : Value::Int(isum));
        break;
      case AggSpec::Fn::kMin:
        out.push_back(number(lo));
        break;
      case AggSpec::Fn::kMax:
        out.push_back(number(hi));
        break;
      case AggSpec::Fn::kAvg: {
        double sum = is_f64 ? fsum : static_cast<double>(isum);
        double avg = n == 0 ? 0.0 : sum / static_cast<double>(n);
        out.push_back(Value::Double(avg));
        break;
      }
      default:
        break;
    }
  }
  return out;
}

// Rows equal value for value, doubles bit for bit.
void ExpectSameRows(const std::vector<std::vector<Value>>& expected,
                    const std::vector<std::vector<Value>>& got,
                    const std::string& label) {
  ASSERT_EQ(expected.size(), got.size()) << label;
  for (size_t r = 0; r < expected.size(); r++) {
    ASSERT_EQ(expected[r].size(), got[r].size()) << label;
    for (size_t c = 0; c < expected[r].size(); c++) {
      const Value& e = expected[r][c];
      const Value& g = got[r][c];
      ASSERT_EQ(e.kind(), g.kind()) << label << " row " << r << " col " << c;
      if (e.kind() == Value::Kind::kDouble) {
        EXPECT_EQ(std::bit_cast<uint64_t>(e.AsDouble()),
                  std::bit_cast<uint64_t>(g.AsDouble()))
            << label << " row " << r << " col " << c << ": " << e.AsDouble()
            << " vs " << g.AsDouble();
      } else {
        EXPECT_EQ(e, g) << label << " row " << r << " col " << c;
      }
    }
  }
}

// Every aggregate function over u8, i32, i64 and f64 inputs, grouped by 0, 1
// and 2 columns, over 3000 rows and over none: in memory, under a budget
// that spills, and under one that also repartitions. Each run must equal a
// row-at-a-time reference, and the output types must follow the typing rules.
TEST_F(SpillTest, AggLanesMatchReferenceForEveryFunctionAndInputType) {
  constexpr size_t kVec = 16;
  std::vector<AggSpec> aggs = {AggSpec::CountStar()};
  std::vector<TypeId> agg_types = {TypeId::kI64};
  for (size_t col : {2, 3, 4, 5}) {
    TypeId in = LaneTypes()[col];
    TypeId sum = in == TypeId::kF64 ? TypeId::kF64 : TypeId::kI64;
    TypeId minmax = in == TypeId::kU8 ? TypeId::kI64 : in;
    for (AggSpec a : {AggSpec::Sum(col), AggSpec::Min(col), AggSpec::Max(col),
                      AggSpec::Count(col), AggSpec::Avg(col)}) {
      aggs.push_back(a);
    }
    for (TypeId t : {sum, minmax, minmax, TypeId::kI64, TypeId::kF64}) {
      agg_types.push_back(t);
    }
  }
  struct Budget {
    const char* name;
    size_t bytes;  // 0: unlimited
    size_t partitions;
  };
  const Budget budgets[] = {
      {"in memory", 0, 8},
      {"spill", 16 << 10, 8},
      {"repartition", 12 << 10, 2}};
  for (int64_t rows : {int64_t{3000}, int64_t{0}}) {
    for (const std::vector<size_t>& group_cols :
         {std::vector<size_t>{}, std::vector<size_t>{0},
          std::vector<size_t>{0, 1}}) {
      // The reference: active rows by key, in key order.
      std::map<std::vector<int64_t>, std::vector<LaneRow>> groups;
      for (int64_t i = 0; i < rows; i++) {
        if (!LaneSource::Active(i, kVec)) continue;
        LaneRow r = MakeLaneRow(i);
        std::vector<int64_t> key;
        for (size_t g : group_cols) key.push_back(g == 0 ? r.g1 : r.g2);
        groups[key].push_back(r);
      }
      if (group_cols.empty() && groups.empty()) groups[{}];  // global group
      std::vector<std::vector<Value>> expected;
      for (const auto& [key, members] : groups) {
        std::vector<Value> row;
        for (int64_t k : key) row.push_back(Value::Int(k));
        for (Value& v : ReferenceAggs(aggs, members)) row.push_back(v);
        expected.push_back(std::move(row));
      }
      for (const Budget& b : budgets) {
        std::string label = std::to_string(rows) + " rows, " +
                            std::to_string(group_cols.size()) +
                            " group cols, " + b.name;
        Config cfg = config_;
        cfg.vector_size = kVec;
        cfg.spill_partitions = b.partitions;
        cfg.spill_max_repartition_depth = 8;
        HashAggOperator agg(std::make_unique<LaneSource>(rows, kVec),
                            group_cols, aggs, cfg);
        std::vector<TypeId> types;
        for (size_t g : group_cols) types.push_back(LaneTypes()[g]);
        types.insert(types.end(), agg_types.begin(), agg_types.end());
        EXPECT_EQ(agg.OutputTypes(), types) << label;
        QueryContext ctx;
        if (b.bytes != 0) ctx.set_memory_budget(b.bytes);
        ctx.set_spill_dir(SpillBase());
        Result<QueryResult> r = CollectRows(&agg, &ctx, kVec);
        ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
        auto key_less = [&](const std::vector<Value>& x,
                            const std::vector<Value>& y) {
          for (size_t k = 0; k < group_cols.size(); k++) {
            int64_t lhs = x[k].AsInt(), rhs = y[k].AsInt();
            if (lhs != rhs) return lhs < rhs;
          }
          return false;
        };
        std::sort(r->rows.begin(), r->rows.end(), key_less);
        ExpectSameRows(expected, r->rows, label);
        if (rows > 0 && !group_cols.empty() && b.bytes != 0) {
          EXPECT_GT(agg.spill_stats().partitions, 0u) << label;
          if (b.partitions == 2) {
            EXPECT_GT(agg.spill_repartitions(), 0u) << label;
          }
        }
        agg.Close();
        EXPECT_EQ(ctx.reserved_bytes(), 0u) << label;
      }
    }
  }
  EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
}

// A sliced partition reload hands MergeLane a selection over a state chunk:
// the value and the count of state row i are both read at position sel[i].
TEST(AggMergeLaneTest, MergesStateRowsThroughASelection) {
  // State rows at positions 0..5; the slice selects 1, 3 and 4, merged into
  // groups 0, 0 and 1. The unselected positions hold counts that would
  // change every answer if read instead.
  const int64_t ivals[] = {100, 2, 100, 4, 6, 100};
  const double fvals[] = {100, 2, 100, 4, 6, 100};
  const int64_t counts[] = {0, 1, 9, 3, 0, 9};
  const sel_t sel[] = {1, 3, 4};
  const uint32_t groups[] = {0, 0, 1};
  {
    int64_t value[2] = {0, 0};
    int64_t count[2] = {0, 0};
    MergeLane(AggSpec::Fn::kMin, ivals, sel, counts, groups, 3, value, count);
    EXPECT_EQ(value[0], 2);
    EXPECT_EQ(count[0], 1);
    EXPECT_EQ(count[1], 0);  // position 4 is a no-data partial
  }
  {
    int64_t value[2] = {0, 0};
    int64_t count[2] = {0, 0};
    MergeLane(AggSpec::Fn::kMax, ivals, sel, counts, groups, 3, value, count);
    EXPECT_EQ(value[0], 4);
    EXPECT_EQ(count[0], 1);
    EXPECT_EQ(value[1], 0);
    EXPECT_EQ(count[1], 0);
  }
  {
    double value[2] = {0, 0};
    int64_t count[2] = {0, 0};
    MergeLane(AggSpec::Fn::kAvg, fvals, sel, counts, groups, 3, value, count);
    EXPECT_EQ(value[0], 6.0);
    EXPECT_EQ(count[0], 4);
    EXPECT_EQ(value[1], 6.0);
    EXPECT_EQ(count[1], 0);
  }
  {
    // A count's state is its value lane: the selected partial counts add.
    int64_t value[2] = {0, 0};
    MergeLane(AggSpec::Fn::kCount, counts, sel, nullptr, groups, 3, value,
              static_cast<int64_t*>(nullptr));
    EXPECT_EQ(value[0], 4);
    EXPECT_EQ(value[1], 0);
  }
}

// A budget far below one reload block's worst case: under 16 KiB with
// 1024-row vectors the table flushes every few dozen input rows, so each of
// the hot groups 0-4 leaves hundreds of state rows in its partition run,
// more than the budget holds as fresh groups. Splitting cannot help (a
// key's rows all land in one child); the reload must merge each block a
// slice at a time, and answer like the unbudgeted run.
TEST_F(SpillTest, AggReloadReservesASliceAtATime) {
  constexpr size_t kVec = 1024;
  constexpr int64_t kRows = 60000;
  Config cfg = config_;
  cfg.vector_size = kVec;
  const std::vector<AggSpec> aggs = {AggSpec::Sum(2), AggSpec::Min(3),
                                     AggSpec::Max(4), AggSpec::Avg(5),
                                     AggSpec::Count(3)};
  auto run = [&](size_t budget, RadixSpill::Stats* stats) {
    HashAggOperator agg(std::make_unique<LaneSource>(kRows, kVec),
                        std::vector<size_t>{0}, aggs, cfg);
    QueryContext ctx;
    ctx.set_memory_budget(budget);
    ctx.set_spill_dir(SpillBase());
    Result<QueryResult> r = CollectRows(&agg, &ctx, kVec);
    *stats = agg.spill_stats();
    agg.Close();
    EXPECT_EQ(ctx.reserved_bytes(), 0u);
    EXPECT_TRUE(r.ok()) << "budget " << budget << ": " << r.status().ToString();
    if (!r.ok()) return std::vector<std::vector<Value>>();
    EXPECT_LE(r->peak_reserved_bytes, budget == 0 ? SIZE_MAX : budget);
    SortRowsByFirstCol(&r->rows);
    return r->rows;
  };
  RadixSpill::Stats stats;
  std::vector<std::vector<Value>> expect = run(0, &stats);
  ASSERT_EQ(expect.size(), 97u);
  std::vector<std::vector<Value>> got = run(16 << 10, &stats);
  // The hot groups alone left more state rows than 16 KiB of fresh groups.
  EXPECT_GT(stats.rows, 5 * (16 << 10) / (KeyTable::kRowBytes + 8 + 24));
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_EQ(got, expect);
  EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
}

// The depth bound is a real guard: identical keys hash identically at every
// level, so no amount of re-partitioning can split a one-key flood. The
// query must fail with ResourceExhausted once the bound is hit — not loop.
TEST_F(SpillTest, DuplicateKeyFloodExhaustsDepthBoundCleanly) {
  Config cfg = config_;
  cfg.spill_partitions = 2;
  cfg.spill_max_repartition_depth = 2;
  TableSchema dup("dup", {ColumnDef("k", DataType::Int64()),
                          ColumnDef("v", DataType::Int64())});
  ASSERT_TRUE(db_->CreateTable(dup).ok());
  ASSERT_TRUE(db_->BulkLoad("dup", [](TableWriter* w) -> Status {
    for (int64_t i = 0; i < 4000; i++) {
      VWISE_RETURN_IF_ERROR(w->AppendRow({Value::Int(7), Value::Int(i)}));
    }
    return Status::OK();
  }).ok());
  auto snap = db_->Internals().tm->GetSnapshot("dup");
  ASSERT_TRUE(snap.ok());
  HashJoinOperator::Spec spec;
  spec.probe_keys = {0};
  spec.build_keys = {0};
  spec.build_payload = {1};
  HashJoinOperator join(
      std::make_unique<ScanOperator>(*snap, std::vector<uint32_t>{0}, cfg),
      std::make_unique<ScanOperator>(*snap, std::vector<uint32_t>{0, 1}, cfg),
      std::move(spec), cfg);
  QueryContext ctx;
  ctx.set_memory_budget(8 << 10);
  ctx.set_spill_dir(SpillBase());
  Result<QueryResult> r = CollectRows(&join, &ctx, cfg.vector_size);
  ASSERT_FALSE(r.ok()) << "a 4000^2-row one-key join fit in 8KB?";
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_EQ(join.spill_repartition_depth(), 2u);  // bound reached, then fail
  join.Close();
  EXPECT_EQ(ctx.reserved_bytes(), 0u);
  EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
}

// --- budget exhaustion with spilling disabled --------------------------------

// Every breaker's Grow/Reserve site fails cleanly when spilling is off: the
// query reports ResourceExhausted, the context drains to zero reserved
// bytes, and the tree can be re-run within the same process.
TEST_F(SpillTest, BudgetExhaustionSweepFailsCleanWithoutSpill) {
  Config cfg = config_;
  cfg.enable_spill = false;
  auto snap_l = db_->Internals().tm->GetSnapshot("l");
  ASSERT_TRUE(snap_l.ok());
  auto snap_o = db_->Internals().tm->GetSnapshot("o");
  ASSERT_TRUE(snap_o.ok());

  struct Case {
    const char* name;
    size_t budget;
    std::function<OperatorPtr()> make;
  };
  const Case cases[] = {
      {"join build", 2048,
       [&]() -> OperatorPtr {
         HashJoinOperator::Spec spec;
         spec.probe_keys = {0};
         spec.build_keys = {0};
         spec.build_payload = {1};
         return std::make_unique<HashJoinOperator>(
             std::make_unique<ScanOperator>(*snap_o,
                                            std::vector<uint32_t>{0}, cfg),
             std::make_unique<ScanOperator>(
                 *snap_l, std::vector<uint32_t>{0, 2}, cfg),
             std::move(spec), cfg);
       }},
      {"agg groups", 2048,
       [&]() -> OperatorPtr {
         return std::make_unique<HashAggOperator>(
             std::make_unique<ScanOperator>(*snap_l,
                                            std::vector<uint32_t>{0, 2}, cfg),
             std::vector<size_t>{0},
             std::vector<AggSpec>{AggSpec::Sum(1)}, cfg);
       }},
      {"sort buffer", 2048,
       [&]() -> OperatorPtr {
         return std::make_unique<SortOperator>(
             std::make_unique<ScanOperator>(*snap_l,
                                            std::vector<uint32_t>{0, 2}, cfg),
             std::vector<SortKey>{SortKey{0, false}}, cfg);
       }},
      // Below one chunk's footprint: the very first PushChunk reservation
      // fails regardless of how fast the consumer drains the queue.
      {"xchg queue", 256,
       [&]() -> OperatorPtr {
         std::vector<OperatorPtr> fragments;
         for (int w = 0; w < 2; w++) {
           fragments.push_back(std::make_unique<ScanOperator>(
               *snap_l, std::vector<uint32_t>{0}, cfg));
         }
         return std::make_unique<XchgOperator>(
             std::move(fragments), std::vector<TypeId>{TypeId::kI64}, cfg);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    QueryContext ctx;
    ctx.set_memory_budget(c.budget);
    ctx.set_spill_dir(SpillBase());
    OperatorPtr op = c.make();
    Result<QueryResult> r = CollectRows(op.get(), &ctx, cfg.vector_size);
    ASSERT_FALSE(r.ok()) << c.name << " finished under a tiny budget";
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << r.status().ToString();
    EXPECT_EQ(ctx.reserved_bytes(), 0u)
        << c.name << " leaked reservation on unwind";
    // Spilling was off: nothing may have touched disk.
    EXPECT_EQ(ctx.spill_counters().bytes_written.load(), 0u);
    // The same tree runs to completion once the budget pressure is gone.
    QueryContext roomy;
    Result<QueryResult> ok = CollectRows(op.get(), &roomy, cfg.vector_size);
    EXPECT_TRUE(ok.ok()) << c.name << ": " << ok.status().ToString();
  }
  // A budget-failed query never poisons its session either.
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("l", {0}).ok());
  q.Sort({SortKey{0, true}});
  auto r = session->Query(&q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), static_cast<size_t>(kLRows));
}

// Even with spilling ON, a budget too small for a single partition /
// vector's worth of state must fail with ResourceExhausted — and still
// unwind clean, deleting whatever scratch it had created.
TEST_F(SpillTest, ImpossiblyTightBudgetFailsCleanEvenWithSpill) {
  QueryContext ctx;
  // Below two one-row blocks of sort input (24 bytes a row): the runs are
  // written, but no merge, not even of two runs, fits.
  ctx.set_memory_budget(32);
  ctx.set_spill_dir(SpillBase());
  auto snap = db_->Internals().tm->GetSnapshot("l");
  ASSERT_TRUE(snap.ok());
  SortOperator sort(std::make_unique<ScanOperator>(
                        *snap, std::vector<uint32_t>{0, 1}, config_),
                    {SortKey{0, true}}, config_);
  Result<QueryResult> r = CollectRows(&sort, &ctx, config_.vector_size);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_EQ(ctx.reserved_bytes(), 0u);
  EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
}

// --- spill file format + failpoints ------------------------------------------

TEST_F(SpillTest, SpillPartitionCountClampsToPowerOfTwo) {
  EXPECT_EQ(SpillPartitionCount(0), 2u);
  EXPECT_EQ(SpillPartitionCount(1), 2u);
  EXPECT_EQ(SpillPartitionCount(2), 2u);
  EXPECT_EQ(SpillPartitionCount(3), 4u);
  EXPECT_EQ(SpillPartitionCount(8), 8u);
  EXPECT_EQ(SpillPartitionCount(100), 128u);
  EXPECT_EQ(SpillPartitionCount(100000), 256u);
}

// A one-column (i64) chunk holding `values` densely.
DataChunk I64Chunk(const std::vector<int64_t>& values) {
  DataChunk chunk;
  chunk.Init({TypeId::kI64}, values.size());
  for (size_t i = 0; i < values.size(); i++) {
    chunk.column(0).Data<int64_t>()[i] = values[i];
  }
  chunk.SetCount(values.size());
  return chunk;
}

// Writes `values` as one run of `block_rows`-row blocks into `file`.
SpillRun WriteI64Run(SpillFile* file, const std::vector<int64_t>& values,
                     size_t block_rows) {
  SpillRun run;
  SpillWriter writer(file, &run, {TypeId::kI64}, block_rows);
  EXPECT_TRUE(writer.Append(I64Chunk(values)).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return run;
}

// Reads an i64 run back whole; fails the test on a read error.
std::vector<int64_t> ReadI64Run(SpillFile* file, const SpillRun& run,
                                size_t block_rows) {
  std::vector<int64_t> values;
  auto reader = SpillReader::Open(file, run, {TypeId::kI64});
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return values;
  DataChunk out;
  out.Init({TypeId::kI64}, block_rows);
  while (true) {
    auto more = (*reader)->Next(&out);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    for (size_t i = 0; i < out.count(); i++) {
      values.push_back(out.column(0).Data<int64_t>()[i]);
    }
  }
  return values;
}

std::vector<int64_t> Iota(int64_t first, size_t n) {
  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; i++) values[i] = first + static_cast<int64_t>(i);
  return values;
}

TEST_F(SpillTest, WriterReaderRoundTripsSelectionsAndStrings) {
  QueryContext ctx;
  ctx.set_spill_dir(SpillBase());
  SpillFile file;
  ASSERT_TRUE(file.Create(&ctx, "unit").ok());
  std::vector<TypeId> types = {TypeId::kI64, TypeId::kStr, TypeId::kF64};
  SpillRun run;
  SpillWriter writer(&file, &run, types, /*block_rows=*/8);
  DataChunk chunk;
  chunk.Init(types, 8);
  StringHeap* heap = chunk.column(1).GetStringHeap();
  for (size_t i = 0; i < 8; i++) {
    chunk.column(0).Data<int64_t>()[i] = static_cast<int64_t>(i) * 11;
    chunk.column(1).Data<StringVal>()[i] =
        heap->Add("row" + std::to_string(i));
    chunk.column(2).Data<double>()[i] = static_cast<double>(i) * 0.25;
  }
  chunk.SetCount(8);
  // Block 1: dense, written as soon as its 8 rows are staged. Block 2:
  // every other row via the selection vector, written by Finish.
  ASSERT_TRUE(writer.Append(chunk).ok());
  EXPECT_EQ(writer.rows_written(), 8u);
  sel_t* sel = chunk.MutableSel();
  for (size_t i = 0; i < 4; i++) sel[i] = static_cast<sel_t>(i * 2);
  chunk.SetSelection(4);
  ASSERT_TRUE(writer.Append(chunk).ok());
  EXPECT_EQ(writer.rows_written(), 8u);  // staged, not yet written
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.rows_written(), 12u);
  EXPECT_EQ(writer.blocks_written(), 2u);
  ASSERT_EQ(run.blocks.size(), 2u);
  EXPECT_EQ(run.blocks[0].offset, 0u);  // no file header
  EXPECT_EQ(run.blocks[1].offset, run.blocks[0].length);
  EXPECT_EQ(run.bytes, file.end());

  auto reader = SpillReader::Open(&file, run, types);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  DataChunk out;
  out.Init(types, 8);
  auto more = (*reader)->Next(&out);
  ASSERT_TRUE(more.ok() && *more);
  ASSERT_EQ(out.count(), 8u);
  for (size_t i = 0; i < 8; i++) {
    EXPECT_EQ(out.column(0).Data<int64_t>()[i], static_cast<int64_t>(i) * 11);
    EXPECT_EQ(out.column(1).Data<StringVal>()[i].view(),
              "row" + std::to_string(i));
    EXPECT_EQ(out.column(2).Data<double>()[i], static_cast<double>(i) * 0.25);
  }
  more = (*reader)->Next(&out);
  ASSERT_TRUE(more.ok() && *more);
  ASSERT_EQ(out.count(), 4u);
  for (size_t i = 0; i < 4; i++) {
    EXPECT_EQ(out.column(0).Data<int64_t>()[i],
              static_cast<int64_t>(i) * 22);
    EXPECT_EQ(out.column(1).Data<StringVal>()[i].view(),
              "row" + std::to_string(i * 2));
  }
  more = (*reader)->Next(&out);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);  // end of the run
  EXPECT_EQ(ctx.spill_counters().bytes_written.load(), run.bytes);
  EXPECT_EQ(ctx.spill_counters().bytes_read.load(), run.bytes);
  EXPECT_EQ(ctx.spill_counters().files_created.load(), 1u);
}

// Rows staged over many small appends, dense, through a selection and as
// explicit position lists, strings included, reach disk in blocks of exactly
// block_rows rows but the last, which Finish writes; they read back in
// append order.
TEST_F(SpillTest, WriterWritesFullBlocksAcrossSmallAppends) {
  QueryContext ctx;
  ctx.set_spill_dir(SpillBase());
  SpillFile file;
  ASSERT_TRUE(file.Create(&ctx, "stage").ok());
  const std::vector<TypeId> types = {TypeId::kI64, TypeId::kStr, TypeId::kU8,
                                     TypeId::kI32};
  constexpr size_t kBlockRows = 16;
  auto str_of = [](int64_t id) {
    std::string s(static_cast<size_t>(id % 5), static_cast<char>('a' + id % 26));
    s += std::to_string(id);
    return s;
  };
  SpillRun run;
  SpillWriter writer(&file, &run, types, kBlockRows);
  std::vector<int64_t> expect;  // ids in append order
  int64_t next_id = 0;
  for (size_t round = 0; round < 60; round++) {
    DataChunk chunk;
    chunk.Init(types, 8);
    StringHeap* heap = chunk.column(1).GetStringHeap();
    const size_t rows = round % 8 + 1;
    for (size_t i = 0; i < rows; i++) {
      int64_t id = next_id++;
      chunk.column(0).Data<int64_t>()[i] = id;
      chunk.column(1).Data<StringVal>()[i] = heap->Add(str_of(id));
      chunk.column(2).Data<uint8_t>()[i] = static_cast<uint8_t>(id % 251);
      chunk.column(3).Data<int32_t>()[i] = static_cast<int32_t>(-3 * id);
    }
    chunk.SetCount(rows);
    const int64_t* ids = chunk.column(0).Data<int64_t>();
    if (round % 3 == 0) {  // dense
      ASSERT_TRUE(writer.Append(chunk).ok());
      for (size_t i = 0; i < rows; i++) expect.push_back(ids[i]);
    } else if (round % 3 == 1) {  // the even positions, via the selection
      size_t k = 0;
      for (size_t i = 0; i < rows; i += 2) {
        chunk.MutableSel()[k++] = static_cast<sel_t>(i);
        expect.push_back(ids[i]);
      }
      chunk.SetSelection(k);
      ASSERT_TRUE(writer.Append(chunk).ok());
    } else {  // every position, last first
      std::vector<sel_t> order;
      for (size_t i = rows; i-- > 0;) {
        order.push_back(static_cast<sel_t>(i));
        expect.push_back(ids[i]);
      }
      ASSERT_TRUE(writer.AppendRows(chunk, order.data(), order.size()).ok());
    }
  }
  const size_t full_blocks = expect.size() / kBlockRows;
  ASSERT_GT(expect.size() % kBlockRows, 0u) << "pick a partial last block";
  EXPECT_EQ(writer.blocks_written(), full_blocks);
  EXPECT_EQ(writer.rows_written(), full_blocks * kBlockRows);
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.blocks_written(), full_blocks + 1);
  EXPECT_EQ(writer.rows_written(), expect.size());

  auto reader = SpillReader::Open(&file, run, types);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  DataChunk out;
  out.Init(types, kBlockRows);
  size_t read = 0;
  size_t blocks = 0;
  while (true) {
    auto more = (*reader)->Next(&out);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    blocks++;
    if (blocks <= full_blocks) {
      ASSERT_EQ(out.count(), kBlockRows) << "block " << blocks;
    } else {
      ASSERT_EQ(out.count(), expect.size() % kBlockRows);
    }
    for (size_t i = 0; i < out.count(); i++, read++) {
      const int64_t id = expect[read];
      ASSERT_EQ(out.column(0).Data<int64_t>()[i], id);
      EXPECT_EQ(out.column(1).Data<StringVal>()[i].view(), str_of(id));
      EXPECT_EQ(out.column(2).Data<uint8_t>()[i], id % 251);
      EXPECT_EQ(out.column(3).Data<int32_t>()[i], -3 * id);
    }
  }
  EXPECT_EQ(blocks, full_blocks + 1);
  EXPECT_EQ(read, expect.size());
}

// Finish with nothing staged writes no block, and a writer dropped without
// Finish writes none of its staged rows: both runs are empty, and so is the
// file they share.
TEST_F(SpillTest, WriterWritesNoBlockWithoutStagedRowsOrFinish) {
  QueryContext ctx;
  ctx.set_spill_dir(SpillBase());
  SpillFile file;
  ASSERT_TRUE(file.Create(&ctx, "empty").ok());
  const std::vector<TypeId> types = {TypeId::kI64};
  SpillRun empty;
  SpillRun dropped;
  {
    SpillWriter writer(&file, &empty, types, 4);
    ASSERT_TRUE(writer.Finish().ok());
    EXPECT_EQ(writer.blocks_written(), 0u);
  }
  {
    SpillWriter writer(&file, &dropped, types, 4);
    ASSERT_TRUE(writer.Append(I64Chunk({7})).ok());
  }
  EXPECT_EQ(file.end(), 0u);
  EXPECT_EQ(fs::file_size(file.path()), 0u);
  for (const SpillRun* run : {&empty, &dropped}) {
    EXPECT_TRUE(run->blocks.empty());
    EXPECT_EQ(run->rows, 0u);
    auto reader = SpillReader::Open(&file, *run, types);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    DataChunk out;
    out.Init(types, 4);
    auto more = (*reader)->Next(&out);
    ASSERT_TRUE(more.ok());
    EXPECT_FALSE(*more);
  }
}

// A flipped payload byte in a run's last block fails that block's CRC: the
// blocks before it read back, the last gives Corruption.
TEST_F(SpillTest, ReaderRejectsFlippedBytes) {
  QueryContext ctx;
  ctx.set_spill_dir(SpillBase());
  SpillFile file;
  ASSERT_TRUE(file.Create(&ctx, "corrupt").ok());
  std::vector<TypeId> types = {TypeId::kI64};
  SpillRun run = WriteI64Run(&file, Iota(0, 10), /*block_rows=*/4);
  ASSERT_EQ(run.blocks.size(), 3u);
  const SpillExtent last = run.blocks.back();
  {
    // Past the 16-byte block header: the second payload byte.
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    const auto at = static_cast<std::streamoff>(last.offset + 16 + 1);
    char b;
    f.seekg(at);
    f.get(b);
    f.seekp(at);
    f.put(static_cast<char>(b ^ 0x40));
  }
  auto reader = SpillReader::Open(&file, run, types);
  ASSERT_TRUE(reader.ok());
  DataChunk out;
  out.Init(types, 4);
  for (int64_t block = 0; block < 2; block++) {
    auto more = (*reader)->Next(&out);
    ASSERT_TRUE(more.ok() && *more) << more.status().ToString();
    EXPECT_EQ(out.column(0).Data<int64_t>()[0], block * 4);
  }
  auto more = (*reader)->Next(&out);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kCorruption)
      << more.status().ToString();
}

// Released space is written again before the file grows: a run rewritten
// after its predecessor's release takes the same extents, whether the
// released run sat at the tail or before a live one.
TEST_F(SpillTest, SpillFileRewritesReleasedSpaceWithoutGrowing) {
  QueryContext ctx;
  ctx.set_spill_dir(SpillBase());
  SpillFile file;
  ASSERT_TRUE(file.Create(&ctx, "reuse").ok());
  SpillRun run = WriteI64Run(&file, Iota(0, 40), /*block_rows=*/8);
  ASSERT_EQ(run.blocks.size(), 5u);
  const uint64_t size = fs::file_size(file.path());
  EXPECT_EQ(size, run.bytes);
  for (int64_t round = 1; round <= 4; round++) {
    file.Release(&run);
    EXPECT_EQ(file.end(), 0u);
    run = WriteI64Run(&file, Iota(round * 100, 40), 8);
    EXPECT_EQ(ReadI64Run(&file, run, 8), Iota(round * 100, 40));
    EXPECT_EQ(fs::file_size(file.path()), size) << "round " << round;
  }
  // A live run behind the released one: the rewrite takes the released
  // extents, in their order.
  SpillRun live = WriteI64Run(&file, Iota(-40, 40), 8);
  const uint64_t two_runs = fs::file_size(file.path());
  const std::vector<SpillExtent> released = run.blocks;
  file.Release(&run);
  run = WriteI64Run(&file, Iota(500, 40), 8);
  ASSERT_EQ(run.blocks.size(), released.size());
  for (size_t b = 0; b < released.size(); b++) {
    EXPECT_EQ(run.blocks[b].offset, released[b].offset) << "block " << b;
  }
  EXPECT_EQ(fs::file_size(file.path()), two_runs);
  EXPECT_EQ(ReadI64Run(&file, live, 8), Iota(-40, 40));
  EXPECT_EQ(ReadI64Run(&file, run, 8), Iota(500, 40));
}

// Two released neighbours coalesce into one free extent: a block larger
// than either (but not than both) lands where they were instead of growing
// the file.
TEST_F(SpillTest, SpillFileCoalescesAdjacentReleasedRuns) {
  QueryContext ctx;
  ctx.set_spill_dir(SpillBase());
  SpillFile file;
  ASSERT_TRUE(file.Create(&ctx, "coalesce").ok());
  // One block each: 20 bytes of framing plus 8 a row.
  SpillRun a = WriteI64Run(&file, Iota(0, 4), /*block_rows=*/16);
  SpillRun b = WriteI64Run(&file, Iota(4, 4), 16);
  SpillRun live = WriteI64Run(&file, Iota(8, 4), 16);
  ASSERT_EQ(a.bytes, 52u);
  ASSERT_EQ(b.blocks[0].offset, a.bytes);
  const uint64_t size = fs::file_size(file.path());
  file.Release(&b);
  file.Release(&a);
  SpillRun big = WriteI64Run(&file, Iota(100, 10), 16);
  ASSERT_EQ(big.blocks.size(), 1u);
  ASSERT_GT(big.bytes, 52u);
  EXPECT_EQ(big.blocks[0].offset, 0u);
  EXPECT_EQ(fs::file_size(file.path()), size);
  EXPECT_EQ(ReadI64Run(&file, big, 16), Iota(100, 10));
  EXPECT_EQ(ReadI64Run(&file, live, 16), Iota(8, 4));
}

// Runs written block by block in turn interleave in the file. Releasing the
// runs around one, and writing new runs into their space, leaves it intact.
TEST_F(SpillTest, SpillRunStaysReadableAfterNeighboursAreReleased) {
  QueryContext ctx;
  ctx.set_spill_dir(SpillBase());
  SpillFile file;
  ASSERT_TRUE(file.Create(&ctx, "interleave").ok());
  constexpr size_t kBlockRows = 4;
  std::vector<SpillRun> runs(3);
  {
    std::vector<SpillWriter> writers;
    for (SpillRun& run : runs) {
      writers.emplace_back(&file, &run, std::vector<TypeId>{TypeId::kI64},
                           kBlockRows);
    }
    for (int64_t block = 0; block < 6; block++) {
      for (size_t w = 0; w < writers.size(); w++) {
        const int64_t first = static_cast<int64_t>(w) * 1000 + block * 4;
        ASSERT_TRUE(writers[w].Append(I64Chunk(Iota(first, kBlockRows))).ok());
      }
    }
    for (SpillWriter& writer : writers) ASSERT_TRUE(writer.Finish().ok());
  }
  ASSERT_EQ(runs[1].blocks[0].offset, runs[0].blocks[0].length);
  file.Release(&runs[0]);
  file.Release(&runs[2]);
  // Blocks of other sizes too, so the new runs split the freed extents.
  SpillRun fill = WriteI64Run(&file, Iota(5000, 30), kBlockRows);
  SpillRun odd = WriteI64Run(&file, Iota(7000, 7), 3);
  EXPECT_EQ(ReadI64Run(&file, runs[1], kBlockRows), Iota(1000, 24));
  EXPECT_EQ(ReadI64Run(&file, fill, kBlockRows), Iota(5000, 30));
  EXPECT_EQ(ReadI64Run(&file, odd, 3), Iota(7000, 7));
  file.Release(&fill);
  EXPECT_EQ(ReadI64Run(&file, runs[1], kBlockRows), Iota(1000, 24));
  EXPECT_EQ(ReadI64Run(&file, odd, 3), Iota(7000, 7));
}

// Deterministic fault sweep over the spill I/O sites, against every breaker
// that spills: the external sort and the grace-partitioned join and
// aggregation. Every injected error surfaces as a clean query failure (no
// crash, no leaked reservation), and the scratch files are gone as soon as
// the tree is closed — while the query context is still alive.
TEST_F(SpillTest, FailpointSweepOverSpillSites) {
  auto snap_l = db_->Internals().tm->GetSnapshot("l");
  ASSERT_TRUE(snap_l.ok());
  auto snap_o = db_->Internals().tm->GetSnapshot("o");
  ASSERT_TRUE(snap_o.ok());
  // 2-way partitions under an 8 KB budget: the join and the aggregation
  // also split partitions recursively, so spill.repartition fires too.
  Config cfg = config_;
  cfg.spill_partitions = 2;
  cfg.spill_max_repartition_depth = 6;
  using Make = std::function<OperatorPtr(const Config&)>;
  Make make_join = [&](const Config& c) -> OperatorPtr {
    HashJoinOperator::Spec spec;
    spec.probe_keys = {0};
    spec.build_keys = {0};
    spec.build_payload = {1};
    return std::make_unique<HashJoinOperator>(
        std::make_unique<ScanOperator>(*snap_o, std::vector<uint32_t>{0, 1}, c),
        std::make_unique<ScanOperator>(*snap_l, std::vector<uint32_t>{0, 2}, c),
        std::move(spec), c);
  };
  Make make_agg = [&](const Config& c) -> OperatorPtr {
    return std::make_unique<HashAggOperator>(
        std::make_unique<ScanOperator>(*snap_l, std::vector<uint32_t>{0, 2}, c),
        std::vector<size_t>{0}, std::vector<AggSpec>{AggSpec::Sum(1)}, c);
  };
  // `torn` tears a block write: the sort's second block (its first run has
  // several), the partitioners' first (their partitions share one file, so
  // no other write comes before it).
  struct Breaker {
    const char* name;
    size_t budget;
    bool repartitions;
    const char* torn;
    std::function<OperatorPtr()> make;
  };
  const Breaker breakers[] = {
      {"sort", 24 << 10, false, "spill.append=torn:7,nth:2",
       [&]() -> OperatorPtr {
         return std::make_unique<SortOperator>(
             std::make_unique<ScanOperator>(
                 *snap_l, std::vector<uint32_t>{0, 1}, config_),
             std::vector<SortKey>{SortKey{0, true}}, config_);
       }},
      {"join", 8 << 10, true, "spill.append=torn:7,nth:1",
       [&]() { return make_join(cfg); }},
      {"agg", 8 << 10, true, "spill.append=torn:7,nth:1",
       [&]() { return make_agg(cfg); }},
  };
  struct Fault {
    const char* spec;
    StatusCode expect;
  };
  for (const Breaker& b : breakers) {
    const Fault faults[] = {
        {"spill.create=err", StatusCode::kIOError},
        {"spill.append=err", StatusCode::kIOError},
        {b.torn, StatusCode::kIOError},
        {"spill.open=err", StatusCode::kIOError},
        {"spill.read=err", StatusCode::kIOError},
        {"spill.read=corrupt,nth:2", StatusCode::kCorruption},
        {"spill.repartition=err", StatusCode::kIOError},
    };
    for (const Fault& f : faults) {
      bool repartition = std::string(f.spec).rfind("spill.repartition", 0) == 0;
      if (repartition && !b.repartitions) continue;
      SCOPED_TRACE(std::string(b.name) + " " + f.spec);
      ASSERT_TRUE(failpoint::Arm(f.spec).ok());
      {
        QueryContext ctx;
        ctx.set_memory_budget(b.budget);
        ctx.set_spill_dir(SpillBase());
        OperatorPtr op = b.make();
        Result<QueryResult> r =
            CollectRows(op.get(), &ctx, config_.vector_size);
        ASSERT_FALSE(r.ok()) << f.spec << " did not fire";
        EXPECT_EQ(r.status().code(), f.expect) << r.status().ToString();
        EXPECT_EQ(ctx.reserved_bytes(), 0u);
        // CollectRows closed the tree: Close() removed every spill file.
        EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
      }
      failpoint::DisarmAll();
      // ~QueryContext removed the per-query scratch directory.
      EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
    }
  }
  // The depth bound: with no repartitioning allowed, an oversized
  // partition fails its reload with ResourceExhausted — and Close() still
  // removes the partition being reloaded.
  Config no_depth = cfg;
  no_depth.spill_max_repartition_depth = 0;
  for (const Make& make : {make_join, make_agg}) {
    QueryContext ctx;
    ctx.set_memory_budget(8 << 10);
    ctx.set_spill_dir(SpillBase());
    OperatorPtr op = make(no_depth);
    Result<QueryResult> r = CollectRows(op.get(), &ctx, config_.vector_size);
    ASSERT_FALSE(r.ok()) << "an oversized partition fit in 8KB?";
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << r.status().ToString();
    EXPECT_EQ(ctx.reserved_bytes(), 0u);
    EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
  }
  // Short transfers are absorbed by the I/O retry loops: the spilled query
  // must still succeed, bit-identically.
  ASSERT_TRUE(failpoint::Arm("spill.read=short:5;spill.append=short:5").ok());
  {
    QueryContext ctx;
    ctx.set_memory_budget(24 << 10);
    ctx.set_spill_dir(SpillBase());
    SortOperator sort(std::make_unique<ScanOperator>(
                          *snap_l, std::vector<uint32_t>{0, 1}, config_),
                      {SortKey{0, true}}, config_);
    Result<QueryResult> r = CollectRows(&sort, &ctx, config_.vector_size);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), static_cast<size_t>(kLRows));
    EXPECT_GT(ctx.spill_counters().bytes_written.load(), 0u);
  }
  failpoint::DisarmAll();
}

// A partition smaller than one block reaches disk only through its writer's
// Finish. In this 2-way self-join of "o" with 1024-row vectors, each of the
// four partition runs holds one such block, so the first spill.append is the
// first build partition's Finish. Erroring that write must end the query in
// IOError with nothing reserved and no file left.
TEST_F(SpillTest, ErroredFinishWriteFailsTheQueryCleanly) {
  Config cfg = config_;
  cfg.vector_size = 1024;
  cfg.spill_partitions = 2;
  auto snap = db_->Internals().tm->GetSnapshot("o");
  ASSERT_TRUE(snap.ok());
  auto make_join = [&]() -> OperatorPtr {
    HashJoinOperator::Spec spec;
    spec.probe_keys = {0};
    spec.build_keys = {0};
    spec.build_payload = {1};
    return std::make_unique<HashJoinOperator>(
        std::make_unique<ScanOperator>(*snap, std::vector<uint32_t>{0, 1}, cfg),
        std::make_unique<ScanOperator>(*snap, std::vector<uint32_t>{0, 1}, cfg),
        std::move(spec), cfg);
  };
  constexpr size_t kBudget = 32 << 10;
  {
    QueryContext ctx;
    ctx.set_memory_budget(kBudget);
    ctx.set_spill_dir(SpillBase());
    OperatorPtr op = make_join();
    auto* join = static_cast<HashJoinOperator*>(op.get());
    Result<QueryResult> r = CollectRows(op.get(), &ctx, cfg.vector_size);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), static_cast<size_t>(kORows));
    const RadixSpill::Stats& stats = join->spill_stats();
    EXPECT_EQ(stats.repartitions, 0u);
    EXPECT_EQ(stats.rows, 2u * kORows);
    EXPECT_EQ(stats.blocks, 4u) << "every run one Finish-written block";
  }
  ASSERT_TRUE(failpoint::Arm("spill.append=err,nth:1").ok());
  {
    QueryContext ctx;
    ctx.set_memory_budget(kBudget);
    ctx.set_spill_dir(SpillBase());
    OperatorPtr op = make_join();
    Result<QueryResult> r = CollectRows(op.get(), &ctx, cfg.vector_size);
    ASSERT_FALSE(r.ok()) << "the Finish write did not fail";
    EXPECT_EQ(r.status().code(), StatusCode::kIOError)
        << r.status().ToString();
    EXPECT_EQ(ctx.reserved_bytes(), 0u);
    EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
  }
  failpoint::DisarmAll();
  EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
}

// --- temp-file lifecycle ------------------------------------------------------

// A crash mid-spill leaks the per-query scratch (by design: nothing runs
// after SIGKILL); the next Database::Open sweeps the spill base clean.
TEST_F(SpillTest, CrashMidSpillIsSweptOnReopen) {
  auto snap = db_->Internals().tm->GetSnapshot("l");
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(failpoint::Arm("spill.read=crash").ok());
  // Heap-allocate and abandon both the context and the plan: destructors do
  // not run across a process death, so their cleanup must not either.
  auto* ctx = new QueryContext();
  ctx->set_memory_budget(24 << 10);
  ctx->set_spill_dir(SpillBase());
  auto* sort = new SortOperator(
      std::make_unique<ScanOperator>(*snap, std::vector<uint32_t>{0, 1},
                                     config_),
      std::vector<SortKey>{SortKey{0, true}}, config_);
  bool crashed = false;
  try {
    Result<QueryResult> r = CollectRows(sort, ctx, config_.vector_size);
    (void)r;
  } catch (const SimulatedCrash& c) {
    crashed = true;
    EXPECT_EQ(c.site(), "spill.read");
  }
  ASSERT_TRUE(crashed);
  AbandonAfterSimulatedCrash(ctx);
  AbandonAfterSimulatedCrash(sort);
  failpoint::DisarmAll();
  EXPECT_GT(CountSpillFiles(SpillBase()), 0u) << "crash left no scratch — "
                                                 "the site never spilled";
  // Recovery: reopening the database sweeps the orphaned scratch.
  db_.reset();
  auto db = Database::Open(dir_, config_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::move(*db);
  EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
  // And the reopened database still answers the query that "died".
  auto session = db_->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("l", {0, 1}).ok());
  q.Sort({SortKey{0, true}});
  QueryOptions opt;
  opt.memory_budget_bytes = 24 << 10;
  auto prepared = session->Prepare(&q);
  ASSERT_TRUE(prepared.ok());
  Result<QueryResult> r = (*prepared)->Run(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), static_cast<size_t>(kLRows));
}

// Cancellation mid-spill unwinds through Close and leaves no scratch.
TEST_F(SpillTest, CancelMidSpillLeavesNoScratch) {
  auto snap = db_->Internals().tm->GetSnapshot("l");
  ASSERT_TRUE(snap.ok());
  QueryContext ctx;
  ctx.set_memory_budget(24 << 10);
  ctx.set_spill_dir(SpillBase());
  SortOperator sort(std::make_unique<ScanOperator>(
                        *snap, std::vector<uint32_t>{0, 1}, config_),
                    {SortKey{0, true}}, config_);
  ASSERT_TRUE(sort.Open(&ctx).ok());
  DataChunk out;
  out.Init(sort.OutputTypes(), config_.vector_size);
  // First Next() consumes the input and spills runs; cancel right after it.
  ASSERT_TRUE(sort.Next(&out).ok());
  EXPECT_GT(sort.spill_runs(), 0u);
  ctx.Cancel();
  out.Reset();
  Status s = sort.Next(&out);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  sort.Close();
  EXPECT_EQ(ctx.reserved_bytes(), 0u);
  EXPECT_EQ(CountSpillFiles(SpillBase()), 0u);
}

TEST_F(SpillTest, VwiseSpillDirEnvOverridesDefault) {
  // Resolution order is Config::spill_dir, then $VWISE_SPILL_DIR, then the
  // per-database default. The context-level resolution is what embedded
  // (CollectRows) callers hit.
  std::string env_dir = dir_ + "/env_spill";
  ::setenv("VWISE_SPILL_DIR", env_dir.c_str(), 1);
  auto snap = db_->Internals().tm->GetSnapshot("l");
  ASSERT_TRUE(snap.ok());
  {
    QueryContext ctx;  // no set_spill_dir: falls through to the env var
    ctx.set_memory_budget(24 << 10);
    SortOperator sort(std::make_unique<ScanOperator>(
                          *snap, std::vector<uint32_t>{0, 1}, config_),
                      {SortKey{0, true}}, config_);
    DataChunk out;
    out.Init(sort.OutputTypes(), config_.vector_size);
    ASSERT_TRUE(sort.Open(&ctx).ok());
    ASSERT_TRUE(sort.Next(&out).ok());
    EXPECT_GT(sort.spill_runs(), 0u);
    EXPECT_GT(CountSpillFiles(env_dir), 0u);
    sort.Close();
  }
  ::unsetenv("VWISE_SPILL_DIR");
  EXPECT_EQ(CountSpillFiles(env_dir), 0u);
  fs::remove_all(env_dir);
}

}  // namespace
}  // namespace vwise
