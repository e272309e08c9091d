// f64 key semantics, the same in all three engines: two keys are equal iff
// a == b or both are NaN (so -0.0 equals +0.0), and in ascending order NaN
// sorts after every number. GROUP BY, inner join and ORDER BY over
// {1.00001, 1.00002, 0.0, -0.0, NaN, -NaN} mixed into distinct ordinary
// values run on the vectorized engine (in memory, and again under a query
// budget small enough that the grace join/aggregation and the external sort
// spill), the tuple-at-a-time engine and the column-at-a-time engine. All of
// them must return the same rows. KeyHashTest pins the key table's
// column-at-a-time hash to its row-fold definition, NaNs and zeros included.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "api/database.h"
#include "baseline/column_engine.h"
#include "baseline/tuple_engine.h"
#include "common/hash.h"
#include "exec/key_hash.h"
#include "exec/key_table.h"
#include "gtest/gtest.h"
#include "service/session.h"

namespace vwise {
namespace {

using baseline::ColumnEngine;
using baseline::MatColumn;
using baseline::Row;

constexpr int64_t kRows = 3000;
constexpr size_t kBudget = 24 << 10;

// Every tenth row carries one of these keys; the others get distinct
// ordinary keys, in shuffled order so the sort has real work to do.
const double kSpecial[] = {1.00001,
                           1.00002,
                           0.0,
                           -0.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()};
constexpr int64_t kPerSpecial = kRows / 10 / 6;             // 50 rows each
constexpr int64_t kOrdinary = kRows - kRows / 10;           // 2700 rows
constexpr size_t kGroups = static_cast<size_t>(kOrdinary) + 4;
constexpr size_t kJoinRows = static_cast<size_t>(
    kOrdinary + 2 * (2 * kPerSpecial) * (2 * kPerSpecial) +  // 0s and NaNs
    2 * kPerSpecial * kPerSpecial);                          // 1.0000x

double KeyOf(int64_t i) {
  if (i % 10 == 0) return kSpecial[(i / 10) % 6];
  return 2.0 + static_cast<double>((i * 7919) % kRows) * 0.5;
}

// Rows equal under Compare, which follows the same key rule.
void ExpectSameRows(const std::vector<Row>& a, const std::vector<Row>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t r = 0; r < a.size(); r++) {
    ASSERT_EQ(a[r].size(), b[r].size()) << what << " row " << r;
    for (size_t c = 0; c < a[r].size(); c++) {
      ASSERT_EQ(Compare(a[r][c], b[r][c]), 0)
          << what << " row " << r << " col " << c << ": "
          << a[r][c].ToString() << " vs " << b[r][c].ToString();
    }
  }
}

// (k, id) ascending with NaN last: the last 2 * kPerSpecial rows are the
// NaNs, the other keys never descend, and equal keys ascend by id.
void ExpectKeyOrder(const std::vector<Row>& rows, const char* what) {
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows)) << what;
  const size_t nans = static_cast<size_t>(2 * kPerSpecial);
  for (size_t r = 0; r < rows.size(); r++) {
    const double key = rows[r][0].AsDouble();
    ASSERT_EQ(std::isnan(key), r >= rows.size() - nans) << what << " row " << r;
    if (r == 0) continue;
    const double prev = rows[r - 1][0].AsDouble();
    const bool tie = prev == key || (std::isnan(prev) && std::isnan(key));
    ASSERT_TRUE(std::isnan(key) || prev < key || tie) << what << " row " << r;
    if (tie) {
      ASSERT_LT(rows[r - 1][1].AsInt(), rows[r][1].AsInt())
          << what << " row " << r;
    }
  }
}

std::vector<Row> Canonical(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); i++) {
      const int c = Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return rows;
}

class F64KeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vwise_f64_key_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    Config config;
    config.vector_size = 64;
    config.stripe_rows = 512;
    auto db = Database::Open(dir_, config);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    for (int64_t i = 0; i < kRows; i++) {
      rows_.push_back({Value::Double(KeyOf(i)), Value::Int(i)});
      k_.push_back(rows_.back()[0]);
      id_.push_back(rows_.back()[1]);
    }
    TableSchema t("t", {ColumnDef("k", DataType::Double()),
                        ColumnDef("id", DataType::Int64())});
    ASSERT_TRUE(db_->CreateTable(t).ok());
    ASSERT_TRUE(db_->BulkLoad("t", [this](TableWriter* w) -> Status {
      for (const Row& row : rows_) VWISE_RETURN_IF_ERROR(w->AppendRow(row));
      return Status::OK();
    }).ok());
    session_ = db_->Connect();
  }

  void TearDown() override {
    session_.reset();
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  // The plan's rows in memory and under kBudget, where it must spill.
  std::vector<std::vector<Row>> RunVectorized(PlanBuilder* plan) {
    auto prepared = session_->Prepare(plan);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    if (!prepared.ok()) return {};
    Result<QueryResult> mem = (*prepared)->Run();
    EXPECT_TRUE(mem.ok()) << mem.status().ToString();
    QueryOptions opt;
    opt.memory_budget_bytes = kBudget;
    Result<QueryResult> spilled = (*prepared)->Run(opt);
    EXPECT_TRUE(spilled.ok()) << spilled.status().ToString();
    if (!mem.ok() || !spilled.ok()) return {};
    EXPECT_EQ(mem->spill_bytes_written, 0u);
    EXPECT_GT(spilled->spill_bytes_written, 0u);
    std::vector<std::vector<Row>> runs;
    runs.push_back(std::move(mem->rows));
    runs.push_back(std::move(spilled->rows));
    return runs;
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
  std::vector<Row> rows_;
  MatColumn k_, id_;
};

// GROUP BY k: COUNT(*), SUM(id).
TEST_F(F64KeyTest, GroupByAgreesAcrossEngines) {
  PlanBuilder q = session_->NewPlan();
  ASSERT_TRUE(q.Scan("t", {0, 1}).ok());
  q.Agg({0}, {AggSpec::CountStar(), AggSpec::Sum(1)},
        {DataType::Double(), DataType::Int64(), DataType::Int64()});

  baseline::TupleAgg tagg(std::make_unique<baseline::TupleScan>(&rows_), {0},
                          {{baseline::TupleAgg::Fn::kCountStar, 0},
                           {baseline::TupleAgg::Fn::kSumI64, 1}});
  std::vector<Row> tup = Canonical(baseline::TupleCollect(&tagg));

  ColumnEngine eng;
  size_t n_groups = 0;
  std::vector<uint32_t> reps;
  std::vector<uint32_t> groups = eng.GroupIds({&k_}, &n_groups, &reps);
  MatColumn counts = eng.AggGroupedCount(groups, n_groups);
  MatColumn sums =
      eng.AggGrouped(baseline::MatAgg::kSumI64, id_, groups, n_groups);
  std::vector<Row> col;
  for (size_t g = 0; g < n_groups; g++) {
    col.push_back({k_[reps[g]], counts[g], sums[g]});
  }
  col = Canonical(std::move(col));

  EXPECT_EQ(tup.size(), kGroups);
  // Every key is >= 0, so canonical order starts with the zero group and
  // ends with the NaN group.
  EXPECT_EQ(tup.front()[0].AsDouble(), 0.0);
  EXPECT_EQ(tup.front()[1].AsInt(), 2 * kPerSpecial);
  EXPECT_TRUE(std::isnan(tup.back()[0].AsDouble()));
  EXPECT_EQ(tup.back()[1].AsInt(), 2 * kPerSpecial);
  ExpectSameRows(tup, col, "tuple vs column");
  for (std::vector<Row>& vec : RunVectorized(&q)) {
    ExpectSameRows(Canonical(std::move(vec)), tup, "vectorized vs tuple");
  }
}

// t JOIN t ON k = k, emitting (k, id, build id).
TEST_F(F64KeyTest, SelfJoinAgreesAcrossEngines) {
  PlanBuilder build = session_->NewPlan();
  ASSERT_TRUE(build.Scan("t", {0, 1}).ok());
  PlanBuilder q = session_->NewPlan();
  ASSERT_TRUE(q.Scan("t", {0, 1}).ok());
  q.Join(std::move(build), JoinType::kInner, {0}, {0}, {1});

  baseline::TupleHashJoin tjoin(
      std::make_unique<baseline::TupleScan>(&rows_),
      std::make_unique<baseline::TupleScan>(&rows_),
      baseline::TupleHashJoin::Type::kInner, {0}, {0}, {1});
  std::vector<Row> tup = Canonical(baseline::TupleCollect(&tjoin));

  ColumnEngine eng;
  std::vector<uint32_t> probe_idx, build_idx;
  eng.HashJoinPairs({&k_}, {&k_}, &probe_idx, &build_idx);
  std::vector<Row> col;
  for (size_t i = 0; i < probe_idx.size(); i++) {
    col.push_back({k_[probe_idx[i]], id_[probe_idx[i]], id_[build_idx[i]]});
  }
  col = Canonical(std::move(col));

  EXPECT_EQ(tup.size(), kJoinRows);
  ExpectSameRows(tup, col, "tuple vs column");
  for (std::vector<Row>& vec : RunVectorized(&q)) {
    ExpectSameRows(Canonical(std::move(vec)), tup, "vectorized vs tuple");
  }
}

// ORDER BY k, id.
TEST_F(F64KeyTest, OrderByAgreesAcrossEngines) {
  PlanBuilder q = session_->NewPlan();
  ASSERT_TRUE(q.Scan("t", {0, 1}).ok());
  q.Sort({SortKey{0, true}, SortKey{1, true}});

  baseline::TupleSort tsort(std::make_unique<baseline::TupleScan>(&rows_),
                            {{0, true}, {1, true}});
  std::vector<Row> tup = baseline::TupleCollect(&tsort);

  ColumnEngine eng;
  std::vector<Row> col;
  for (uint32_t p : eng.SortPositions({&k_, &id_}, {true, true})) {
    col.push_back(rows_[p]);
  }

  ExpectKeyOrder(tup, "tuple");
  ExpectKeyOrder(col, "column");
  ExpectSameRows(tup, col, "tuple vs column");
  for (const std::vector<Row>& vec : RunVectorized(&q)) {
    ExpectKeyOrder(vec, "vectorized");
    ExpectSameRows(vec, tup, "vectorized vs tuple");
  }
}

// The key table hashes a column at a time; the definition is the row fold
// HashCombine(...HashCombine(0, h(k0))..., h(kn)) of HashInt over the
// (sign-extended) integer, HashF64 and HashBytes. In-memory tables, level-0
// routing and repartitioning all depend on the two agreeing, for every key
// type, key count and selection.
TEST(KeyHashTest, ColumnHashEqualsRowFold) {
  constexpr size_t kN = 48;
  const std::vector<TypeId> types = {TypeId::kU8, TypeId::kI32, TypeId::kI64,
                                     TypeId::kF64, TypeId::kStr};
  const double nan_payloads[] = {
      std::bit_cast<double>(uint64_t{0x7ff8000000000000}),  // quiet NaN
      std::bit_cast<double>(uint64_t{0xfff8000000000000}),  // -NaN
      std::bit_cast<double>(uint64_t{0x7ff8000000000001}),
      std::bit_cast<double>(uint64_t{0x7ff000000000dead}),  // signaling
  };
  const double f64_keys[] = {0.0, -0.0, 1.5, -2.25, 1e300,
                             std::numeric_limits<double>::infinity()};
  std::vector<std::string> strs;
  for (size_t i = 0; i < kN; i++) strs.push_back(std::string(i % 5, 'a' + i % 3));
  DataChunk chunk;
  chunk.Init(types, kN);
  for (size_t i = 0; i < kN; i++) {
    chunk.column(0).Data<uint8_t>()[i] = static_cast<uint8_t>(i * 37);
    chunk.column(1).Data<int32_t>()[i] = (static_cast<int32_t>(i) - 20) * 1000003;
    chunk.column(2).Data<int64_t>()[i] = (static_cast<int64_t>(i) - 24) << 40;
    chunk.column(3).Data<double>()[i] =
        i % 2 == 0 ? nan_payloads[(i / 2) % 4] : f64_keys[(i / 2) % 6];
    chunk.column(4).Data<StringVal>()[i] = StringVal(strs[i]);
  }
  chunk.SetCount(kN);
  auto value_hash = [&](size_t c, size_t row) -> uint64_t {
    const Vector& v = chunk.column(c);
    switch (types[c]) {
      case TypeId::kU8:
        return HashInt(v.Data<uint8_t>()[row]);
      case TypeId::kI32:
        return HashInt(static_cast<uint64_t>(
            static_cast<int64_t>(v.Data<int32_t>()[row])));
      case TypeId::kI64:
        return HashInt(static_cast<uint64_t>(v.Data<int64_t>()[row]));
      case TypeId::kF64:
        return HashF64(v.Data<double>()[row]);
      case TypeId::kStr: {
        const StringVal& s = v.Data<StringVal>()[row];
        return HashBytes(s.ptr, s.len);
      }
    }
    return 0;
  };
  // Every NaN is one key, and so are both zeros.
  EXPECT_EQ(HashKey(nan_payloads[1]), HashKey(nan_payloads[0]));
  EXPECT_EQ(HashKey(nan_payloads[2]), HashKey(nan_payloads[0]));
  EXPECT_EQ(HashKey(nan_payloads[3]), HashKey(nan_payloads[0]));
  EXPECT_EQ(HashKey(-0.0), HashKey(0.0));

  std::vector<sel_t> every_third;
  for (size_t i = 1; i < kN; i += 3) every_third.push_back(static_cast<sel_t>(i));
  std::vector<uint64_t> hashes(kN);
  // Every key list of one to three columns, repeats included.
  std::vector<std::vector<size_t>> key_lists;
  for (size_t a = 0; a < types.size(); a++) {
    key_lists.push_back({a});
    for (size_t b = 0; b < types.size(); b++) {
      key_lists.push_back({a, b});
      for (size_t c = 0; c < types.size(); c++) key_lists.push_back({a, b, c});
    }
  }
  for (const std::vector<size_t>& keys : key_lists) {
    for (const sel_t* sel : {static_cast<const sel_t*>(nullptr),
                             static_cast<const sel_t*>(every_third.data())}) {
      const size_t n = sel != nullptr ? every_third.size() : kN;
      KeyTable::Hash(chunk, keys, sel, n, hashes.data());
      for (size_t i = 0; i < n; i++) {
        const size_t row = sel != nullptr ? sel[i] : i;
        uint64_t expect = 0;
        for (size_t c : keys) expect = HashCombine(expect, value_hash(c, row));
        ASSERT_EQ(hashes[i], expect)
            << "keys " << keys.size() << " first " << keys[0] << " row " << row
            << (sel != nullptr ? " (selection)" : "");
      }
    }
  }
}

}  // namespace
}  // namespace vwise
