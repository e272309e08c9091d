#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/date.h"
#include "gtest/gtest.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace vwise {
namespace {

constexpr double kSf = 0.005;

// One shared database for the whole suite: loading is the slow part.
class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/vwise_tpch_suite");
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

  static QueryResult Run(int q, size_t vector_size = 1024) {
    Config cfg = *config_;
    cfg.vector_size = vector_size;
    auto r = tpch::RunQuery(q, mgr_, cfg);
    EXPECT_TRUE(r.ok()) << "Q" << q << ": " << r.status().ToString();
    return std::move(*r);
  }

  static std::string* dir_;
  static Config* config_;
  static IoDevice* device_;
  static BufferManager* buffers_;
  static TransactionManager* mgr_;
};

std::string* TpchTest::dir_ = nullptr;
Config* TpchTest::config_ = nullptr;
IoDevice* TpchTest::device_ = nullptr;
BufferManager* TpchTest::buffers_ = nullptr;
TransactionManager* TpchTest::mgr_ = nullptr;

TEST_F(TpchTest, LoadCardinalities) {
  tpch::Generator gen(kSf);
  auto li = mgr_->GetSnapshot("lineitem");
  ASSERT_TRUE(li.ok());
  EXPECT_GT(li->visible_rows(), static_cast<uint64_t>(gen.num_orders()));
  auto c = mgr_->GetSnapshot("customer");
  EXPECT_EQ(c->visible_rows(), static_cast<uint64_t>(gen.num_customer()));
  EXPECT_EQ(mgr_->GetSnapshot("region")->visible_rows(), 5u);
  EXPECT_EQ(mgr_->GetSnapshot("nation")->visible_rows(), 25u);
}

// Q1 against a direct generator-stream oracle: validates the entire stack
// (generation -> compression -> storage -> scan -> expressions -> agg).
TEST_F(TpchTest, Q1MatchesOracle) {
  struct Acc {
    double qty = 0, price = 0, disc_price = 0, charge = 0, disc = 0;
    int64_t count = 0;
  };
  std::map<std::pair<std::string, std::string>, Acc> oracle;
  tpch::Generator gen(kSf);
  int64_t cutoff = date::Parse("1998-09-02");
  using namespace tpch::col;
  ASSERT_TRUE(gen.OrdersAndLineitem(
                     [](const std::vector<Value>&) { return Status::OK(); },
                     [&](const std::vector<Value>& row) {
                       if (row[l::kShipdate].AsInt() > cutoff) return Status::OK();
                       Acc& a = oracle[{row[l::kReturnflag].AsString(),
                                        row[l::kLinestatus].AsString()}];
                       double qty = row[l::kQuantity].AsInt() / 100.0;
                       double price = row[l::kExtendedprice].AsInt() / 100.0;
                       double disc = row[l::kDiscount].AsInt() / 100.0;
                       double tax = row[l::kTax].AsInt() / 100.0;
                       a.qty += qty;
                       a.price += price;
                       a.disc_price += price * (1 - disc);
                       a.charge += price * (1 - disc) * (1 + tax);
                       a.disc += disc;
                       a.count++;
                       return Status::OK();
                     })
                  .ok());

  auto result = Run(1);
  ASSERT_EQ(result.rows.size(), oracle.size());
  for (const auto& row : result.rows) {
    auto it = oracle.find({row[0].AsString(), row[1].AsString()});
    ASSERT_NE(it, oracle.end());
    const Acc& a = it->second;
    EXPECT_NEAR(row[2].AsDouble(), a.qty, 1e-6 * std::abs(a.qty) + 1e-6);
    EXPECT_NEAR(row[3].AsDouble(), a.price, 1e-6 * std::abs(a.price));
    EXPECT_NEAR(row[4].AsDouble(), a.disc_price, 1e-6 * std::abs(a.disc_price));
    EXPECT_NEAR(row[5].AsDouble(), a.charge, 1e-6 * std::abs(a.charge));
    EXPECT_EQ(row[9].AsInt(), a.count);
  }
}

TEST_F(TpchTest, Q6MatchesOracle) {
  double expected = 0;
  tpch::Generator gen(kSf);
  using namespace tpch::col;
  int64_t lo = date::Parse("1994-01-01"), hi = date::Parse("1995-01-01");
  ASSERT_TRUE(gen.OrdersAndLineitem(
                     [](const std::vector<Value>&) { return Status::OK(); },
                     [&](const std::vector<Value>& row) {
                       int64_t ship = row[l::kShipdate].AsInt();
                       int64_t disc = row[l::kDiscount].AsInt();
                       int64_t qty = row[l::kQuantity].AsInt();
                       if (ship >= lo && ship < hi && disc >= 5 && disc <= 7 &&
                           qty < 2400) {
                         expected += (row[l::kExtendedprice].AsInt() / 100.0) *
                                     (disc / 100.0);
                       }
                       return Status::OK();
                     })
                  .ok());
  auto result = Run(6);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_NEAR(result.rows[0][0].AsDouble(), expected, 1e-6 * std::abs(expected));
  EXPECT_GT(expected, 0);
}

// Every query must run and produce a plausible result shape.
class TpchAllQueries : public TpchTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(TpchAllQueries, RunsAndHasPlausibleShape) {
  int q = GetParam();
  auto result = Run(q);
  // Queries with aggregate-only output always have rows; others may be
  // data-dependent but at this SF all of them should return something
  // except possibly the highly selective Q2/Q20/Q21.
  static const std::map<int, size_t> kExactRows = {
      {1, 4}, {6, 1}, {12, 2}, {14, 1}, {17, 1}, {19, 1}, {22, 7}};
  auto it = kExactRows.find(q);
  if (it != kExactRows.end()) {
    EXPECT_EQ(result.rows.size(), it->second) << "Q" << q;
  }
  if (q != 2 && q != 20 && q != 21) {
    EXPECT_GT(result.rows.size(), 0u) << "Q" << q;
  }
  // Respect LIMIT clauses.
  static const std::map<int, size_t> kMaxRows = {
      {2, 100}, {3, 10}, {10, 20}, {18, 100}, {21, 100}};
  auto mit = kMaxRows.find(q);
  if (mit != kMaxRows.end()) {
    EXPECT_LE(result.rows.size(), mit->second) << "Q" << q;
  }
}

// Engine agreement: the same query at radically different vector sizes
// (1 = tuple-at-a-time, 1024 = vectorized) must produce identical rows.
// This exercises disjoint code paths (selection handling, chunk boundaries,
// hash table growth) and is the primary end-to-end oracle.
TEST_P(TpchAllQueries, VectorSizeInvariance) {
  int q = GetParam();
  auto big = Run(q, 1024);
  auto tiny = Run(q, 3);
  ASSERT_EQ(big.rows.size(), tiny.rows.size()) << "Q" << q;
  for (size_t i = 0; i < big.rows.size(); i++) {
    ASSERT_EQ(big.rows[i].size(), tiny.rows[i].size());
    for (size_t c = 0; c < big.rows[i].size(); c++) {
      const Value& a = big.rows[i][c];
      const Value& b = tiny.rows[i][c];
      if (a.kind() == Value::Kind::kDouble) {
        EXPECT_NEAR(a.AsDouble(), b.AsDouble(),
                    1e-9 * std::abs(a.AsDouble()) + 1e-9)
            << "Q" << q << " row " << i << " col " << c;
      } else {
        EXPECT_EQ(a, b) << "Q" << q << " row " << i << " col " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchAllQueries,
                         ::testing::Range(1, 23),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "Q";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace vwise
