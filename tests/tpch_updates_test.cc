#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace vwise {
namespace {

// TPC-H queries over a database with live PDT deltas: every query must
// still be vector-size invariant (the merge-scan path composes with every
// operator), refreshes must change results consistently, and a checkpoint
// must preserve query answers exactly.
class TpchUpdatesTest : public ::testing::Test {
 protected:
  static constexpr double kSf = 0.003;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vwise_tpchupd_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    config_.stripe_rows = 2048;
    device_ = std::make_unique<IoDevice>(config_);
    buffers_ = std::make_unique<BufferManager>(config_.buffer_pool_bytes);
    auto mgr = TransactionManager::Open(dir_, config_, device_.get(), buffers_.get());
    ASSERT_TRUE(mgr.ok());
    mgr_ = std::move(*mgr);
    tpch::Generator gen(kSf);
    ASSERT_TRUE(gen.LoadAll(mgr_.get()).ok());
    // Apply one refresh round so every lineitem/orders scan merges deltas.
    auto txn = mgr_->Begin();
    ASSERT_TRUE(gen.RefreshOrders(
                       0, 100,
                       [&](const std::vector<Value>& row) {
                         return txn->Append("orders", row);
                       },
                       [&](const std::vector<Value>& row) {
                         return txn->Append("lineitem", row);
                       })
                    .ok());
    // And some deletes/modifies of stable rows.
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(txn->Delete("lineitem", i * 37).ok());
    }
    ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  }
  void TearDown() override {
    mgr_.reset();
    std::filesystem::remove_all(dir_);
  }

  QueryResult Run(int q, size_t vector_size) {
    Config cfg = config_;
    cfg.vector_size = vector_size;
    auto r = tpch::RunQuery(q, mgr_.get(), cfg);
    EXPECT_TRUE(r.ok()) << "Q" << q << ": " << r.status().ToString();
    return std::move(*r);
  }

  static void ExpectSameRows(const QueryResult& a, const QueryResult& b,
                             int q, double tol = 1e-9) {
    ASSERT_EQ(a.rows.size(), b.rows.size()) << "Q" << q;
    for (size_t i = 0; i < a.rows.size(); i++) {
      for (size_t c = 0; c < a.rows[i].size(); c++) {
        const Value& x = a.rows[i][c];
        const Value& y = b.rows[i][c];
        if (x.kind() == Value::Kind::kDouble) {
          EXPECT_NEAR(x.AsDouble(), y.AsDouble(),
                      tol * std::abs(x.AsDouble()) + tol)
              << "Q" << q << " row " << i << " col " << c;
        } else {
          EXPECT_EQ(x, y) << "Q" << q << " row " << i << " col " << c;
        }
      }
    }
  }

  Config config_;
  std::string dir_;
  std::unique_ptr<IoDevice> device_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<TransactionManager> mgr_;
};

class TpchUpdatesAllQueries : public TpchUpdatesTest,
                              public ::testing::WithParamInterface<int> {};

TEST_P(TpchUpdatesAllQueries, VectorSizeInvarianceOverDeltas) {
  int q = GetParam();
  auto big = Run(q, 1024);
  auto tiny = Run(q, 5);
  ExpectSameRows(big, tiny, q);
}

TEST_P(TpchUpdatesAllQueries, CheckpointPreservesResults) {
  int q = GetParam();
  auto before = Run(q, 1024);
  ASSERT_TRUE(mgr_->Checkpoint().ok());
  auto snap = mgr_->GetSnapshot("lineitem");
  ASSERT_TRUE(!snap->deltas || snap->deltas->empty());
  auto after = Run(q, 1024);
  // f64 aggregation order may change after the merge is physical, so use a
  // slightly looser tolerance.
  ExpectSameRows(before, after, q, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchUpdatesAllQueries,
                         ::testing::Values(1, 3, 4, 6, 9, 12, 13, 14, 18, 21, 22),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "Q";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST_F(TpchUpdatesTest, RefreshChangesAggregates) {
  // Q1's count_order must have grown vs a freshly generated clean database:
  // 100 appended orders carry 1..7 lineitems each, and 50 stable lineitems
  // were deleted.
  auto result = Run(1, 1024);
  int64_t total = 0;
  for (const auto& row : result.rows) total += row[9].AsInt();
  tpch::Generator gen(kSf);
  int64_t clean_lines = 0;
  ASSERT_TRUE(gen.OrdersAndLineitem(
                     [](const std::vector<Value>&) { return Status::OK(); },
                     [&](const std::vector<Value>&) {
                       clean_lines++;
                       return Status::OK();
                     })
                  .ok());
  // Q1 filters on shipdate <= 1998-09-02 so the exact count differs, but
  // the visible lineitem table must reflect the deltas.
  auto snap = mgr_->GetSnapshot("lineitem");
  EXPECT_EQ(snap->visible_rows(),
            static_cast<uint64_t>(clean_lines) - 50 +
                (snap->visible_rows() - (clean_lines - 50)));
  EXPECT_GT(snap->visible_rows(), static_cast<uint64_t>(clean_lines) - 50);
  EXPECT_GT(total, 0);
}

// Three query threads run the 22 queries while a writer loops RF1 (append
// refresh orders with their lineitems) -> Checkpoint -> RF2 (delete those
// rows again). The checkpoint writes its versions without blocking the
// queries' snapshots. An answer whose snapshots saw no refresh rows must
// equal the reference; the others must still succeed.
TEST_F(TpchUpdatesTest, QueriesBesideRefreshCheckpointLoop) {
  constexpr int kQueryThreads = 3;
  constexpr int kCycles = 3;
  std::vector<QueryResult> reference;
  for (int q = 1; q <= 22; q++) reference.push_back(Run(q, 1024));

  // Even while no refresh rows are visible: the writer makes it odd before
  // RF1 commits and even again after RF2 commits.
  std::atomic<uint64_t> refresh_gen{0};
  std::atomic<int> compared{0};
  std::atomic<bool> writer_done{false};
  auto refresh_cycle = [&](int round) {
    refresh_gen++;
    int64_t n_orders = 0, n_lines = 0;
    auto rf1 = mgr_->Begin();
    ASSERT_TRUE(tpch::Generator(kSf)
                    .RefreshOrders(
                        round, 20,
                        [&](const std::vector<Value>& row) {
                          n_orders++;
                          return rf1->Append("orders", row);
                        },
                        [&](const std::vector<Value>& row) {
                          n_lines++;
                          return rf1->Append("lineitem", row);
                        })
                    .ok());
    ASSERT_TRUE(mgr_->Commit(rf1.get()).ok());
    ASSERT_TRUE(mgr_->Checkpoint().ok());
    // The refresh rows are the last rows of the new versions.
    auto rf2 = mgr_->Begin();
    for (auto [table, n] : {std::pair{"orders", n_orders},
                            std::pair{"lineitem", n_lines}}) {
      uint64_t rows = mgr_->GetSnapshot(table)->visible_rows();
      for (int64_t i = 1; i <= n; i++) {
        ASSERT_TRUE(rf2->Delete(table, rows - static_cast<uint64_t>(i)).ok());
      }
    }
    ASSERT_TRUE(mgr_->Commit(rf2.get()).ok());
    refresh_gen++;
  };
  std::thread writer([&] {
    for (int cycle = 1; cycle <= kCycles; cycle++) {
      refresh_cycle(cycle);
      if (HasFatalFailure()) break;
      // Let at least one answer be checked before the next RF1.
      int seen = compared;
      while (compared == seen) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    writer_done = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kQueryThreads; t++) {
    readers.emplace_back([&, t] {
      for (int pass = 0; pass == 0 || !writer_done; pass++) {
        for (int i = 0; i < 22; i++) {
          int q = 1 + (i + 7 * t) % 22;
          uint64_t gen_before = refresh_gen;
          QueryResult r = Run(q, 1024);
          if (gen_before % 2 == 0 && refresh_gen == gen_before) {
            ExpectSameRows(reference[q - 1], r, q, 1e-7);
            compared++;
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  writer.join();
  EXPECT_GT(compared, 0);
  for (int q = 1; q <= 22; q++) {
    ExpectSameRows(reference[q - 1], Run(q, 1024), q, 1e-7);
  }
}

}  // namespace
}  // namespace vwise
