// Allocation-regression suite: proves the steady-state Next() loop performs
// ZERO heap allocations — the dynamic counterpart of the static hot-path
// analyzer (tools/vwise_hotpath.py). The analyzer argues from the call
// graph; this test measures the real binary through the counting operator
// new/delete replacement in alloc_probe.cc, so a regression that sneaks
// past the syntactic closure (std::function captures, implicit
// std::string temporaries in templates, container growth inside the
// standard library) still fails CI.
//
// Measurement model: every top-level Next() call is bracketed with
// allocation-counter snapshots. Warm-up calls are allowed to allocate —
// that is where stripes are decoded, hash tables grow, scratch vectors and
// string heaps reach their high-water mark. Every call AFTER warm-up must
// allocate nothing:
//
//   * streaming pipelines (scan > select > project) warm up in a few
//     vectors, then every further vector must be allocation-free;
//   * blocking pipelines (Q1 aggregation, Q3 join+sort) do all consume-side
//     work inside the first Next(); the emit phase is forced to span
//     multiple chunks with a tiny vector_size so the steady emit loop is
//     actually observed.
//
// The tables are loaded with a stripe size larger than any SF-0.005 table,
// so per-stripe work (decode, buffer-manager traffic) happens once, inside
// warm-up, and cannot excuse allocations later in the scan.

#include <utility>
#include <vector>

#include "alloc_probe.h"
#include "common/date.h"
#include "gtest/gtest.h"
#include "planner/plan_builder.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

#include <filesystem>
#include <string>

namespace vwise {
namespace {

using namespace vwise::tpch::col;  // NOLINT: positional plan construction

constexpr double kSf = 0.005;

// Per-Next allocation trace of one full run to end-of-stream.
struct DriveTrace {
  Status status = Status::OK();
  std::vector<uint64_t> allocs;  // per Next() call, including the EOS call
  std::vector<uint64_t> bytes;
  size_t rows = 0;
};

DriveTrace Drive(OperatorPtr root, size_t vector_size) {
  DriveTrace t;
  t.status = root->Open(nullptr);
  if (!t.status.ok()) {
    root->Close();
    return t;
  }
  DataChunk chunk;
  chunk.Init(root->OutputTypes(), vector_size);
  while (true) {
    chunk.Reset();
    test::AllocSnapshot before = test::TakeAllocSnapshot();
    Status st = root->Next(&chunk);
    test::AllocSnapshot after = test::TakeAllocSnapshot();
    t.allocs.push_back(test::AllocsBetween(before, after));
    t.bytes.push_back(test::BytesBetween(before, after));
    if (!st.ok()) {
      t.status = st;
      break;
    }
    if (chunk.ActiveCount() == 0) break;
    t.rows += chunk.ActiveCount();
  }
  root->Close();
  return t;
}

// Every Next() call at index >= warmup must have allocated zero times.
void ExpectSteadyStateClean(const DriveTrace& t, size_t warmup,
                            const char* what) {
  ASSERT_TRUE(t.status.ok()) << what << ": " << t.status.ToString();
  ASSERT_GT(t.allocs.size(), warmup)
      << what << ": produced only " << t.allocs.size()
      << " Next() calls — nothing left to measure after warm-up";
  for (size_t i = warmup; i < t.allocs.size(); i++) {
    EXPECT_EQ(t.allocs[i], 0u)
        << what << ": Next() call #" << i << " performed " << t.allocs[i]
        << " allocations (" << t.bytes[i] << " bytes) after warm-up";
  }
}

class AllocRegressionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/vwise_alloc_suite");
    std::filesystem::remove_all(*dir_);
    config_ = new Config();
    // One stripe per table: stripe-boundary work (decode, buffer pins)
    // happens inside warm-up instead of excusing allocations mid-scan.
    config_->stripe_rows = 1u << 20;
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

  static DriveTrace DriveQuery(int q, size_t vector_size) {
    Config cfg = *config_;
    cfg.vector_size = vector_size;
    auto plan = tpch::BuildQuery(q, mgr_, cfg);
    if (!plan.ok()) {
      DriveTrace t;
      t.status = plan.status();
      return t;
    }
    return Drive(std::move(*plan), vector_size);
  }

  static std::string* dir_;
  static Config* config_;
  static IoDevice* device_;
  static BufferManager* buffers_;
  static TransactionManager* mgr_;
};

std::string* AllocRegressionTest::dir_ = nullptr;
Config* AllocRegressionTest::config_ = nullptr;
IoDevice* AllocRegressionTest::device_ = nullptr;
BufferManager* AllocRegressionTest::buffers_ = nullptr;
TransactionManager* AllocRegressionTest::mgr_ = nullptr;

// The probe itself must not allocate — otherwise every measurement below is
// self-contaminated.
TEST_F(AllocRegressionTest, SnapshotIsAllocationFree) {
  test::AllocSnapshot a = test::TakeAllocSnapshot();
  test::AllocSnapshot b = test::TakeAllocSnapshot();
  EXPECT_EQ(test::AllocsBetween(a, b), 0u);
}

// ... and it must actually see allocations. The compiler may merge or elide
// new-expressions ([expr.new]p12, even with a replaced operator new), so the
// pointer is laundered through an asm barrier before the second snapshot.
TEST_F(AllocRegressionTest, ProbeCountsAllocations) {
  test::AllocSnapshot before = test::TakeAllocSnapshot();
  auto* p = new std::vector<int>(1024);
  asm volatile("" : : "g"(p) : "memory");
  test::AllocSnapshot after = test::TakeAllocSnapshot();
  delete p;
  EXPECT_GE(test::AllocsBetween(before, after), 1u);
  EXPECT_GE(test::BytesBetween(before, after), 1024u * sizeof(int));
}

// Streaming pipeline (the per-vector loop proper): scan lineitem, filter on
// shipdate, project an arithmetic expression AND a string column — the
// string passthrough pins the StringHeap reuse path (vector/string_heap.h)
// that used to leak one heap allocation per chunk. ~30 vectors at SF 0.005;
// after 4 warm-up vectors every remaining Next() must be allocation-free.
TEST_F(AllocRegressionTest, StreamingScanSelectProjectSteadyState) {
  Config cfg = *config_;
  cfg.vector_size = 1024;
  PlanBuilder q(mgr_, cfg);
  ASSERT_TRUE(q.Scan("lineitem", {l::kShipdate, l::kDiscount,
                                  l::kExtendedprice, l::kReturnflag})
                  .ok());
  q.Select(e::And(Fs(e::Ge(q.Col(0), e::DateLit("1994-01-01")),
                     e::Lt(q.Col(0), e::DateLit("1995-01-01")))));
  q.Project(Es(e::Mul(q.F(2), q.F(1)), q.Col(3)),
            {DataType::Double(), DataType::Varchar()});
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  DriveTrace t = Drive(std::move(*plan), cfg.vector_size);
  EXPECT_GT(t.rows, 0u);
  ExpectSteadyStateClean(t, /*warmup=*/4, "scan>select>project");
}

// Q1 (blocking aggregation + sort): all consume-side work happens inside the
// first Next(). vector_size 2 forces the 4 result groups across multiple
// emit chunks, so the steady emit loop — including the VARCHAR group keys
// being written through the output chunk's string heap — is observed.
TEST_F(AllocRegressionTest, Q1EmitPhaseSteadyState) {
  DriveTrace t = DriveQuery(1, /*vector_size=*/2);
  EXPECT_EQ(t.rows, 4u);
  ExpectSteadyStateClean(t, /*warmup=*/1, "Q1");
}

// Q6 (streaming select + single-group aggregation): one result row, so the
// steady state here is the post-emit EOS probe.
TEST_F(AllocRegressionTest, Q6EmitPhaseSteadyState) {
  DriveTrace t = DriveQuery(6, /*vector_size=*/1024);
  EXPECT_EQ(t.rows, 1u);
  ExpectSteadyStateClean(t, /*warmup=*/1, "Q6");
}

// Q3 (two joins + aggregation + top-10 sort): vector_size 4 spreads the ten
// result rows across three emit chunks; every emit after the first Next()
// must be allocation-free.
TEST_F(AllocRegressionTest, Q3EmitPhaseSteadyState) {
  DriveTrace t = DriveQuery(3, /*vector_size=*/4);
  EXPECT_EQ(t.rows, 10u);
  ExpectSteadyStateClean(t, /*warmup=*/1, "Q3");
}

// Multi-stripe variant of StreamingScanSelectProjectSteadyState: stripes of
// 4 096 rows, so the scan crosses stripe boundaries mid-run. A boundary
// Next() opens one stripe column per scanned column (a buffer-pool hit, a
// segment header parse, a pin-carrying heap ref for the string column, the
// dictionary of an adopted PDICT column) but decodes nothing ahead of the
// reader: it must allocate less than one stripe of 4-byte values. Every
// other Next() after warm-up allocates nothing.
class AllocRegressionMultiStripeTest : public ::testing::Test {
 protected:
  static constexpr size_t kStripeRows = 4096;

  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/vwise_alloc_multi_stripe");
    std::filesystem::remove_all(*dir_);
    config_ = new Config();
    config_->stripe_rows = kStripeRows;
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

  static std::string* dir_;
  static Config* config_;
  static IoDevice* device_;
  static BufferManager* buffers_;
  static TransactionManager* mgr_;
};

std::string* AllocRegressionMultiStripeTest::dir_ = nullptr;
Config* AllocRegressionMultiStripeTest::config_ = nullptr;
IoDevice* AllocRegressionMultiStripeTest::device_ = nullptr;
BufferManager* AllocRegressionMultiStripeTest::buffers_ = nullptr;
TransactionManager* AllocRegressionMultiStripeTest::mgr_ = nullptr;

TEST_F(AllocRegressionMultiStripeTest,
       StreamingScanSelectProjectStripeBoundaries) {
  Config cfg = *config_;
  cfg.vector_size = 1024;
  auto build = [&]() -> Result<OperatorPtr> {
    PlanBuilder q(mgr_, cfg);
    VWISE_RETURN_IF_ERROR(q.Scan(
        "lineitem",
        {l::kShipdate, l::kDiscount, l::kExtendedprice, l::kReturnflag}));
    q.Select(e::And(Fs(e::Ge(q.Col(0), e::DateLit("1994-01-01")),
                       e::Lt(q.Col(0), e::DateLit("1995-01-01")))));
    q.Project(Es(e::Mul(q.F(2), q.F(1)), q.Col(3)),
              {DataType::Double(), DataType::Varchar()});
    return q.Build();
  };
  auto snap = mgr_->GetSnapshot("lineitem");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const size_t stripes = snap->stable->stripe_count();
  ASSERT_GE(stripes, 6u);

  // The first run faults every blob into the buffer pool, so the measured
  // run sees only the decode path, not buffer-pool misses.
  auto warm = build();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(Drive(std::move(*warm), cfg.vector_size).status.ok());
  auto plan = build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  DriveTrace t = Drive(std::move(*plan), cfg.vector_size);
  ASSERT_TRUE(t.status.ok()) << t.status.ToString();
  EXPECT_GT(t.rows, 0u);

  const size_t warmup = 4;
  ASSERT_GT(t.allocs.size(), warmup + stripes);
  size_t allocating = 0;
  for (size_t i = warmup; i < t.allocs.size(); i++) {
    if (t.allocs[i] > 0) allocating++;
    EXPECT_LT(t.bytes[i], kStripeRows * 4)
        << "Next() call #" << i << " performed " << t.allocs[i]
        << " allocations (" << t.bytes[i] << " bytes) after warm-up";
  }
  // Only stripe boundaries may allocate at all.
  EXPECT_LE(allocating, stripes);
}

}  // namespace
}  // namespace vwise
