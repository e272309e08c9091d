// Coverage for the concurrent query service (src/service/): admission
// control (slots, priority + FIFO ordering, measured queue wait), cooperative
// cancellation and deadlines (unwinding within one vector boundary), the
// per-query memory budget, the shared worker pool surviving fragment
// failures, the XchgOperator::Close() drain protocol (regression: 1-slot
// queue), and bit-identical results across concurrent sessions.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "api/database.h"
#include "common/failpoint.h"
#include "exec/hash_agg.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/xchg.h"
#include "gtest/gtest.h"
#include "rewriter/parallelize.h"
#include "service/query_service.h"

namespace vwise {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             Clock::now() - t0)
      .count();
}

// A manually-opened latch: lets a submitted job occupy its admission slot
// until the test releases it.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void Open() {
    {
      std::lock_guard<std::mutex> l(mu);
      open = true;
    }
    cv.notify_all();
  }
  void WaitOpen() {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [this] { return open; });
  }
};

Config OneSlotConfig() {
  Config cfg;
  cfg.max_concurrent_queries = 1;
  cfg.pool_threads = 2;
  return cfg;
}

// --- QueryService in isolation (no Database, jobs are plain lambdas) --------

TEST(QueryServiceTest, AdmissionIsPriorityThenFifo) {
  QueryService svc(OneSlotConfig());
  ASSERT_EQ(svc.max_concurrent(), 1);

  Gate gate;
  std::atomic<bool> admitted{false};
  auto hold = svc.Submit(
      [&](QueryContext*) -> Result<QueryResult> {
        admitted.store(true);
        gate.WaitOpen();
        return QueryResult{};
      },
      /*priority=*/0);
  while (!admitted.load()) std::this_thread::yield();

  // The only slot is held, so these three queue up. d outranks b and c;
  // b and c tie on priority and must admit in submission order.
  std::mutex order_mu;
  std::vector<std::string> order;
  auto record = [&](const char* name) {
    return [&order_mu, &order, name](QueryContext*) -> Result<QueryResult> {
      std::lock_guard<std::mutex> l(order_mu);
      order.push_back(name);
      return QueryResult{};
    };
  };
  auto b = svc.Submit(record("b"), /*priority=*/0);
  auto c = svc.Submit(record("c"), /*priority=*/0);
  auto d = svc.Submit(record("d"), /*priority=*/1);

  gate.Open();
  EXPECT_TRUE(hold->Take().ok());
  EXPECT_TRUE(b->Take().ok());
  EXPECT_TRUE(c->Take().ok());
  EXPECT_TRUE(d->Take().ok());

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "d");
  EXPECT_EQ(order[1], "b");
  EXPECT_EQ(order[2], "c");
  // The queue wait is measured: everything behind `hold` waited a real
  // interval for its slot.
  EXPECT_GT(b->admission_wait_ns(), 0);
  EXPECT_GT(d->admission_wait_ns(), 0);
  EXPECT_EQ(svc.stats().completed, 4u);
}

TEST(QueryServiceTest, CancelWhileQueuedFinishesImmediately) {
  QueryService svc(OneSlotConfig());
  Gate gate;
  std::atomic<bool> admitted{false};
  auto hold = svc.Submit(
      [&](QueryContext*) -> Result<QueryResult> {
        admitted.store(true);
        gate.WaitOpen();
        return QueryResult{};
      },
      0);
  while (!admitted.load()) std::this_thread::yield();

  // The victim never gets a slot; cancelling it must not wait for one.
  std::atomic<bool> victim_ran{false};
  auto victim = svc.Submit(
      [&](QueryContext*) -> Result<QueryResult> {
        victim_ran.store(true);
        return QueryResult{};
      },
      0);
  auto t0 = Clock::now();
  svc.Cancel(victim);
  Result<QueryResult> r = victim->Take();
  EXPECT_LT(MsSince(t0), 50.0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_FALSE(victim_ran.load());
  EXPECT_EQ(svc.stats().cancelled_in_queue, 1u);

  gate.Open();
  EXPECT_TRUE(hold->Take().ok());
}

TEST(QueryServiceTest, ShutdownCancelsRunningAndQueuedJobs) {
  std::shared_ptr<QueryService::Job> running, queued;
  {
    QueryService svc(OneSlotConfig());
    std::atomic<bool> admitted{false};
    running = svc.Submit(
        [&](QueryContext* ctx) -> Result<QueryResult> {
          admitted.store(true);
          // A cooperative job: poll the context like operators do.
          while (ctx->Check().ok()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return ctx->Check();
        },
        0);
    while (!admitted.load()) std::this_thread::yield();
    queued = svc.Submit(
        [](QueryContext*) -> Result<QueryResult> { return QueryResult{}; }, 0);
  }  // ~QueryService cancels both and joins its runners.
  Result<QueryResult> r1 = running->Take();
  ASSERT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsCancelled()) << r1.status().ToString();
  Result<QueryResult> r2 = queued->Take();
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsCancelled()) << r2.status().ToString();
}

// --- Full stack: Database + Session + plans over real tables ----------------

// A one-column i64 source whose every Next fails.
struct FailingSource final : Operator {
  const std::vector<TypeId>& OutputTypes() const override { return types; }
  Status OpenImpl() override { return Status::OK(); }
  Status NextImpl(DataChunk*) override { return Status::Internal("injected"); }
  void CloseImpl() override {}
  std::vector<TypeId> types{TypeId::kI64};
};

constexpr int64_t kSmallRows = 10000;
constexpr int64_t kBigRows = 2000000;

void LoadSmallTable(Database* db) {
  TableSchema t("t", {ColumnDef("k", DataType::Int64()),
                      ColumnDef("g", DataType::Int64()),
                      ColumnDef("s", DataType::Varchar())});
  ASSERT_TRUE(db->CreateTable(t).ok());
  ASSERT_TRUE(db->BulkLoad("t", [](TableWriter* w) -> Status {
    const char* tags[] = {"alpha", "beta", "gamma"};
    for (int64_t i = 0; i < kSmallRows; i++) {
      VWISE_RETURN_IF_ERROR(w->AppendRow(
          {Value::Int(i), Value::Int(i % 7), Value::String(tags[i % 3])}));
    }
    return Status::OK();
  }).ok());
}

// group g -> count(*), sum(k): integer-only aggregates (order-insensitive),
// totally ordered by the trailing sort, so the rendered result is
// bit-identical no matter how concurrent queries interleave.
Result<QueryResult> GroupedQuery(Session* session) {
  PlanBuilder q = session->NewPlan();
  VWISE_RETURN_IF_ERROR(q.Scan("t", {0, 1}));
  q.Agg({1}, {AggSpec::CountStar(), AggSpec::Sum(0)},
        {DataType::Int64(), DataType::Int64(), DataType::Int64()});
  q.Sort({{0, true}});
  return session->Query(&q, {"g", "n", "sum_k"});
}

// The same aggregation through the parallelize rewriter: with
// Config::num_threads > 1 its partial aggregates run as Xchg fragments on
// the shared pool, and a final aggregate plus sort combine them, so the
// result stays bit-identical however the fragments interleave.
Result<QueryResult> ParallelGroupedQuery(Database* db, Session* session) {
  Config cfg = session->config();
  auto snap = db->Internals().tm->GetSnapshot("t");
  VWISE_RETURN_IF_ERROR(snap.status());
  rewriter::ParallelAggSpec spec;
  spec.snapshot = *snap;
  spec.scan_cols = {0, 1};  // k, g
  spec.build_pipeline = [cfg](OperatorPtr scan) -> Result<OperatorPtr> {
    return OperatorPtr(std::make_unique<HashAggOperator>(
        std::move(scan), std::vector<size_t>{1},
        std::vector<AggSpec>{AggSpec::Sum(0), AggSpec::CountStar()}, cfg));
  };
  spec.partial_types = {TypeId::kI64, TypeId::kI64, TypeId::kI64};
  spec.final_group_cols = {0};
  spec.final_aggs = {AggSpec::Sum(1), AggSpec::Sum(2)};
  VWISE_ASSIGN_OR_RETURN(OperatorPtr root,
                         rewriter::ParallelizeScanAgg(spec, cfg));
  root = std::make_unique<SortOperator>(std::move(root),
                                        std::vector<SortKey>{{0, true}}, cfg);
  return session->PrepareRoot(std::move(root), {"g", "sum_k", "n"})->Run();
}

// Runs `query` on eight concurrent sessions of `db`; one result per client.
std::vector<Result<QueryResult>> RunConcurrently(
    Database* db, const std::function<Result<QueryResult>(Session*)>& query) {
  std::vector<Result<QueryResult>> results(8, Status::Internal("not run"));
  std::vector<std::thread> clients;
  for (size_t i = 0; i < results.size(); i++) {
    clients.emplace_back([&, i] { results[i] = query(db->Connect().get()); });
  }
  for (auto& th : clients) th.join();
  return results;
}

class QueryServiceDbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/vwise_qsvc_suite");
    std::filesystem::remove_all(*dir_);
    Config cfg;
    // ParallelGroupedQuery fans out through Xchg onto the shared pool;
    // PlanBuilder plans stay serial.
    cfg.num_threads = 2;
    cfg.pool_threads = 4;
    auto db = Database::Open(*dir_, cfg);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = db->release();
    LoadSmallTable(db_);
    ASSERT_TRUE(db_->CreateTable(TableSchema(
        "big", {ColumnDef("k", DataType::Int64()),
                ColumnDef("v", DataType::Int64())})).ok());
    ASSERT_TRUE(db_->BulkLoad("big", [](TableWriter* w) -> Status {
      for (int64_t i = 0; i < kBigRows; i++) {
        VWISE_RETURN_IF_ERROR(
            w->AppendRow({Value::Int(i), Value::Int(i % 1000)}));
      }
      return Status::OK();
    }).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    std::filesystem::remove_all(*dir_);
    delete dir_;
  }

  // A deliberately heavy plan: ~kBigRows distinct groups. Used as the
  // cancellation / deadline / budget target; never meant to finish.
  static std::unique_ptr<PreparedQuery> PrepareHeavyAgg(Session* session) {
    PlanBuilder q = session->NewPlan();
    EXPECT_TRUE(q.Scan("big", {0, 1}).ok());
    q.Agg({0}, {AggSpec::CountStar()}, {DataType::Int64(), DataType::Int64()});
    auto prepared = session->Prepare(&q);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    return std::move(*prepared);
  }

  static std::string* dir_;
  static Database* db_;
};

std::string* QueryServiceDbTest::dir_ = nullptr;
Database* QueryServiceDbTest::db_ = nullptr;

TEST_F(QueryServiceDbTest, CancelStopsRunningQueryWithinOneVector) {
  auto session = db_->Connect();
  auto prepared = PrepareHeavyAgg(session.get());
  auto handle = prepared->Execute();
  // Let it get admitted and well into the scan before pulling the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto t0 = Clock::now();
  handle->Cancel();
  const Result<QueryResult>& r = handle->Wait();
  double cancel_ms = MsSince(t0);
  ASSERT_FALSE(r.ok()) << "query finished before Cancel() landed — grow "
                          "kBigRows";
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_LT(cancel_ms, 50.0);
  EXPECT_TRUE(handle->done());
}

TEST_F(QueryServiceDbTest, DeadlineExpiresMidJoin) {
  auto session = db_->Connect();
  PlanBuilder probe = session->NewPlan();
  ASSERT_TRUE(probe.Scan("big", {0, 1}).ok());
  PlanBuilder build = session->NewPlan();
  ASSERT_TRUE(build.Scan("big", {0}).ok());
  probe.Join(std::move(build), JoinType::kInner, {0}, {0});
  auto prepared = session->Prepare(&probe);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  QueryOptions opt;
  opt.timeout = std::chrono::milliseconds(25);
  Result<QueryResult> r = (*prepared)->Run(opt);
  ASSERT_FALSE(r.ok()) << "join finished inside the deadline — grow kBigRows";
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
}

TEST_F(QueryServiceDbTest, MemoryBudgetFailsQueryWithResourceExhausted) {
  auto session = db_->Connect();
  auto prepared = PrepareHeavyAgg(session.get());
  QueryOptions opt;
  // Below ONE group's state (~48 bytes): recursive repartitioning rescues
  // any budget that holds at least a vector of groups (even 8 KB now
  // completes this 2M-group query, slowly), so a budget that cannot hold a
  // single group is what must still fail — cleanly, promptly, and without
  // poisoning the session.
  opt.memory_budget_bytes = 32;
  Result<QueryResult> r = prepared->Run(opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();

  // The failure is contained to that query: the same session keeps working.
  Result<QueryResult> ok = GroupedQuery(session.get());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows.size(), 7u);
}

TEST_F(QueryServiceDbTest, PoolSurvivesErroringFragment) {
  // An Xchg whose fragments fail on their first Next: the error must
  // surface at Next() without taking down the shared pool threads.
  Config cfg = db_->config();  // worker_pool points at the service's pool
  {
    std::vector<OperatorPtr> fragments;
    fragments.push_back(std::make_unique<FailingSource>());
    fragments.push_back(std::make_unique<FailingSource>());
    XchgOperator xchg(std::move(fragments), {TypeId::kI64}, cfg);
    ASSERT_TRUE(xchg.Open().ok());
    DataChunk chunk;
    chunk.Init(xchg.OutputTypes(), cfg.vector_size);
    Status s = xchg.Next(&chunk);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInternal);
    xchg.Close();
  }
  // The same pool still executes admitted queries end to end.
  auto session = db_->Connect();
  Result<QueryResult> r = GroupedQuery(session.get());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 7u);
  int64_t total = 0;
  for (const auto& row : r->rows) total += row[1].AsInt();
  EXPECT_EQ(total, kSmallRows);
}

TEST_F(QueryServiceDbTest, XchgCloseDrainsWithOneSlotQueueAndFullPool) {
  // Regression for the Close() deadlock: a 1-slot queue fills instantly, all
  // producers block in PushChunk, and Close() must still cancel, help-run
  // unscheduled fragments, and join — with more fragments than pool threads.
  Config cfg = db_->config();
  cfg.xchg_queue_capacity = 1;
  cfg.vector_size = 64;  // hundreds of chunks per fragment
  auto snap = db_->Internals().tm->GetSnapshot("t");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto fragments = [&] {
    std::vector<OperatorPtr> scans;
    for (int w = 0; w < 8; w++) {
      scans.push_back(std::make_unique<ScanOperator>(
          *snap, std::vector<uint32_t>{0, 2}, cfg));
    }
    return scans;
  };

  {
    // Close after consuming a single chunk: producers are mid-stream.
    XchgOperator xchg(fragments(), {TypeId::kI64, TypeId::kStr}, cfg);
    ASSERT_TRUE(xchg.Open().ok());
    DataChunk chunk;
    chunk.Init(xchg.OutputTypes(), cfg.vector_size);
    ASSERT_TRUE(xchg.Next(&chunk).ok());
    xchg.Close();
  }
  {
    // Close without consuming anything: some fragments may not have been
    // scheduled yet (8 fragments > 4 pool threads) — Close help-runs them.
    XchgOperator xchg(fragments(), {TypeId::kI64, TypeId::kStr}, cfg);
    ASSERT_TRUE(xchg.Open().ok());
    xchg.Close();
  }
  {
    // Cancellation through the context: Next() observes it within a vector.
    QueryContext ctx;
    XchgOperator xchg(fragments(), {TypeId::kI64, TypeId::kStr}, cfg);
    ASSERT_TRUE(xchg.Open(&ctx).ok());
    DataChunk chunk;
    chunk.Init(xchg.OutputTypes(), cfg.vector_size);
    ASSERT_TRUE(xchg.Next(&chunk).ok());
    ctx.Cancel();
    Status s;
    do {
      chunk.Reset();
      s = xchg.Next(&chunk);
    } while (s.ok() && chunk.ActiveCount() > 0);
    EXPECT_TRUE(s.IsCancelled()) << s.ToString();
    xchg.Close();
  }
}

TEST_F(QueryServiceDbTest, ConcurrentSessionsProduceBitIdenticalResults) {
  Result<QueryResult> ref = GroupedQuery(db_->Connect().get());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::string expected = ref->ToString(kSmallRows);
  for (const Result<QueryResult>& r : RunConcurrently(db_, GroupedQuery)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ToString(kSmallRows), expected);
  }
}

TEST_F(QueryServiceDbTest, ConcurrentXchgPlansShareThePoolBitIdentically) {
  // Eight sessions, each running an Xchg-parallelized aggregation: every
  // query's fragments land on the same shared worker pool, so this is the
  // many-queries-times-many-fragments interleaving the service exists for.
  // Sorted output + integer aggregates keep the rendered result exact.
  Result<QueryResult> ref = ParallelGroupedQuery(db_, db_->Connect().get());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_EQ(ref->rows.size(), 7u);
  int64_t total = 0;
  for (const auto& row : ref->rows) total += row[2].AsInt();
  EXPECT_EQ(total, kSmallRows);
  const std::string expected = ref->ToString(kSmallRows);
  auto query = [](Session* s) { return ParallelGroupedQuery(db_, s); };
  for (const Result<QueryResult>& r : RunConcurrently(db_, query)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ToString(kSmallRows), expected);
  }
}

TEST(QueryServiceProfiledTest, ProfiledConcurrentSessionsStayBitIdentical) {
  // Same data and parallel plan as the shared fixture, but with
  // Config::profile on: per-operator profiling (live fragment counters
  // included) and primitive counters must not perturb results, even with
  // eight profiled queries' fragments interleaving on the pool.
  std::string dir = ::testing::TempDir() + "/vwise_qsvc_profiled";
  std::filesystem::remove_all(dir);
  Config cfg;
  cfg.num_threads = 2;
  cfg.pool_threads = 4;
  cfg.profile = true;
  auto db = Database::Open(dir, cfg);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  LoadSmallTable(db->get());

  Result<QueryResult> ref =
      ParallelGroupedQuery(db->get(), (*db)->Connect().get());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_NE(ref->profile.find("fragment(1):"), std::string::npos)
      << ref->profile;
  const std::string expected = ref->ToString(kSmallRows);
  auto query = [&](Session* s) { return ParallelGroupedQuery(db->get(), s); };
  for (const Result<QueryResult>& r : RunConcurrently(db->get(), query)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ToString(kSmallRows), expected);
    EXPECT_FALSE(r->profile.empty()) << "a client lost its profile";
  }
  db->reset();
  std::filesystem::remove_all(dir);
}

TEST(QueryServiceFaultTest, InjectedChunkLoadErrorFailsOnlyTheOwningQuery) {
  // An I/O error injected into a buffer-manager chunk load must surface as
  // that one query's non-OK Status — concurrent sessions sharing the pool
  // (and the same cold cache) keep running, and the service keeps accepting
  // queries afterwards.
  failpoint::DisarmAll();
  std::string dir = ::testing::TempDir() + "/vwise_qsvc_fault";
  std::filesystem::remove_all(dir);
  Config cfg;
  cfg.pool_threads = 4;
  auto db = Database::Open(dir, cfg);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  LoadSmallTable(db->get());

  // The cache is cold, so the first chunk load of the race below hits the
  // armed site; count:1 fails exactly one load, i.e. exactly one query.
  ASSERT_TRUE(failpoint::Arm("bufmgr.load=err:EIO,count:1").ok());

  std::vector<Result<QueryResult>> results =
      RunConcurrently(db->get(), GroupedQuery);
  EXPECT_GE(failpoint::Hits("bufmgr.load"), 1u);
  failpoint::DisarmAll();

  int failures = 0;
  for (const Result<QueryResult>& r : results) {
    if (!r.ok()) {
      failures++;
      EXPECT_EQ(r.status().code(), StatusCode::kIOError)
          << r.status().ToString();
    }
  }
  EXPECT_EQ(failures, 1);

  // Every surviving client produced the same answer as a clean rerun, and
  // the service still takes new queries (including the failed one's plan).
  Result<QueryResult> ref = GroupedQuery((*db)->Connect().get());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::string expected = ref->ToString(kSmallRows);
  for (const Result<QueryResult>& r : results) {
    if (r.ok()) {
      EXPECT_EQ(r->ToString(kSmallRows), expected);
    }
  }
  db->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vwise
