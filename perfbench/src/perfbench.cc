// The repo benchmark program: TPC-H power, throughput with refresh, and
// out-of-core workloads through the public Database/Session API.
//
//   perfbench --workload power --seed 1 --seconds 10 --trace 0
//             --data-dir <scratch dir> [--sf 0.1]
//             [--trace-out spans.jsonl] [--corrupt-query N]
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) turns on Config::profile and the primitive profiler, records
// spans around every call into the engine, and reports the per-layer
// metrics next to its own end-to-end figures, so the tracing overhead is the
// gap between the two runs. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md for
// the workloads and what each metric should move.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "common/json.h"
#include "exec/profile.h"
#include "expr/primitive_profiler.h"
#include "planner/plan_verifier.h"
#include "stats.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "trace.h"

namespace perfbench {
namespace {

using vwise::Config;
using vwise::Database;
using vwise::Json;
using vwise::QueryResult;
using vwise::Status;
using vwise::Value;

constexpr int kNumQueries = 22;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
using Rows = std::vector<std::vector<Value>>;

// RF1 inserts this share of the loaded orders (TPC-H: 0.1%).
constexpr double kRefreshOrderShare = 0.001;
// The refresh client runs RF1 or RF2 once per this many completed queries,
// and a checkpoint after every this-many-th RF1, so the write work per query
// is fixed however fast the queries run.
constexpr uint64_t kQueriesPerRefresh = 11;
constexpr int kPairsPerCheckpoint = 4;

// The 16 primitives with the most cycles on the traced `power` workload at
// SF 0.1; each gets an expr.cycles_per_tuple.<name> metric.
const char* const kTopPrimitives[] = {
    "sel_ge_i32_col_i32_val",  "sel_lt_i32_col_i32_val",
    "map_mul_f64_col_f64_col", "map_sub_f64_val_f64_col",
    "sel_eq_str_col_str_val",  "sel_gt_i32_col_i32_col",
    "sel_eq_str_dict_str_val", "sel_lt_i32_col_i32_col",
    "sel_le_i32_col_i32_val",  "sel_gt_i32_col_i32_val",
    "map_add_f64_val_f64_col", "sel_ge_i64_col_i64_val",
    "sel_ne_i64_col_i64_col",  "sel_le_i64_col_i64_val",
    "sel_gt_i64_col_i64_val",  "sel_lt_i64_col_i64_val",
};

// The operator kinds CollectPlanProfile renders, keyed by the label prefix.
const char* const kOpKinds[][2] = {
    {"Scan", "scan"},         {"Select", "select"}, {"Project", "project"},
    {"HashJoin", "hash_join"}, {"HashAgg", "hash_agg"}, {"Sort", "sort"},
    {"Limit", "limit"},       {"Xchg", "xchg"},
};

struct WorkloadSpec {
  const char* name;
  int query_clients;          // concurrent sessions, each a closed loop
  int admission_slots;        // Config::max_concurrent_queries
  size_t buffer_pool_bytes;   // Config::buffer_pool_bytes
  size_t query_budget_bytes;  // Config::query_memory_budget_bytes (0 = none)
  bool refresh;               // run the RF1/RF2 + checkpoint client
};

const WorkloadSpec kWorkloads[] = {
    {"power", 1, 4, size_t{256} << 20, 0, false},
    {"throughput_refresh", 3, 2, size_t{256} << 20, 0, true},
    {"out_of_core", 1, 4, size_t{8} << 20, size_t{1} << 20, false},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double sf = 0.1;
  std::string data_dir;
  std::string trace_out;
  int corrupt_query = 0;  // self-test: falsify this query's reference answer
};

// ---------------------------------------------------------------------------
// Per-client results
// ---------------------------------------------------------------------------

// A query's latency runs from the start of prepare to Wait() returning, so
// it covers snapshot acquisition in prepare (which stalls behind a
// checkpoint), admission wait and execution.
struct QuerySample {
  int q;
  double latency_ms;
  double prepare_ms;    // BuildQuery + PrepareRoot (build, verify, bind)
  double admission_ms;  // QueryHandle::admission_wait_ns
  double exec_ms;       // Execute() to Wait() returning, minus admission
  int64_t end_ns;       // when Wait() returned
};

// Per-layer numbers gathered from each query's plan profile and result.
struct LayerTotals {
  std::map<std::string, double> self_ms;  // operator kind -> self time
  uint64_t cols_dict = 0, cols_rle = 0, cols_flat = 0;
  uint64_t spill_written = 0, spill_read = 0, queries_spilled = 0;
  size_t peak_reserved_max = 0;

  void Merge(const LayerTotals& o) {
    for (const auto& [k, v] : o.self_ms) self_ms[k] += v;
    cols_dict += o.cols_dict;
    cols_rle += o.cols_rle;
    cols_flat += o.cols_flat;
    spill_written += o.spill_written;
    spill_read += o.spill_read;
    queries_spilled += o.queries_spilled;
    peak_reserved_max = std::max(peak_reserved_max, o.peak_reserved_max);
  }
};

struct ClientResult {
  std::vector<QuerySample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checked = 0;  // answers compared against the reference
  LayerTotals layers;
};

struct RefreshResult {
  std::vector<double> refresh_ms;     // one RF1 or RF2, end to end
  std::vector<double> commit_ms;      // Database::Commit
  std::vector<double> checkpoint_ms;  // Database::Checkpoint
  std::vector<double> delta_mb;       // PDT bytes just before a checkpoint
  int64_t append_ns = 0;              // time inside Transaction::Append
  uint64_t appended_rows = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// State shared by the clients of one measured run.
struct RunState {
  Database* db = nullptr;
  const std::vector<Rows>* reference = nullptr;
  bool trace = false;
  int64_t deadline_ns = 0;
  // The run ends on a whole number of cycles of this many queries (one pass
  // of the 22, or one checkpoint cycle of the refresh client), so every run
  // measures the same mix of work.
  uint64_t cycle_queries = kNumQueries;
  std::atomic<uint64_t> claimed{0};
  std::atomic<uint64_t> limit{UINT64_MAX};
  std::atomic<uint64_t> span_ids{1};
  // Odd while a refresh pair's rows may be visible to a new snapshot: a
  // query whose plan was bound at one even value saw the loaded state and
  // must match the reference exactly.
  std::atomic<uint64_t> refresh_gen{0};
  std::mutex mu;
  std::condition_variable cv;
  uint64_t completed = 0;  // guarded by mu
  bool stop = false;       // guarded by mu
};

// Claims the next query of the run; false once the run is over. The first
// claim after the deadline fixes the end at the next cycle boundary.
bool ClaimQuery(RunState* st) {
  const uint64_t i = st->claimed.fetch_add(1);
  if (i < st->limit.load() && NowNs() >= st->deadline_ns) {
    uint64_t end = (i + st->cycle_queries - 1) / st->cycle_queries *
                   st->cycle_queries;
    uint64_t unset = UINT64_MAX;
    st->limit.compare_exchange_strong(unset, end);
  }
  return i < st->limit.load();
}

const char* OpKind(const std::string& label) {
  for (const auto& k : kOpKinds) {
    if (label.rfind(k[0], 0) == 0) return k[1];
  }
  return nullptr;
}

// Operator self time from the plan profile: a node's inclusive time (open +
// next, as measured by the ProfiledOperator above it) minus that of its
// profiled children. RunQueryOp wraps the root too, so every operator of the
// plan is timed by its own wrapper.
void AccumulateProfile(const vwise::Operator& root, LayerTotals* out) {
  std::vector<vwise::PlanNodeProfile> nodes = vwise::CollectPlanProfile(root);
  for (size_t i = 0; i < nodes.size(); i++) {
    const vwise::PlanNodeProfile& n = nodes[i];
    if (!n.profiled) continue;  // Xchg fragment copies, pseudo lines
    double inclusive = n.open_ms + n.next_ms;
    double children = 0.0;
    for (size_t j = i + 1; j < nodes.size() && nodes[j].depth > n.depth; j++) {
      if (nodes[j].depth == n.depth + 1 && nodes[j].profiled) {
        children += nodes[j].open_ms + nodes[j].next_ms;
      }
    }
    if (const char* kind = OpKind(n.op)) {
      out->self_ms[kind] += std::max(0.0, inclusive - children);
    }
    unsigned long long dict = 0, rle = 0, flat = 0;
    if (!n.repr.empty() &&
        std::sscanf(n.repr.c_str(), " repr=dict:%llu/rle:%llu/flat:%llu",
                    &dict, &rle, &flat) == 3) {
      out->cols_dict += dict;
      out->cols_rle += rle;
      out->cols_flat += flat;
    }
  }
}

// One query execution: prepare, execute, wait, check.
void RunQueryOp(RunState* st, vwise::Session* session, int q, SpanLog* log,
                ClientResult* out) {
  out->attempted++;
  const uint64_t request = log->NextId();
  const uint64_t gen_before = st->refresh_gen.load();
  const int64_t t0 = NowNs();
  vwise::tpch::QueryInfo info;
  auto plan = vwise::tpch::BuildQuery(q, st->db->Internals().tm,
                                      session->config(), &info);
  if (!plan.ok()) {
    std::fprintf(stderr, "Q%d: prepare failed: %s\n", q,
                 plan.status().ToString().c_str());
    out->failed++;
    return;
  }
  // The engine wraps each operator's children when Config::profile is set;
  // the root has no parent, so it is wrapped here (a no-op when untraced).
  vwise::OperatorPtr wrapped =
      vwise::MaybeProfiled(std::move(*plan), session->config(), "root");
  const vwise::Operator* root = wrapped.get();
  std::unique_ptr<vwise::PreparedQuery> prepared =
      session->PrepareRoot(std::move(wrapped), info.column_names);
  const int64_t t1 = NowNs();
  const uint64_t gen_after = st->refresh_gen.load();
  std::unique_ptr<vwise::QueryHandle> handle = prepared->Execute();
  const int64_t t2 = NowNs();
  const vwise::Result<QueryResult>& result = handle->Wait();
  const int64_t t3 = NowNs();

  log->Add("query", request, 0, request, t0, t3);
  log->Add("prepare", log->NextId(), request, request, t0, t1);
  log->Add("execute", log->NextId(), request, request, t1, t2);
  log->Add("wait", log->NextId(), request, request, t2, t3);

  if (!result.ok()) {
    std::fprintf(stderr, "Q%d: execution failed: %s\n", q,
                 result.status().ToString().c_str());
    out->failed++;
    return;
  }
  if (gen_before == gen_after && gen_before % 2 == 0) {
    out->checked++;
    if (!RowsMatch(result->rows, (*st->reference)[q - 1])) {
      std::fprintf(stderr, "Q%d: answer differs from the reference\n", q);
      out->failed++;
    }
  }
  const double admission_ms = NsToMs(handle->admission_wait_ns());
  const double exec_ms = NsToMs(t3 - t1) - admission_ms;
  out->samples.push_back(
      QuerySample{q, NsToMs(t3 - t0), NsToMs(t1 - t0), admission_ms, exec_ms,
                  t3});

  LayerTotals& lt = out->layers;
  lt.spill_written += result->spill_bytes_written;
  lt.spill_read += result->spill_bytes_read;
  if (result->spill_bytes_written > 0) lt.queries_spilled++;
  lt.peak_reserved_max =
      std::max(lt.peak_reserved_max, result->peak_reserved_bytes);
  if (st->trace) {
    AccumulateProfile(*root, &lt);
  }
}

// A closed-loop query client: seeded permutations of the 22 queries, one
// after another, until the run is over.
void RunClient(RunState* st, int client, uint64_t seed, SpanLog* log,
               ClientResult* out) {
  std::unique_ptr<vwise::Session> session = st->db->Connect();
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(client));
  std::vector<int> order(kNumQueries);
  std::iota(order.begin(), order.end(), 1);
  for (;;) {
    std::shuffle(order.begin(), order.end(), rng);
    for (int q : order) {
      if (!ClaimQuery(st)) return;
      RunQueryOp(st, session.get(), q, log, out);
      {
        std::lock_guard<std::mutex> lock(st->mu);
        st->completed++;
      }
      st->cv.notify_all();
    }
  }
}

// RF1: appends `orders` new orders and their lineitems in one transaction.
// Returns false if it failed; *order_rows / *line_rows count what it added.
bool Rf1(RunState* st, const vwise::tpch::Generator& gen, int round,
         int64_t orders, SpanLog* log, RefreshResult* out,
         uint64_t* order_rows, uint64_t* line_rows) {
  Database* db = st->db;
  out->attempted++;
  const uint64_t request = log->NextId();
  const int64_t t0 = NowNs();
  std::unique_ptr<vwise::Transaction> txn = db->Begin();
  auto append = [&](const char* table, uint64_t* rows) {
    return [&, table, rows](const std::vector<Value>& row) {
      int64_t a = NowNs();
      Status s = txn->Append(table, row);
      out->append_ns += NowNs() - a;
      (*rows)++;
      return s;
    };
  };
  Status s = gen.RefreshOrders(round, orders, append("orders", order_rows),
                               append("lineitem", line_rows));
  const int64_t t1 = NowNs();
  st->refresh_gen.fetch_add(1);  // RF1's rows may become visible from here
  if (s.ok()) s = db->Commit(txn.get());
  const int64_t t2 = NowNs();
  log->Add("rf1", request, 0, request, t0, t2);
  log->Add("refresh_orders", log->NextId(), request, request, t0, t1);
  log->Add("commit", log->NextId(), request, request, t1, t2);
  if (!s.ok()) {
    std::fprintf(stderr, "RF1 failed: %s\n", s.ToString().c_str());
    db->Abort(txn.get());
    st->refresh_gen.fetch_add(1);
    out->failed++;
    return false;
  }
  out->appended_rows += *order_rows + *line_rows;
  out->refresh_ms.push_back(NsToMs(t2 - t0));
  out->commit_ms.push_back(NsToMs(t2 - t1));
  return true;
}

// RF2: deletes exactly the rows RF1 appended (the tails of orders and
// lineitem), returning the logical database to the loaded state.
void Rf2(RunState* st, uint64_t order_rows, uint64_t line_rows, SpanLog* log,
         RefreshResult* out) {
  Database* db = st->db;
  out->attempted++;
  const uint64_t request = log->NextId();
  const int64_t t0 = NowNs();
  std::unique_ptr<vwise::Transaction> del = db->Begin();
  Status s;
  for (const auto& [table, rows] :
       {std::pair<const char*, uint64_t>{"orders", order_rows},
        std::pair<const char*, uint64_t>{"lineitem", line_rows}}) {
    auto view = del->GetView(table);
    s = view.status();
    uint64_t visible = view.ok() ? view->visible_rows() : 0;
    for (uint64_t i = 0; s.ok() && i < rows; i++) {
      s = del->Delete(table, visible - 1 - i);
    }
    if (!s.ok()) break;
  }
  const int64_t t1 = NowNs();
  if (s.ok()) s = db->Commit(del.get());
  const int64_t t2 = NowNs();
  log->Add("rf2", request, 0, request, t0, t2);
  log->Add("delete", log->NextId(), request, request, t0, t1);
  log->Add("commit", log->NextId(), request, request, t1, t2);
  if (!s.ok()) {
    // The appended rows stay visible: refresh_gen stays odd, so no later
    // answer is compared against the reference, and the final check fails.
    std::fprintf(stderr, "RF2 failed: %s\n", s.ToString().c_str());
    db->Abort(del.get());
    out->failed++;
    return;
  }
  st->refresh_gen.fetch_add(1);
  out->refresh_ms.push_back(NsToMs(t2 - t0));
  out->commit_ms.push_back(NsToMs(t2 - t1));
}

void TimedCheckpoint(Database* db, SpanLog* log, RefreshResult* out) {
  double delta_bytes = 0;
  for (const char* table : {"lineitem", "orders"}) {
    auto snap = db->Internals().tm->GetSnapshot(table);
    if (snap.ok() && snap->deltas) {
      delta_bytes += static_cast<double>(snap->deltas->ApproxBytes());
    }
  }
  out->attempted++;
  uint64_t request = log->NextId();
  int64_t t0 = NowNs();
  Status s = db->Checkpoint();
  int64_t t1 = NowNs();
  log->Add("checkpoint", request, 0, request, t0, t1);
  if (!s.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
    out->failed++;
    return;
  }
  out->delta_mb.push_back(delta_bytes / 1048576.0);
  out->checkpoint_ms.push_back(NsToMs(t1 - t0));
}

// The refresh client. RF1 and RF2 each wait for kQueriesPerRefresh more
// completed queries, so queries run against RF1's live deltas in between.
// Every kPairsPerCheckpoint-th RF1 is followed by a checkpoint, which then
// merges those inserts (and the previous checkpointed pair's deletes) into
// new table files; a checkpoint right after RF2 would find RF2's deletes
// cancelled against RF1's inserts inside the PDT and have nothing to merge.
// A started pair is always finished, so the run ends in the loaded state.
void RunRefresh(RunState* st, const vwise::tpch::Generator& gen, uint64_t seed,
                SpanLog* log, RefreshResult* out) {
  const int64_t orders = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(gen.num_orders()) *
                              kRefreshOrderShare));
  uint64_t trigger = 0;
  // Waits for the next trigger; false once the run has stopped.
  auto wait_turn = [&] {
    trigger += kQueriesPerRefresh;
    std::unique_lock<std::mutex> lock(st->mu);
    st->cv.wait(lock, [&] { return st->stop || st->completed >= trigger; });
    return !st->stop;
  };
  for (int pair = 0; wait_turn(); pair++) {
    // Seeded rounds: each seed appends its own key range.
    const int round =
        static_cast<int>((seed % 997) * 4096 + static_cast<uint64_t>(pair));
    uint64_t order_rows = 0, line_rows = 0;
    if (!Rf1(st, gen, round, orders, log, out, &order_rows, &line_rows)) {
      continue;
    }
    if ((pair + 1) % kPairsPerCheckpoint == 0) {
      TimedCheckpoint(st->db, log, out);
    }
    wait_turn();
    Rf2(st, order_rows, line_rows, log, out);
  }
}

// Resets the process's peak resident set ("5" to clear_refs), so that the
// next PeakRssMb() covers only what ran since. False if the kernel refuses.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  return static_cast<bool>(f << "5" << std::flush);
}

// The process's peak resident set (VmHWM) in MB; 0 if it cannot be read.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Bytes of every regular file under `dir`.
double DirMb(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return static_cast<double>(bytes) / 1048576.0;
}

// Open, TPC-H load and one warm-up pass of the 22 queries.
Status SetUp(const std::string& dir, const Config& config, double sf,
             std::unique_ptr<Database>* db, double* disk_mb) {
  auto opened = Database::Open(dir, config);
  if (!opened.ok()) return opened.status();
  *db = std::move(*opened);
  vwise::tpch::Generator gen(sf);
  VWISE_RETURN_IF_ERROR(gen.LoadAll((*db)->Internals().tm));
  *disk_mb = DirMb(dir);
  std::unique_ptr<vwise::Session> session = (*db)->Connect();
  for (int q = 1; q <= kNumQueries; q++) {
    auto r = vwise::tpch::RunQuery(q, session.get(), (*db)->Internals().tm,
                                   session->config());
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

// Each query's answer through a differently configured path: tuple-at-a-time
// (vector size 1), eager decode, no budget, run on the calling thread.
Status BuildReference(Database* db, const Config& config,
                      std::vector<Rows>* out) {
  Config ref = config;
  ref.vector_size = 1;
  ref.enable_encoded_exec = false;
  ref.profile = false;
  ref.query_memory_budget_bytes = 0;
  for (int q = 1; q <= kNumQueries; q++) {
    auto r = vwise::tpch::RunQuery(q, db->Internals().tm, ref);
    if (!r.ok()) return r.status();
    out->push_back(std::move(r->rows));
  }
  return Status::OK();
}

void CorruptReference(Rows* rows) {
  if (rows->empty()) {
    rows->push_back({Value::Int(0)});
    return;
  }
  Value& v = (*rows)[0][0];
  switch (v.kind()) {
    case Value::Kind::kInt: v = Value::Int(v.AsInt() + 1); break;
    case Value::Kind::kDouble: v = Value::Double(v.AsDouble() * 2 + 1); break;
    case Value::Kind::kString: v = Value::String(v.AsString() + "#"); break;
    case Value::Kind::kNull: v = Value::Int(0); break;
  }
}

// Cycles of the primitive profiler's clock per millisecond.
double CyclesPerMs() {
  int64_t t0 = NowNs();
  uint64_t c0 = vwise::CycleClock::Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  uint64_t c1 = vwise::CycleClock::Now();
  int64_t t1 = NowNs();
  return static_cast<double>(c1 - c0) / NsToMs(t1 - t0);
}

// Ordered metric list: name -> (value, unit).
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  void Print() const {
    for (const Item& i : items_) {
      std::printf("metric %-40s %18.6f %s\n", i.name.c_str(), i.value, i.unit);
    }
  }
  Json ToJson() const {
    Json out = Json::Object();
    for (const Item& i : items_) {
      Json m = Json::Object();
      m.Set("value", Json::Double(i.value));
      m.Set("unit", Json::Str(i.unit));
      out.Set(i.name, std::move(m));
    }
    return out;
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

// Latency-derived end-to-end figures of one run. Throughput is taken per
// cycle of `cycle_queries` completions (a pass of the 22, or a checkpoint
// cycle) and reported for the median cycle, so one cycle slowed by a noisy
// neighbour does not move it.
void AddQueryMetrics(const std::string& prefix,
                     const std::vector<QuerySample>& samples, int64_t start_ns,
                     uint64_t cycle_queries, Metrics* m) {
  std::vector<int64_t> ends;
  for (const QuerySample& s : samples) ends.push_back(s.end_ns);
  std::sort(ends.begin(), ends.end());
  std::vector<double> cycle_s;
  int64_t cycle_start = start_ns;
  for (size_t i = cycle_queries; i <= ends.size(); i += cycle_queries) {
    cycle_s.push_back(static_cast<double>(ends[i - 1] - cycle_start) / 1e9);
    cycle_start = ends[i - 1];
  }

  std::vector<double> lat;
  std::vector<std::vector<double>> per_query(kNumQueries);
  for (const QuerySample& s : samples) {
    lat.push_back(s.latency_ms);
    per_query[s.q - 1].push_back(s.latency_ms);
  }
  std::vector<double> medians;
  for (const auto& v : per_query) {
    if (!v.empty()) medians.push_back(Median(v));
  }
  // Failed queries leave no sample, so a run may hold no whole cycle.
  double qps = 0.0;
  if (!cycle_s.empty()) {
    qps = static_cast<double>(cycle_queries) / Median(cycle_s);
  } else if (!ends.empty()) {
    qps = static_cast<double>(ends.size()) * 1e9 /
          static_cast<double>(ends.back() - start_ns);
  }
  m->Add(prefix + "queries_per_s", qps, "1/s");
  m->Add(prefix + "query_ms_p50", Median(lat), "ms");
  m->Add(prefix + "query_ms_p90", Percentile(lat, 90), "ms");
  m->Add(prefix + "query_ms_geomean", GeoMean(medians), "ms");
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "power|throughput_refresh|out_of_core --seed N --seconds S "
               "--trace 0|1 --data-dir DIR [--sf F] "
               "[--trace-out FILE] [--corrupt-query Q]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(v);
    else if (a == "--trace") opt.trace = std::atoi(v) != 0;
    else if (a == "--sf") opt.sf = std::atof(v);
    else if (a == "--data-dir") opt.data_dir = v;
    else if (a == "--trace-out") opt.trace_out = v;
    else if (a == "--corrupt-query") opt.corrupt_query = std::atoi(v);
    else return Usage(("unknown argument " + a).c_str());
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) spec = &w;
  }
  if (spec == nullptr) return Usage("unknown workload");
  if (opt.data_dir.empty()) return Usage("--data-dir is required");
  if (opt.seconds <= 0 || opt.sf <= 0) {
    return Usage("--seconds and --sf must be positive");
  }

  Config config;
  config.max_concurrent_queries = spec->admission_slots;
  config.buffer_pool_bytes = spec->buffer_pool_bytes;
  config.query_memory_budget_bytes = spec->query_budget_bytes;
  config.total_memory_budget_bytes = 0;
  config.enable_encoded_exec = true;
  config.check_contracts = false;
  config.verify_plans = false;
  config.profile = opt.trace;

  // Removes the scratch databases on every exit path; declared before the
  // database so the database closes first.
  struct DirGuard {
    std::string dir;
    ~DirGuard() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } guard{opt.data_dir};
  std::filesystem::create_directories(opt.data_dir);

  // --- setup: kSetups times, the median is setup_s --------------------------
  std::unique_ptr<Database> db;
  std::vector<double> setup_s;
  double disk_mb = 0;
  for (int i = 0; i < kSetups; i++) {
    if (db != nullptr) {
      db.reset();
      std::filesystem::remove_all(opt.data_dir + "/db" + std::to_string(i - 1));
    }
    const std::string dir = opt.data_dir + "/db" + std::to_string(i);
    int64_t t0 = NowNs();
    Status s = SetUp(dir, config, opt.sf, &db, &disk_mb);
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::vector<Rows> reference;
  if (Status s = BuildReference(db.get(), config, &reference); !s.ok()) {
    std::fprintf(stderr, "reference failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (opt.corrupt_query >= 1 && opt.corrupt_query <= kNumQueries) {
    CorruptReference(&reference[opt.corrupt_query - 1]);
  }

  // --- measured run --------------------------------------------------------
  RunState st;
  st.db = db.get();
  st.reference = &reference;
  st.trace = opt.trace;
  vwise::tpch::Generator gen(opt.sf);
  const double cycles_per_ms = opt.trace ? CyclesPerMs() : 1.0;
  if (opt.trace) vwise::PrimitiveProfiler::SetEnabled(true);
  const std::vector<vwise::PrimitiveCounters> prim_before =
      vwise::PrimitiveProfiler::Snapshot();
  const vwise::QueryService::Stats svc_before = db->query_service()->stats();
  const vwise::BufferManager::Stats buf_before =
      db->Internals().buffers->stats();

  std::vector<ClientResult> clients(spec->query_clients);
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (int c = 0; c <= spec->query_clients; c++) {
    logs.push_back(std::make_unique<SpanLog>(opt.trace, c, &st.span_ids));
  }
  RefreshResult refresh;
  // The peak resident set of the measured run alone, not of set-up.
  if (opt.trace && !ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak resident set; "
                         "mem.peak_rss_mb includes set-up\n");
  }
  const int64_t start_ns = NowNs();
  st.deadline_ns = start_ns + static_cast<int64_t>(opt.seconds * 1e9);
  if (spec->refresh) {
    st.cycle_queries = 2 * kQueriesPerRefresh * kPairsPerCheckpoint;
  }
  std::thread refresher;
  if (spec->refresh) {
    refresher = std::thread([&] {
      RunRefresh(&st, gen, opt.seed, logs.back().get(), &refresh);
    });
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < spec->query_clients; c++) {
    threads.emplace_back([&, c] {
      RunClient(&st, c, opt.seed, logs[c].get(), &clients[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t end_ns = NowNs();
  {
    std::lock_guard<std::mutex> lock(st.mu);
    st.stop = true;
  }
  st.cv.notify_all();
  if (refresher.joinable()) refresher.join();
  const double peak_rss_mb = opt.trace ? PeakRssMb() : 0.0;

  const std::vector<vwise::PrimitiveCounters> prim_after =
      vwise::PrimitiveProfiler::Snapshot();
  const vwise::QueryService::Stats svc_after = db->query_service()->stats();
  const vwise::BufferManager::Stats buf_after =
      db->Internals().buffers->stats();
  if (opt.trace) vwise::PrimitiveProfiler::SetEnabled(false);

  // --- the refresh round trip: checkpoint, then every answer exact ----------
  uint64_t attempted = refresh.attempted, failed = refresh.failed;
  if (spec->refresh) {
    attempted++;
    Status s = db->Checkpoint();
    if (!s.ok()) {
      std::fprintf(stderr, "final checkpoint failed: %s\n",
                   s.ToString().c_str());
      failed++;
    }
    std::unique_ptr<vwise::Session> session = db->Connect();
    for (int q = 1; q <= kNumQueries; q++) {
      attempted++;
      auto r = vwise::tpch::RunQuery(q, session.get(), db->Internals().tm,
                                     session->config());
      if (!r.ok() || !RowsMatch(r->rows, reference[q - 1])) {
        std::fprintf(stderr, "Q%d: wrong after the final checkpoint\n", q);
        failed++;
      }
    }
  }

  std::vector<QuerySample> samples;
  LayerTotals layers;
  uint64_t checked = 0;
  for (const ClientResult& c : clients) {
    samples.insert(samples.end(), c.samples.begin(), c.samples.end());
    layers.Merge(c.layers);
    attempted += c.attempted;
    failed += c.failed;
    checked += c.checked;
  }
  const double wall_s = static_cast<double>(end_ns - start_ns) / 1e9;

  if (opt.trace && !opt.trace_out.empty()) {
    std::vector<const SpanLog*> all;
    for (const auto& l : logs) all.push_back(l.get());
    if (!WriteSpans(opt.trace_out, all, start_ns)) {
      std::fprintf(stderr, "cannot write spans to %s\n", opt.trace_out.c_str());
      return 1;
    }
  }
  db.reset();

  // --- report --------------------------------------------------------------
  const bool correct = failed == 0 && !samples.empty();
  std::vector<double> lat;
  for (const QuerySample& s : samples) lat.push_back(s.latency_ms);
  const double p90 = Percentile(lat, 90);
  size_t above_p90 = 0;
  for (double l : lat) above_p90 += l > p90 ? 1 : 0;

  std::printf("# perfbench workload=%s seed=%llu sf=%g seconds=%g trace=%d\n",
              spec->name, static_cast<unsigned long long>(opt.seed), opt.sf,
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("# config buffer_pool_mb=%zu query_budget_mb=%g "
              "admission_slots=%d query_clients=%d refresh=%d "
              "encoded_exec=1 vector_size=%zu\n",
              spec->buffer_pool_bytes >> 20,
              static_cast<double>(spec->query_budget_bytes) / 1048576.0,
              spec->admission_slots, spec->query_clients,
              spec->refresh ? 1 : 0, config.vector_size);
  std::printf("# host nproc=%u build=%s\n", std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE);
  std::printf("# samples queries=%zu above_p90=%zu wall_s=%.3f setups=%d "
              "refresh_ops=%zu checkpoints=%zu\n",
              samples.size(), above_p90, wall_s, kSetups,
              refresh.refresh_ms.size(), refresh.checkpoint_ms.size());
  std::printf("# correctness %s: attempted=%llu failed=%llu "
              "checked_against_reference=%llu\n",
              correct ? "PASS" : "FAIL",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(checked));

  Metrics m;
  const double failure_ratio =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) / static_cast<double>(attempted);
  if (!opt.trace) {
    m.Add("setup_s", Median(setup_s), "s");
    AddQueryMetrics("", samples, start_ns, st.cycle_queries, &m);
    m.Add("disk_mb", disk_mb, "MB");
  } else {
    // The traced run's own end-to-end figures; against the untraced run of
    // the same seed they give the tracing overhead.
    AddQueryMetrics("traced.", samples, start_ns, st.cycle_queries, &m);
    m.Add("mem.peak_rss_mb", peak_rss_mb, "MB");
    m.Add("op_failure_ratio", failure_ratio, "ratio");
    m.Add("refresh_ms_p50", Median(refresh.refresh_ms), "ms");

    std::vector<double> adm, exec, prep;
    for (const QuerySample& s : samples) {
      adm.push_back(s.admission_ms);
      exec.push_back(s.exec_ms);
      prep.push_back(s.prepare_ms);
    }
    m.Add("service.admission_wait_ms_p50", Median(adm), "ms");
    m.Add("service.admission_wait_ms_p90", Percentile(adm, 90), "ms");
    m.Add("service.exec_ms_p50", Median(exec), "ms");
    m.Add("service.queued", static_cast<double>(svc_after.queued - svc_before.queued), "count");
    m.Add("service.shed", static_cast<double>(svc_after.shed - svc_before.shed), "count");
    m.Add("service.pressure_spills",
          static_cast<double>(svc_after.pressure_spills - svc_before.pressure_spills),
          "count");
    m.Add("planner.prepare_ms_p50", Median(prep), "ms");
    m.Add("planner.prepare_ms_p90", Percentile(prep, 90), "ms");
    // A checkpoint stalls only the few snapshots taken while it runs, too
    // few to reach the 90th percentile; the maximum shows the stall.
    m.Add("planner.prepare_ms_max", Max(prep), "ms");

    double self_total = 0;
    for (const auto& k : kOpKinds) {
      double v = layers.self_ms[k[1]];
      self_total += v;
      m.Add(std::string("exec.self_ms.") + k[1], v, "ms");
    }
    uint64_t cycles = 0, tuples = 0;
    std::map<std::string, std::pair<uint64_t, uint64_t>> per_prim;
    for (size_t i = 0; i < prim_after.size(); i++) {
      uint64_t c = prim_after[i].cycles - prim_before[i].cycles;
      uint64_t t = prim_after[i].tuples - prim_before[i].tuples;
      cycles += c;
      tuples += t;
      if (prim_after[i].name != nullptr) per_prim[prim_after[i].name] = {c, t};
    }
    const double prim_ms = static_cast<double>(cycles) / cycles_per_ms;
    m.Add("exec.interp_overhead_ms", self_total - prim_ms, "ms");
    m.Add("expr.prim_ms", prim_ms, "ms");
    m.Add("expr.prim_tuples", static_cast<double>(tuples), "count");
    m.Add("expr.cycles_per_tuple",
          tuples == 0 ? 0.0 : static_cast<double>(cycles) / static_cast<double>(tuples),
          "cycles");
    for (const char* name : kTopPrimitives) {
      auto [c, t] = per_prim[name];
      m.Add(std::string("expr.cycles_per_tuple.") + name,
            t == 0 ? 0.0 : static_cast<double>(c) / static_cast<double>(t),
            "cycles");
    }
    // Every primitive that ran, by cycles: the input for kTopPrimitives.
    std::vector<std::pair<uint64_t, std::string>> by_cycles;
    for (const auto& [name, ct] : per_prim) {
      if (ct.first > 0) by_cycles.push_back({ct.first, name});
    }
    std::sort(by_cycles.rbegin(), by_cycles.rend());
    for (const auto& [c, name] : by_cycles) {
      std::printf("# primitive %s cycles=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(c));
    }

    const double cols = static_cast<double>(layers.cols_dict + layers.cols_rle +
                                            layers.cols_flat);
    m.Add("scan.cols_dict", static_cast<double>(layers.cols_dict), "count");
    m.Add("scan.cols_rle", static_cast<double>(layers.cols_rle), "count");
    m.Add("scan.cols_flat", static_cast<double>(layers.cols_flat), "count");
    m.Add("scan.encoded_share",
          cols == 0 ? 0.0
                    : static_cast<double>(layers.cols_dict + layers.cols_rle) / cols,
          "ratio");

    const double hits = static_cast<double>(buf_after.hits - buf_before.hits);
    const double misses = static_cast<double>(buf_after.misses - buf_before.misses);
    m.Add("storage.buffer_hits", hits, "count");
    m.Add("storage.buffer_misses", misses, "count");
    m.Add("storage.buffer_hit_ratio",
          hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio");
    m.Add("storage.buffer_evictions",
          static_cast<double>(buf_after.evictions - buf_before.evictions), "count");
    m.Add("storage.read_retries",
          static_cast<double>(buf_after.read_retries - buf_before.read_retries),
          "count");

    m.Add("spill.written_mb", static_cast<double>(layers.spill_written) / 1048576.0, "MB");
    m.Add("spill.read_mb", static_cast<double>(layers.spill_read) / 1048576.0, "MB");
    m.Add("spill.queries_spilled", static_cast<double>(layers.queries_spilled), "count");
    m.Add("mem.peak_reserved_mb_max",
          static_cast<double>(layers.peak_reserved_max) / 1048576.0, "MB");

    m.Add("txn.commit_ms_p50", Median(refresh.commit_ms), "ms");
    m.Add("txn.commit_ms_p90", Percentile(refresh.commit_ms, 90), "ms");
    m.Add("txn.append_us_per_row",
          refresh.appended_rows == 0
              ? 0.0
              : static_cast<double>(refresh.append_ns) / 1e3 /
                    static_cast<double>(refresh.appended_rows),
          "us");
    m.Add("txn.checkpoint_ms_p50", Median(refresh.checkpoint_ms), "ms");
    m.Add("txn.checkpoint_ms_max", Max(refresh.checkpoint_ms), "ms");
    m.Add("pdt.delta_mb_at_checkpoint", Median(refresh.delta_mb), "MB");
  }
  m.Print();

  Json out = Json::Object();
  out.Set("correct", Json::Bool(correct));
  out.Set("attempted", Json::Int(static_cast<int64_t>(attempted)));
  out.Set("failed", Json::Int(static_cast<int64_t>(failed)));
  out.Set("metrics", m.ToJson());
  std::printf("%s\n", out.ToString(0).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
