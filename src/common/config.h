#ifndef VWISE_COMMON_CONFIG_H_
#define VWISE_COMMON_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace vwise {

namespace detail {
// Default for Config::check_contracts: the VWISE_CHECK_CONTRACTS environment
// variable lets a test runner (ctest sets it for every test) turn contract
// checking on for all Configs constructed in the process, without each test
// opting in.
inline bool EnvCheckContracts() {
  static const bool enabled = [] {
    const char* v = std::getenv("VWISE_CHECK_CONTRACTS");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return enabled;
}

// Default for Config::verify_plans, same contract as EnvCheckContracts:
// ctest sets VWISE_VERIFY_PLANS for every test so all plans built in the
// process pass through the static plan verifier.
inline bool EnvVerifyPlans() {
  static const bool enabled = [] {
    const char* v = std::getenv("VWISE_VERIFY_PLANS");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return enabled;
}

// Default for Config::profile, same contract: VWISE_PROFILE turns on the
// per-operator profiling and the per-primitive cycle counters for
// every Config constructed in the process.
inline bool EnvProfile() {
  static const bool enabled = [] {
    const char* v = std::getenv("VWISE_PROFILE");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return enabled;
}

// Default for Config::total_memory_budget_bytes: VWISE_TOTAL_MEMORY_BUDGET
// sizes the process-wide governor budget every query's reservations draw
// from. Accepts plain bytes or a k/m/g suffix ("256m"). Empty/0 = unlimited
// (the governor admits everything, preserving pre-governor behavior).
inline size_t EnvTotalMemoryBudget() {
  static const size_t bytes = [] {
    const char* v = std::getenv("VWISE_TOTAL_MEMORY_BUDGET");
    if (v == nullptr || v[0] == '\0') return size_t{0};
    char* end = nullptr;
    unsigned long long n = std::strtoull(v, &end, 10);
    if (end == v) return size_t{0};
    switch (*end) {
      case 'k': case 'K': n <<= 10; break;
      case 'm': case 'M': n <<= 20; break;
      case 'g': case 'G': n <<= 30; break;
      default: break;
    }
    return static_cast<size_t>(n);
  }();
  return bytes;
}
}  // namespace detail

class WorkerPool;  // service/worker_pool.h

// Engine-wide tuning knobs. A Config is plumbed from the Database facade down
// to storage and execution; benches override individual fields to run the
// paper's ablations (vector size, buffer pool size, scan policy, ...).
struct Config {
  // --- Execution -----------------------------------------------------------
  // Values per vector. 1 degenerates to tuple-at-a-time; very large values
  // approximate full materialization (the MonetDB regime). Paper default ~1K.
  size_t vector_size = 1024;
  // Worker threads for Xchg-parallelized plans (1 = no parallelism). This is
  // per-plan fan-out (how many fragments the rewriter creates), not thread
  // count: fragments run on the shared worker pool below.
  int num_threads = 1;
  // Bound on chunks buffered per Xchg queue.
  size_t xchg_queue_capacity = 8;
  // Threads in the process-wide shared worker pool that runs plan fragments
  // (see service/worker_pool.h). 0 = hardware default. Read once when the
  // Database (or the global fallback pool) is created.
  int pool_threads = 0;
  // The pool Xchg fragments are submitted to. Database::Open points this at
  // its service's pool; nullptr (embedded/unit-test use) falls back to
  // WorkerPool::Global().
  WorkerPool* worker_pool = nullptr;
  // Queries admitted to run concurrently per Database; queries beyond this
  // wait in the admission queue (see service/query_service.h).
  int max_concurrent_queries = 4;
  // Per-query budget for the memory the pipeline breakers materialize (hash
  // join build side, aggregation groups, sort runs, exchange queues).
  // Exceeding it makes the breakers spill to disk (see enable_spill); only
  // when spilling is disabled or cannot make progress does the query fail
  // with Status::ResourceExhausted rather than OOMing the process.
  // 0 = unlimited.
  size_t query_memory_budget_bytes = 0;
  // Process-wide memory budget owned by the MemoryGovernor
  // (service/memory_governor.h): the single pool every query's Reserve ledger
  // draws from. Admission gates each query's declared budget against it;
  // queries that do not fit queue (with backoff) instead of failing, and
  // running breakers see a pressure signal asking them to spill proactively.
  // 0 = unlimited (admission always grants, reservations are unbounded
  // globally — per-query budgets still apply).
  size_t total_memory_budget_bytes = detail::EnvTotalMemoryBudget();
  // Admission retry budget: a query that cannot be admitted is re-queued with
  // jittered exponential backoff at most this many times before the service
  // sheds it (ResourceExhausted with a retry-after hint). Deadlines shed
  // sooner.
  int admission_retry_limit = 64;
  // Base/backoff cap for admission retries, microseconds. The n-th retry
  // waits ~base * 2^n (jittered, capped) before the runner reconsiders the
  // query, giving running queries time to finish or pressure-spill.
  uint64_t admission_backoff_base_us = 200;
  uint64_t admission_backoff_max_us = 50000;
  // Pressure-spill floor: a breaker polled under governor pressure spills
  // proactively only once it holds at least this many reserved bytes, so
  // tiny operators don't thrash the spill path to free negligible memory.
  size_t pressure_spill_min_bytes = 256 << 10;
  // Graceful degradation under the memory budget: when a Reserve would
  // overshoot, hash join and hash aggregation switch to radix-partitioned
  // spilling and sort becomes an external sort (runs + k-way merge) instead
  // of failing the query. Off = the pre-spill behavior (hard
  // ResourceExhausted), which the budget-exhaustion tests rely on.
  bool enable_spill = true;
  // Radix partitions (fan-out) for spilled hash join/aggregation. Rounded to
  // a power of two in [2, 256]; each spilled partition must individually fit
  // in the budget when it is reloaded.
  size_t spill_partitions = 8;
  // Recursive repartitioning bound: a spilled partition that alone exceeds
  // the budget when reloaded is re-partitioned on a fresh radix level (the
  // next hash byte) up to this many levels deep before the query fails.
  // Levels 1-7 each consume 8 fresh hash bits, so values beyond 7 add no
  // discrimination power.
  size_t spill_max_repartition_depth = 4;
  // Base directory for spill temp files. Resolution order: this field, then
  // $VWISE_SPILL_DIR, then "<db dir>/spill" for queries running through a
  // Database (stale per-query dirs in it are swept at Open — crash
  // recovery), then the system temp dir for embedded contexts. Each query
  // gets its own subdirectory, removed when the query's context is
  // destroyed.
  std::string spill_dir;
  // Every operator built with this Config validates the X100 chunk
  // invariants (see vector/chunk.h) around each of its Next() calls
  // (Operator::Next, exec/checked.h). Debug tooling: on in all tests, off in
  // benchmarks.
  bool check_contracts = detail::EnvCheckContracts();
  // Run the static plan verifier (src/planner/plan_verifier.h) over every
  // plan produced by PlanBuilder::Build() and by the rewriter rules:
  // bottom-up expression type inference against declared operator output
  // types, plus nullability checks.
  // Debug tooling: on in all tests, off in benchmarks.
  bool verify_plans = detail::EnvVerifyPlans();
  // Every operator built with this Config profiles itself (Open/Next wall
  // time, Next() calls, rows/vectors produced: Operator::stats()), and the
  // expression dispatch path records per-primitive call/tuple/cycle
  // counters. Results surface through QueryResult::profile (EXPLAIN ANALYZE
  // text) and planner::CollectPlanProfile. Off by default: profiled plans
  // produce bit-identical results, but each Next() pays two timer calls.
  bool profile = detail::EnvProfile();

  // --- Storage --------------------------------------------------------------
  // Rows per storage stripe (the cooperative-scan "chunk" granularity).
  size_t stripe_rows = 16384;
  // Buffer-pool capacity in bytes.
  size_t buffer_pool_bytes = 256ull << 20;
  // Enable per-column-chunk automatic compression (PFOR family).
  bool enable_compression = true;
  // Use min-max sparse indexes to skip stripes during scans.
  bool enable_minmax_skipping = true;
  // Inert: only perfbench/ assigns it; the next benchmark change deletes it.
  bool enable_encoded_exec = false;

  // --- Simulated I/O device -------------------------------------------------
  // When >0, block reads sleep to model a device with this bandwidth, making
  // bandwidth-sharing effects (Cooperative Scans) observable even when the
  // OS page cache is warm. 0 disables the simulation.
  uint64_t sim_io_bandwidth_bytes_per_sec = 0;
  // Fixed per-request latency of the simulated device, microseconds.
  uint64_t sim_io_seek_us = 0;

  // --- Transactions ---------------------------------------------------------
  // fsync the WAL on commit (off by default: benches measure engine cost, not
  // device sync latency; crash tests enable it).
  bool wal_sync_on_commit = false;

  // --- Fault injection ------------------------------------------------------
  // Failpoint spec armed when the database opens (see common/failpoint.h for
  // the grammar, e.g. "wal.append=torn:17;table.read=err:EIO,nth:3"). Arming
  // is process-wide and additive; the VWISE_FAILPOINTS environment variable
  // is also honored (parsed once per process). Empty = nothing armed; with
  // no failpoints armed the entire injection cost is one relaxed atomic load
  // per I/O operation.
  std::string failpoints;
};

}  // namespace vwise

#endif  // VWISE_COMMON_CONFIG_H_
