#ifndef VWISE_SERVICE_QUERY_CONTEXT_H_
#define VWISE_SERVICE_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "service/memory_governor.h"

namespace vwise {

// Per-query execution context, threaded through every Operator via
// Operator::Open(ctx) and shared by all of a query's Xchg fragments. Carries
// the three cross-cutting execution concerns of the query service:
//
//   * cooperative cancellation — Cancel() (from QueryHandle::Cancel or the
//     service shutting down) flips an atomic flag that operators poll once
//     per vector, so a running query unwinds with Status::Cancelled within
//     one vector boundary;
//   * a deadline — when set, the same per-vector poll turns into
//     Status::DeadlineExceeded once the clock passes it;
//   * a memory budget — pipeline breakers (hash join build, aggregation
//     groups, sort buffers) reserve their buffered bytes against it and fail
//     with Status::ResourceExhausted instead of silently oversubscribing a
//     machine shared by many concurrent queries.
//
// Thread safety: Cancel/Check/Reserve/Release may be called from any thread
// (fragments run on shared worker-pool threads). set_deadline and
// set_memory_budget are configuration and must happen before Open().
class QueryContext {
 public:
  // Spill I/O accounting for the query: block bytes written and read
  // through the operators' scratch files (storage/spill_file.h) and the
  // files created, one per spilling operator — surfaced via QueryResult, the
  // EXPLAIN ANALYZE spill line and the out-of-core bench. Atomics: breakers of one query may run on different
  // threads (Xchg fragments).
  struct SpillCounters {
    std::atomic<uint64_t> bytes_written{0};
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> files_created{0};
  };

  QueryContext() = default;
  ~QueryContext() { CleanupSpillDir(); }
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // The process background context: never cancelled, no deadline, unlimited
  // budget. Operator::Open(nullptr) binds it, so plans run outside the query
  // service (unit tests, embedded callers) behave exactly as before.
  static QueryContext* Background();

  // --- cancellation / deadline ----------------------------------------------
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       deadline.time_since_epoch())
                       .count();
  }
  bool has_deadline() const { return deadline_ns_ != 0; }
  // steady_clock ns since epoch; 0 = none. The admission loop caps a queued
  // query's retry backoff at its deadline so expiry sheds it promptly.
  int64_t deadline_ns() const { return deadline_ns_; }

  // The per-vector poll: OK while the query may keep running, otherwise
  // Status::Cancelled or Status::DeadlineExceeded. Cheap when no deadline is
  // set (one relaxed atomic load).
  Status Check() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled");
    }
    if (deadline_ns_ != 0 && NowNs() >= deadline_ns_) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

  // --- memory budget --------------------------------------------------------
  // 0 = unlimited (the default; embedded callers keep today's behavior).
  void set_memory_budget(size_t bytes) {
    budget_bytes_ = static_cast<int64_t>(bytes);
  }
  size_t memory_budget() const { return static_cast<size_t>(budget_bytes_); }
  size_t reserved_bytes() const {
    return static_cast<size_t>(reserved_.load(std::memory_order_relaxed));
  }
  // High-water mark of reserved_bytes() over the query's lifetime — what the
  // query would need to run fully in memory. Tests and the out-of-core bench
  // size spill budgets from it.
  size_t peak_reserved_bytes() const {
    return static_cast<size_t>(peak_reserved_.load(std::memory_order_relaxed));
  }

  // Reserves `bytes` more against the per-query budget and, when a governor
  // is bound, the process-wide budget; ResourceExhausted (and no
  // reservation anywhere) when either would overshoot. `what` names the
  // reserving operator; the message carries the query id plus
  // requested/reserved/global-available bytes for multi-session triage.
  Status Reserve(size_t bytes, const char* what);
  void Release(size_t bytes) {
    reserved_.fetch_sub(static_cast<int64_t>(bytes),
                        std::memory_order_relaxed);
    if (governor_ != nullptr && !admission_granted_) {
      governor_->ReleaseGlobal(bytes);
    }
  }

  // --- memory governor ------------------------------------------------------
  // Binds the process-wide governor (configuration: the service sets it in
  // Submit, before the job is visible to any runner). Reservations above then
  // draw from the global budget, and MemoryPressure() reflects queued demand.
  void BindGovernor(MemoryGovernor* governor) { governor_ = governor; }
  MemoryGovernor* governor() const { return governor_; }
  // Marks that admission already holds this query's declared budget in the
  // global ledger (QueryService sets it between TryAdmit == kGranted and the
  // run). Reservations then check only the per-query budget — which equals
  // the held grant — instead of double-charging the ledger.
  void set_admission_granted(bool granted) { admission_granted_ = granted; }
  bool admission_granted() const { return admission_granted_; }
  void set_query_id(uint64_t id) { query_id_ = id; }
  uint64_t query_id() const { return query_id_; }

  // The cooperative pressure signal: true while some submitted query cannot
  // be admitted for lack of global memory. Pipeline breakers poll this
  // alongside Check() (one relaxed load) and proactively spill + shrink
  // their reservations so the waiters can start.
  bool MemoryPressure() const {
    return governor_ != nullptr && governor_->UnderPressure();
  }
  // Records a pressure-triggered spill in the governor stats; called by the
  // breaker that spilled (cold path).
  void NotePressureSpill() {
    if (governor_ != nullptr) governor_->NotePressureSpill();
  }

  // --- spilling -------------------------------------------------------------
  // Base directory for this query's spill files; configuration, set before
  // Open() (PreparedQuery::Execute points it at the database's swept spill
  // base). Empty = fall back to "<system tmp>/vwise-spill".
  void set_spill_dir(std::string base) { spill_base_ = std::move(base); }
  const std::string& spill_dir_base() const { return spill_base_; }

  // Returns a unique path for a new spill file, creating the per-query
  // directory on first use. `tag` names the operator for debuggability
  // ("sort_run", "join_build", ...). Thread-safe.
  Result<std::string> NewSpillPath(const char* tag) VWISE_EXCLUDES(spill_mu_);

  // Removes the per-query spill directory and everything in it. Runs in the
  // destructor; idempotent. Safe to call while no spill readers/writers are
  // open (operators close theirs in Close()).
  void CleanupSpillDir() VWISE_EXCLUDES(spill_mu_);

  SpillCounters& spill_counters() { return spill_counters_; }

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::atomic<bool> cancelled_{false};
  int64_t deadline_ns_ = 0;  // steady_clock ns since epoch; 0 = none
  int64_t budget_bytes_ = 0;  // 0 = unlimited
  // Configuration, written before Open() (see BindGovernor): the global
  // ledger Reserve draws through, and this query's id for error attribution.
  MemoryGovernor* governor_ = nullptr;
  bool admission_granted_ = false;  // configuration, written before Open()
  uint64_t query_id_ = 0;
  std::atomic<int64_t> reserved_{0};
  std::atomic<int64_t> peak_reserved_{0};

  std::string spill_base_;  // configuration, written before Open()
  Mutex spill_mu_;
  std::string spill_dir_ VWISE_GUARDED_BY(spill_mu_);  // "" until first spill
  uint64_t spill_seq_ VWISE_GUARDED_BY(spill_mu_) = 0;
  // vwise-lint: allow(unguarded-member): SpillCounters fields are atomics
  SpillCounters spill_counters_;
};

// One operator's growing share of the query budget. Bound in OpenImpl (when
// ctx() is known), grown as input is buffered, released in Close — the
// destructor backstops operators torn down without a Close.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  ~MemoryReservation() { ReleaseAll(); }
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  void Bind(QueryContext* ctx, const char* what) {
    ReleaseAll();
    ctx_ = ctx;
    what_ = what;
  }
  Status Grow(size_t bytes) {
    if (ctx_ == nullptr || bytes == 0) return Status::OK();
    VWISE_RETURN_IF_ERROR(ctx_->Reserve(bytes, what_));
    bytes_ += bytes;
    return Status::OK();
  }
  void ReleaseAll() {
    if (ctx_ != nullptr && bytes_ > 0) ctx_->Release(bytes_);
    bytes_ = 0;
  }
  // Gives back part of the reservation — a spilling breaker releases the
  // bytes of a partition it just flushed, and the aggregation trims its
  // worst-case pre-reserve down to what the chunk actually created.
  void Shrink(size_t bytes) {
    if (bytes > bytes_) bytes = bytes_;
    if (ctx_ != nullptr && bytes > 0) ctx_->Release(bytes);
    bytes_ -= bytes;
  }
  size_t bytes() const { return bytes_; }

 private:
  QueryContext* ctx_ = nullptr;
  const char* what_ = "";
  size_t bytes_ = 0;
};

}  // namespace vwise

#endif  // VWISE_SERVICE_QUERY_CONTEXT_H_
