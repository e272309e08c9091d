#include "service/query_context.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace vwise {

namespace {

// Out-of-line so Reserve's success path stays allocation-free: the messages
// are built only when a budget check has already failed. Both carry the
// query id and requested vs. reserved vs. available bytes so a
// multi-session OOM can be attributed without guesswork.
std::string BudgetError(uint64_t query_id, const char* what, size_t bytes,
                        int64_t reserved, int64_t budget,
                        const MemoryGovernor* governor) {
  std::string msg = "query ";
  msg += std::to_string(query_id);
  msg += ": memory budget exceeded: ";
  msg += what;
  msg += " requested ";
  msg += std::to_string(bytes);
  msg += " more bytes, ";
  msg += std::to_string(reserved);
  msg += " of ";
  msg += std::to_string(budget);
  msg += " already reserved";
  if (governor != nullptr && governor->total_bytes() != 0) {
    msg += ", ";
    msg += std::to_string(governor->available_bytes());
    msg += " available globally of ";
    msg += std::to_string(governor->total_bytes());
  }
  return msg;
}

std::string GlobalBudgetError(uint64_t query_id, const char* what,
                              size_t bytes, int64_t reserved,
                              int64_t budget,
                              const MemoryGovernor* governor) {
  std::string msg = "query ";
  msg += std::to_string(query_id);
  msg += ": global memory budget exceeded: ";
  msg += what;
  msg += " requested ";
  msg += std::to_string(bytes);
  msg += " more bytes, query has ";
  msg += std::to_string(reserved);
  msg += " reserved";
  if (budget != 0) {
    msg += " of ";
    msg += std::to_string(budget);
  }
  msg += ", ";
  msg += std::to_string(governor->available_bytes());
  msg += " available globally of ";
  msg += std::to_string(governor->total_bytes());
  return msg;
}

}  // namespace

QueryContext* QueryContext::Background() {
  // Never destroyed: operators bound to it may outlive any static-teardown
  // ordering (worker-pool threads drain during process exit).
  static QueryContext* background = new QueryContext();
  return background;
}

Status QueryContext::Reserve(size_t bytes, const char* what) {
  int64_t delta = static_cast<int64_t>(bytes);
  int64_t now =
      reserved_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (budget_bytes_ != 0 && now > budget_bytes_) {
    reserved_.fetch_sub(delta, std::memory_order_relaxed);
    return Status::ResourceExhausted(BudgetError(
        query_id_, what, bytes, now - delta, budget_bytes_, governor_));
  }
  // An admission grant already holds this query's declared budget in the
  // global ledger; the per-query check above (budget == grant) is then the
  // whole story. Only ungranted contexts draw the ledger per reservation.
  if (governor_ != nullptr && !admission_granted_ &&
      !governor_->TryReserve(bytes)) {
    // Global exhaustion looks exactly like per-query exhaustion to the
    // breakers (kResourceExhausted), so their spill-and-retry path composes:
    // a breaker that spills under global pressure shrinks both ledgers.
    reserved_.fetch_sub(delta, std::memory_order_relaxed);
    return Status::ResourceExhausted(GlobalBudgetError(
        query_id_, what, bytes, now - delta, budget_bytes_, governor_));
  }
  int64_t peak = peak_reserved_.load(std::memory_order_relaxed);
  while (now > peak && !peak_reserved_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Result<std::string> QueryContext::NewSpillPath(const char* tag) {
  namespace fs = std::filesystem;
  MutexLock lock(&spill_mu_);
  if (spill_dir_.empty()) {
    fs::path base;
    if (!spill_base_.empty()) {
      base = spill_base_;
    } else if (const char* env = std::getenv("VWISE_SPILL_DIR");
               env != nullptr && env[0] != '\0') {
      base = env;
    } else {
      std::error_code ec;
      base = fs::temp_directory_path(ec);
      if (ec) base = ".";
      base /= "vwise-spill";
    }
    // q<pid>-<address> is unique per live context: two queries in one process
    // have distinct contexts, two processes have distinct pids, and a crashed
    // process's leftovers are swept by SweepSpillDir at the next Open.
    std::string name = "q";
    name += std::to_string(::getpid());
    name += '-';
    name += std::to_string(reinterpret_cast<uintptr_t>(this));
    fs::path dir = base / name;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      return Status::IOError("cannot create spill directory " + dir.string() +
                             ": " + ec.message());
    }
    spill_dir_ = dir.string();
  }
  std::string path = spill_dir_ + "/" + tag + "-" +
                     std::to_string(spill_seq_++) + ".spill";
  spill_counters_.files_created.fetch_add(1, std::memory_order_relaxed);
  return path;
}

void QueryContext::CleanupSpillDir() {
  std::string dir;
  {
    MutexLock lock(&spill_mu_);
    dir.swap(spill_dir_);
  }
  if (dir.empty()) return;
  // Best effort: a failure here leaks temp files, never query correctness;
  // the next Database::Open sweeps stragglers.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace vwise
