// Negative compile check: the unlocked phase of the table-version publish
// protocol (TransactionManager::WriteVersions, annotated
// VWISE_REQUIRES(publish_mu_) VWISE_EXCLUDES(mu_)) must not read the
// catalog state that mu_ guards. Reading `tables_` there must NOT build
// under clang -Wthread-safety.
//
// This translation unit supplies a stand-in body for the real, annotated
// member declared in txn/transaction_manager.h, so the check runs against
// the real annotations. tools/check_compile_fail.py compiles it with
// -fsyntax-only: the control (no VWISE_COMPILE_FAIL) must succeed, the
// seeded variant must fail. Under gcc the runner reports SKIP.
// ctest target: compile_fail_thread_safety_publish.

#include "txn/transaction_manager.h"

namespace vwise {

Status TransactionManager::WriteVersions(const std::vector<PublishJob>& jobs) {
#ifdef VWISE_COMPILE_FAIL
  // Guarded read without mu_: must be a compile error.
  if (tables_.count(jobs.front().st->schema.name()) == 0) {
    return Status::NotFound("table");
  }
#endif
  (void)jobs;
  return Status::OK();
}

}  // namespace vwise
