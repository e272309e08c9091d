// Negative hot-path check: a lock acquisition inside an operator's NextImpl()
// must be rejected by tools/vwise_hotpath.py.
//
// tools/check_compile_fail.py runs this twice (mode hotpath-lock): the
// control (no VWISE_COMPILE_FAIL) must pass the analyzer, the seeded
// variant must fail with a 'lock' diagnostic. Per-vector mutex traffic is
// exactly the kind of overhead the vectorized model exists to amortize
// away — synchronization belongs at operator boundaries (open/close, the
// exchange operator), never in the per-vector loop. ctest target:
// compile_fail_hotpath_lock.

#include "common/thread_annotations.h"

namespace vwise {

class DemoCounterOperator {
 public:
  // Stands in for an operator's NextImpl — the analyzer roots every NextImpl
  // method.
  int NextImpl(long* out) {
#ifdef VWISE_COMPILE_FAIL
    MutexLock lock(&mu_);  // per-vector lock: must be flagged
#endif
    *out = ++served_;
    return 0;
  }

 private:
  mutable Mutex mu_;
  long served_ = 0;
};

}  // namespace vwise
