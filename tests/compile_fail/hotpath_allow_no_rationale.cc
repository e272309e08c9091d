// Negative hot-path check: a `vwise-hotpath: allow(...)` escape WITHOUT a
// rationale must itself be an error — the escape hatch mirrors
// tools/vwise_lint.py's policy that every waiver explains itself.
//
// tools/check_compile_fail.py runs this twice (mode hotpath-escape): the
// control carries the same escape WITH a rationale and must pass (also
// proving the escape mechanism works at all); the seeded variant drops the
// rationale and must fail with a 'needs a rationale' diagnostic. ctest
// target: compile_fail_hotpath_escape.

#include <cstddef>
#include <vector>

namespace vwise {

class RationaleDemoOperator {
 public:
  int NextImpl(long* out) {
#ifdef VWISE_COMPILE_FAIL
    // vwise-hotpath: allow(alloc)
    scratch_.push_back(1);
#else
    // vwise-hotpath: allow(alloc): warm-up growth only — capacity is
    // retained across chunks, so the steady state allocates nothing
    scratch_.push_back(1);
#endif
    *out = scratch_.back();
    return 0;
  }

 private:
  std::vector<long> scratch_;
};

}  // namespace vwise
