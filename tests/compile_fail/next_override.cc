// Negative compile check: an operator cannot override Next().
//
// Operator::Next is the one operator boundary: non-virtual, it runs the
// contract checks and the profiling counters around the subclass hook
// NextImpl. An operator that could still override Next would skip both.
// tools/check_compile_fail.py compiles this file twice (mode override): the
// control overrides NextImpl and must build; the seeded variant declares
// `Status Next(DataChunk*) override` and must fail with an 'override'
// diagnostic. ctest target: compile_fail_next_override.

#include <vector>

#include "exec/operator.h"

namespace vwise {

class EmptySource final : public Operator {
 public:
  const std::vector<TypeId>& OutputTypes() const override { return types_; }

#ifdef VWISE_COMPILE_FAIL
  Status Next(DataChunk* out) override {  // must not build
    out->SetCount(0);
    return Status::OK();
  }
#endif

 private:
  Status OpenImpl() override { return Status::OK(); }
  Status NextImpl(DataChunk* out) override {
    out->SetCount(0);
    return Status::OK();
  }
  void CloseImpl() override {}

  std::vector<TypeId> types_;
};

}  // namespace vwise
