#ifndef VWISE_EXEC_PROFILE_H_
#define VWISE_EXEC_PROFILE_H_

#include "exec/operator.h"

namespace vwise {

// Inert identity: every operator built with Config::profile times itself
// (Operator::stats()), the plan root included. Kept only because the repo
// benchmark (perfbench/) still calls it on the plan root; the next benchmark
// change drops that call and deletes this header.
inline OperatorPtr MaybeProfiled(OperatorPtr op, const Config&, const char*) {
  return op;
}

}  // namespace vwise

#endif  // VWISE_EXEC_PROFILE_H_
