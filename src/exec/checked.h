#ifndef VWISE_EXEC_CHECKED_H_
#define VWISE_EXEC_CHECKED_H_

#include "exec/operator.h"

namespace vwise {

// Validates the X100 chunk invariants documented on DataChunk
// (vector/chunk.h). Operator::Next runs it around every NextImpl when
// Config::check_contracts is set. Violations are reported as
// Status::Internal naming the operator — a contract violation is always a
// bug in vwise, never bad user input, but tests want to observe it as a
// catchable error rather than a process abort.
class ChunkValidator {
 public:
  // Full post-Next() validation of `chunk` against `producer`'s declared
  // output types:
  //   * count <= capacity
  //   * selection strictly increasing, every entry < count, sel_count <= count
  //   * one column per declared output type, each with the declared TypeId
  //     and capacity covering `count`
  //   * string columns keep their bytes alive: any active non-empty
  //     StringVal requires a registered StringHeap ref (or keepalive pin),
  //     and a non-null pointer
  static Status Validate(const DataChunk& chunk, const Operator& producer);

  // Pre-Next() validation: callers must Reset() a chunk before each refill
  // (no stale cardinality, selection, or heap keepalives).
  static Status ValidateReset(const DataChunk& chunk, const Operator& producer);
};

}  // namespace vwise

#endif  // VWISE_EXEC_CHECKED_H_
