#ifndef VWISE_EXEC_PROJECT_H_
#define VWISE_EXEC_PROJECT_H_

#include <memory>
#include <vector>

#include "exec/operator.h"
#include "expr/expression.h"

namespace vwise {

// Computes one output column per expression, at the active positions of the
// input chunk; the selection vector is propagated, not compacted. Plain
// column references pass through zero-copy.
class ProjectOperator final : public Operator {
 public:
  ProjectOperator(OperatorPtr child, std::vector<ExprPtr> exprs,
                  const Config& config);

  const std::vector<TypeId>& OutputTypes() const override { return out_types_; }

  // Static-analysis surface (plan verifier).
  const Operator& child() const { return *child_; }
  const std::vector<ExprPtr>& exprs() const { return exprs_; }

 private:
  Status OpenImpl() override;
  Status NextImpl(DataChunk* out) override;
  void CloseImpl() override { child_->Close(); }
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Config config_;
  std::vector<TypeId> out_types_;
  DataChunk input_;
};

}  // namespace vwise

#endif  // VWISE_EXEC_PROJECT_H_
