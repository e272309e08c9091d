#ifndef VWISE_EXEC_SELECT_H_
#define VWISE_EXEC_SELECT_H_

#include <memory>

#include "exec/operator.h"
#include "expr/expression.h"

namespace vwise {

// Filters the child stream by narrowing the selection vector — no data is
// copied or moved (X100 selection-vector semantics). Columns pass through by
// reference.
class SelectOperator final : public Operator {
 public:
  SelectOperator(OperatorPtr child, FilterPtr filter, const Config& config);

  const std::vector<TypeId>& OutputTypes() const override {
    return child_->OutputTypes();
  }

  // Static-analysis surface (plan verifier).
  const Operator& child() const { return *child_; }
  const Filter& filter() const { return *filter_; }

 private:
  Status OpenImpl() override;
  Status NextImpl(DataChunk* out) override;
  void CloseImpl() override { child_->Close(); }
  OperatorPtr child_;
  FilterPtr filter_;
  Config config_;
  DataChunk input_;
};

}  // namespace vwise

#endif  // VWISE_EXEC_SELECT_H_
