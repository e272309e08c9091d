#include "exec/project.h"

#include <cstring>

namespace vwise {

ProjectOperator::ProjectOperator(OperatorPtr child, std::vector<ExprPtr> exprs,
                                 const Config& config)
    : Operator(config),
      child_(std::move(child)),
      exprs_(std::move(exprs)),
      config_(config) {
  for (const auto& e : exprs_) out_types_.push_back(e->physical());
}

Status ProjectOperator::OpenImpl() {
  VWISE_RETURN_IF_ERROR(child_->Open(ctx()));
  for (auto& e : exprs_) {
    VWISE_RETURN_IF_ERROR(e->Prepare(config_.vector_size));
  }
  input_.Init(child_->OutputTypes(), config_.vector_size);
  return Status::OK();
}

Status ProjectOperator::NextImpl(DataChunk* out) {
  input_.Reset();
  VWISE_RETURN_IF_ERROR(child_->Next(&input_));
  size_t n = input_.ActiveCount();
  if (n == 0) {
    out->SetCount(0);
    return Status::OK();
  }
  for (size_t i = 0; i < exprs_.size(); i++) {
    Vector* result = nullptr;
    // vwise-hotpath: allow(virtual-in-loop): the loop is over output
    // columns, not tuples — one Eval dispatch evaluates a full vector
    VWISE_RETURN_IF_ERROR(exprs_[i]->Eval(input_, input_.sel(), n, &result));
    out->column(i).Reference(*result);
  }
  out->SetCount(input_.count());
  if (input_.has_selection()) {
    std::memcpy(out->MutableSel(), input_.sel(), n * sizeof(sel_t));
    out->SetSelection(n);
  }
  return Status::OK();
}

}  // namespace vwise
