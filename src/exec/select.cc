#include "exec/select.h"

namespace vwise {

SelectOperator::SelectOperator(OperatorPtr child, FilterPtr filter,
                               const Config& config)
    : Operator(config),
      child_(std::move(child)),
      filter_(std::move(filter)),
      config_(config) {}

Status SelectOperator::OpenImpl() {
  VWISE_RETURN_IF_ERROR(child_->Open(ctx()));
  VWISE_RETURN_IF_ERROR(filter_->Prepare(config_.vector_size));
  input_.Init(child_->OutputTypes(), config_.vector_size);
  return Status::OK();
}

Status SelectOperator::NextImpl(DataChunk* out) {
  while (true) {
    input_.Reset();
    VWISE_RETURN_IF_ERROR(child_->Next(&input_));
    size_t n = input_.ActiveCount();
    if (n == 0) {
      out->SetCount(0);
      return Status::OK();
    }
    size_t k = 0;
    VWISE_RETURN_IF_ERROR(
        filter_->Select(input_, input_.sel(), n, out->MutableSel(), &k));
    if (k == 0) continue;  // fully filtered chunk: pull the next one
    for (size_t c = 0; c < input_.num_columns(); c++) {
      out->column(c).Reference(input_.column(c));
    }
    out->SetCount(input_.count());
    out->SetSelection(k);
    return Status::OK();
  }
}

}  // namespace vwise
