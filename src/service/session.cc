#include "service/session.h"

#include "expr/primitive_profiler.h"
#include "planner/plan_verifier.h"

namespace vwise {

namespace {

// Copies the context's budget/spill telemetry into the finished result.
void FillBudgetStats(QueryContext* ctx, QueryResult* result) {
  result->peak_reserved_bytes = ctx->peak_reserved_bytes();
  result->spill_bytes_written =
      ctx->spill_counters().bytes_written.load(std::memory_order_relaxed);
  result->spill_bytes_read =
      ctx->spill_counters().bytes_read.load(std::memory_order_relaxed);
}

// The one place a query's operator tree actually runs (on a service runner
// thread, under the job's context). Owns the profiled-run choreography:
// enable the per-primitive counters for the duration of the pipeline, then
// render EXPLAIN ANALYZE plus the primitive counter delta.
Result<QueryResult> RunPlan(Operator* root, QueryContext* ctx,
                            const Config& config,
                            const std::vector<std::string>& names) {
  if (!config.profile) {
    VWISE_ASSIGN_OR_RETURN(QueryResult result,
                           CollectRows(root, ctx, config.vector_size, names));
    FillBudgetStats(ctx, &result);
    return result;
  }
  PrimitiveProfiler::ScopedEnable enable(true);
  std::vector<PrimitiveCounters> before = PrimitiveProfiler::Snapshot();
  VWISE_ASSIGN_OR_RETURN(QueryResult result,
                         CollectRows(root, ctx, config.vector_size, names));
  std::vector<PrimitiveCounters> after = PrimitiveProfiler::Snapshot();
  FillBudgetStats(ctx, &result);
  std::string spill_line;
  if (result.spill_bytes_written > 0 || result.spill_bytes_read > 0) {
    spill_line = "spill: bytes_written=" +
                 std::to_string(result.spill_bytes_written) + " bytes_read=" +
                 std::to_string(result.spill_bytes_read) + "\n";
  }
  result.profile = ExplainAnalyzePlan(*root) + spill_line +
                   RenderPrimitiveProfile(before, after);
  return result;
}

}  // namespace

const Result<QueryResult>& QueryHandle::Wait() {
  if (!cached_.has_value()) cached_ = job_->Take();
  return *cached_;
}

void QueryHandle::Cancel() { service_->Cancel(job_); }

bool QueryHandle::done() const { return job_->done(); }

const std::string& QueryHandle::profile() {
  const Result<QueryResult>& result = Wait();
  return result.ok() ? result->profile : empty_profile_;
}

std::unique_ptr<QueryHandle> PreparedQuery::Execute(
    const QueryOptions& options) {
  size_t budget = options.memory_budget_bytes.has_value()
                      ? *options.memory_budget_bytes
                      : config_.query_memory_budget_bytes;
  auto job = service_->Submit(
      [this](QueryContext* ctx) {
        return RunPlan(root_.get(), ctx, config_, names_);
      },
      options.priority,
      [&options, budget, this](QueryContext* ctx) {
        ctx->set_memory_budget(budget);
        ctx->set_spill_dir(config_.spill_dir);
        if (options.timeout.count() > 0) {
          ctx->set_deadline(std::chrono::steady_clock::now() + options.timeout);
        }
      });
  return std::unique_ptr<QueryHandle>(new QueryHandle(service_, std::move(job)));
}

Result<QueryResult> PreparedQuery::Run(const QueryOptions& options) {
  return Execute(options)->Wait();
}

Result<std::unique_ptr<PreparedQuery>> Session::Prepare(
    PlanBuilder* plan, std::vector<std::string> names) {
  VWISE_ASSIGN_OR_RETURN(OperatorPtr root, plan->Build());
  if (root == nullptr) return Status::InvalidArgument("empty plan");
  return PrepareRoot(std::move(root), std::move(names));
}

std::unique_ptr<PreparedQuery> Session::PrepareRoot(
    OperatorPtr root, std::vector<std::string> names) {
  return std::unique_ptr<PreparedQuery>(
      new PreparedQuery(service_, std::move(root), std::move(names), config_));
}

Result<QueryResult> Session::Query(PlanBuilder* plan,
                                   std::vector<std::string> names) {
  VWISE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedQuery> prepared,
                         Prepare(plan, std::move(names)));
  return prepared->Run();
}

}  // namespace vwise
