#ifndef VWISE_EXEC_XCHG_H_
#define VWISE_EXEC_XCHG_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "exec/operator.h"

namespace vwise {

// Volcano-style exchange operator — the unit the rewriter's parallelization
// rule injects (paper Sec. I-B: "a Volcano-style query parallellizer").
// Each worker fragment (typically a partitioned scan + pipeline) is submitted
// as one task to the shared worker pool (Config::worker_pool, falling back to
// WorkerPool::Global()); fragments push deep-copied chunks into a bounded
// queue that the consumer drains. The operator tree above the Xchg stays
// serial.
//
// Liveness: pool tasks block only in PushChunk on a full queue, and every
// queue is drained by a non-pool thread (the client or a QueryService
// runner), so fragments never deadlock the pool. Close() cancels, wakes the
// queue, and help-runs this operator's own not-yet-scheduled fragments
// inline (WorkerPool::TryRunTagged), so Close() cannot deadlock even when
// the pool is saturated or the queue is full — the cancellation regression
// test runs it with a 1-slot queue.
class XchgOperator final : public Operator {
 public:
  // Builds worker `w`'s fragment (0 <= w < num_workers).
  using FragmentFactory =
      std::function<Result<OperatorPtr>(int worker, int num_workers)>;

  XchgOperator(FragmentFactory factory, int num_workers,
               std::vector<TypeId> types, const Config& config);
  ~XchgOperator() override;

  const std::vector<TypeId>& OutputTypes() const override { return types_; }

  // Static-analysis surface (plan verifier): the verifier instantiates
  // fragments through the factory (construction only, no Open) to check
  // them against the declared types.
  const FragmentFactory& factory() const { return factory_; }
  int num_workers() const { return num_workers_; }

 private:
  Status OpenImpl() override VWISE_EXCLUDES(mu_);
  Status NextImpl(DataChunk* out) override VWISE_EXCLUDES(mu_);
  void CloseImpl() override VWISE_EXCLUDES(mu_);
  void ProducerLoop(int worker) VWISE_EXCLUDES(mu_);
  void PushChunk(DataChunk chunk) VWISE_EXCLUDES(mu_);

  FragmentFactory factory_;
  int num_workers_;
  std::vector<TypeId> types_;
  Config config_;

  // mu_ guards every piece of shared producer/consumer state
  // (first_error_, producers_running_, queue_, pool_); cancelled_ is
  // additionally atomic because producer loops poll it outside the lock.
  Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  CondVar producers_done_;
  struct QueuedChunk {
    DataChunk chunk;
    size_t bytes = 0;  // reserved against the query budget while queued
  };
  std::deque<QueuedChunk> queue_ VWISE_GUARDED_BY(mu_);
  int producers_running_ VWISE_GUARDED_BY(mu_) = 0;
  std::atomic<bool> cancelled_{false};
  Status first_error_ VWISE_GUARDED_BY(mu_);
  // Bound at Open; needed by Close to help-run. nullptr = never opened.
  WorkerPool* pool_ VWISE_GUARDED_BY(mu_) = nullptr;
};

}  // namespace vwise

#endif  // VWISE_EXEC_XCHG_H_
