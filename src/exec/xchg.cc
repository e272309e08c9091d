#include "exec/xchg.h"

#include "service/query_context.h"
#include "service/worker_pool.h"

namespace vwise {

XchgOperator::XchgOperator(std::vector<OperatorPtr> fragments,
                           std::vector<TypeId> types, const Config& config)
    : Operator(config),
      fragments_(std::move(fragments)),
      types_(std::move(types)),
      config_(config) {}

XchgOperator::~XchgOperator() { Close(); }

Status XchgOperator::OpenImpl() {
  WorkerPool* pool = config_.worker_pool != nullptr ? config_.worker_pool
                                                    : WorkerPool::Global();
  {
    MutexLock lock(&mu_);
    pool_ = pool;  // published under mu_: Close() reads it under the lock
    cancelled_ = false;
    first_error_ = Status::OK();
    producers_running_ = fragments_.size();
  }
  // One pool task per fragment, tagged with this operator so Close() can
  // help-run not-yet-scheduled fragments inline.
  for (size_t w = 0; w < fragments_.size(); w++) {
    pool->Submit(this, [this, w] { ProducerLoop(w); });
  }
  return Status::OK();
}

void XchgOperator::PushChunk(DataChunk chunk) {
  size_t bytes = EstimateChunkBytes(chunk);
  MutexLock lock(&mu_);
  while (queue_.size() >= config_.xchg_queue_capacity && !cancelled_) {
    not_full_.Wait(&mu_);
  }
  if (cancelled_) return;
  Status reserve = ctx()->Reserve(bytes, "exchange queue");
  if (!reserve.ok()) {
    // Budget overshoot fails the query: record it and cancel the siblings.
    if (first_error_.ok()) first_error_ = reserve;
    cancelled_ = true;
    not_full_.SignalAll();
    not_empty_.SignalAll();
    return;
  }
  queue_.push_back(QueuedChunk{std::move(chunk), bytes});
  not_empty_.Signal();
}

void XchgOperator::ProducerLoop(size_t worker) {
  auto finish = [this](const Status& status) VWISE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (!status.ok() && first_error_.ok()) first_error_ = status;
    producers_running_--;
    not_empty_.SignalAll();
    if (producers_running_ == 0) producers_done_.SignalAll();
  };

  // Cancelled before the pool scheduled us (or Close() is help-running the
  // task to drain it): just retire.
  if (cancelled_.load(std::memory_order_relaxed)) {
    finish(Status::OK());
    return;
  }
  Operator* op = fragments_[worker].get();
  // The fragment runs under the consumer's QueryContext, so cancellation,
  // deadlines, and the memory budget propagate onto pool threads.
  Status status = op->Open(ctx());
  if (status.ok()) {
    DataChunk chunk;
    chunk.Init(op->OutputTypes(), config_.vector_size);
    while (!cancelled_.load(std::memory_order_relaxed)) {
      status = ctx()->Check();
      if (!status.ok()) break;
      chunk.Reset();
      status = op->Next(&chunk);
      if (!status.ok() || chunk.ActiveCount() == 0) break;
      // Deep copy: the producer's chunk aliases fragment-internal buffers
      // that are invalid once the fragment advances or closes.
      DataChunk owned;
      owned.Init(op->OutputTypes(), chunk.ActiveCount());
      DeepCopyChunk(chunk, &owned);
      PushChunk(std::move(owned));
    }
  }
  // Closed here, not destroyed: the Xchg keeps the fragment for EXPLAIN and
  // for the next Open.
  op->Close();
  finish(status);
}

Status XchgOperator::NextImpl(DataChunk* out) {
  VWISE_RETURN_IF_ERROR(ctx()->Check());
  QueuedChunk qc;
  {
    // vwise-hotpath: allow(lock): the exchange operator IS the pipeline's
    // synchronization point — one acquisition per chunk, never per tuple
    MutexLock lock(&mu_);
    while (queue_.empty() && producers_running_ > 0 && !cancelled_) {
      // vwise-hotpath: allow(lock): consumer blocks until a producer fills
      // the queue; by design, not a hot-loop stall
      not_empty_.Wait(&mu_);
    }
    if (queue_.empty()) {
      // All producers done (or the operator was cancelled under us); report
      // the first producer error, still under mu_.
      VWISE_RETURN_IF_ERROR(first_error_);
      out->SetCount(0);
      return Status::OK();
    }
    qc = std::move(queue_.front());
    queue_.pop_front();
    // vwise-hotpath: allow(lock): wakes one blocked producer; per chunk
    not_full_.Signal();
  }
  // Budget release and the column handoff run outside the lock: neither
  // touches shared state, and a stalled consumer must not serialize the
  // producers behind it.
  ctx()->Release(qc.bytes);
  // Move the producer's columns into the caller's chunk by reference.
  size_t n = qc.chunk.ActiveCount();
  for (size_t c = 0; c < qc.chunk.num_columns(); c++) {
    out->column(c).Reference(qc.chunk.column(c));
  }
  out->SetCount(n);
  return Status::OK();
}

void XchgOperator::CloseImpl() {
  // Safe to call twice and concurrently with in-flight producers: shared
  // state is only touched under mu_. Cancellation drains in three steps:
  // wake everything, help-run this operator's own not-yet-scheduled
  // fragments inline (they observe cancelled_ and retire immediately — this
  // is what makes Close() deadlock-free even with a saturated pool and a
  // full 1-slot queue), then wait for running fragments to retire (they
  // observe cancelled_ within one vector).
  WorkerPool* pool;
  {
    MutexLock lock(&mu_);
    if (pool_ == nullptr) return;  // never opened, or already closed
    pool = pool_;
    cancelled_ = true;
    not_full_.SignalAll();
    not_empty_.SignalAll();
  }
  // Help-run outside mu_: the drained fragments call back into finish(),
  // which takes mu_ — holding it here would self-deadlock.
  while (pool->TryRunTagged(this)) {
  }
  MutexLock lock(&mu_);
  while (producers_running_ > 0) producers_done_.Wait(&mu_);
  for (QueuedChunk& qc : queue_) ctx()->Release(qc.bytes);
  queue_.clear();
  // A closed Xchg no longer touches the pool: the destructor's Close() stays
  // safe when the plan outlives the database that owns the pool.
  pool_ = nullptr;
}

}  // namespace vwise
