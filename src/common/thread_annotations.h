#ifndef VWISE_COMMON_THREAD_ANNOTATIONS_H_
#define VWISE_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

// Clang Thread Safety Analysis for every locked subsystem.
//
// The macros below expand to Clang's thread-safety attributes when the
// compiler supports them and to nothing elsewhere (gcc, msvc), so the
// annotated tree builds everywhere while `clang -Wthread-safety
// -Wthread-safety-beta` (CMake option VWISE_THREAD_SAFETY, a required CI
// job) proves at compile time that:
//
//   * every member annotated VWISE_GUARDED_BY(mu_) is only touched with
//     mu_ held;
//   * every function annotated VWISE_REQUIRES(mu_) is only called with
//     mu_ held (the DoThingLocked() convention becomes checked, not named);
//   * every function annotated VWISE_EXCLUDES(mu_) is never called with
//     mu_ held (self-deadlock on a non-recursive mutex becomes a compile
//     error);
//   * two mutexes related by VWISE_ACQUIRED_BEFORE are taken in that order.
//
// The analysis only understands capabilities it can see, so raw std::mutex /
// std::lock_guard / std::unique_lock are forbidden outside this header
// (enforced by vwise_lint's raw-mutex pass): locked code uses the annotated
// Mutex / MutexLock / CondVar wrappers below.
//
// Conventions (DESIGN.md §8):
//   * condition waits are explicit `while (!cond) cv_.Wait(&mu_);` loops —
//     the analysis cannot see through a predicate lambda, and the loop form
//     keeps every guarded read inside the annotated critical section;
//   * VWISE_NO_THREAD_SAFETY_ANALYSIS is a last resort for code whose
//     locking is deliberately irregular; each use carries a rationale
//     comment and none exist in the tree today.

#if defined(__clang__)
#define VWISE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define VWISE_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

// A type that acts as a lock (our Mutex below).
#define VWISE_CAPABILITY(x) VWISE_THREAD_ANNOTATION_(capability(x))
// An RAII type that acquires a capability in its constructor and releases it
// in its destructor (our MutexLock below).
#define VWISE_SCOPED_CAPABILITY VWISE_THREAD_ANNOTATION_(scoped_lockable)

// Data members: may only be read or written while holding `x`.
#define VWISE_GUARDED_BY(x) VWISE_THREAD_ANNOTATION_(guarded_by(x))
// Pointer members: the pointed-to data (not the pointer) is guarded by `x`.
#define VWISE_PT_GUARDED_BY(x) VWISE_THREAD_ANNOTATION_(pt_guarded_by(x))

// Mutex members: lock order. Whenever both are held, this mutex was taken
// before `x` (checked under -Wthread-safety-beta).
#define VWISE_ACQUIRED_BEFORE(...) \
  VWISE_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

// Functions: caller must hold the capability (the *Locked() helpers).
#define VWISE_REQUIRES(...) \
  VWISE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
// Functions: caller must NOT hold the capability (public entry points of a
// locked class — calling them re-entrantly would self-deadlock).
#define VWISE_EXCLUDES(...) VWISE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Functions that acquire/release the capability themselves (Mutex::Lock /
// Mutex::Unlock and the MutexLock constructor/destructor).
#define VWISE_ACQUIRE(...) \
  VWISE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define VWISE_RELEASE(...) \
  VWISE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define VWISE_TRY_ACQUIRE(...) \
  VWISE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Runtime assertion that the capability is held (debug hooks).
#define VWISE_ASSERT_CAPABILITY(x) \
  VWISE_THREAD_ANNOTATION_(assert_capability(x))
// Accessor returning a reference to a capability (Mutex exposure helpers).
#define VWISE_RETURN_CAPABILITY(x) VWISE_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch: disables the analysis for one function. Every use must carry
// a comment explaining why the locking is irregular; prefer restructuring.
#define VWISE_NO_THREAD_SAFETY_ANALYSIS \
  VWISE_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace vwise {

// Annotated wrapper over std::mutex — the only mutex type used outside this
// header. Identical cost: the wrapper is two inline calls.
class VWISE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() VWISE_ACQUIRE() { mu_.lock(); }
  void Unlock() VWISE_RELEASE() { mu_.unlock(); }
  bool TryLock() VWISE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock over Mutex — replaces std::lock_guard / std::unique_lock.
// Scoped: the analysis knows the capability is held from construction to the
// end of the enclosing block.
class VWISE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) VWISE_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() VWISE_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Condition variable bound to the annotated Mutex. Wait() REQUIRES the mutex:
// from the analysis' point of view the capability is held across the wait
// (the internal unlock/relock is invisible, exactly like absl::CondVar), so
// `while (!cond) cv_.Wait(&mu_);` type-checks with `cond` reading guarded
// members.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) VWISE_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock's ownership claim so the wrapper's Unlock (or ~MutexLock)
    // stays the one true unlocker.
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  // Returns false on timeout (the predicate loop re-checks either way).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex* mu, const std::chrono::duration<Rep, Period>& dur)
      VWISE_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    bool ok = cv_.wait_for(lock, dur) == std::cv_status::no_timeout;
    lock.release();
    return ok;
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace vwise

#endif  // VWISE_COMMON_THREAD_ANNOTATIONS_H_
