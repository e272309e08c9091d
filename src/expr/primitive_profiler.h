#ifndef VWISE_EXPR_PRIMITIVE_PROFILER_H_
#define VWISE_EXPR_PRIMITIVE_PROFILER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "expr/primitive_registry.h"

namespace vwise {

// ---------------------------------------------------------------------------
// Cycle counter
// ---------------------------------------------------------------------------

// Raw timestamp counter: TSC on x86-64, the virtual counter on aarch64, and
// steady_clock ticks elsewhere. Not serializing and not constant-rate-
// calibrated — good for the relative cycles/tuple the X100 papers report,
// not for cross-machine absolute numbers (see DESIGN.md "Profiling &
// benchmarking" for the caveats).
struct CycleClock {
  static inline uint64_t Now() {
#if defined(__x86_64__) || defined(_M_X64)
    unsigned lo, hi;
    __asm__ __volatile__("rdtsc" : "=a"(lo), "=d"(hi));
    return (static_cast<uint64_t>(hi) << 32) | lo;
#elif defined(__aarch64__)
    uint64_t v;
    __asm__ __volatile__("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }
};

// ---------------------------------------------------------------------------
// Per-primitive counters
// ---------------------------------------------------------------------------

// A snapshot of one primitive's counters (cumulative since process start or
// the last Reset()).
struct PrimitiveCounters {
  const char* name = nullptr;
  uint64_t calls = 0;
  uint64_t tuples = 0;  // active positions processed
  uint64_t cycles = 0;  // CycleClock ticks inside the kernel
};

// Process-wide per-primitive profile. Counters are fixed-size atomics indexed
// by PrimitiveId, so recording is wait-free and safe from Xchg worker
// threads; when disabled the dispatch path pays one relaxed load + branch.
class PrimitiveProfiler {
 public:
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  static void Record(PrimitiveId id, uint64_t tuples, uint64_t cycles) {
    Counters& c = counters_[id];
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.tuples.fetch_add(tuples, std::memory_order_relaxed);
    c.cycles.fetch_add(cycles, std::memory_order_relaxed);
  }

  // All kNumPrimitives counters, in catalog order (calls may be zero).
  static std::vector<PrimitiveCounters> Snapshot();
  static void Reset();

  // Enables for a scope (a profiled query run), restoring the previous state.
  class ScopedEnable {
   public:
    explicit ScopedEnable(bool on) : prev_(Enabled()) {
      if (on) SetEnabled(true);
    }
    ~ScopedEnable() { SetEnabled(prev_); }
    ScopedEnable(const ScopedEnable&) = delete;
    ScopedEnable& operator=(const ScopedEnable&) = delete;

   private:
    bool prev_;
  };

 private:
  struct Counters {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> tuples{0};
    std::atomic<uint64_t> cycles{0};
  };
  static std::atomic<bool> enabled_;
  static Counters counters_[kNumPrimitives];
};

// RAII guard around one kernel invocation in the dispatch path: reads the
// cycle counter only when profiling is enabled.
class PrimProfileScope {
 public:
  PrimProfileScope(PrimitiveId id, size_t n)
      : on_(PrimitiveProfiler::Enabled()),
        id_(id),
        n_(n),
        t0_(on_ ? CycleClock::Now() : 0) {}
  ~PrimProfileScope() {
    if (on_) PrimitiveProfiler::Record(id_, n_, CycleClock::Now() - t0_);
  }
  PrimProfileScope(const PrimProfileScope&) = delete;
  PrimProfileScope& operator=(const PrimProfileScope&) = delete;

 private:
  bool on_;
  PrimitiveId id_;
  size_t n_;
  uint64_t t0_;
};

// "primitives:" section of the EXPLAIN ANALYZE text: every primitive whose
// counters advanced between the two snapshots, with calls, tuples, and
// cycles/tuple. Empty string when nothing advanced.
std::string RenderPrimitiveProfile(const std::vector<PrimitiveCounters>& before,
                                   const std::vector<PrimitiveCounters>& after);

}  // namespace vwise

#endif  // VWISE_EXPR_PRIMITIVE_PROFILER_H_
