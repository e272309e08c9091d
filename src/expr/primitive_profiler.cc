#include "expr/primitive_profiler.h"

#include <cstdio>
#include <sstream>

namespace vwise {

std::atomic<bool> PrimitiveProfiler::enabled_{false};
PrimitiveProfiler::Counters PrimitiveProfiler::counters_[kNumPrimitives];

std::vector<PrimitiveCounters> PrimitiveProfiler::Snapshot() {
  std::vector<PrimitiveCounters> out(kNumPrimitives);
  for (int i = 0; i < kNumPrimitives; i++) {
    out[i].name = PrimitiveRegistry::Get(static_cast<PrimitiveId>(i)).name;
    out[i].calls = counters_[i].calls.load(std::memory_order_relaxed);
    out[i].tuples = counters_[i].tuples.load(std::memory_order_relaxed);
    out[i].cycles = counters_[i].cycles.load(std::memory_order_relaxed);
  }
  return out;
}

void PrimitiveProfiler::Reset() {
  for (auto& c : counters_) {
    c.calls.store(0, std::memory_order_relaxed);
    c.tuples.store(0, std::memory_order_relaxed);
    c.cycles.store(0, std::memory_order_relaxed);
  }
}

std::string RenderPrimitiveProfile(const std::vector<PrimitiveCounters>& before,
                                   const std::vector<PrimitiveCounters>& after) {
  std::ostringstream os;
  bool any = false;
  for (size_t i = 0; i < after.size(); i++) {
    uint64_t calls = after[i].calls;
    uint64_t tuples = after[i].tuples;
    uint64_t cycles = after[i].cycles;
    if (i < before.size()) {
      calls -= before[i].calls;
      tuples -= before[i].tuples;
      cycles -= before[i].cycles;
    }
    if (calls == 0) continue;
    if (!any) {
      os << "primitives:\n";
      char header[96];
      std::snprintf(header, sizeof(header), "  %-28s %10s %12s %14s\n",
                    "name", "calls", "tuples", "cycles/tuple");
      os << header;
      any = true;
    }
    double cpt = tuples > 0 ? static_cast<double>(cycles) /
                                  static_cast<double>(tuples)
                            : 0.0;
    char line[128];
    std::snprintf(line, sizeof(line), "  %-28s %10llu %12llu %14.2f\n",
                  after[i].name, static_cast<unsigned long long>(calls),
                  static_cast<unsigned long long>(tuples), cpt);
    os << line;
  }
  return os.str();
}

}  // namespace vwise
