// Experiment E1 (paper Sec. C, TPC-H results table).
//
// The paper reports audited QphH at 100GB-1TB where Vectorwise scored
// 251K-436K vs 74K for SQL Server on comparable hardware (~3.4x). We
// reproduce the *shape* at laptop scale: the TPC-H power run on the
// vectorized engine vs the tuple-at-a-time configuration (vector size 1,
// the execution model of classic pipelined engines), across scale factors.
// Reported: per-query times, the geometric-mean Power@Size metric, and the
// vectorized/tuple ratio (paper claim: >10x raw processing power).
//
// Every query's vector-size-1 rows must match its vector-size-1024 rows, so
// a run doubles as an answer check. Scale factors come from VWISE_BENCH_SF
// (comma-separated, default "0.01,0.05") so CI can smoke-test at SF 0.01.

#include <cmath>
#include <cstdlib>

#include "bench/bench_util.h"

namespace vwise::bench {
namespace {

// Result comparison between the two vector sizes. Double accumulations may
// differ in the last bits when the chunking changes the summation order;
// everything else must match exactly.
bool RowsEquivalent(const std::vector<std::vector<Value>>& a,
                    const std::vector<std::vector<Value>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); c++) {
      const Value& x = a[i][c];
      const Value& y = b[i][c];
      if (x.kind() == Value::Kind::kDouble && y.kind() == Value::Kind::kDouble) {
        double dx = x.AsDouble(), dy = y.AsDouble();
        double scale = std::max({std::fabs(dx), std::fabs(dy), 1.0});
        if (std::fabs(dx - dy) > 1e-9 * scale) return false;
      } else if (!(x == y)) {
        return false;
      }
    }
  }
  return true;
}

double PowerMetric(const std::vector<double>& secs, double sf) {
  // TPC-H Power ~ 3600 * SF / geomean(times). Refresh functions are
  // benchmarked separately (bench_pdt), so this is the query-only geomean.
  double log_sum = 0;
  for (double s : secs) log_sum += std::log(std::max(s, 1e-6));
  double geomean = std::exp(log_sum / secs.size());
  return 3600.0 * sf / geomean;
}

void RunPower(double sf) {
  TempDb db("tpch_power");
  LoadTpch(db.get(), sf);

  Config vectorized = db->config();
  vectorized.vector_size = 1024;
  Config tuple_cfg = db->config();
  tuple_cfg.vector_size = 1;  // tuple-at-a-time pipelining

  std::printf("\n== TPC-H power run, SF %.3g ==\n", sf);
  std::printf("%5s %14s %14s %8s\n", "query", "vectorized(s)", "tuple@1(s)", "ratio");
  auto session = db->Connect();
  std::vector<double> vec_times, tup_times;
  for (int q = 1; q <= 22; q++) {
    QueryResult vec, tup;
    double tv = TimeSec([&] {
      auto r = tpch::RunQuery(q, session.get(), db->Internals().tm, vectorized);
      VWISE_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      vec = std::move(*r);
    });
    double tt = TimeSec([&] {
      auto r = tpch::RunQuery(q, session.get(), db->Internals().tm, tuple_cfg);
      VWISE_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      tup = std::move(*r);
    });
    VWISE_CHECK_MSG(RowsEquivalent(tup.rows, vec.rows),
                    "vector size 1 diverged from vector size 1024");
    vec_times.push_back(tv);
    tup_times.push_back(tt);
    std::printf("%5d %14.4f %14.4f %7.1fx\n", q, tv, tt, tt / tv);
  }
  double pv = PowerMetric(vec_times, sf);
  double pt = PowerMetric(tup_times, sf);
  std::printf("Power@SF%-6.3g vectorized: %10.1f\n", sf, pv);
  std::printf("Power@SF%-6.3g tuple-at-a-time: %6.1f\n", sf, pt);
  std::printf("overall speedup (paper: Vectorwise ~3.4x SQLServer, >10x raw): %.1fx\n",
              pv / pt);
}

std::vector<double> ScaleFactors() {
  const char* env = std::getenv("VWISE_BENCH_SF");
  std::string spec = (env != nullptr && env[0] != '\0') ? env : "0.01,0.05";
  std::vector<double> sfs;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string tok = spec.substr(pos, comma - pos);
    if (!tok.empty()) {
      double sf = std::atof(tok.c_str());
      VWISE_CHECK_MSG(sf > 0, "VWISE_BENCH_SF entries must be positive");
      sfs.push_back(sf);
    }
    pos = comma + 1;
  }
  VWISE_CHECK_MSG(!sfs.empty(), "VWISE_BENCH_SF parsed to no scale factors");
  return sfs;
}

}  // namespace
}  // namespace vwise::bench

int main() {
  for (double sf : vwise::bench::ScaleFactors()) {
    vwise::bench::RunPower(sf);
  }
  return 0;
}
