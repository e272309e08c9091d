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
// Besides the console table, the run appends every (query, sf) cell — with a
// per-operator profile from an instrumented third run — to
// BENCH_tpch_power.json (see BenchReport in bench_util.h). Scale factors
// come from VWISE_BENCH_SF (comma-separated, default "0.01,0.05") so CI can
// smoke-test at SF 0.01 only.

#include <cmath>
#include <cstdlib>

#include "bench/bench_util.h"

namespace vwise::bench {
namespace {

// Result comparison for the out-of-core rerun. Spilled aggregation merges
// per-partition partial states, so double accumulations can differ from the
// streaming in-memory order in the last bits; everything else must match
// exactly.
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

// Instrumented rerun of query `q`: profiled plan, per-operator counters.
Json ProfiledOperators(Database* db, int q, const Config& base) {
  Config cfg = base;
  cfg.profile = true;
  auto plan = tpch::BuildQuery(q, db->Internals().tm, cfg);
  VWISE_CHECK_MSG(plan.ok(), plan.status().ToString().c_str());
  auto r = CollectRows(plan->get(), cfg.vector_size);
  VWISE_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  return OperatorsJson(CollectPlanProfile(**plan));
}

void RunPower(double sf, BenchReport* report) {
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
    size_t rows = 0;
    double tv = TimeSec([&] {
      auto r = tpch::RunQuery(q, session.get(), db->Internals().tm, vectorized);
      VWISE_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      rows = r->rows.size();
    });
    double tt = TimeSec([&] {
      auto r = tpch::RunQuery(q, session.get(), db->Internals().tm, tuple_cfg);
      VWISE_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    });
    vec_times.push_back(tv);
    tup_times.push_back(tt);
    std::printf("%5d %14.4f %14.4f %7.1fx\n", q, tv, tt, tt / tv);

    Json entry = Json::Object();
    entry.Set("query", Json::Int(q));
    entry.Set("sf", Json::Double(sf));
    entry.Set("wall_ms_vectorized", Json::Double(tv * 1e3));
    entry.Set("wall_ms_tuple", Json::Double(tt * 1e3));
    entry.Set("rows", Json::Int(static_cast<int64_t>(rows)));
    entry.Set("config", ConfigJson(vectorized));
    entry.Set("operators", ProfiledOperators(db.get(), q, vectorized));
    report->AddEntry(std::move(entry));
  }
  double pv = PowerMetric(vec_times, sf);
  double pt = PowerMetric(tup_times, sf);
  std::printf("Power@SF%-6.3g vectorized: %10.1f\n", sf, pv);
  std::printf("Power@SF%-6.3g tuple-at-a-time: %6.1f\n", sf, pt);
  std::printf("overall speedup (paper: Vectorwise ~3.4x SQLServer, >10x raw): %.1fx\n",
              pv / pt);

  char key[64];
  std::snprintf(key, sizeof(key), "power_sf%.3g_vectorized", sf);
  report->SetMetric(key, Json::Double(pv));
  std::snprintf(key, sizeof(key), "power_sf%.3g_tuple", sf);
  report->SetMetric(key, Json::Double(pt));

  // Out-of-core rerun: representative breaker shapes (Q1 aggregation, Q3
  // join+agg+sort, Q6 selection+scalar agg) under a per-query memory budget
  // of a quarter of their unbudgeted reservation peak. Breakers whose state
  // exceeds the budget degrade to spilling; results must stay bit-identical.
  std::printf("%5s %15s %11s %12s\n", "query", "out-of-core(s)", "budget(KB)",
              "spilled(KB)");
  uint64_t total_spilled = 0;
  for (int q : {1, 3, 6}) {
    auto prepared =
        tpch::PrepareQuery(q, session.get(), db->Internals().tm, vectorized);
    VWISE_CHECK_MSG(prepared.ok(), prepared.status().ToString().c_str());
    auto base = (*prepared)->Run();
    VWISE_CHECK_MSG(base.ok(), base.status().ToString().c_str());
    size_t budget =
        std::max<size_t>(base->peak_reserved_bytes / 4, size_t{96} << 10);
    QueryOptions opt;
    opt.memory_budget_bytes = budget;
    uint64_t spilled = 0, read_back = 0;
    size_t rows = 0, peak = 0;
    double t = TimeSec([&] {
      auto r = (*prepared)->Run(opt);
      VWISE_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      spilled = r->spill_bytes_written;
      read_back = r->spill_bytes_read;
      rows = r->rows.size();
      peak = r->peak_reserved_bytes;
      VWISE_CHECK_MSG(RowsEquivalent(r->rows, base->rows),
                      "out-of-core result diverged from the in-memory run");
    });
    // If the unbudgeted peak exceeded the budget, some breaker must have
    // degraded to disk rather than thrashing or failing.
    VWISE_CHECK_MSG(spilled > 0 || base->peak_reserved_bytes <= budget,
                    "budget below the in-memory peak yet nothing spilled");
    total_spilled += spilled;
    std::printf("%5d %15.4f %11zu %12.1f\n", q, t, budget >> 10,
                static_cast<double>(spilled) / 1024.0);

    Json entry = Json::Object();
    entry.Set("query", Json::Int(q));
    entry.Set("sf", Json::Double(sf));
    entry.Set("mode", Json::Str("out_of_core"));
    entry.Set("wall_ms_out_of_core", Json::Double(t * 1e3));
    entry.Set("rows", Json::Int(static_cast<int64_t>(rows)));
    entry.Set("memory_budget_bytes", Json::Int(static_cast<int64_t>(budget)));
    entry.Set("peak_reserved_bytes", Json::Int(static_cast<int64_t>(peak)));
    entry.Set("spill_bytes_written", Json::Int(static_cast<int64_t>(spilled)));
    entry.Set("spill_bytes_read", Json::Int(static_cast<int64_t>(read_back)));
    entry.Set("config", ConfigJson(vectorized));
    report->AddEntry(std::move(entry));
  }
  std::snprintf(key, sizeof(key), "outofcore_sf%.3g_spill_mb", sf);
  report->SetMetric(key,
                    Json::Double(static_cast<double>(total_spilled) / 1048576.0));

  // Compressed-execution rerun: Q1 (dict group keys through aggregation) and
  // Q6 (selection-heavy) with the scan handing PDICT segments straight to
  // the dict kernels vs eager decode.
  // Results must match exactly — the dict kernels compare integer codes and
  // TPC-H decimals are i64 cents, so there is no floating-point slack.
  std::printf("%5s %12s %12s %8s\n", "query", "encoded(s)", "decoded(s)",
              "ratio");
  for (int q : {1, 6}) {
    Config enc_on = vectorized;
    enc_on.enable_encoded_exec = true;
    Config enc_off = vectorized;
    enc_off.enable_encoded_exec = false;
    size_t rows = 0;
    QueryResult on_rows;
    double te = TimeSec([&] {
      auto r = tpch::RunQuery(q, session.get(), db->Internals().tm, enc_on);
      VWISE_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      rows = r->rows.size();
      on_rows = std::move(*r);
    });
    double td = TimeSec([&] {
      auto r = tpch::RunQuery(q, session.get(), db->Internals().tm, enc_off);
      VWISE_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      VWISE_CHECK_MSG(r->rows == on_rows.rows,
                      "encoded execution diverged from eager decode");
    });
    std::printf("%5d %12.4f %12.4f %7.2fx\n", q, te, td, td / te);

    Json entry = Json::Object();
    entry.Set("query", Json::Int(q));
    entry.Set("sf", Json::Double(sf));
    entry.Set("mode", Json::Str("encoded_exec"));
    entry.Set("wall_ms_encoded", Json::Double(te * 1e3));
    entry.Set("wall_ms_decoded", Json::Double(td * 1e3));
    entry.Set("rows", Json::Int(static_cast<int64_t>(rows)));
    entry.Set("config", ConfigJson(enc_on));
    report->AddEntry(std::move(entry));
  }
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
  vwise::bench::BenchReport report("tpch_power");
  for (double sf : vwise::bench::ScaleFactors()) {
    vwise::bench::RunPower(sf, &report);
  }
  report.Write();
  return 0;
}
