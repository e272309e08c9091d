// Experiments E3 + E4 (paper Sec. A claims).
//
// E3: "Vectorwise tends to be more than 10 times faster than pipelined
//     query engines in terms of raw processing power" — compared here on
//     TPC-H Q1/Q6 compute kernels against an independent tuple-at-a-time
//     Volcano interpreter (virtual Next() per tuple, boxed values).
// E4: "since it avoids the penalties of full materialization, [it] is also
//     significantly faster than MonetDB" — compared against the
//     column-at-a-time engine, which additionally reports the intermediate
//     bytes it materialized.
//
// All engines consume the same pre-materialized in-memory lineitem columns,
// so the comparison isolates execution-model cost (interpretation overhead
// vs materialization traffic), exactly the paper's framing.

#include <vector>

#include "baseline/column_engine.h"
#include "baseline/tuple_engine.h"
#include "bench/bench_util.h"
#include "common/date.h"
#include "exec/hash_agg.h"
#include "exec/project.h"
#include "exec/select.h"
#include "tpch/schema.h"

namespace vwise::bench {
namespace {

using namespace vwise::tpch::col;

// In-memory lineitem projection used by all engines.
struct LineitemData {
  std::vector<int64_t> qty, ext, disc, tax;   // cents
  std::vector<int64_t> shipdate;              // day numbers
  std::vector<baseline::Row> rows;            // boxed copy for the tuple engine
};

LineitemData Materialize(double sf) {
  LineitemData d;
  tpch::Generator gen(sf);
  Status s = gen.OrdersAndLineitem(
      [](const std::vector<Value>&) { return Status::OK(); },
      [&](const std::vector<Value>& row) {
        d.qty.push_back(row[l::kQuantity].AsInt());
        d.ext.push_back(row[l::kExtendedprice].AsInt());
        d.disc.push_back(row[l::kDiscount].AsInt());
        d.tax.push_back(row[l::kTax].AsInt());
        d.shipdate.push_back(row[l::kShipdate].AsInt());
        d.rows.push_back({row[l::kQuantity], row[l::kExtendedprice],
                          row[l::kDiscount], row[l::kShipdate]});
        return Status::OK();
      });
  VWISE_CHECK_MSG(s.ok(), s.ToString().c_str());
  return d;
}

// A memory-resident source emitting the Q6 input columns as chunks.
class MemSource final : public Operator {
 public:
  MemSource(const LineitemData* d, size_t vector_size)
      : d_(d), vector_size_(vector_size),
        types_{TypeId::kI64, TypeId::kI64, TypeId::kI64, TypeId::kI64} {}
  const std::vector<TypeId>& OutputTypes() const override { return types_; }

 private:
  Status NextImpl(DataChunk* out) override {
    size_t n = std::min(out->capacity(), d_->qty.size() - pos_);
    if (n > 0) {
      std::memcpy(out->column(0).Data<int64_t>(), d_->qty.data() + pos_, n * 8);
      std::memcpy(out->column(1).Data<int64_t>(), d_->ext.data() + pos_, n * 8);
      std::memcpy(out->column(2).Data<int64_t>(), d_->disc.data() + pos_, n * 8);
      std::memcpy(out->column(3).Data<int64_t>(), d_->shipdate.data() + pos_, n * 8);
      pos_ += n;
    }
    out->SetCount(n);
    return Status::OK();
  }
  void CloseImpl() override {}
  Status OpenImpl() override {
    pos_ = 0;
    return Status::OK();
  }
  const LineitemData* d_;
  size_t vector_size_;
  std::vector<TypeId> types_;
  size_t pos_ = 0;
};

constexpr const char* kLo = "1994-01-01";
constexpr const char* kHi = "1995-01-01";

// Q6 on the vectorized engine.
double VectorizedQ6(const LineitemData& d, size_t vector_size, double* out) {
  Config cfg;
  cfg.vector_size = vector_size;
  return TimeSec([&] {
    auto src = std::make_unique<MemSource>(&d, vector_size);
    auto sel = std::make_unique<SelectOperator>(
        std::move(src),
        e::And([&] {
          std::vector<FilterPtr> fs;
          fs.push_back(e::Ge(e::Col(3, DataType::Int64()),
                             e::I64(date::Parse(kLo))));
          fs.push_back(e::Lt(e::Col(3, DataType::Int64()),
                             e::I64(date::Parse(kHi))));
          fs.push_back(e::Ge(e::Col(2, DataType::Int64()), e::I64(5)));
          fs.push_back(e::Le(e::Col(2, DataType::Int64()), e::I64(7)));
          fs.push_back(e::Lt(e::Col(0, DataType::Int64()), e::I64(2400)));
          return fs;
        }()),
        cfg);
    std::vector<ExprPtr> exprs;
    exprs.push_back(e::Mul(e::ToF64(e::Col(1, DataType::Decimal(2))),
                           e::ToF64(e::Col(2, DataType::Decimal(2)))));
    auto proj = std::make_unique<ProjectOperator>(std::move(sel), std::move(exprs), cfg);
    HashAggOperator agg(std::move(proj), {}, {AggSpec::Sum(0)}, cfg);
    auto r = CollectRows(&agg, cfg.vector_size);
    VWISE_CHECK(r.ok());
    *out = r->rows[0][0].AsDouble();
  });
}

// Q6 on the tuple-at-a-time Volcano interpreter.
double TupleQ6(const LineitemData& d, double* out) {
  using namespace baseline;
  return TimeSec([&] {
    auto scan = std::make_unique<TupleScan>(&d.rows);
    auto pred = rex::And(
        rex::And(rex::Ge(rex::Col(3), rex::Const(Value::Int(date::Parse(kLo)))),
                 rex::Lt(rex::Col(3), rex::Const(Value::Int(date::Parse(kHi))))),
        rex::And(rex::And(rex::Ge(rex::Col(2), rex::Const(Value::Int(5))),
                          rex::Le(rex::Col(2), rex::Const(Value::Int(7)))),
                 rex::Lt(rex::Col(0), rex::Const(Value::Int(2400)))));
    auto sel = std::make_unique<TupleSelect>(std::move(scan), std::move(pred));
    std::vector<RExprPtr> exprs;
    exprs.push_back(rex::Mul(rex::CentsToDouble(rex::Col(1)),
                             rex::CentsToDouble(rex::Col(2))));
    auto proj = std::make_unique<TupleProject>(std::move(sel), std::move(exprs));
    TupleAgg agg(std::move(proj), {}, {{TupleAgg::Fn::kSum, 0}});
    auto rows = TupleCollect(&agg);
    *out = rows[0][0].AsDouble();
  });
}

// Q6 on the column-at-a-time (full materialization) engine.
double ColumnQ6(const LineitemData& d, double* out, uint64_t* bytes) {
  baseline::ColumnEngine eng;
  double secs = TimeSec([&] {
    auto idx = eng.SelectRange(d.shipdate, date::Parse(kLo), date::Parse(kHi) - 1);
    idx = eng.SelectRange(d.disc, idx, 5, 7);
    idx = eng.SelectRange(d.qty, idx, INT64_MIN, 2399);
    auto ext = eng.Gather(d.ext, idx);
    auto disc = eng.Gather(d.disc, idx);
    auto extf = eng.CentsToDouble(ext);
    auto discf = eng.CentsToDouble(disc);
    auto rev = eng.Mul(extf, discf);
    *out = eng.Sum(rev);
  });
  *bytes = eng.bytes_materialized();
  return secs;
}

}  // namespace
}  // namespace vwise::bench

int main() {
  using namespace vwise;
  using namespace vwise::bench;
  double sf = 0.05;
  auto data = Materialize(sf);
  std::printf("# Q6 compute kernel over %zu in-memory lineitems (SF %.2f)\n",
              data.qty.size(), sf);
  std::printf("%-34s %10s %12s %10s\n", "engine", "time(s)", "Mvalues/s", "result");

  const int reps = 5;
  double r_vec = 0, r_tup = 0, r_col = 0;
  double t_vec = 1e9, t_tup = 1e9, t_col = 1e9;
  uint64_t col_bytes = 0;
  for (int i = 0; i < reps; i++) {
    t_vec = std::min(t_vec, VectorizedQ6(data, 1024, &r_vec));
    t_col = std::min(t_col, ColumnQ6(data, &r_col, &col_bytes));
  }
  // The interpreter is slow; fewer reps.
  for (int i = 0; i < 2; i++) t_tup = std::min(t_tup, TupleQ6(data, &r_tup));

  double n = static_cast<double>(data.qty.size());
  std::printf("%-34s %10.4f %12.1f %10.1f\n", "vectorized (X100, 1024)", t_vec,
              n / t_vec / 1e6, r_vec);
  std::printf("%-34s %10.4f %12.1f %10.1f\n", "tuple-at-a-time Volcano", t_tup,
              n / t_tup / 1e6, r_tup);
  std::printf("%-34s %10.4f %12.1f %10.1f  (%.1f MB intermediates)\n",
              "column-at-a-time (materializing)", t_col, n / t_col / 1e6, r_col,
              col_bytes / 1e6);
  std::printf("\nE3 vectorized vs tuple-at-a-time: %.1fx (paper: >10x)\n",
              t_tup / t_vec);
  std::printf("E4 vectorized vs full materialization: %.2fx (paper: 'significantly faster')\n",
              t_col / t_vec);
  VWISE_CHECK(std::abs(r_vec - r_tup) < 1e-6 * std::abs(r_vec) + 1e-6);
  VWISE_CHECK(std::abs(r_vec - r_col) < 1e-6 * std::abs(r_vec) + 1e-6);
  return 0;
}
