// Experiment E5: the X100 interpretation-overhead curve the paper's claims
// rest on (Boncz et al., CIDR 2005, Fig. 3). One engine, one query kernel,
// vector size swept from 1 (tuple-at-a-time: all interpretation overhead)
// through ~1K (the sweet spot: overhead amortized, working set in cache) to
// 1M (full materialization: intermediates spill out of cache). Time per
// value should be U-shaped.

#include <vector>

#include "bench/bench_util.h"
#include "common/date.h"
#include "exec/hash_agg.h"
#include "exec/project.h"
#include "exec/select.h"
#include "tpch/schema.h"

namespace vwise::bench {
namespace {

using namespace vwise::tpch::col;

struct Cols {
  std::vector<int64_t> qty, ext, disc, ship;
};

class MemSource final : public Operator {
 public:
  MemSource(const Cols* d, size_t n) : d_(d), n_(n),
      types_{TypeId::kI64, TypeId::kI64, TypeId::kI64, TypeId::kI64} {}
  const std::vector<TypeId>& OutputTypes() const override { return types_; }

 private:
  Status NextImpl(DataChunk* out) override {
    size_t n = std::min(out->capacity(), n_ - pos_);
    if (n > 0) {
      std::memcpy(out->column(0).Data<int64_t>(), d_->qty.data() + pos_, n * 8);
      std::memcpy(out->column(1).Data<int64_t>(), d_->ext.data() + pos_, n * 8);
      std::memcpy(out->column(2).Data<int64_t>(), d_->disc.data() + pos_, n * 8);
      std::memcpy(out->column(3).Data<int64_t>(), d_->ship.data() + pos_, n * 8);
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
  const Cols* d_;
  size_t n_;
  std::vector<TypeId> types_;
  size_t pos_ = 0;
};

}  // namespace
}  // namespace vwise::bench

int main() {
  using namespace vwise;
  using namespace vwise::bench;

  Cols d;
  tpch::Generator gen(0.05);
  Status st = gen.OrdersAndLineitem(
      [](const std::vector<Value>&) { return Status::OK(); },
      [&](const std::vector<Value>& row) {
        d.qty.push_back(row[l::kQuantity].AsInt());
        d.ext.push_back(row[l::kExtendedprice].AsInt());
        d.disc.push_back(row[l::kDiscount].AsInt());
        d.ship.push_back(row[l::kShipdate].AsInt());
        return Status::OK();
      });
  VWISE_CHECK(st.ok());
  size_t n = d.qty.size();
  std::printf("# Q6 kernel over %zu in-memory lineitems, vector size sweep\n", n);
  std::printf("%10s %12s %14s %10s\n", "vec_size", "time(s)", "ns/value", "result");

  double base_result = 0;
  for (size_t vs : {1u, 4u, 16u, 64u, 256u, 1024u, 4096u, 65536u, 1048576u}) {
    Config cfg;
    cfg.vector_size = vs;
    double result = 0;
    // Fewer reps for the slow tiny-vector runs.
    int reps = vs >= 64 ? 5 : 1;
    double best = 1e9;
    for (int r = 0; r < reps; r++) {
      best = std::min(best, TimeSec([&] {
        auto src = std::make_unique<MemSource>(&d, n);
        std::vector<FilterPtr> fs;
        fs.push_back(e::Ge(e::Col(3, DataType::Int64()),
                           e::I64(date::Parse("1994-01-01"))));
        fs.push_back(e::Lt(e::Col(3, DataType::Int64()),
                           e::I64(date::Parse("1995-01-01"))));
        fs.push_back(e::Ge(e::Col(2, DataType::Int64()), e::I64(5)));
        fs.push_back(e::Le(e::Col(2, DataType::Int64()), e::I64(7)));
        fs.push_back(e::Lt(e::Col(0, DataType::Int64()), e::I64(2400)));
        auto sel = std::make_unique<SelectOperator>(std::move(src),
                                                    e::And(std::move(fs)), cfg);
        std::vector<ExprPtr> exprs;
        exprs.push_back(e::Mul(e::ToF64(e::Col(1, DataType::Decimal(2))),
                               e::ToF64(e::Col(2, DataType::Decimal(2)))));
        auto proj = std::make_unique<ProjectOperator>(std::move(sel),
                                                      std::move(exprs), cfg);
        HashAggOperator agg(std::move(proj), {}, {AggSpec::Sum(0)}, cfg);
        auto res = CollectRows(&agg, cfg.vector_size);
        VWISE_CHECK(res.ok());
        result = res->rows[0][0].AsDouble();
      }));
    }
    if (base_result == 0) base_result = result;
    VWISE_CHECK(std::abs(result - base_result) < 1e-6 * std::abs(base_result));
    std::printf("%10zu %12.4f %14.2f %10.1f\n", vs, best, best / n * 1e9, result);
  }
  std::printf("# expected shape: U-curve with minimum near 256-4096 "
              "(interpretation overhead left, cache misses right)\n");
  return 0;
}
