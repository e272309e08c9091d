// Three-engine differential oracle: seeded random plans over TPC-H SF-0.01
// executed on (1) the vectorized X100 engine, (2) the tuple-at-a-time
// Volcano baseline, and (3) the materializing column-at-a-time baseline.
// The three implementations share no operator code, so any disagreement is
// a bug in one of them. Results must be BIT-identical after a canonical
// sort — the plan space is restricted to operations that are exact on all
// engines (integer-family arithmetic and order-independent aggregates; see
// GenPlan), so no epsilon is needed.
//
// Reproduction: every failure prints its seed and writes a plan dump +
// result diff under $VWISE_FAIL_ARTIFACT_DIR (default
// ./vwise-failure-artifacts, uploaded by CI). Override the campaign with
// VWISE_ORACLE_SEED / VWISE_ORACLE_ITERS.

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "baseline/column_engine.h"
#include "baseline/tuple_engine.h"
#include "gtest/gtest.h"
#include "planner/plan_builder.h"
#include "planner/plan_verifier.h"
#include "tpch/generator.h"
#include "tpch/schema.h"

namespace vwise {
namespace {

using baseline::MatColumn;
using baseline::Row;

constexpr double kSf = 0.01;

// --- plan specification ------------------------------------------------------
//
// A PlanSpec is the seed-derived description interpreted three times, once
// per engine. Column references are positions into the current layout.

struct FilterSpec {
  size_t pos;      // position in the scan layout
  CmpOp op;
  bool is_string;
  int64_t ival;
  std::string sval;
};

struct ProjSpec {
  enum Kind { kPass, kArith, kArithConst } kind;
  ArithOp op;
  size_t a = 0;
  size_t b = 0;
  int64_t c = 0;
};

struct AggItemSpec {
  AggSpec::Fn fn;
  size_t col = 0;
};

struct JoinSpecT {
  bool present = false;
  int build_table = 0;
  JoinType type = JoinType::kInner;
  size_t probe_key = 0;             // position in probe scan layout
  size_t build_key = 0;             // position in build scan layout
  std::vector<size_t> scan;         // build scan: positions into allowed cols
  std::vector<FilterSpec> filters;  // over the build scan layout
  std::vector<size_t> payload;      // positions in build scan layout (inner)
};

struct PlanSpec {
  int table = 0;
  std::vector<size_t> scan;  // positions into the table's allowed cols
  std::vector<FilterSpec> filters;
  JoinSpecT join;
  bool has_proj = false;
  std::vector<ProjSpec> proj;
  bool has_agg = false;
  std::vector<size_t> group_cols;
  std::vector<AggItemSpec> aggs;
  bool has_sort = false;
  std::vector<SortKey> sort_keys;
  size_t vector_size = 1024;
};

// --- base tables -------------------------------------------------------------

struct OracleTable {
  const char* name;
  std::vector<uint32_t> cols;      // catalog column indices (the allowed set)
  std::vector<DataType> types;     // logical type per allowed column
  // |values| bound is modest (keys, dates, small decimals): products of two
  // such columns cannot overflow an i64 sum over the whole table.
  std::vector<bool> small;
  std::vector<Row> rows;           // raw boxed rows (physical representation)
  std::vector<MatColumn> columns;  // the same data transposed
};

bool IsIntCol(const DataType& t) { return t.physical() != TypeId::kStr; }

// --- seeded plan generator ---------------------------------------------------

class Rng {
 public:
  explicit Rng(uint64_t seed) : g_(seed) {}
  size_t Index(size_t n) { return std::uniform_int_distribution<size_t>(0, n - 1)(g_); }
  bool Chance(int pct) { return static_cast<int>(Index(100)) < pct; }

 private:
  std::mt19937_64 g_;
};

class DifferentialOracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    using namespace tpch::col;
    dir_ = new std::string(::testing::TempDir() + "/vwise_diff_oracle");
    std::filesystem::remove_all(*dir_);
    config_ = new Config();
    config_->verify_plans = true;
    device_ = new IoDevice(*config_);
    buffers_ = new BufferManager(config_->buffer_pool_bytes);
    auto mgr = TransactionManager::Open(*dir_, *config_, device_, buffers_);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    mgr_ = mgr->release();
    tpch::Generator gen(kSf);
    ASSERT_TRUE(gen.LoadAll(mgr_).ok());

    tables_ = new std::vector<OracleTable>();
    tables_->push_back(
        {"customer",
         {c::kCustkey, c::kNationkey, c::kAcctbal, c::kMktsegment},
         {DataType::Int64(), DataType::Int64(), DataType::Decimal(2),
          DataType::Varchar()},
         {true, true, false, false},
         {},
         {}});
    tables_->push_back(
        {"orders",
         {o::kOrderkey, o::kCustkey, o::kOrderstatus, o::kTotalprice,
          o::kOrderdate, o::kShippriority},
         {DataType::Int64(), DataType::Int64(), DataType::Varchar(),
          DataType::Decimal(2), DataType::Date(), DataType::Int64()},
         {true, true, false, false, true, true},
         {},
         {}});
    tables_->push_back(
        {"lineitem",
         {l::kOrderkey, l::kPartkey, l::kSuppkey, l::kLinenumber,
          l::kQuantity, l::kExtendedprice, l::kDiscount, l::kReturnflag,
          l::kLinestatus, l::kShipdate},
         {DataType::Int64(), DataType::Int64(), DataType::Int64(),
          DataType::Int64(), DataType::Decimal(2), DataType::Decimal(2),
          DataType::Decimal(2), DataType::Varchar(), DataType::Varchar(),
          DataType::Date()},
         {true, true, true, true, true, false, true, false, false, true},
         {},
         {}});
    for (OracleTable& t : *tables_) {
      PlanBuilder b(mgr_, *config_);
      ASSERT_TRUE(b.Scan(t.name, t.cols).ok());
      auto root = b.Build();
      ASSERT_TRUE(root.ok()) << root.status().ToString();
      // No declared logical types -> raw physical Values (decimals stay
      // scaled i64 cents, dates stay i32 day numbers), the representation
      // all three engines compute on.
      auto res = CollectRows(root->get(), 1024);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      t.rows = std::move(res->rows);
      t.columns.assign(t.cols.size(), {});
      for (size_t c = 0; c < t.cols.size(); c++) {
        t.columns[c].reserve(t.rows.size());
        for (const Row& r : t.rows) t.columns[c].push_back(r[c]);
      }
      ASSERT_GT(t.rows.size(), 0u) << t.name;
    }
  }
  static void TearDownTestSuite() {
    delete tables_;
    delete mgr_;
    std::filesystem::remove_all(*dir_);
    delete buffers_;
    delete device_;
    delete config_;
    delete dir_;
  }

  // -- generation -------------------------------------------------------------

  static Value SampleConst(Rng& rng, int table, size_t allowed_pos) {
    const MatColumn& col = (*tables_)[table].columns[allowed_pos];
    return col[rng.Index(col.size())];
  }

  static FilterSpec GenFilter(Rng& rng, int table,
                              const std::vector<size_t>& scan) {
    const OracleTable& t = (*tables_)[table];
    FilterSpec f;
    f.pos = rng.Index(scan.size());
    const size_t ap = scan[f.pos];
    static const CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                 CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
    f.op = kOps[rng.Index(6)];
    const Value v = SampleConst(rng, table, ap);
    f.is_string = !IsIntCol(t.types[ap]);
    if (f.is_string) {
      f.sval = v.AsString();
    } else {
      f.ival = v.AsInt();
    }
    return f;
  }

  static std::vector<size_t> GenScan(Rng& rng, int table, size_t must_have) {
    const OracleTable& t = (*tables_)[table];
    std::vector<size_t> scan;
    for (size_t i = 0; i < t.cols.size(); i++) {
      if (i == must_have || rng.Chance(55)) scan.push_back(i);
    }
    return scan;
  }

  static PlanSpec GenPlan(uint64_t seed) {
    Rng rng(seed);
    PlanSpec s;
    s.table = static_cast<int>(rng.Index(3));
    s.vector_size = std::vector<size_t>{1024, 257, 64}[rng.Index(3)];

    // Join edges: probe table -> (build table, probe allowed pos, build
    // allowed pos). customer->orders and orders->customer use the custkey
    // FK; lineitem->orders uses orderkey.
    s.join.present = rng.Chance(40);
    size_t probe_key_ap = 0;
    if (s.join.present) {
      size_t build_key_ap;
      if (s.table == 0) {  // customer -> orders
        s.join.build_table = 1;
        probe_key_ap = 0;  // c_custkey
        build_key_ap = 1;  // o_custkey
      } else if (s.table == 1) {  // orders -> customer
        s.join.build_table = 0;
        probe_key_ap = 1;  // o_custkey
        build_key_ap = 0;  // c_custkey
      } else {  // lineitem -> orders
        s.join.build_table = 1;
        probe_key_ap = 0;  // l_orderkey
        build_key_ap = 0;  // o_orderkey
      }
      static const JoinType kTypes[] = {JoinType::kInner, JoinType::kLeftSemi,
                                        JoinType::kLeftAnti};
      s.join.type = kTypes[rng.Index(3)];
      s.join.scan = GenScan(rng, s.join.build_table, build_key_ap);
      for (size_t i = 0; i < s.join.scan.size(); i++) {
        if (s.join.scan[i] == build_key_ap) s.join.build_key = i;
      }
      if (rng.Chance(40)) {
        s.join.filters.push_back(GenFilter(rng, s.join.build_table, s.join.scan));
      }
      if (s.join.type == JoinType::kInner) {
        for (size_t i = 0; i < s.join.scan.size(); i++) {
          if (rng.Chance(35)) s.join.payload.push_back(i);
        }
      }
    }

    s.scan = GenScan(rng, s.table, probe_key_ap);
    if (s.join.present) {
      for (size_t i = 0; i < s.scan.size(); i++) {
        if (s.scan[i] == probe_key_ap) s.join.probe_key = i;
      }
    }
    const size_t n_filters = rng.Index(3);  // 0..2
    for (size_t i = 0; i < n_filters; i++) {
      s.filters.push_back(GenFilter(rng, s.table, s.scan));
    }

    // Current layout after scan+join, described as (logical type, origin)
    // where origin addresses the base column constants/smallness come from.
    struct Col {
      DataType type;
      int table;
      size_t allowed_pos;
      bool computed = false;
    };
    std::vector<Col> layout;
    const OracleTable& pt = (*tables_)[s.table];
    for (size_t p : s.scan) layout.push_back({pt.types[p], s.table, p});
    if (s.join.present && s.join.type == JoinType::kInner) {
      const OracleTable& bt = (*tables_)[s.join.build_table];
      for (size_t p : s.join.payload) {
        layout.push_back({bt.types[s.join.scan[p]], s.join.build_table,
                          s.join.scan[p]});
      }
    }

    auto is_small = [&](size_t pos) {
      return !layout[pos].computed &&
             (*tables_)[layout[pos].table].small[layout[pos].allowed_pos];
    };

    s.has_proj = rng.Chance(50);
    if (s.has_proj) {
      std::vector<size_t> int_cols;
      for (size_t i = 0; i < layout.size(); i++) {
        if (IsIntCol(layout[i].type)) int_cols.push_back(i);
      }
      std::vector<Col> new_layout;
      const size_t n_exprs = 1 + rng.Index(4);
      for (size_t i = 0; i < n_exprs; i++) {
        ProjSpec e;
        const int kind = static_cast<int>(rng.Index(3));
        if (kind == 0 || int_cols.empty()) {
          e.kind = ProjSpec::kPass;
          e.a = rng.Index(layout.size());
          new_layout.push_back(layout[e.a]);
        } else if (kind == 1) {
          e.kind = ProjSpec::kArith;
          e.a = int_cols[rng.Index(int_cols.size())];
          e.b = int_cols[rng.Index(int_cols.size())];
          // Multiplication can overflow the i64 SUM accumulator (UB);
          // only small x small products are allowed. Division meets zero
          // divisors in the data (x / 0 = 0 in every engine).
          e.op = (is_small(e.a) && is_small(e.b) && rng.Chance(40))
                     ? ArithOp::kMul
                 : rng.Chance(20)
                     ? ArithOp::kDiv
                     : (rng.Chance(50) ? ArithOp::kAdd : ArithOp::kSub);
          new_layout.push_back({DataType::Int64(), 0, 0, true});
        } else {
          e.kind = ProjSpec::kArithConst;
          e.a = int_cols[rng.Index(int_cols.size())];
          e.c = static_cast<int64_t>(rng.Index(100)) + 1;
          e.op = rng.Chance(35)   ? ArithOp::kMul
                 : rng.Chance(20) ? ArithOp::kDiv
                                  : (rng.Chance(50) ? ArithOp::kAdd
                                                    : ArithOp::kSub);
          if (e.op == ArithOp::kDiv && rng.Chance(25)) e.c = 0;
          new_layout.push_back({DataType::Int64(), 0, 0, true});
        }
        s.proj.push_back(std::move(e));
      }
      layout = std::move(new_layout);
    }

    s.has_agg = rng.Chance(45);
    if (s.has_agg) {
      std::vector<size_t> int_cols;
      for (size_t i = 0; i < layout.size(); i++) {
        if (IsIntCol(layout[i].type)) int_cols.push_back(i);
      }
      const size_t n_groups = rng.Index(3);  // 0..2
      for (size_t g = 0; g < n_groups; g++) {
        const size_t col = rng.Index(layout.size());
        bool dup = false;
        for (size_t prev : s.group_cols) dup |= prev == col;
        if (!dup) s.group_cols.push_back(col);
      }
      const size_t n_aggs = 1 + rng.Index(3);
      for (size_t a = 0; a < n_aggs; a++) {
        AggItemSpec item;
        const int pick = static_cast<int>(rng.Index(6));
        // AVG accumulates in double: exact only over base (bounded)
        // columns where sums stay below 2^53, and only without a join so
        // all engines see the same accumulation order.
        const bool avg_ok = !s.join.present && !s.has_proj && !int_cols.empty();
        if (pick == 0 || int_cols.empty()) {
          item.fn = AggSpec::Fn::kCountStar;
        } else if (pick == 1) {
          item.fn = AggSpec::Fn::kCount;
          item.col = rng.Index(layout.size());
        } else if (pick == 5 && avg_ok) {
          item.fn = AggSpec::Fn::kAvg;
          item.col = int_cols[rng.Index(int_cols.size())];
        } else {
          static const AggSpec::Fn kFns[] = {AggSpec::Fn::kSum,
                                             AggSpec::Fn::kMin,
                                             AggSpec::Fn::kMax};
          item.fn = kFns[rng.Index(3)];
          item.col = int_cols[rng.Index(int_cols.size())];
        }
        s.aggs.push_back(item);
      }
      std::vector<Col> new_layout;
      for (size_t g : s.group_cols) new_layout.push_back(layout[g]);
      for (size_t a = 0; a < s.aggs.size(); a++) {
        new_layout.push_back({DataType::Int64(), 0, 0, true});
      }
      layout = std::move(new_layout);
    }

    s.has_sort = rng.Chance(50);
    if (s.has_sort) {
      const size_t n_keys = 1 + rng.Index(2);
      for (size_t k = 0; k < n_keys; k++) {
        s.sort_keys.push_back({rng.Index(layout.size()), rng.Chance(50)});
      }
    }
    return s;
  }

  // -- vectorized interpretation ---------------------------------------------

  static ExprPtr ConstOfType(const DataType& t, const FilterSpec& f) {
    if (f.is_string) return e::Str(f.sval);
    return std::make_unique<ConstExpr>(Value::Int(f.ival), t);
  }

  static FilterPtr VecFilter(const PlanBuilder& b, const FilterSpec& f) {
    return e::Cmp(f.op, b.Col(f.pos), ConstOfType(b.TypeOf(f.pos), f));
  }

  static Result<std::vector<Row>> RunVectorized(const PlanSpec& s,
                                                std::string* explain,
                                                bool encoded_exec) {
    Config cfg = *config_;
    cfg.verify_plans = true;
    cfg.vector_size = s.vector_size;
    cfg.enable_encoded_exec = encoded_exec;
    const OracleTable& pt = (*tables_)[s.table];
    PlanBuilder b(mgr_, cfg);
    std::vector<uint32_t> cat;
    for (size_t p : s.scan) cat.push_back(pt.cols[p]);
    VWISE_RETURN_IF_ERROR(b.Scan(pt.name, std::move(cat)));
    for (const FilterSpec& f : s.filters) b.Select(VecFilter(b, f));
    if (s.join.present) {
      const OracleTable& bt = (*tables_)[s.join.build_table];
      PlanBuilder bb(mgr_, cfg);
      std::vector<uint32_t> bcat;
      for (size_t p : s.join.scan) bcat.push_back(bt.cols[p]);
      VWISE_RETURN_IF_ERROR(bb.Scan(bt.name, std::move(bcat)));
      for (const FilterSpec& f : s.join.filters) bb.Select(VecFilter(bb, f));
      b.Join(std::move(bb), s.join.type, {s.join.probe_key},
             {s.join.build_key}, s.join.payload);
    }
    if (s.has_proj) {
      std::vector<ExprPtr> exprs;
      std::vector<DataType> types;
      for (const ProjSpec& p : s.proj) {
        if (p.kind == ProjSpec::kPass) {
          exprs.push_back(b.Col(p.a));
          types.push_back(b.TypeOf(p.a));
        } else if (p.kind == ProjSpec::kArith) {
          exprs.push_back(std::make_unique<ArithExpr>(
              p.op, e::Cast(b.Col(p.a), DataType::Int64()),
              e::Cast(b.Col(p.b), DataType::Int64())));
          types.push_back(DataType::Int64());
        } else {
          exprs.push_back(std::make_unique<ArithExpr>(
              p.op, e::Cast(b.Col(p.a), DataType::Int64()), e::I64(p.c)));
          types.push_back(DataType::Int64());
        }
      }
      b.Project(std::move(exprs), std::move(types));
    }
    if (s.has_agg) {
      std::vector<AggSpec> aggs;
      std::vector<DataType> out_types;
      for (size_t g : s.group_cols) out_types.push_back(b.TypeOf(g));
      for (const AggItemSpec& a : s.aggs) {
        aggs.push_back({a.fn, a.col});
        switch (a.fn) {
          case AggSpec::Fn::kSum:
            out_types.push_back(DataType::Int64());
            break;
          case AggSpec::Fn::kMin:
          case AggSpec::Fn::kMax:
            out_types.push_back(b.TypeOf(a.col));
            break;
          case AggSpec::Fn::kAvg:
            out_types.push_back(DataType::Double());
            break;
          case AggSpec::Fn::kCount:
          case AggSpec::Fn::kCountStar:
            out_types.push_back(DataType::Int64());
            break;
        }
      }
      b.Agg(s.group_cols, std::move(aggs), std::move(out_types));
    }
    if (s.has_sort) b.Sort(s.sort_keys);
    VWISE_ASSIGN_OR_RETURN(OperatorPtr root, b.Build());
    *explain = ExplainPlan(*root);
    VWISE_ASSIGN_OR_RETURN(QueryResult res,
                           CollectRows(root.get(), cfg.vector_size));
    return std::move(res.rows);
  }

  // -- tuple-at-a-time interpretation ----------------------------------------

  static baseline::RExprPtr RexFilter(const FilterSpec& f) {
    using namespace baseline::rex;
    Value v = f.is_string ? Value::String(f.sval) : Value::Int(f.ival);
    switch (f.op) {
      case CmpOp::kEq: return Eq(Col(f.pos), Const(std::move(v)));
      case CmpOp::kNe: return Ne(Col(f.pos), Const(std::move(v)));
      case CmpOp::kLt: return Lt(Col(f.pos), Const(std::move(v)));
      case CmpOp::kLe: return Le(Col(f.pos), Const(std::move(v)));
      case CmpOp::kGt: return Gt(Col(f.pos), Const(std::move(v)));
      case CmpOp::kGe: return Ge(Col(f.pos), Const(std::move(v)));
    }
    return nullptr;
  }

  static baseline::TupleOperatorPtr TupleScanNarrow(
      int table, const std::vector<size_t>& scan,
      const std::vector<FilterSpec>& filters) {
    using namespace baseline;
    TupleOperatorPtr op =
        std::make_unique<TupleScan>(&(*tables_)[table].rows);
    std::vector<RExprPtr> narrow;
    for (size_t p : scan) narrow.push_back(rex::Col(p));
    op = std::make_unique<TupleProject>(std::move(op), std::move(narrow));
    for (const FilterSpec& f : filters) {
      op = std::make_unique<TupleSelect>(std::move(op), RexFilter(f));
    }
    return op;
  }

  static std::vector<Row> RunTuple(const PlanSpec& s) {
    using namespace baseline;
    TupleOperatorPtr op = TupleScanNarrow(s.table, s.scan, s.filters);
    if (s.join.present) {
      TupleOperatorPtr build =
          TupleScanNarrow(s.join.build_table, s.join.scan, s.join.filters);
      TupleHashJoin::Type t = s.join.type == JoinType::kInner
                                  ? TupleHashJoin::Type::kInner
                              : s.join.type == JoinType::kLeftSemi
                                  ? TupleHashJoin::Type::kLeftSemi
                                  : TupleHashJoin::Type::kLeftAnti;
      op = std::make_unique<TupleHashJoin>(
          std::move(op), std::move(build), t,
          std::vector<size_t>{s.join.probe_key},
          std::vector<size_t>{s.join.build_key}, s.join.payload);
    }
    if (s.has_proj) {
      std::vector<RExprPtr> exprs;
      for (const ProjSpec& p : s.proj) {
        if (p.kind == ProjSpec::kPass) {
          exprs.push_back(rex::Col(p.a));
        } else {
          RExprPtr rhs = p.kind == ProjSpec::kArith
                             ? rex::Col(p.b)
                             : rex::Const(Value::Int(p.c));
          switch (p.op) {
            case ArithOp::kAdd:
              exprs.push_back(rex::Add(rex::Col(p.a), std::move(rhs)));
              break;
            case ArithOp::kSub:
              exprs.push_back(rex::Sub(rex::Col(p.a), std::move(rhs)));
              break;
            case ArithOp::kMul:
              exprs.push_back(rex::Mul(rex::Col(p.a), std::move(rhs)));
              break;
            case ArithOp::kDiv:
              exprs.push_back(rex::Div(rex::Col(p.a), std::move(rhs)));
              break;
          }
        }
      }
      op = std::make_unique<TupleProject>(std::move(op), std::move(exprs));
    }
    if (s.has_agg) {
      std::vector<TupleAgg::Spec> aggs;
      for (const AggItemSpec& a : s.aggs) {
        TupleAgg::Fn fn = TupleAgg::Fn::kCount;
        switch (a.fn) {
          case AggSpec::Fn::kSum: fn = TupleAgg::Fn::kSumI64; break;
          case AggSpec::Fn::kMin: fn = TupleAgg::Fn::kMin; break;
          case AggSpec::Fn::kMax: fn = TupleAgg::Fn::kMax; break;
          case AggSpec::Fn::kCount: fn = TupleAgg::Fn::kCount; break;
          case AggSpec::Fn::kCountStar: fn = TupleAgg::Fn::kCountStar; break;
          case AggSpec::Fn::kAvg: fn = TupleAgg::Fn::kAvg; break;
        }
        aggs.push_back({fn, a.col});
      }
      op = std::make_unique<TupleAgg>(std::move(op), s.group_cols,
                                      std::move(aggs));
    }
    if (s.has_sort) {
      std::vector<TupleSort::Key> keys;
      for (const SortKey& k : s.sort_keys) keys.push_back({k.col, k.ascending});
      op = std::make_unique<TupleSort>(std::move(op), std::move(keys));
    }
    return TupleCollect(op.get());
  }

  // -- column-at-a-time interpretation ---------------------------------------

  static baseline::MatCmp ToMatCmp(CmpOp op) {
    switch (op) {
      case CmpOp::kEq: return baseline::MatCmp::kEq;
      case CmpOp::kNe: return baseline::MatCmp::kNe;
      case CmpOp::kLt: return baseline::MatCmp::kLt;
      case CmpOp::kLe: return baseline::MatCmp::kLe;
      case CmpOp::kGt: return baseline::MatCmp::kGt;
      case CmpOp::kGe: return baseline::MatCmp::kGe;
    }
    return baseline::MatCmp::kEq;
  }

  static baseline::MatArith ToMatArith(ArithOp op) {
    switch (op) {
      case ArithOp::kAdd: return baseline::MatArith::kAdd;
      case ArithOp::kSub: return baseline::MatArith::kSub;
      case ArithOp::kMul: return baseline::MatArith::kMul;
      case ArithOp::kDiv: return baseline::MatArith::kDiv;
    }
    return baseline::MatArith::kAdd;
  }

  static std::vector<MatColumn> ColumnScan(baseline::ColumnEngine& eng,
                                           int table,
                                           const std::vector<size_t>& scan,
                                           const std::vector<FilterSpec>& fs) {
    std::vector<MatColumn> cur;
    for (size_t p : scan) cur.push_back((*tables_)[table].columns[p]);
    for (const FilterSpec& f : fs) {
      Value v = f.is_string ? Value::String(f.sval) : Value::Int(f.ival);
      auto sel = eng.SelectCmpConst(cur[f.pos], ToMatCmp(f.op), v);
      for (MatColumn& c : cur) c = eng.GatherV(c, sel);
    }
    return cur;
  }

  static std::vector<Row> RunColumn(const PlanSpec& s) {
    baseline::ColumnEngine eng;
    std::vector<MatColumn> cur = ColumnScan(eng, s.table, s.scan, s.filters);
    if (s.join.present) {
      std::vector<MatColumn> build =
          ColumnScan(eng, s.join.build_table, s.join.scan, s.join.filters);
      if (s.join.type == JoinType::kInner) {
        std::vector<uint32_t> pi, bi;
        eng.HashJoinPairs({&cur[s.join.probe_key]},
                          {&build[s.join.build_key]}, &pi, &bi);
        std::vector<MatColumn> next;
        for (MatColumn& c : cur) next.push_back(eng.GatherV(c, pi));
        for (size_t p : s.join.payload) {
          next.push_back(eng.GatherV(build[p], bi));
        }
        cur = std::move(next);
      } else {
        auto sel = eng.SemiJoinSel({&cur[s.join.probe_key]},
                                   {&build[s.join.build_key]},
                                   s.join.type == JoinType::kLeftAnti);
        for (MatColumn& c : cur) c = eng.GatherV(c, sel);
      }
    }
    if (s.has_proj) {
      std::vector<MatColumn> next;
      for (const ProjSpec& p : s.proj) {
        if (p.kind == ProjSpec::kPass) {
          next.push_back(cur[p.a]);
        } else if (p.kind == ProjSpec::kArith) {
          next.push_back(eng.MapArith(ToMatArith(p.op), cur[p.a], cur[p.b]));
        } else {
          next.push_back(
              eng.MapArithConst(ToMatArith(p.op), cur[p.a], Value::Int(p.c)));
        }
      }
      cur = std::move(next);
    }
    if (s.has_agg) {
      const size_t rows = cur.empty() ? 0 : cur[0].size();
      std::vector<uint32_t> groups;
      std::vector<uint32_t> reps;
      size_t n_groups = 0;
      if (s.group_cols.empty()) {
        groups.assign(rows, 0);
        n_groups = 1;  // the global group always emits (zero row when empty)
      } else {
        std::vector<const MatColumn*> keys;
        for (size_t g : s.group_cols) keys.push_back(&cur[g]);
        groups = eng.GroupIds(keys, &n_groups, &reps);
      }
      std::vector<MatColumn> next;
      for (size_t g : s.group_cols) next.push_back(eng.GatherV(cur[g], reps));
      for (const AggItemSpec& a : s.aggs) {
        switch (a.fn) {
          case AggSpec::Fn::kSum:
            next.push_back(eng.AggGrouped(baseline::MatAgg::kSumI64,
                                          cur[a.col], groups, n_groups));
            break;
          case AggSpec::Fn::kMin:
            next.push_back(eng.AggGrouped(baseline::MatAgg::kMin, cur[a.col],
                                          groups, n_groups));
            break;
          case AggSpec::Fn::kMax:
            next.push_back(eng.AggGrouped(baseline::MatAgg::kMax, cur[a.col],
                                          groups, n_groups));
            break;
          case AggSpec::Fn::kCount:
            next.push_back(eng.AggGrouped(baseline::MatAgg::kCount, cur[a.col],
                                          groups, n_groups));
            break;
          case AggSpec::Fn::kCountStar:
            next.push_back(eng.AggGroupedCount(groups, n_groups));
            break;
          case AggSpec::Fn::kAvg:
            next.push_back(eng.AggGrouped(baseline::MatAgg::kAvg, cur[a.col],
                                          groups, n_groups));
            break;
        }
      }
      cur = std::move(next);
    }
    if (s.has_sort && !cur.empty()) {
      std::vector<const MatColumn*> keys;
      std::vector<bool> asc;
      for (const SortKey& k : s.sort_keys) {
        keys.push_back(&cur[k.col]);
        asc.push_back(k.ascending);
      }
      auto order = eng.SortPositions(keys, asc);
      for (MatColumn& c : cur) c = eng.GatherV(c, order);
    }
    // Transpose back to rows.
    std::vector<Row> out;
    const size_t rows = cur.empty() ? 0 : cur[0].size();
    out.reserve(rows);
    for (size_t r = 0; r < rows; r++) {
      Row row;
      row.reserve(cur.size());
      for (const MatColumn& c : cur) row.push_back(c[r]);
      out.push_back(std::move(row));
    }
    return out;
  }

  // -- comparison & artifacts -------------------------------------------------

  // Compare, with doubles that it treats as equal (-0.0 and +0.0, NaNs)
  // tie-broken on their bit pattern, so the check below stays bit-exact.
  static int ExactCompare(const Value& a, const Value& b) {
    const int c = Compare(a, b);
    if (c != 0 || a.kind() != Value::Kind::kDouble) return c;
    const uint64_t x = std::bit_cast<uint64_t>(a.AsDouble());
    const uint64_t y = std::bit_cast<uint64_t>(b.AsDouble());
    return x < y ? -1 : x > y ? 1 : 0;
  }

  static void Canonicalize(std::vector<Row>* rows) {
    std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
      for (size_t i = 0; i < a.size() && i < b.size(); i++) {
        const int c = ExactCompare(a[i], b[i]);
        if (c != 0) return c < 0;
      }
      return a.size() < b.size();
    });
  }

  // Bit-identity: same row count, same kinds, ExactCompare == 0 everywhere.
  static bool Identical(const std::vector<Row>& a, const std::vector<Row>& b,
                        std::string* why) {
    if (a.size() != b.size()) {
      *why = "row counts differ: " + std::to_string(a.size()) + " vs " +
             std::to_string(b.size());
      return false;
    }
    for (size_t r = 0; r < a.size(); r++) {
      if (a[r].size() != b[r].size()) {
        *why = "row " + std::to_string(r) + " widths differ";
        return false;
      }
      for (size_t c = 0; c < a[r].size(); c++) {
        if (a[r][c].kind() != b[r][c].kind() ||
            ExactCompare(a[r][c], b[r][c]) != 0) {
          *why = "row " + std::to_string(r) + " col " + std::to_string(c) +
                 ": " + a[r][c].ToString() + " vs " + b[r][c].ToString();
          return false;
        }
      }
    }
    return true;
  }

  static std::string DumpRows(const std::vector<Row>& rows, size_t max_rows) {
    std::string out;
    for (size_t r = 0; r < rows.size() && r < max_rows; r++) {
      for (size_t c = 0; c < rows[r].size(); c++) {
        if (c > 0) out += " | ";
        out += rows[r][c].ToString();
      }
      out += "\n";
    }
    if (rows.size() > max_rows) {
      out += "... (" + std::to_string(rows.size()) + " rows total)\n";
    }
    return out;
  }

  static std::filesystem::path ArtifactDir() {
    const char* env = std::getenv("VWISE_FAIL_ARTIFACT_DIR");
    return env != nullptr && env[0] != '\0'
               ? std::filesystem::path(env)
               : std::filesystem::path("vwise-failure-artifacts");
  }

  static std::string WriteArtifact(uint64_t seed, const std::string& body) {
    const auto dir = ArtifactDir();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const auto path = dir / ("oracle_seed_" + std::to_string(seed) + ".txt");
    std::ofstream f(path);
    f << body;
    return path.string();
  }

  static std::string* dir_;
  static Config* config_;
  static IoDevice* device_;
  static BufferManager* buffers_;
  static TransactionManager* mgr_;
  static std::vector<OracleTable>* tables_;
};

std::string* DifferentialOracleTest::dir_ = nullptr;
Config* DifferentialOracleTest::config_ = nullptr;
IoDevice* DifferentialOracleTest::device_ = nullptr;
BufferManager* DifferentialOracleTest::buffers_ = nullptr;
TransactionManager* DifferentialOracleTest::mgr_ = nullptr;
std::vector<OracleTable>* DifferentialOracleTest::tables_ = nullptr;

TEST_F(DifferentialOracleTest, RandomPlansAgreeAcrossThreeEngines) {
  const char* seed_env = std::getenv("VWISE_ORACLE_SEED");
  const char* iters_env = std::getenv("VWISE_ORACLE_ITERS");
  const uint64_t base_seed =
      seed_env != nullptr && seed_env[0] != '\0'
          ? std::strtoull(seed_env, nullptr, 10)
          : 20260805ull;
  const size_t iters = iters_env != nullptr && iters_env[0] != '\0'
                           ? std::strtoull(iters_env, nullptr, 10)
                           : 240;
  size_t nonempty = 0;
  for (size_t i = 0; i < iters; i++) {
    const uint64_t seed = base_seed + i;
    const PlanSpec spec = GenPlan(seed);
    std::string explain;
    auto vec = RunVectorized(spec, &explain, /*encoded_exec=*/true);
    ASSERT_TRUE(vec.ok()) << "seed=" << seed << "\n"
                          << vec.status().ToString();
    // Compressed execution must be invisible: the same plan with encoded
    // adoption off yields row-for-row identical output (pre-canonicalization
    // — even the emission order may not change).
    std::string explain_off;
    auto vec_off = RunVectorized(spec, &explain_off, /*encoded_exec=*/false);
    ASSERT_TRUE(vec_off.ok()) << "seed=" << seed << "\n"
                              << vec_off.status().ToString();
    std::string why_enc;
    if (!Identical(*vec, *vec_off, &why_enc)) {
      const std::string path = WriteArtifact(
          seed, "encoded/flat divergence\nseed=" + std::to_string(seed) +
                    "\n" + why_enc + "\nplan:\n" + explain +
                    "\nencoded result:\n" + DumpRows(*vec, 50) +
                    "\nflat result:\n" + DumpRows(*vec_off, 50));
      FAIL() << "encoded execution diverges from flat; seed=" << seed
             << "\nartifact: " << path << "\n"
             << why_enc << "\nplan:\n" << explain;
    }
    std::vector<Row> tup = RunTuple(spec);
    std::vector<Row> col = RunColumn(spec);
    Canonicalize(&*vec);
    Canonicalize(&tup);
    Canonicalize(&col);
    std::string why_tup;
    std::string why_col;
    const bool tup_ok = Identical(*vec, tup, &why_tup);
    const bool col_ok = Identical(*vec, col, &why_col);
    if (!tup_ok || !col_ok) {
      std::string body = "differential oracle failure\nseed=" +
                         std::to_string(seed) + "\n";
      if (!tup_ok) body += "vectorized vs tuple engine: " + why_tup + "\n";
      if (!col_ok) body += "vectorized vs column engine: " + why_col + "\n";
      body += "\nvectorized plan:\n" + explain;
      body += "\nvectorized result (canonical):\n" + DumpRows(*vec, 50);
      body += "\ntuple result (canonical):\n" + DumpRows(tup, 50);
      body += "\ncolumn result (canonical):\n" + DumpRows(col, 50);
      const std::string path = WriteArtifact(seed, body);
      FAIL() << "engines disagree; seed=" << seed
             << " (re-run with VWISE_ORACLE_SEED=" << seed
             << " VWISE_ORACLE_ITERS=1)\nartifact: " << path << "\n"
             << (tup_ok ? "" : "tuple: " + why_tup + "\n")
             << (col_ok ? "" : "column: " + why_col + "\n")
             << "plan:\n" << explain;
    }
    if (!vec->empty()) nonempty++;
  }
  // The campaign must exercise real data, not degenerate empty streams.
  EXPECT_GT(nonempty, iters / 3) << "plan generator is producing mostly "
                                    "empty results; tighten the constants";
}

}  // namespace
}  // namespace vwise
