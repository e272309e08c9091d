#include <memory>
#include <string>
#include <vector>

#include "common/date.h"
#include "expr/expression.h"
#include "expr/primitive_profiler.h"
#include "expr/primitive_registry.h"
#include "gtest/gtest.h"
#include "vector/chunk.h"

namespace vwise {
namespace {

constexpr size_t kCap = 256;

std::vector<FilterPtr> Vec(FilterPtr a, FilterPtr b) {
  std::vector<FilterPtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return v;
}
std::vector<FilterPtr> Vec(FilterPtr a, FilterPtr b, FilterPtr c) {
  std::vector<FilterPtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  v.push_back(std::move(c));
  return v;
}

// Chunk with: col0 i64 = i, col1 f64 = i*0.1, col2 str = cyclic fruit,
// col3 i32 date = 1994-01-01 + i days, col4 i64 decimal(2) = 100+i cents.
class ExprTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chunk_.Init({TypeId::kI64, TypeId::kF64, TypeId::kStr, TypeId::kI32,
                 TypeId::kI64},
                kCap);
    static const char* kFruit[] = {"apple", "banana", "cherry"};
    auto* heap = chunk_.column(2).GetStringHeap();
    for (size_t i = 0; i < 100; i++) {
      chunk_.column(0).Data<int64_t>()[i] = static_cast<int64_t>(i);
      chunk_.column(1).Data<double>()[i] = i * 0.1;
      chunk_.column(2).Data<StringVal>()[i] = heap->Add(kFruit[i % 3]);
      chunk_.column(3).Data<int32_t>()[i] = date::Parse("1994-01-01") + static_cast<int32_t>(i);
      chunk_.column(4).Data<int64_t>()[i] = 100 + static_cast<int64_t>(i);
    }
    chunk_.SetCount(100);
  }

  Vector* EvalAll(Expr* expr) {
    EXPECT_TRUE(expr->Prepare(kCap).ok());
    Vector* out = nullptr;
    Status s = expr->Eval(chunk_, nullptr, chunk_.count(), &out);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  std::vector<sel_t> SelectAll(Filter* f) {
    EXPECT_TRUE(f->Prepare(kCap).ok());
    std::vector<sel_t> out(kCap);
    size_t n = 0;
    Status s = f->Select(chunk_, nullptr, chunk_.count(), out.data(), &n);
    EXPECT_TRUE(s.ok()) << s.ToString();
    out.resize(n);
    return out;
  }

  DataChunk chunk_;
};

TEST_F(ExprTest, ColRefAliases) {
  auto expr = e::Col(0, DataType::Int64());
  Vector* out = EvalAll(expr.get());
  EXPECT_EQ(out->Data<int64_t>()[42], 42);
}

TEST_F(ExprTest, ConstFillsAllPositions) {
  auto expr = e::I64(7);
  Vector* out = EvalAll(expr.get());
  EXPECT_EQ(out->Data<int64_t>()[0], 7);
  EXPECT_EQ(out->Data<int64_t>()[kCap - 1], 7);
}

TEST_F(ExprTest, ArithColCol) {
  auto expr = e::Add(e::Col(0, DataType::Int64()), e::Col(0, DataType::Int64()));
  Vector* out = EvalAll(expr.get());
  EXPECT_EQ(out->Data<int64_t>()[21], 42);
}

TEST_F(ExprTest, ArithColConst) {
  auto expr = e::Mul(e::Col(0, DataType::Int64()), e::I64(3));
  Vector* out = EvalAll(expr.get());
  EXPECT_EQ(out->Data<int64_t>()[10], 30);
}

TEST_F(ExprTest, ArithConstCol) {
  auto expr = e::Sub(e::I64(100), e::Col(0, DataType::Int64()));
  Vector* out = EvalAll(expr.get());
  EXPECT_EQ(out->Data<int64_t>()[30], 70);
}

TEST_F(ExprTest, ArithDoubles) {
  // (1 - f) * 10
  auto expr = e::Mul(e::Sub(e::F64(1.0), e::Col(1, DataType::Double())), e::F64(10.0));
  Vector* out = EvalAll(expr.get());
  EXPECT_NEAR(out->Data<double>()[5], (1.0 - 0.5) * 10.0, 1e-12);
}

TEST_F(ExprTest, ArithRespectsSelection) {
  auto expr = e::Add(e::Col(0, DataType::Int64()), e::I64(1));
  ASSERT_TRUE(expr->Prepare(kCap).ok());
  sel_t sel[2] = {10, 20};
  Vector* out = nullptr;
  ASSERT_TRUE(expr->Eval(chunk_, sel, 2, &out).ok());
  EXPECT_EQ(out->Data<int64_t>()[10], 11);
  EXPECT_EQ(out->Data<int64_t>()[20], 21);
}

TEST_F(ExprTest, CastI32ToI64) {
  auto expr = e::Cast(e::Col(3, DataType::Date()), DataType::Int64());
  Vector* out = EvalAll(expr.get());
  EXPECT_EQ(out->Data<int64_t>()[0], date::Parse("1994-01-01"));
}

TEST_F(ExprTest, CastDecimalToDoubleDividesByScale) {
  auto expr = e::ToF64(e::Col(4, DataType::Decimal(2)));
  Vector* out = EvalAll(expr.get());
  EXPECT_NEAR(out->Data<double>()[0], 1.00, 1e-12);
  EXPECT_NEAR(out->Data<double>()[50], 1.50, 1e-12);
}

TEST_F(ExprTest, YearExtracts) {
  auto expr = e::Year(e::Col(3, DataType::Date()));
  Vector* out = EvalAll(expr.get());
  EXPECT_EQ(out->Data<int64_t>()[0], 1994);
}

TEST_F(ExprTest, SubstrZeroCopy) {
  auto expr = e::Substr(e::Col(2, DataType::Varchar()), 1, 3);
  Vector* out = EvalAll(expr.get());
  EXPECT_EQ(out->Data<StringVal>()[0].ToString(), "app");
  EXPECT_EQ(out->Data<StringVal>()[1].ToString(), "ban");
}

TEST_F(ExprTest, SubstrPastEndClamps) {
  auto expr = e::Substr(e::Col(2, DataType::Varchar()), 5, 10);
  Vector* out = EvalAll(expr.get());
  EXPECT_EQ(out->Data<StringVal>()[0].ToString(), "e");  // "apple"[4:]
}

TEST_F(ExprTest, CaseBlends) {
  // CASE WHEN col0 < 50 THEN col0 ELSE 0 END
  auto expr = e::Case(e::Lt(e::Col(0, DataType::Int64()), e::I64(50)),
                      e::Col(0, DataType::Int64()), e::I64(0));
  Vector* out = EvalAll(expr.get());
  EXPECT_EQ(out->Data<int64_t>()[10], 10);
  EXPECT_EQ(out->Data<int64_t>()[80], 0);
}

TEST_F(ExprTest, CmpLtConst) {
  auto f = e::Lt(e::Col(0, DataType::Int64()), e::I64(5));
  auto sel = SelectAll(f.get());
  EXPECT_EQ(sel, (std::vector<sel_t>{0, 1, 2, 3, 4}));
}

TEST_F(ExprTest, CmpConstOnLeftIsMirrored) {
  // 5 > col0  <=>  col0 < 5
  auto f = e::Gt(e::I64(5), e::Col(0, DataType::Int64()));
  auto sel = SelectAll(f.get());
  EXPECT_EQ(sel.size(), 5u);
}

TEST_F(ExprTest, CmpColCol) {
  // col1 (i*0.1) < casted col0 * 0.05  -> i*0.1 < i*0.05 -> never (except none)
  auto f = e::Lt(e::Col(1, DataType::Double()),
                 e::Mul(e::ToF64(e::Col(0, DataType::Int64())), e::F64(0.05)));
  auto sel = SelectAll(f.get());
  EXPECT_TRUE(sel.empty());
}

TEST_F(ExprTest, CmpStrings) {
  auto f = e::Eq(e::Col(2, DataType::Varchar()), e::Str("banana"));
  auto sel = SelectAll(f.get());
  ASSERT_FALSE(sel.empty());
  for (sel_t p : sel) EXPECT_EQ(p % 3, 1u);
}

TEST_F(ExprTest, CmpDates) {
  auto f = e::Ge(e::Col(3, DataType::Date()), e::DateLit("1994-02-01"));
  auto sel = SelectAll(f.get());
  EXPECT_EQ(sel.size(), 100u - 31u);
}

TEST_F(ExprTest, AndNarrows) {
  auto f = e::And(Vec(e::Ge(e::Col(0, DataType::Int64()), e::I64(10)),
                      e::Lt(e::Col(0, DataType::Int64()), e::I64(20)),
                      e::Ne(e::Col(0, DataType::Int64()), e::I64(15))));
  auto sel = SelectAll(f.get());
  EXPECT_EQ(sel.size(), 9u);
  for (sel_t p : sel) EXPECT_NE(p, 15u);
}

TEST_F(ExprTest, OrMergesAscending) {
  auto f = e::Or(Vec(e::Lt(e::Col(0, DataType::Int64()), e::I64(3)),
                     e::Ge(e::Col(0, DataType::Int64()), e::I64(97)),
                     e::Eq(e::Col(0, DataType::Int64()), e::I64(50))));
  auto sel = SelectAll(f.get());
  EXPECT_EQ(sel, (std::vector<sel_t>{0, 1, 2, 50, 97, 98, 99}));
}

TEST_F(ExprTest, OrDeduplicatesOverlap) {
  auto f = e::Or(Vec(e::Lt(e::Col(0, DataType::Int64()), e::I64(10)),
                     e::Lt(e::Col(0, DataType::Int64()), e::I64(5))));
  auto sel = SelectAll(f.get());
  EXPECT_EQ(sel.size(), 10u);
}

TEST_F(ExprTest, NotComplements) {
  auto f = e::Not(e::Lt(e::Col(0, DataType::Int64()), e::I64(90)));
  auto sel = SelectAll(f.get());
  EXPECT_EQ(sel.size(), 10u);
  EXPECT_EQ(sel.front(), 90u);
}

TEST_F(ExprTest, InStrings) {
  auto f = e::In(e::Col(2, DataType::Varchar()),
                 {Value::String("apple"), Value::String("cherry")});
  auto sel = SelectAll(f.get());
  for (sel_t p : sel) EXPECT_NE(p % 3, 1u);
  EXPECT_EQ(sel.size(), 67u);  // 34 apples + 33 cherries
}

TEST_F(ExprTest, NotInInts) {
  auto f = e::NotIn(e::Col(0, DataType::Int64()), {Value::Int(0), Value::Int(1)});
  auto sel = SelectAll(f.get());
  EXPECT_EQ(sel.size(), 98u);
  EXPECT_EQ(sel.front(), 2u);
}

TEST_F(ExprTest, LikeFilterSelects) {
  auto f = e::Like(e::Col(2, DataType::Varchar()), "%an%");
  auto sel = SelectAll(f.get());  // banana only
  for (sel_t p : sel) EXPECT_EQ(p % 3, 1u);
}

TEST_F(ExprTest, NotLike) {
  auto f = e::NotLike(e::Col(2, DataType::Varchar()), "a%");
  auto sel = SelectAll(f.get());
  for (sel_t p : sel) EXPECT_NE(p % 3, 0u);
}

TEST_F(ExprTest, ArithConstConstFolds) {
  auto expr = e::Mul(e::I64(6), e::I64(7));
  Vector* out = EvalAll(expr.get());
  EXPECT_EQ(out->Data<int64_t>()[0], 42);
  EXPECT_EQ(out->Data<int64_t>()[kCap - 1], 42);
}

// Integral division by zero yields 0, as in both reference engines, for
// col / col and col / const alike (row 0 of col0 is 0).
TEST_F(ExprTest, IntegerDivisionByZeroIsZero) {
  auto by_col = e::Div(e::I64(84), e::Col(0, DataType::Int64()));
  Vector* out = EvalAll(by_col.get());
  EXPECT_EQ(out->Data<int64_t>()[0], 0);
  EXPECT_EQ(out->Data<int64_t>()[2], 42);
  auto self = e::Div(e::Col(0, DataType::Int64()), e::Col(0, DataType::Int64()));
  out = EvalAll(self.get());
  EXPECT_EQ(out->Data<int64_t>()[0], 0);
  EXPECT_EQ(out->Data<int64_t>()[5], 1);
  auto by_zero = e::Div(e::Col(0, DataType::Int64()), e::I64(0));
  out = EvalAll(by_zero.get());
  EXPECT_EQ(out->Data<int64_t>()[7], 0);
}

// A combination the catalog does not list has no kernel: Prepare fails
// instead of running some other primitive.
TEST_F(ExprTest, CombinationWithoutCatalogEntryFailsAtPrepare) {
  auto i32_math = e::Add(e::Col(3, DataType::Date()), e::Col(3, DataType::Date()));
  EXPECT_FALSE(i32_math->Prepare(kCap).ok());
  auto mixed = e::Add(e::Col(0, DataType::Int64()), e::F64(1.0));
  EXPECT_FALSE(mixed->Prepare(kCap).ok());
  auto mixed_cmp = e::Lt(e::Col(1, DataType::Double()), e::I64(1));
  EXPECT_FALSE(mixed_cmp->Prepare(kCap).ok());
}

TEST(LikeMatchTest, Patterns) {
  EXPECT_TRUE(LikeFilter::Match("PROMO BURNISHED", "PROMO%"));
  EXPECT_FALSE(LikeFilter::Match("STANDARD", "PROMO%"));
  EXPECT_TRUE(LikeFilter::Match("small BRASS", "%BRASS"));
  EXPECT_TRUE(LikeFilter::Match("xgreeny", "%green%"));
  EXPECT_TRUE(LikeFilter::Match("special packages requests", "special%requests%"));
  EXPECT_FALSE(LikeFilter::Match("specialrequest", "special%requests%"));
  EXPECT_TRUE(LikeFilter::Match("abc", "a_c"));
  EXPECT_FALSE(LikeFilter::Match("abbc", "a_c"));
  EXPECT_TRUE(LikeFilter::Match("", "%"));
  EXPECT_FALSE(LikeFilter::Match("", "_"));
  EXPECT_TRUE(LikeFilter::Match("MEDIUM POLISHED BRASS", "MEDIUM POLISHED%"));
}

// ---------------------------------------------------------------------------
// Binding coverage: each catalog entry is bound by the expression node its
// name describes — running that node over one vector advances exactly that
// entry's counter.
// ---------------------------------------------------------------------------

const char* const kArithTokens[] = {"add", "sub", "mul", "div"};
const char* const kCmpTokens[] = {"eq", "ne", "lt", "le", "gt", "ge"};
// Column t of the coverage chunk has physical type TypeId(t).
const DataType kColTypes[] = {DataType::Bool(), DataType::Int32(),
                              DataType::Int64(), DataType::Double(),
                              DataType::Varchar()};

int IndexOf(const char* const* tokens, size_t n, const std::string& tok) {
  for (size_t i = 0; i < n; i++) {
    if (tok == tokens[i]) return static_cast<int>(i);
  }
  ADD_FAILURE() << "unknown token " << tok;
  return 0;
}

std::vector<std::string> SplitName(const std::string& name) {
  std::vector<std::string> out(1);
  for (char c : name) {
    if (c == '_') {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

CmpOp Mirror(CmpOp op) {
  static const CmpOp kMirror[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kGt,
                                  CmpOp::kGe, CmpOp::kLt, CmpOp::kLe};
  return kMirror[static_cast<int>(op)];
}

class BindingCoverageTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 100;

  // One column per physical type.
  void MakeChunk(DataChunk* c) {
    c->Init({TypeId::kU8, TypeId::kI32, TypeId::kI64, TypeId::kF64,
             TypeId::kStr},
            kCap);
    static const char* kWords[] = {"a", "b", "c"};
    auto* heap = c->column(4).GetStringHeap();
    for (size_t i = 0; i < kRows; i++) {
      c->column(0).Data<uint8_t>()[i] = static_cast<uint8_t>(i % 2);
      c->column(1).Data<int32_t>()[i] = static_cast<int32_t>(i);
      c->column(2).Data<int64_t>()[i] = static_cast<int64_t>(i) + 1;
      c->column(3).Data<double>()[i] = static_cast<double>(i) * 0.5;
      c->column(4).Data<StringVal>()[i] = heap->Add(kWords[i % 3]);
    }
    c->SetCount(kRows);
  }

  void SetUp() override { MakeChunk(&flat_); }

  static ExprPtr Operand(bool val, TypeId ty) {
    const int t = static_cast<int>(ty);
    if (!val) return e::Col(static_cast<size_t>(t), kColTypes[t]);
    Value v = ty == TypeId::kStr   ? Value::String("b")
              : ty == TypeId::kF64 ? Value::Double(1.5)
                                   : Value::Int(1);
    return std::make_unique<ConstExpr>(v, kColTypes[t]);
  }

  // Ids whose call counter advanced over one Eval / Select of the node.
  template <typename Run>
  static std::vector<int> Advanced(Run run) {
    std::vector<PrimitiveCounters> before = PrimitiveProfiler::Snapshot();
    run();
    std::vector<PrimitiveCounters> after = PrimitiveProfiler::Snapshot();
    std::vector<int> ids;
    for (int i = 0; i < kNumPrimitives; i++) {
      if (after[i].calls != before[i].calls) ids.push_back(i);
    }
    return ids;
  }
  static std::vector<int> RunOnce(Expr* node, DataChunk& in) {
    EXPECT_TRUE(node->Prepare(kCap).ok());
    return Advanced([&] {
      Vector* out = nullptr;
      EXPECT_TRUE(node->Eval(in, nullptr, in.count(), &out).ok());
    });
  }
  static std::vector<int> RunOnce(Filter* node, DataChunk& in) {
    EXPECT_TRUE(node->Prepare(kCap).ok());
    return Advanced([&] {
      std::vector<sel_t> out(kCap);
      size_t k = 0;
      EXPECT_TRUE(node->Select(in, nullptr, in.count(), out.data(), &k).ok());
    });
  }

  DataChunk flat_;
};

TEST_F(BindingCoverageTest, EveryCatalogEntryIsBoundByItsNode) {
  PrimitiveProfiler::ScopedEnable enable(true);
  for (int i = 0; i < kNumPrimitives; i++) {
    const std::string name = PrimitiveRegistry::Get(PrimitiveId(i)).name;
    // <prefix>_<op>_<ty>_<lkind>_<ty>_<rkind>
    const std::vector<std::string> tok = SplitName(name);
    ASSERT_EQ(tok.size(), 6u) << name;
    TypeId ty = TypeId::kU8;
    while (tok[2] != TypeIdToString(ty)) {
      ty = static_cast<TypeId>(static_cast<int>(ty) + 1);
    }
    const bool lval = tok[3] == "val";
    const bool rval = tok[5] == "val";
    const std::vector<int> want = {i};
    if (tok[0] == "map") {
      ArithExpr node(static_cast<ArithOp>(IndexOf(kArithTokens, 4, tok[1])),
                     Operand(lval, ty), Operand(rval, ty));
      EXPECT_EQ(RunOnce(&node, flat_), want) << name;
      continue;
    }
    const CmpOp op = static_cast<CmpOp>(IndexOf(kCmpTokens, 6, tok[1]));
    CmpFilter node(op, Operand(false, ty), Operand(rval, ty));
    EXPECT_EQ(RunOnce(&node, flat_), want) << name;
    if (rval) {
      // "const OP' col" is mirrored onto the same entry at Prepare.
      CmpFilter mirrored(Mirror(op), Operand(true, ty), Operand(false, ty));
      EXPECT_EQ(RunOnce(&mirrored, flat_), want) << name << " (const on the left)";
    }
  }
}

}  // namespace
}  // namespace vwise
