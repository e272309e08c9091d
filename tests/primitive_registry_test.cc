#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "expr/primitive_registry.h"
#include "gtest/gtest.h"

namespace vwise {
namespace {

TEST(PrimitiveRegistryTest, CatalogSizeAndNaming) {
  // 4 ops x 2 types x 3 kinds = 24 maps; 6 cmps x 5 types x 2 kinds = 60
  // sels.
  EXPECT_EQ(kNumPrimitives, 24 + 60);
  for (int i = 0; i < kNumPrimitives; i++) {
    const PrimitiveEntry& e = PrimitiveRegistry::Get(PrimitiveId(i));
    std::string name = e.name;
    EXPECT_EQ(e.id, i) << name;
    // The table is the name index: every name finds its own entry.
    EXPECT_EQ(PrimitiveRegistry::Find(name), &e) << name;
    if (name.rfind("map_", 0) == 0) {
      EXPECT_EQ(e.kind, PrimitiveKind::kMap) << name;
      EXPECT_NE(e.map, nullptr) << name;
      EXPECT_EQ(e.select, nullptr) << name;
      continue;
    }
    ASSERT_EQ(name.rfind("sel_", 0), 0u) << name;
    EXPECT_EQ(e.kind, PrimitiveKind::kSel) << name;
    EXPECT_EQ(e.map, nullptr) << name;
    EXPECT_NE(e.select, nullptr) << name;
  }
}

TEST(PrimitiveRegistryTest, LookupKnownAndUnknown) {
  EXPECT_NE(PrimitiveRegistry::Find("map_add_i64_col_i64_col"), nullptr);
  EXPECT_NE(PrimitiveRegistry::Find("map_mul_f64_col_f64_val"), nullptr);
  EXPECT_NE(PrimitiveRegistry::Find("sel_lt_i64_col_i64_val"), nullptr);
  EXPECT_NE(PrimitiveRegistry::Find("sel_eq_str_col_str_col"), nullptr);
  // no string math
  EXPECT_EQ(PrimitiveRegistry::Find("map_add_str_col_str_col"), nullptr);
  EXPECT_EQ(PrimitiveRegistry::Find("map_add_i32_col_i32_col"), nullptr);
  EXPECT_EQ(PrimitiveRegistry::Find("sel_like_str_col_str_val"), nullptr);
  EXPECT_EQ(PrimitiveRegistry::Find("sel_lt_i64_col_f64_val"), nullptr);
  EXPECT_EQ(PrimitiveRegistry::Find("nonsense"), nullptr);
  EXPECT_EQ(PrimitiveRegistry::Find(""), nullptr);
  // Every codec decodes flat at the scan: no kernels over encoded operands.
  EXPECT_EQ(PrimitiveRegistry::Find("sel_eq_str_dict_str_val"), nullptr);
  EXPECT_EQ(PrimitiveRegistry::Find("sel_ge_i64_rle_i64_val"), nullptr);
}

// Looks up a select kernel by name; nullptr if absent.
SelectFn FindSelect(const char* name) {
  const PrimitiveEntry* e = PrimitiveRegistry::Find(name);
  return e == nullptr ? nullptr : e->select;
}

MapBinaryFn FindMap(const char* name) {
  const PrimitiveEntry* e = PrimitiveRegistry::Find(name);
  return e == nullptr ? nullptr : e->map;
}

TEST(PrimitiveRegistryTest, MapKernelComputesThroughErasedSignature) {
  auto fn = FindMap("map_mul_i64_col_i64_val");
  ASSERT_NE(fn, nullptr);
  std::vector<int64_t> a = {1, 2, 3, 4, 5};
  int64_t scale = 10;
  std::vector<int64_t> out(5, 0);
  fn(a.data(), &scale, out.data(), nullptr, a.size());
  EXPECT_EQ(out, (std::vector<int64_t>{10, 20, 30, 40, 50}));
}

TEST(PrimitiveRegistryTest, MapKernelHonorsSelectionVector) {
  auto fn = FindMap("map_add_f64_col_f64_col");
  ASSERT_NE(fn, nullptr);
  std::vector<double> a = {1, 2, 3, 4}, b = {10, 20, 30, 40};
  std::vector<double> out = {-1, -1, -1, -1};
  sel_t sel[2] = {1, 3};
  fn(a.data(), b.data(), out.data(), sel, 2);
  EXPECT_EQ(out, (std::vector<double>{-1, 22, -1, 44}));  // untouched elsewhere
}

TEST(PrimitiveRegistryTest, SelectKernelMatchesScalarReference) {
  auto fn = FindSelect("sel_ge_i32_col_i32_val");
  ASSERT_NE(fn, nullptr);
  Rng rng(3);
  std::vector<int32_t> a(300);
  for (auto& v : a) v = static_cast<int32_t>(rng.Uniform(-50, 50));
  int32_t pivot = 7;
  std::vector<sel_t> out(300);
  size_t n = fn(a.data(), &pivot, nullptr, a.size(), out.data());
  size_t expect = 0;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i] >= pivot) {
      ASSERT_LT(expect, n);
      EXPECT_EQ(out[expect], i);
      expect++;
    }
  }
  EXPECT_EQ(n, expect);
}

TEST(PrimitiveRegistryTest, StringSelectThroughRegistry) {
  auto fn = FindSelect("sel_eq_str_col_str_val");
  ASSERT_NE(fn, nullptr);
  std::string storage[3] = {"foo", "bar", "foo"};
  std::vector<StringVal> col;
  for (const auto& s : storage) col.emplace_back(s);
  StringVal needle(storage[0]);
  std::vector<sel_t> out(3);
  size_t n = fn(col.data(), &needle, nullptr, col.size(), out.data());
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 2u);
}

// Integral division by zero yields 0 (the reference engines' semantics)
// instead of trapping; floating-point division stays IEEE.
TEST(PrimitiveRegistryTest, IntegerDivisionByZeroIsZero) {
  std::vector<int64_t> a = {7, -7, 0, 9}, b = {0, 2, 0, 3};
  std::vector<int64_t> out(4, -1);
  FindMap("map_div_i64_col_i64_col")(a.data(), b.data(), out.data(), nullptr,
                                     4);
  EXPECT_EQ(out, (std::vector<int64_t>{0, -3, 0, 3}));
  int64_t zero = 0;
  FindMap("map_div_i64_col_i64_val")(a.data(), &zero, out.data(), nullptr, 4);
  EXPECT_EQ(out, (std::vector<int64_t>{0, 0, 0, 0}));
  int64_t ten = 10;
  FindMap("map_div_i64_val_i64_col")(&ten, b.data(), out.data(), nullptr, 4);
  EXPECT_EQ(out, (std::vector<int64_t>{0, 5, 0, 3}));
  double one = 1.0, dzero = 0.0, q = 0.0;
  FindMap("map_div_f64_col_f64_val")(&one, &dzero, &q, nullptr, 1);
  EXPECT_TRUE(std::isinf(q));
}

TEST(PrimitiveRegistryTest, EveryRegisteredMapRunsWithoutCrashing) {
  // Smoke-drive all 86 primitives through the erased interface with benign
  // operands.
  std::vector<int64_t> i64a(64, 6), i64b(64, 1), i64o(64);
  std::vector<double> f64a(64, 6.0), f64b(64, 1.0), f64o(64);
  std::vector<uint8_t> u8a(64, 1), u8b(64, 1);
  std::vector<int32_t> i32a(64, 2), i32b(64, 2);
  std::string s = "x";
  std::vector<StringVal> stra(64, StringVal(s)), strb(64, StringVal(s));
  std::vector<sel_t> out_sel(64);
  std::vector<uint32_t> codes(64, 1);
  uint32_t code_val = 1;
  for (int i = 0; i < kNumPrimitives; i++) {
    const PrimitiveEntry& e = PrimitiveRegistry::Get(PrimitiveId(i));
    std::string name = e.name;
    if (name.find("_dict_") != std::string::npos) {
      size_t n = e.select(codes.data(), &code_val, nullptr, 64, out_sel.data());
      EXPECT_LE(n, 64u) << name;
      continue;
    }
    if (e.kind == PrimitiveKind::kMap) {
      if (name.find("_i64_") != std::string::npos) {
        e.map(i64a.data(), i64b.data(), i64o.data(), nullptr, 64);
      } else {
        e.map(f64a.data(), f64b.data(), f64o.data(), nullptr, 64);
      }
    } else {
      const void* a = nullptr;
      const void* b = nullptr;
      if (name.find("_u8_") != std::string::npos) {
        a = u8a.data();
        b = u8b.data();
      } else if (name.find("_i32_") != std::string::npos) {
        a = i32a.data();
        b = i32b.data();
      } else if (name.find("_i64_") != std::string::npos) {
        a = i64a.data();
        b = i64b.data();
      } else if (name.find("_f64_") != std::string::npos) {
        a = f64a.data();
        b = f64b.data();
      } else {
        a = stra.data();
        b = strb.data();
      }
      size_t n = e.select(a, b, nullptr, 64, out_sel.data());
      EXPECT_LE(n, 64u) << name;
    }
  }
}

}  // namespace
}  // namespace vwise
