#ifndef VWISE_EXPR_PRIMITIVE_REGISTRY_H_
#define VWISE_EXPR_PRIMITIVE_REGISTRY_H_

#include <cstdint>
#include <string_view>

#include "vector/types.h"

namespace vwise {

// The X100 execution model exposes its kernels as a flat catalog of *named
// primitives* — `map_add_i64_col_i64_col`, `sel_lt_f64_col_f64_val`, ... —
// one specialized loop per (operation, type, operand-kind) combination
// (Boncz et al., CIDR'05; paper Sec. I-A). The catalog
// (expr/primitive_catalog.inc) is expanded exactly once, into the table
// behind this registry, and that table is the engine's only dispatch table:
// expression nodes compose a primitive name from the catalog grammar at
// Prepare, bind the entry's kernel, and per vector make one indirect call
// through it (bind-once dispatch, DESIGN.md "Per-primitive counters").
//
// Signatures are type-erased: operands are raw column pointers (or a
// pointer to a single value for `val` kinds), results are written at the
// active positions, following the engine-wide selection-vector discipline.

// One enumerator per catalog entry, in catalog order; indexes the registry
// table and the profiler's counters.
enum PrimitiveId : uint16_t {
#define VWISE_MAP_PRIMITIVE(name, ctype, adapter, functor) kPrim_##name,
#define VWISE_SEL_PRIMITIVE(name, ctype, adapter, functor) kPrim_##name,
#include "expr/primitive_catalog.inc"
#undef VWISE_MAP_PRIMITIVE
#undef VWISE_SEL_PRIMITIVE
  kNumPrimitives,
};

// out[p] = op(a[p], b[p])  /  op(a[p], *b)  /  op(*a, b[p])
using MapBinaryFn = void (*)(const void* a, const void* b, void* out,
                             const sel_t* sel, size_t n);
// Writes qualifying positions to out_sel, returns how many.
using SelectFn = size_t (*)(const void* a, const void* b, const sel_t* sel,
                            size_t n, sel_t* out_sel);

enum class PrimitiveKind : uint8_t { kMap, kSel };

struct PrimitiveEntry {
  PrimitiveId id;
  const char* name;
  PrimitiveKind kind;
  MapBinaryFn map;  // kMap entries
  SelectFn select;  // kSel entries
};

class PrimitiveRegistry {
 public:
  static const PrimitiveEntry& Get(PrimitiveId id);
  // nullptr if the catalog has no entry of that name.
  static const PrimitiveEntry* Find(std::string_view name);
};

}  // namespace vwise

#endif  // VWISE_EXPR_PRIMITIVE_REGISTRY_H_
