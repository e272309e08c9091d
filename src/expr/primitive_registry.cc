#include "expr/primitive_registry.h"

#include "expr/primitives.h"

namespace vwise {

namespace {

// Type-erased adapters over the template kernels in expr/primitives.h.

template <typename T, typename OP>
void MapColCol(const void* a, const void* b, void* out, const sel_t* sel,
               size_t n) {
  prim::MapColCol<T, T, T, OP>(static_cast<const T*>(a),
                               static_cast<const T*>(b), static_cast<T*>(out),
                               sel, n);
}

template <typename T, typename OP>
void MapColVal(const void* a, const void* b, void* out, const sel_t* sel,
               size_t n) {
  prim::MapColVal<T, T, T, OP>(static_cast<const T*>(a),
                               *static_cast<const T*>(b), static_cast<T*>(out),
                               sel, n);
}

template <typename T, typename OP>
void MapValCol(const void* a, const void* b, void* out, const sel_t* sel,
               size_t n) {
  prim::MapValCol<T, T, T, OP>(*static_cast<const T*>(a),
                               static_cast<const T*>(b), static_cast<T*>(out),
                               sel, n);
}

template <typename T, typename OP>
size_t SelColVal(const void* a, const void* b, const sel_t* sel, size_t n,
                 sel_t* out_sel) {
  return prim::SelectColVal<T, T, OP>(static_cast<const T*>(a),
                                      *static_cast<const T*>(b), sel, n,
                                      out_sel);
}

template <typename T, typename OP>
size_t SelColCol(const void* a, const void* b, const sel_t* sel, size_t n,
                 sel_t* out_sel) {
  return prim::SelectColCol<T, T, OP>(static_cast<const T*>(a),
                                      static_cast<const T*>(b), sel, n,
                                      out_sel);
}

// The catalog is a flat, explicit list — one line per primitive — so the
// lint pass (tools/vwise_lint.py) can statically cross-check every entry
// against the kernels and functors in expr/primitives.h. Expanded here once,
// in PrimitiveId order.
constexpr PrimitiveEntry kCatalog[] = {
#define VWISE_MAP_PRIMITIVE(name, ctype, adapter, functor) \
  {kPrim_##name, #name, PrimitiveKind::kMap,              \
   &adapter<ctype, prim::functor>, nullptr},
#define VWISE_SEL_PRIMITIVE(name, ctype, adapter, functor) \
  {kPrim_##name, #name, PrimitiveKind::kSel, nullptr,     \
   &adapter<ctype, prim::functor>},
#include "expr/primitive_catalog.inc"
#undef VWISE_MAP_PRIMITIVE
#undef VWISE_SEL_PRIMITIVE
};
static_assert(sizeof(kCatalog) / sizeof(kCatalog[0]) == kNumPrimitives,
              "catalog table out of sync with the PrimitiveId enum");

}  // namespace

const PrimitiveEntry& PrimitiveRegistry::Get(PrimitiveId id) {
  return kCatalog[id];
}

const PrimitiveEntry* PrimitiveRegistry::Find(std::string_view name) {
  for (const PrimitiveEntry& e : kCatalog) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

}  // namespace vwise
