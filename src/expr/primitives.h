#ifndef VWISE_EXPR_PRIMITIVES_H_
#define VWISE_EXPR_PRIMITIVES_H_

#include <cstddef>
#include <type_traits>

#include "vector/types.h"

// X100-style vectorized primitives: flat loops over value arrays, optionally
// driven by a selection vector of active positions. Results are written *at
// the same positions* as the inputs, keeping all vectors of a chunk aligned
// so selections can be propagated without compaction.
//
// Each primitive is instantiated per type combination by the catalog
// (expr/primitive_catalog.inc); there are no per-value virtual calls or type
// dispatches — that is the entire point of vectorized execution (paper
// Sec. I-A).

namespace vwise::prim {

// ---- Map primitives: out[p] = OP(a[p], b[p]) ------------------------------

template <typename R, typename A, typename B, typename OP>
inline void MapColCol(const A* a, const B* b, R* out, const sel_t* sel,
                      size_t n) {
  if (sel == nullptr) {
    for (size_t i = 0; i < n; i++) out[i] = OP()(a[i], b[i]);
  } else {
    for (size_t i = 0; i < n; i++) {
      sel_t p = sel[i];
      out[p] = OP()(a[p], b[p]);
    }
  }
}

template <typename R, typename A, typename B, typename OP>
inline void MapColVal(const A* a, B b, R* out, const sel_t* sel, size_t n) {
  if (sel == nullptr) {
    for (size_t i = 0; i < n; i++) out[i] = OP()(a[i], b);
  } else {
    for (size_t i = 0; i < n; i++) {
      sel_t p = sel[i];
      out[p] = OP()(a[p], b);
    }
  }
}

template <typename R, typename A, typename B, typename OP>
inline void MapValCol(A a, const B* b, R* out, const sel_t* sel, size_t n) {
  if (sel == nullptr) {
    for (size_t i = 0; i < n; i++) out[i] = OP()(a, b[i]);
  } else {
    for (size_t i = 0; i < n; i++) {
      sel_t p = sel[i];
      out[p] = OP()(a, b[p]);
    }
  }
}

template <typename R, typename A, typename OP>
inline void MapUnary(const A* a, R* out, const sel_t* sel, size_t n) {
  if (sel == nullptr) {
    for (size_t i = 0; i < n; i++) out[i] = OP()(a[i]);
  } else {
    for (size_t i = 0; i < n; i++) {
      sel_t p = sel[i];
      out[p] = OP()(a[p]);
    }
  }
}

// ---- Select primitives: emit qualifying positions -------------------------
// Returns the number of positions written to out_sel (ascending order is
// preserved because the input selection is ascending).

template <typename A, typename B, typename OP>
inline size_t SelectColVal(const A* a, B b, const sel_t* sel, size_t n,
                           sel_t* out_sel) {
  size_t k = 0;
  if (sel == nullptr) {
    for (size_t i = 0; i < n; i++) {
      out_sel[k] = static_cast<sel_t>(i);
      k += OP()(a[i], b);
    }
  } else {
    for (size_t i = 0; i < n; i++) {
      sel_t p = sel[i];
      out_sel[k] = p;
      k += OP()(a[p], b);
    }
  }
  return k;
}

template <typename A, typename B, typename OP>
inline size_t SelectColCol(const A* a, const B* b, const sel_t* sel, size_t n,
                           sel_t* out_sel) {
  size_t k = 0;
  if (sel == nullptr) {
    for (size_t i = 0; i < n; i++) {
      out_sel[k] = static_cast<sel_t>(i);
      k += OP()(a[i], b[i]);
    }
  } else {
    for (size_t i = 0; i < n; i++) {
      sel_t p = sel[i];
      out_sel[k] = p;
      k += OP()(a[p], b[p]);
    }
  }
  return k;
}

// ---- Gather / scatter ------------------------------------------------------

template <typename T>
inline void Gather(const T* src, const sel_t* idx, size_t n, T* dst) {
  for (size_t i = 0; i < n; i++) dst[i] = src[idx[i]];
}

// ---- Operator functors -----------------------------------------------------

struct OpAdd {
  template <typename A, typename B>
  auto operator()(A a, B b) const {
    return a + b;
  }
};
struct OpSub {
  template <typename A, typename B>
  auto operator()(A a, B b) const {
    return a - b;
  }
};
struct OpMul {
  template <typename A, typename B>
  auto operator()(A a, B b) const {
    return a * b;
  }
};
// Integral x / 0 is 0, as in both reference engines (the hardware would
// trap); floating-point division stays IEEE.
struct OpDiv {
  template <typename A, typename B>
  auto operator()(A a, B b) const {
    if constexpr (std::is_integral_v<A> && std::is_integral_v<B>) {
      return b == 0 ? decltype(a / b){0} : a / b;
    } else {
      return a / b;
    }
  }
};
struct OpEq {
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a == b;
  }
};
struct OpNe {
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a != b;
  }
};
struct OpLt {
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a < b;
  }
};
struct OpLe {
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a <= b;
  }
};
struct OpGt {
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a > b;
  }
};
struct OpGe {
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a >= b;
  }
};

}  // namespace vwise::prim

#endif  // VWISE_EXPR_PRIMITIVES_H_
