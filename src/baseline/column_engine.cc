#include "baseline/column_engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace vwise::baseline {

std::vector<uint32_t> ColumnEngine::SelectRange(const std::vector<int64_t>& col,
                                                int64_t lo, int64_t hi) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < col.size(); i++) {
    if (col[i] >= lo && col[i] <= hi) out.push_back(i);
  }
  Charge(out);
  return out;
}

std::vector<uint32_t> ColumnEngine::SelectRange(const std::vector<int64_t>& col,
                                                const std::vector<uint32_t>& cand,
                                                int64_t lo, int64_t hi) {
  std::vector<uint32_t> out;
  for (uint32_t i : cand) {
    if (col[i] >= lo && col[i] <= hi) out.push_back(i);
  }
  Charge(out);
  return out;
}

std::vector<int64_t> ColumnEngine::Gather(const std::vector<int64_t>& col,
                                          const std::vector<uint32_t>& idx) {
  std::vector<int64_t> out(idx.size());
  for (size_t i = 0; i < idx.size(); i++) out[i] = col[idx[i]];
  Charge(out);
  return out;
}

std::vector<double> ColumnEngine::GatherF(const std::vector<double>& col,
                                          const std::vector<uint32_t>& idx) {
  std::vector<double> out(idx.size());
  for (size_t i = 0; i < idx.size(); i++) out[i] = col[idx[i]];
  Charge(out);
  return out;
}

std::vector<double> ColumnEngine::CentsToDouble(const std::vector<int64_t>& col) {
  std::vector<double> out(col.size());
  for (size_t i = 0; i < col.size(); i++) out[i] = col[i] / 100.0;
  Charge(out);
  return out;
}

std::vector<double> ColumnEngine::Mul(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); i++) out[i] = a[i] * b[i];
  Charge(out);
  return out;
}

std::vector<double> ColumnEngine::Add(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); i++) out[i] = a[i] + b[i];
  Charge(out);
  return out;
}

std::vector<double> ColumnEngine::RSub(double scalar, const std::vector<double>& a) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); i++) out[i] = scalar - a[i];
  Charge(out);
  return out;
}

std::vector<double> ColumnEngine::RAdd(double scalar, const std::vector<double>& a) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); i++) out[i] = scalar + a[i];
  Charge(out);
  return out;
}

double ColumnEngine::Sum(const std::vector<double>& a) {
  double s = 0;
  for (double v : a) s += v;
  return s;
}

std::vector<double> ColumnEngine::SumGrouped(const std::vector<double>& a,
                                             const std::vector<uint32_t>& groups,
                                             size_t n_groups) {
  std::vector<double> out(n_groups, 0.0);
  for (size_t i = 0; i < a.size(); i++) out[groups[i]] += a[i];
  Charge(out);
  return out;
}

// --- boxed materializing surface ---------------------------------------------

namespace {

bool CmpHolds(MatCmp op, int c) {
  switch (op) {
    case MatCmp::kEq:
      return c == 0;
    case MatCmp::kNe:
      return c != 0;
    case MatCmp::kLt:
      return c < 0;
    case MatCmp::kLe:
      return c <= 0;
    case MatCmp::kGt:
      return c > 0;
    case MatCmp::kGe:
      return c >= 0;
  }
  return false;
}

Value ArithOne(MatArith op, const Value& a, const Value& b) {
  if (a.kind() == Value::Kind::kInt && b.kind() == Value::Kind::kInt) {
    int64_t x = a.AsInt(), y = b.AsInt();
    switch (op) {
      case MatArith::kAdd:
        return Value::Int(x + y);
      case MatArith::kSub:
        return Value::Int(x - y);
      case MatArith::kMul:
        return Value::Int(x * y);
      case MatArith::kDiv:
        return Value::Int(y == 0 ? 0 : x / y);
    }
  }
  double x = a.AsDouble(), y = b.AsDouble();
  switch (op) {
    case MatArith::kAdd:
      return Value::Double(x + y);
    case MatArith::kSub:
      return Value::Double(x - y);
    case MatArith::kMul:
      return Value::Double(x * y);
    case MatArith::kDiv:
      return Value::Double(x / y);
  }
  return Value::Null();
}

// Concatenated textual key with an unambiguous separator.
std::string KeyAt(const std::vector<const MatColumn*>& cols, size_t row) {
  std::string key;
  for (const MatColumn* c : cols) {
    key += KeyText((*c)[row]);
    key += '\x1f';
  }
  return key;
}

}  // namespace

std::vector<uint32_t> ColumnEngine::SelectCmpConst(const MatColumn& col,
                                                   MatCmp op, const Value& v) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < col.size(); i++) {
    if (CmpHolds(op, Compare(col[i], v))) out.push_back(i);
  }
  Charge(out);
  return out;
}

std::vector<uint32_t> ColumnEngine::SelectCmpCol(const MatColumn& a,
                                                 const MatColumn& b,
                                                 MatCmp op) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < a.size(); i++) {
    if (CmpHolds(op, Compare(a[i], b[i]))) out.push_back(i);
  }
  Charge(out);
  return out;
}

std::vector<uint32_t> ColumnEngine::IntersectSorted(
    const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      i++;
    } else if (b[j] < a[i]) {
      j++;
    } else {
      out.push_back(a[i]);
      i++;
      j++;
    }
  }
  Charge(out);
  return out;
}

std::vector<uint32_t> ColumnEngine::UnionSorted(const std::vector<uint32_t>& a,
                                                const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
      out.push_back(a[i++]);
    } else if (i >= a.size() || b[j] < a[i]) {
      out.push_back(b[j++]);
    } else {
      out.push_back(a[i]);
      i++;
      j++;
    }
  }
  Charge(out);
  return out;
}

std::vector<uint32_t> ColumnEngine::ComplementSorted(
    const std::vector<uint32_t>& sel, uint32_t n) {
  std::vector<uint32_t> out;
  size_t j = 0;
  for (uint32_t i = 0; i < n; i++) {
    if (j < sel.size() && sel[j] == i) {
      j++;
    } else {
      out.push_back(i);
    }
  }
  Charge(out);
  return out;
}

MatColumn ColumnEngine::GatherV(const MatColumn& col,
                                const std::vector<uint32_t>& idx) {
  MatColumn out;
  out.reserve(idx.size());
  for (uint32_t i : idx) out.push_back(col[i]);
  Charge(out);
  return out;
}

MatColumn ColumnEngine::MapArith(MatArith op, const MatColumn& a,
                                 const MatColumn& b) {
  MatColumn out;
  out.reserve(a.size());
  for (size_t i = 0; i < a.size(); i++) out.push_back(ArithOne(op, a[i], b[i]));
  Charge(out);
  return out;
}

MatColumn ColumnEngine::MapArithConst(MatArith op, const MatColumn& a,
                                      const Value& v) {
  MatColumn out;
  out.reserve(a.size());
  for (const Value& x : a) out.push_back(ArithOne(op, x, v));
  Charge(out);
  return out;
}

std::vector<uint32_t> ColumnEngine::GroupIds(
    const std::vector<const MatColumn*>& keys, size_t* n_groups,
    std::vector<uint32_t>* rep_rows) {
  const size_t rows = keys.empty() ? 0 : keys[0]->size();
  std::vector<uint32_t> ids(rows);
  std::map<std::string, uint32_t> seen;
  rep_rows->clear();
  for (size_t i = 0; i < rows; i++) {
    auto [it, inserted] =
        seen.try_emplace(KeyAt(keys, i), static_cast<uint32_t>(seen.size()));
    if (inserted) rep_rows->push_back(static_cast<uint32_t>(i));
    ids[i] = it->second;
  }
  *n_groups = seen.size();
  Charge(ids);
  return ids;
}

MatColumn ColumnEngine::AggGrouped(MatAgg fn, const MatColumn& col,
                                   const std::vector<uint32_t>& groups,
                                   size_t n_groups) {
  std::vector<int64_t> isums(n_groups, 0);
  std::vector<double> sums(n_groups, 0.0);
  std::vector<int64_t> counts(n_groups, 0);
  MatColumn extremes(n_groups, Value::Null());
  for (size_t i = 0; i < col.size(); i++) {
    const uint32_t g = groups[i];
    switch (fn) {
      case MatAgg::kSumI64:
        isums[g] += col[i].AsInt();
        break;
      case MatAgg::kSum:
      case MatAgg::kAvg:
        sums[g] += col[i].AsDouble();
        break;
      case MatAgg::kMin:
      case MatAgg::kMax:
        if (counts[g] == 0) {
          extremes[g] = col[i];
        } else {
          const int c = Compare(col[i], extremes[g]);
          if (fn == MatAgg::kMin ? c < 0 : c > 0) extremes[g] = col[i];
        }
        break;
      case MatAgg::kCount:
        break;
    }
    counts[g]++;
  }
  MatColumn out;
  out.reserve(n_groups);
  for (size_t g = 0; g < n_groups; g++) {
    switch (fn) {
      case MatAgg::kSumI64:
        out.push_back(Value::Int(isums[g]));
        break;
      case MatAgg::kSum:
        out.push_back(Value::Double(sums[g]));
        break;
      case MatAgg::kAvg:
        out.push_back(Value::Double(
            counts[g] == 0 ? 0.0
                           : sums[g] / static_cast<double>(counts[g])));
        break;
      case MatAgg::kMin:
      case MatAgg::kMax:
        out.push_back(counts[g] == 0 ? Value::Int(0) : extremes[g]);
        break;
      case MatAgg::kCount:
        out.push_back(Value::Int(counts[g]));
        break;
    }
  }
  Charge(out);
  return out;
}

MatColumn ColumnEngine::AggGroupedCount(const std::vector<uint32_t>& groups,
                                        size_t n_groups) {
  std::vector<int64_t> counts(n_groups, 0);
  for (uint32_t g : groups) counts[g]++;
  MatColumn out;
  out.reserve(n_groups);
  for (int64_t c : counts) out.push_back(Value::Int(c));
  Charge(out);
  return out;
}

void ColumnEngine::HashJoinPairs(
    const std::vector<const MatColumn*>& probe_keys,
    const std::vector<const MatColumn*>& build_keys,
    std::vector<uint32_t>* probe_idx, std::vector<uint32_t>* build_idx) {
  probe_idx->clear();
  build_idx->clear();
  const size_t build_rows = build_keys.empty() ? 0 : build_keys[0]->size();
  std::map<std::string, std::vector<uint32_t>> table;
  for (size_t i = 0; i < build_rows; i++) {
    table[KeyAt(build_keys, i)].push_back(static_cast<uint32_t>(i));
  }
  const size_t probe_rows = probe_keys.empty() ? 0 : probe_keys[0]->size();
  for (size_t i = 0; i < probe_rows; i++) {
    auto it = table.find(KeyAt(probe_keys, i));
    if (it == table.end()) continue;
    for (uint32_t b : it->second) {
      probe_idx->push_back(static_cast<uint32_t>(i));
      build_idx->push_back(b);
    }
  }
  Charge(*probe_idx);
  Charge(*build_idx);
}

std::vector<uint32_t> ColumnEngine::SemiJoinSel(
    const std::vector<const MatColumn*>& probe_keys,
    const std::vector<const MatColumn*>& build_keys, bool anti) {
  const size_t build_rows = build_keys.empty() ? 0 : build_keys[0]->size();
  std::set<std::string> table;
  for (size_t i = 0; i < build_rows; i++) table.insert(KeyAt(build_keys, i));
  std::vector<uint32_t> out;
  const size_t probe_rows = probe_keys.empty() ? 0 : probe_keys[0]->size();
  for (size_t i = 0; i < probe_rows; i++) {
    const bool hit = table.count(KeyAt(probe_keys, i)) > 0;
    if (hit != anti) out.push_back(static_cast<uint32_t>(i));
  }
  Charge(out);
  return out;
}

std::vector<uint32_t> ColumnEngine::SortPositions(
    const std::vector<const MatColumn*>& keys,
    const std::vector<bool>& ascending) {
  const size_t rows = keys.empty() ? 0 : keys[0]->size();
  std::vector<uint32_t> order(rows);
  for (size_t i = 0; i < rows; i++) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < keys.size(); k++) {
      const int c = Compare((*keys[k])[a], (*keys[k])[b]);
      if (c != 0) return ascending[k] ? c < 0 : c > 0;
    }
    return false;
  });
  Charge(order);
  return order;
}

}  // namespace vwise::baseline
