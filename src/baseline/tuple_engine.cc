#include "baseline/tuple_engine.h"

#include <algorithm>
#include <cstdio>
#include <string>

namespace vwise::baseline {

namespace {

// Hash-key text of a value: keys must compare as SQL values (Value's ==),
// so doubles print losslessly and -0.0 folds into +0.0.
std::string KeyText(const Value& v) {
  if (v.kind() != Value::Kind::kDouble) return v.ToString();
  double d = v.AsDouble();
  if (d == 0.0) d = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

}  // namespace

namespace rex {

namespace {

class ColE final : public RExpr {
 public:
  explicit ColE(size_t i) : i_(i) {}
  Value Eval(const Row& row) const override { return row[i_]; }

 private:
  size_t i_;
};

class ConstE final : public RExpr {
 public:
  explicit ConstE(Value v) : v_(std::move(v)) {}
  Value Eval(const Row&) const override { return v_; }

 private:
  Value v_;
};

enum class Op { kAdd, kSub, kMul, kDiv, kEq, kNe, kLe, kLt, kGe, kGt, kAnd, kOr };

// Three-way compare used by every comparison op: exact for Int x Int and
// String x String (no double round-trip, so i64 comparisons agree bit-for-bit
// with the vectorized kernels), numeric tower otherwise.
int Cmp3(const Value& a, const Value& b) {
  if (a.kind() == Value::Kind::kString || b.kind() == Value::Kind::kString) {
    return a.AsString().compare(b.AsString());
  }
  if (a.kind() == Value::Kind::kInt && b.kind() == Value::Kind::kInt) {
    int64_t x = a.AsInt(), y = b.AsInt();
    return x < y ? -1 : x > y ? 1 : 0;
  }
  double x = a.AsDouble(), y = b.AsDouble();
  return x < y ? -1 : x > y ? 1 : 0;
}

class BinE final : public RExpr {
 public:
  BinE(Op op, RExprPtr l, RExprPtr r)
      : op_(op), l_(std::move(l)), r_(std::move(r)) {}
  Value Eval(const Row& row) const override {
    Value a = l_->Eval(row);
    Value b = r_->Eval(row);
    switch (op_) {
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv: {
        // Numeric tower: stay integral when both sides are Int.
        if (a.kind() == Value::Kind::kInt && b.kind() == Value::Kind::kInt) {
          int64_t x = a.AsInt(), y = b.AsInt();
          switch (op_) {
            case Op::kAdd:
              return Value::Int(x + y);
            case Op::kSub:
              return Value::Int(x - y);
            case Op::kMul:
              return Value::Int(x * y);
            default:
              return Value::Int(y == 0 ? 0 : x / y);
          }
        }
        double x = a.AsDouble(), y = b.AsDouble();
        switch (op_) {
          case Op::kAdd:
            return Value::Double(x + y);
          case Op::kSub:
            return Value::Double(x - y);
          case Op::kMul:
            return Value::Double(x * y);
          default:
            return Value::Double(x / y);
        }
      }
      case Op::kEq:
        return Value::Int(Cmp3(a, b) == 0);
      case Op::kNe:
        return Value::Int(Cmp3(a, b) != 0);
      case Op::kLe:
        return Value::Int(Cmp3(a, b) <= 0);
      case Op::kLt:
        return Value::Int(Cmp3(a, b) < 0);
      case Op::kGe:
        return Value::Int(Cmp3(a, b) >= 0);
      case Op::kGt:
        return Value::Int(Cmp3(a, b) > 0);
      case Op::kAnd:
        return Value::Int(a.AsInt() != 0 && b.AsInt() != 0);
      case Op::kOr:
        return Value::Int(a.AsInt() != 0 || b.AsInt() != 0);
    }
    return Value::Null();
  }

 private:
  Op op_;
  RExprPtr l_, r_;
};

class NotE final : public RExpr {
 public:
  explicit NotE(RExprPtr x) : x_(std::move(x)) {}
  Value Eval(const Row& row) const override {
    return Value::Int(x_->Eval(row).AsInt() == 0);
  }

 private:
  RExprPtr x_;
};

class CentsE final : public RExpr {
 public:
  explicit CentsE(RExprPtr x) : x_(std::move(x)) {}
  Value Eval(const Row& row) const override {
    return Value::Double(x_->Eval(row).AsInt() / 100.0);
  }

 private:
  RExprPtr x_;
};

}  // namespace

RExprPtr Col(size_t i) { return std::make_unique<ColE>(i); }
RExprPtr Const(Value v) { return std::make_unique<ConstE>(std::move(v)); }
RExprPtr Add(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kAdd, std::move(l), std::move(r));
}
RExprPtr Sub(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kSub, std::move(l), std::move(r));
}
RExprPtr Mul(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kMul, std::move(l), std::move(r));
}
RExprPtr Div(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kDiv, std::move(l), std::move(r));
}
RExprPtr Eq(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kEq, std::move(l), std::move(r));
}
RExprPtr Ne(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kNe, std::move(l), std::move(r));
}
RExprPtr Le(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kLe, std::move(l), std::move(r));
}
RExprPtr Lt(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kLt, std::move(l), std::move(r));
}
RExprPtr Ge(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kGe, std::move(l), std::move(r));
}
RExprPtr Gt(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kGt, std::move(l), std::move(r));
}
RExprPtr And(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kAnd, std::move(l), std::move(r));
}
RExprPtr Or(RExprPtr l, RExprPtr r) {
  return std::make_unique<BinE>(Op::kOr, std::move(l), std::move(r));
}
RExprPtr Not(RExprPtr x) { return std::make_unique<NotE>(std::move(x)); }
RExprPtr CentsToDouble(RExprPtr x) { return std::make_unique<CentsE>(std::move(x)); }

}  // namespace rex

void TupleAgg::Open() {
  child_->Open();
  groups_.clear();
  consumed_ = false;
  Row row;
  while (child_->Next(&row)) {
    std::vector<std::string> key;
    Row key_row;
    for (size_t c : group_cols_) {
      key.push_back(KeyText(row[c]));
      key_row.push_back(row[c]);
    }
    auto [it, inserted] = groups_.try_emplace(std::move(key));
    if (inserted) {
      it->second.first = std::move(key_row);
      it->second.second.sums.assign(aggs_.size(), 0);
      it->second.second.isums.assign(aggs_.size(), 0);
      it->second.second.counts.assign(aggs_.size(), 0);
      it->second.second.extremes.assign(aggs_.size(), Value::Null());
    }
    State& st = it->second.second;
    for (size_t a = 0; a < aggs_.size(); a++) {
      switch (aggs_[a].fn) {
        case Fn::kSum:
        case Fn::kAvg:
          st.sums[a] += row[aggs_[a].col].AsDouble();
          break;
        case Fn::kSumI64:
          st.isums[a] += row[aggs_[a].col].AsInt();
          break;
        case Fn::kMin:
        case Fn::kMax: {
          const Value& v = row[aggs_[a].col];
          if (st.counts[a] == 0) {
            st.extremes[a] = v;
          } else {
            const int c = Compare(v, st.extremes[a]);
            if (aggs_[a].fn == Fn::kMin ? c < 0 : c > 0) st.extremes[a] = v;
          }
          break;
        }
        case Fn::kCount:
        case Fn::kCountStar:
          break;
      }
      st.counts[a]++;
    }
  }
  if (group_cols_.empty() && groups_.empty()) {
    auto& slot = groups_[{}];
    slot.second.sums.assign(aggs_.size(), 0);
    slot.second.isums.assign(aggs_.size(), 0);
    slot.second.counts.assign(aggs_.size(), 0);
    slot.second.extremes.assign(aggs_.size(), Value::Null());
  }
  emit_ = groups_.begin();
  consumed_ = true;
}

bool TupleAgg::Next(Row* row) {
  if (!consumed_ || emit_ == groups_.end()) return false;
  row->clear();
  for (const Value& v : emit_->second.first) row->push_back(v);
  const State& st = emit_->second.second;
  for (size_t a = 0; a < aggs_.size(); a++) {
    switch (aggs_[a].fn) {
      case Fn::kSum:
        row->push_back(Value::Double(st.sums[a]));
        break;
      case Fn::kSumI64:
        row->push_back(Value::Int(st.isums[a]));
        break;
      case Fn::kCount:
      case Fn::kCountStar:
        row->push_back(Value::Int(st.counts[a]));
        break;
      case Fn::kAvg:
        row->push_back(Value::Double(
            st.counts[a] == 0 ? 0.0 : st.sums[a] / static_cast<double>(st.counts[a])));
        break;
      case Fn::kMin:
      case Fn::kMax:
        // Empty global group mirrors the vectorized engine's zero row.
        row->push_back(st.counts[a] == 0 ? Value::Int(0) : st.extremes[a]);
        break;
    }
  }
  ++emit_;
  return true;
}

void TupleSort::Open() {
  rows_.clear();
  pos_ = 0;
  child_->Open();
  Row row;
  while (child_->Next(&row)) rows_.push_back(row);
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (const Key& k : keys_) {
                       const int c = Compare(a[k.col], b[k.col]);
                       if (c != 0) return k.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  if (offset_ < rows_.size()) {
    rows_.erase(rows_.begin(),
                rows_.begin() + static_cast<ptrdiff_t>(offset_));
  } else {
    rows_.clear();
  }
  if (limit_ != SIZE_MAX && rows_.size() > limit_) rows_.resize(limit_);
}

bool TupleSort::Next(Row* row) {
  if (pos_ >= rows_.size()) return false;
  *row = rows_[pos_++];
  return true;
}

std::string TupleHashJoin::KeyOf(const Row& row,
                                 const std::vector<size_t>& cols) const {
  std::string key;
  for (size_t c : cols) {
    key += KeyText(row[c]);
    key += '\x1f';  // unit separator: keeps multi-part keys unambiguous
  }
  return key;
}

void TupleHashJoin::Open() {
  table_.clear();
  matches_ = nullptr;
  match_pos_ = 0;
  build_->Open();
  Row row;
  while (build_->Next(&row)) {
    table_[KeyOf(row, build_keys_)].push_back(row);
  }
  probe_->Open();
}

bool TupleHashJoin::Next(Row* row) {
  while (true) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      const Row& build_row = (*matches_)[match_pos_++];
      *row = probe_row_;
      for (size_t c : build_payload_) row->push_back(build_row[c]);
      return true;
    }
    matches_ = nullptr;
    if (!probe_->Next(&probe_row_)) return false;
    auto it = table_.find(KeyOf(probe_row_, probe_keys_));
    const bool has_match = it != table_.end() && !it->second.empty();
    switch (type_) {
      case Type::kInner:
        if (has_match) {
          matches_ = &it->second;
          match_pos_ = 0;
        }
        break;
      case Type::kLeftSemi:
        if (has_match) {
          *row = probe_row_;
          return true;
        }
        break;
      case Type::kLeftAnti:
        if (!has_match) {
          *row = probe_row_;
          return true;
        }
        break;
    }
  }
}

std::vector<Row> TupleCollect(TupleOperator* root) {
  std::vector<Row> out;
  root->Open();
  Row row;
  while (root->Next(&row)) out.push_back(row);
  return out;
}

}  // namespace vwise::baseline
