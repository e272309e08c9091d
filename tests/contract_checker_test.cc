// Exercises the debug-mode operator-contract checker (src/exec/checked.h)
// with deliberately malformed chunks: every violated X100 chunk invariant
// must surface as a Status::Internal from the producing operator's own
// Operator::Next (or, for invariants already guarded by VWISE_DCHECK in
// debug builds, as a CHECK failure).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/select.h"
#include "expr/expression.h"
#include "gtest/gtest.h"

namespace vwise {
namespace {

// A child operator whose single output chunk is corrupted on demand.
// `corrupt` runs after a well-formed chunk of `n` i64 rows is produced.
class MalformedSource final : public Operator {
 public:
  using Corruptor = std::function<void(DataChunk*)>;

  MalformedSource(std::vector<TypeId> types, size_t n, Corruptor corrupt,
                  const Config& config)
      : Operator(config),
        types_(std::move(types)),
        n_(n),
        corrupt_(std::move(corrupt)) {}

  const std::vector<TypeId>& OutputTypes() const override { return types_; }

 private:
  Status NextImpl(DataChunk* out) override {
    if (done_) {
      out->SetCount(0);
      return Status::OK();
    }
    done_ = true;
    for (size_t c = 0; c < out->num_columns(); c++) {
      if (out->column(c).type() == TypeId::kI64) {
        int64_t* d = out->column(c).Data<int64_t>();
        for (size_t i = 0; i < n_; i++) d[i] = static_cast<int64_t>(i);
      }
    }
    out->SetCount(n_);
    if (corrupt_) corrupt_(out);
    return Status::OK();
  }
  void CloseImpl() override {}
  Status OpenImpl() override { return Status::OK(); }
  std::vector<TypeId> types_;
  size_t n_;
  Corruptor corrupt_;
  bool done_ = false;
};

Status DriveOnce(Operator* op, size_t capacity) {
  VWISE_RETURN_IF_ERROR(op->Open());
  DataChunk chunk;
  chunk.Init(op->OutputTypes(), capacity);
  chunk.Reset();
  Status s = op->Next(&chunk);
  op->Close();
  return s;
}

Config Checking(bool on) {
  Config config;
  config.check_contracts = on;
  return config;
}

// A malformed source built with contract checking on: its own Next() runs
// the validator.
MalformedSource Checked(std::vector<TypeId> types, size_t n,
                        MalformedSource::Corruptor corrupt) {
  return MalformedSource(std::move(types), n, std::move(corrupt),
                         Checking(true));
}

TEST(ContractCheckerTest, WellFormedChunkPasses) {
  auto op = Checked({TypeId::kI64}, 10, nullptr);
  EXPECT_TRUE(DriveOnce(&op, 16).ok());
}

TEST(ContractCheckerTest, UnsortedSelectionCaught) {
  auto op = Checked({TypeId::kI64}, 10, [](DataChunk* out) {
    sel_t* sel = out->MutableSel();
    sel[0] = 5;
    sel[1] = 2;  // not strictly increasing
    sel[2] = 7;
    out->SetSelection(3);
  });
  Status s = DriveOnce(&op, 16);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("strictly increasing"), std::string::npos) << s.message();
}

TEST(ContractCheckerTest, DuplicateSelectionEntryCaught) {
  auto op = Checked({TypeId::kI64}, 10, [](DataChunk* out) {
    sel_t* sel = out->MutableSel();
    sel[0] = 4;
    sel[1] = 4;  // duplicate position
    out->SetSelection(2);
  });
  EXPECT_FALSE(DriveOnce(&op, 16).ok());
}

TEST(ContractCheckerTest, SelectionEntryOutOfRangeCaught) {
  auto op = Checked({TypeId::kI64}, 10, [](DataChunk* out) {
    sel_t* sel = out->MutableSel();
    sel[0] = 9;
    sel[1] = 12;  // >= count (10)
    out->SetSelection(2);
  });
  Status s = DriveOnce(&op, 16);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("out of range"), std::string::npos) << s.message();
}

// count > capacity is guarded twice: VWISE_DCHECK aborts in debug builds at
// the SetCount() call site, and the validator reports it in release builds
// (where DCHECK compiles out) via the column-capacity cross-check.
TEST(ContractCheckerTest, CountBeyondCapacityCaught) {
#ifdef NDEBUG
  // Emit a chunk whose columns are silently swapped for smaller vectors, the
  // release-mode shape of a count/capacity lie.
  auto op = Checked({TypeId::kI64}, 10, [](DataChunk* out) {
    Vector small(TypeId::kI64, 4);
    out->column(0).Reference(small);
  });
  Status s = DriveOnce(&op, 16);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("capacity"), std::string::npos) << s.message();
#else
  DataChunk chunk;
  chunk.Init({TypeId::kI64}, 8);
  EXPECT_DEATH(chunk.SetCount(9), "CHECK failed");
#endif
}

TEST(ContractCheckerTest, TypeMismatchCaught) {
  // Child declares i64 output but hands back an f64 column.
  auto op = Checked({TypeId::kI64}, 10, [](DataChunk* out) {
    Vector wrong(TypeId::kF64, 16);
    out->column(0).Reference(wrong);
  });
  Status s = DriveOnce(&op, 16);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("type"), std::string::npos) << s.message();
}

TEST(ContractCheckerTest, ColumnCountMismatchCaught) {
  // Child declares two output columns; the caller's chunk only has one.
  auto op = Checked({TypeId::kI64, TypeId::kI64}, 10, nullptr);
  ASSERT_TRUE(op.Open().ok());
  DataChunk chunk;
  chunk.Init({TypeId::kI64}, 16);
  Status s = op.Next(&chunk);
  op.Close();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("output columns"), std::string::npos) << s.message();
}

TEST(ContractCheckerTest, StringColumnWithoutHeapRefCaught) {
  auto op = Checked({TypeId::kStr}, 4, [](DataChunk* out) {
    // Strings that point at transient bytes with no registered heap ref.
    static const char bytes[] = "transient";
    StringVal* d = out->column(0).Data<StringVal>();
    for (size_t i = 0; i < 4; i++) d[i] = StringVal(bytes, 9);
  });
  Status s = DriveOnce(&op, 16);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("StringHeap"), std::string::npos) << s.message();
}

TEST(ContractCheckerTest, NullStringPointerCaught) {
  auto op = Checked({TypeId::kStr}, 4, [](DataChunk* out) {
    StringVal* d = out->column(0).Data<StringVal>();
    for (size_t i = 0; i < 4; i++) d[i] = StringVal(nullptr, 3);
  });
  Status s = DriveOnce(&op, 16);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("null pointer"), std::string::npos) << s.message();
}

TEST(ContractCheckerTest, EmptyStringsNeedNoHeap) {
  auto op = Checked({TypeId::kStr}, 4, [](DataChunk* out) {
    StringVal* d = out->column(0).Data<StringVal>();
    for (size_t i = 0; i < 4; i++) d[i] = StringVal();
  });
  EXPECT_TRUE(DriveOnce(&op, 16).ok());
}

TEST(ContractCheckerTest, UnresetChunkCaught) {
  auto op = Checked({TypeId::kI64}, 10, nullptr);
  ASSERT_TRUE(op.Open().ok());
  DataChunk chunk;
  chunk.Init({TypeId::kI64}, 16);
  chunk.SetCount(3);  // stale cardinality from a previous refill
  Status s = op.Next(&chunk);
  op.Close();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("Reset"), std::string::npos) << s.message();
}

TEST(ContractCheckerTest, NextBeforeOpenCaught) {
  auto op = Checked({TypeId::kI64}, 10, nullptr);
  DataChunk chunk;
  chunk.Init({TypeId::kI64}, 16);
  Status s = op.Next(&chunk);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("before Open"), std::string::npos) << s.message();
}

TEST(ContractCheckerTest, NextAfterCloseCaught) {
  auto op = Checked({TypeId::kI64}, 10, nullptr);
  ASSERT_TRUE(op.Open().ok());
  op.Close();
  DataChunk chunk;
  chunk.Init({TypeId::kI64}, 16);
  Status s = op.Next(&chunk);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("after Close"), std::string::npos)
      << s.message();
}

TEST(ContractCheckerTest, CheckContractsFlagControlsValidation) {
  // The same malformed stream: the flag off lets it through, on catches it.
  auto unsorted = [](DataChunk* out) {
    sel_t* sel = out->MutableSel();
    sel[0] = 5;
    sel[1] = 2;
    out->SetSelection(2);
  };
  MalformedSource plain({TypeId::kI64}, 10, unsorted, Checking(false));
  EXPECT_TRUE(DriveOnce(&plain, 16).ok());
  MalformedSource checked({TypeId::kI64}, 10, unsorted, Checking(true));
  EXPECT_FALSE(DriveOnce(&checked, 16).ok());
}

TEST(ContractCheckerTest, ViolationInsidePlanNamesProducer) {
  // A Select over a checked source whose chunk is corrupted fails the query
  // instead of corrupting results, and the error names the producer.
  Config cfg = Checking(true);
  cfg.vector_size = 16;
  auto bad = std::make_unique<MalformedSource>(
      std::vector<TypeId>{TypeId::kI64}, 10,
      [](DataChunk* out) {
        sel_t* sel = out->MutableSel();
        sel[0] = 3;
        sel[1] = 1;
        out->SetSelection(2);
      },
      cfg);
  SelectOperator select(std::move(bad),
                        e::Gt(e::Col(0, DataType::Int64()), e::I64(-1)), cfg);
  Status s = DriveOnce(&select, 16);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("MalformedSource"), std::string::npos)
      << s.message();
}

}  // namespace
}  // namespace vwise
