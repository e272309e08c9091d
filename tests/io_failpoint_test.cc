#include <cstring>
#include <filesystem>
#include <vector>

#include "catalog/schema.h"
#include "common/failpoint.h"
#include "gtest/gtest.h"
#include "storage/buffer_manager.h"
#include "storage/io_file.h"
#include "storage/table_file.h"
#include "stripe_decode.h"

namespace vwise {
namespace {

// Unit tests for the failpoint registry and the hardened IoFile transfer
// loops: spec parsing, nth/count firing, short/torn/corrupt semantics, and
// the buffer manager's retry + checksum-verify behavior under injection.

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    dir_ = ::testing::TempDir() + "/vwise_failpoint_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    device_ = std::make_unique<IoDevice>(config_);
  }
  void TearDown() override {
    failpoint::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  Config config_;
  std::string dir_;
  std::unique_ptr<IoDevice> device_;
};

TEST_F(FailpointTest, ParseRejectsBadSpecsWithoutArming) {
  EXPECT_FALSE(failpoint::Arm("nonsense").ok());
  EXPECT_FALSE(failpoint::Arm("=err").ok());
  EXPECT_FALSE(failpoint::Arm("x.y=").ok());
  EXPECT_FALSE(failpoint::Arm("x.y=wat").ok());
  EXPECT_FALSE(failpoint::Arm("x.y=err:EBADNESS").ok());
  EXPECT_FALSE(failpoint::Arm("x.y=torn").ok());       // needs byte count
  EXPECT_FALSE(failpoint::Arm("x.y=short:0").ok());    // would never finish
  EXPECT_FALSE(failpoint::Arm("x.y=err,nth:0").ok());  // nth is 1-based
  EXPECT_FALSE(failpoint::Arm("x.y=err,bogus:3").ok());
  // A bad clause anywhere arms nothing, even if earlier clauses were valid.
  EXPECT_FALSE(failpoint::Arm("a.b=err;x.y=wat").ok());
  EXPECT_FALSE(failpoint::Armed());
  EXPECT_TRUE(failpoint::ArmedSites().empty());
}

TEST_F(FailpointTest, ArmDisarmBookkeeping) {
  EXPECT_FALSE(failpoint::Armed());
  ASSERT_TRUE(failpoint::Arm("a.read=err;b.read=err:CORRUPTION").ok());
  EXPECT_TRUE(failpoint::Armed());
  EXPECT_EQ(failpoint::ArmedSites().size(), 2u);
  failpoint::Disarm("a.read");
  EXPECT_TRUE(failpoint::Armed());
  failpoint::DisarmAll();
  EXPECT_FALSE(failpoint::Armed());
}

TEST_F(FailpointTest, ErrFiresAtNthForCountEvaluations) {
  auto file = IoFile::Create(Path("f"), device_.get());
  ASSERT_TRUE(file.ok());
  char data[32] = "hello";
  ASSERT_TRUE((*file)->Append(data, sizeof(data)).ok());
  ASSERT_TRUE(failpoint::Arm("io.read=err:EIO,nth:2,count:1").ok());

  char out[32];
  EXPECT_TRUE((*file)->Read(0, sizeof(out), out).ok());   // hit 1: dormant
  Status s = (*file)->Read(0, sizeof(out), out);          // hit 2: fires
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_TRUE((*file)->Read(0, sizeof(out), out).ok());   // count exhausted
  EXPECT_EQ(failpoint::Hits("io.read"), 3u);
}

TEST_F(FailpointTest, ErrCodesMapToStatusCodes) {
  ASSERT_TRUE(failpoint::Arm("p.q=err:CORRUPTION").ok());
  EXPECT_TRUE(failpoint::Check("p.q").IsCorruption());
  ASSERT_TRUE(failpoint::Arm("p.q=err:RESOURCE_EXHAUSTED").ok());
  EXPECT_EQ(failpoint::Check("p.q").code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(failpoint::Arm("p.q=err:INTERNAL").ok());
  EXPECT_EQ(failpoint::Check("p.q").code(), StatusCode::kInternal);
}

// Satellite: the EINTR/partial-transfer loops must deliver the full count
// even when every syscall is capped to a few bytes.
TEST_F(FailpointTest, ShortTransfersStillCompleteReadsAndWrites) {
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); i++) data[i] = static_cast<uint8_t>(i);

  auto file = IoFile::Create(Path("f"), device_.get());
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(failpoint::Arm("io.append=short:3").ok());
  ASSERT_TRUE((*file)->Append(data.data(), data.size()).ok());
  EXPECT_EQ((*file)->size(), data.size());

  ASSERT_TRUE(failpoint::Arm("io.read=short:7").ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE((*file)->Read(0, out.size(), out.data()).ok());
  EXPECT_EQ(out, data);
  // Many capped syscalls, but each operation evaluated its site once.
  EXPECT_EQ(failpoint::Hits("io.append"), 1u);
  EXPECT_EQ(failpoint::Hits("io.read"), 1u);
}

TEST_F(FailpointTest, TornAppendWritesPrefixWithoutAdvancingLogicalSize) {
  auto file = IoFile::Create(Path("f"), device_.get());
  ASSERT_TRUE(file.ok());
  char first[10] = "aaaaaaaaa";
  ASSERT_TRUE((*file)->Append(first, sizeof(first)).ok());

  ASSERT_TRUE(failpoint::Arm("io.append=torn:4,count:1").ok());
  char second[20] = "bbbbbbbbbbbbbbbbbbb";
  Status s = (*file)->Append(second, sizeof(second));
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ((*file)->size(), sizeof(first));  // logical size unchanged
  EXPECT_EQ(std::filesystem::file_size(Path("f")),
            sizeof(first) + 4u);  // physical prefix landed

  // The next append starts at the logical size, overwriting the remnant.
  ASSERT_TRUE((*file)->Append(second, sizeof(second)).ok());
  std::vector<char> out(sizeof(first) + sizeof(second));
  ASSERT_TRUE((*file)->Read(0, out.size(), out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), first, sizeof(first)), 0);
  EXPECT_EQ(std::memcmp(out.data() + sizeof(first), second, sizeof(second)), 0);
}

TEST_F(FailpointTest, CorruptFlipsOneBitOfTheReadBuffer) {
  std::vector<uint8_t> data(64, 0x11);
  auto file = IoFile::Create(Path("f"), device_.get());
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(data.data(), data.size()).ok());

  ASSERT_TRUE(failpoint::Arm("io.read=corrupt:5,count:1").ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE((*file)->Read(0, out.size(), out.data()).ok());
  EXPECT_EQ(out[5], 0x11 ^ 0x40);
  out[5] = 0x11;
  EXPECT_EQ(out, data);  // exactly one byte was damaged

  ASSERT_TRUE((*file)->Read(0, out.size(), out.data()).ok());
  EXPECT_EQ(out, data);  // count exhausted: clean again
}

TEST_F(FailpointTest, SequencingSitesRejectTransferModes) {
  ASSERT_TRUE(failpoint::Arm("ckpt.publish=torn:4").ok());
  EXPECT_EQ(failpoint::Check("ckpt.publish").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FailpointTest, CrashThrowsSimulatedCrash) {
  ASSERT_TRUE(failpoint::Arm("ckpt.publish=crash").ok());
  bool threw = false;
  try {
    (void)failpoint::Check("ckpt.publish");
  } catch (const SimulatedCrash& c) {
    threw = true;
    EXPECT_EQ(c.site(), "ckpt.publish");
  }
  EXPECT_TRUE(threw);
}

// --- Buffer-manager hardening ----------------------------------------------

class BufferRetryTest : public FailpointTest {
 protected:
  void SetUp() override {
    FailpointTest::SetUp();
    schema_ = std::make_unique<TableSchema>(
        "t", std::vector<ColumnDef>{ColumnDef("v", DataType::Int64())});
    TableWriter writer(*schema_, ColumnGroups::Dsm(1), config_, Path("t.v0"),
                       device_.get());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(writer.AppendRow({Value::Int(i)}).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    buffers_ = std::make_unique<BufferManager>(1 << 20);
    auto tf = TableFile::Open(Path("t.v0"), *schema_, device_.get(),
                              buffers_.get());
    ASSERT_TRUE(tf.ok());
    table_ = std::move(*tf);
  }

  std::unique_ptr<TableSchema> schema_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<TableFile> table_;
};

TEST_F(BufferRetryTest, TransientCorruptionHealsViaRetry) {
  ASSERT_TRUE(failpoint::Arm("table.read=corrupt,count:1").ok());
  Vector col;
  ASSERT_TRUE(test::DecodeStripeColumn(table_.get(), 0, 0, &col).ok());
  EXPECT_EQ(col.capacity(), 100u);
  for (int i = 0; i < 100; i++) EXPECT_EQ(col.Data<int64_t>()[i], i);
  EXPECT_GE(buffers_->stats().read_retries, 1u);
}

TEST_F(BufferRetryTest, TransientIoErrorHealsViaRetry) {
  ASSERT_TRUE(failpoint::Arm("table.read=err:EIO,count:2").ok());
  Vector col;
  ASSERT_TRUE(test::DecodeStripeColumn(table_.get(), 0, 0, &col).ok());
  EXPECT_EQ(col.capacity(), 100u);
  EXPECT_GE(buffers_->stats().read_retries, 2u);
}

TEST_F(BufferRetryTest, PersistentCorruptionSurfacesAsCorruption) {
  ASSERT_TRUE(failpoint::Arm("table.read=corrupt").ok());
  Vector col;
  Status s = test::DecodeStripeColumn(table_.get(), 0, 0, &col);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The bad blob never entered the cache; a clean retry succeeds.
  failpoint::DisarmAll();
  ASSERT_TRUE(test::DecodeStripeColumn(table_.get(), 0, 0, &col).ok());
  EXPECT_EQ(col.capacity(), 100u);
}

TEST_F(BufferRetryTest, LoadFailpointBypassesRetryDeterministically) {
  // bufmgr.load is evaluated once per miss, outside the retry loop, so
  // count:1 fails exactly one load — the retry policy cannot heal it.
  ASSERT_TRUE(failpoint::Arm("bufmgr.load=err:EIO,count:1").ok());
  Vector col;
  Status s = test::DecodeStripeColumn(table_.get(), 0, 0, &col);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(buffers_->stats().read_retries, 0u);
  ASSERT_TRUE(test::DecodeStripeColumn(table_.get(), 0, 0, &col).ok());  // next load clean
  EXPECT_EQ(col.capacity(), 100u);
}

}  // namespace
}  // namespace vwise
