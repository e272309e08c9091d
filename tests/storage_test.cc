#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/buffer_manager.h"
#include "storage/table_file.h"
#include "stripe_decode.h"

namespace vwise {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vwise_storage_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    device_ = std::make_unique<IoDevice>(config_);
    buffers_ = std::make_unique<BufferManager>(config_.buffer_pool_bytes);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  TableSchema MakeSchema() {
    return TableSchema("t", {ColumnDef("id", DataType::Int64()),
                             ColumnDef("price", DataType::Double()),
                             ColumnDef("day", DataType::Date()),
                             ColumnDef("tag", DataType::Varchar())});
  }

  // Writes n rows: id=i, price=i*0.25, day=1000+i/10, tag=cyclic.
  std::string WriteTable(const TableSchema& schema, const ColumnGroups& groups,
                         size_t n) {
    std::string path = dir_ + "/t.v1";
    TableWriter writer(schema, groups, config_, path, device_.get());
    static const char* kTags[] = {"red", "green", "blue"};
    for (size_t i = 0; i < n; i++) {
      EXPECT_TRUE(writer
                      .AppendRow({Value::Int(static_cast<int64_t>(i)),
                                  Value::Double(i * 0.25),
                                  Value::Int(1000 + static_cast<int64_t>(i) / 10),
                                  Value::String(kTags[i % 3])})
                      .ok());
    }
    EXPECT_TRUE(writer.Finish().ok());
    EXPECT_EQ(writer.rows_written(), n);
    return path;
  }

  Config config_;
  std::string dir_;
  std::unique_ptr<IoDevice> device_;
  std::unique_ptr<BufferManager> buffers_;
};

TEST_F(StorageTest, RoundTripDsm) {
  config_.stripe_rows = 100;
  auto schema = MakeSchema();
  auto path = WriteTable(schema, ColumnGroups::Dsm(4), 450);
  auto tf = TableFile::Open(path, schema, device_.get(), buffers_.get());
  ASSERT_TRUE(tf.ok()) << tf.status().ToString();
  EXPECT_EQ((*tf)->row_count(), 450u);
  EXPECT_EQ((*tf)->stripe_count(), 5u);  // 4 full + 1 tail of 50
  EXPECT_EQ((*tf)->stripe(4).rows, 50u);

  Vector id, price, tag;
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 2, 0, &id).ok());
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 2, 1, &price).ok());
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 2, 3, &tag).ok());
  EXPECT_EQ(id.capacity(), 100u);
  EXPECT_EQ(id.Data<int64_t>()[0], 200);
  EXPECT_EQ(id.Data<int64_t>()[99], 299);
  EXPECT_DOUBLE_EQ(price.Data<double>()[50], 250 * 0.25);
  EXPECT_EQ(tag.Data<StringVal>()[1].ToString(), "red");  // row 201, 201%3==0
}

TEST_F(StorageTest, RoundTripPax) {
  config_.stripe_rows = 64;
  auto schema = MakeSchema();
  auto path = WriteTable(schema, ColumnGroups::Pax(4), 200);
  auto tf = TableFile::Open(path, schema, device_.get(), buffers_.get());
  ASSERT_TRUE(tf.ok()) << tf.status().ToString();
  // PAX: one blob per stripe -> fetching two columns of the same stripe
  // costs one I/O.
  device_->stats().Reset();
  buffers_->ResetStats();
  Vector a, b;
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 0, 0, &a).ok());
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 0, 2, &b).ok());
  EXPECT_EQ(device_->stats().reads.load(), 1u);
  EXPECT_EQ(a.Data<int64_t>()[5], 5);
  EXPECT_EQ(b.Data<int32_t>()[5], 1000);
}

TEST_F(StorageTest, DsmSeparatesColumnIo) {
  config_.stripe_rows = 64;
  auto schema = MakeSchema();
  auto path = WriteTable(schema, ColumnGroups::Dsm(4), 200);
  auto tf = TableFile::Open(path, schema, device_.get(), buffers_.get());
  ASSERT_TRUE(tf.ok());
  device_->stats().Reset();
  Vector a, b;
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 0, 0, &a).ok());
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 0, 2, &b).ok());
  EXPECT_EQ(device_->stats().reads.load(), 2u);  // one blob per column
}

TEST_F(StorageTest, MinMaxSkipping) {
  config_.stripe_rows = 100;
  auto schema = MakeSchema();
  auto path = WriteTable(schema, ColumnGroups::Dsm(4), 500);
  auto tf = TableFile::Open(path, schema, device_.get(), buffers_.get());
  ASSERT_TRUE(tf.ok());
  // id column stripe 2 covers [200, 299].
  EXPECT_TRUE((*tf)->StripeOverlapsRange(2, 0, 250, 260));
  EXPECT_TRUE((*tf)->StripeOverlapsRange(2, 0, 299, 400));
  EXPECT_FALSE((*tf)->StripeOverlapsRange(2, 0, 300, 400));
  EXPECT_FALSE((*tf)->StripeOverlapsRange(2, 0, 0, 199));
  // Unknown (double/string) columns never skip.
  EXPECT_TRUE((*tf)->StripeOverlapsRange(2, 1, -1, -1));
}

TEST_F(StorageTest, CompressionShrinksFile) {
  config_.stripe_rows = 4096;
  auto schema = TableSchema("c", {ColumnDef("k", DataType::Int64()),
                                  ColumnDef("flag", DataType::Varchar())});
  Config no_comp = config_;
  no_comp.enable_compression = false;

  auto write = [&](const Config& cfg, const std::string& path) {
    TableWriter w(schema, ColumnGroups::Dsm(2), cfg, path, device_.get());
    for (int64_t i = 0; i < 20000; i++) {
      EXPECT_TRUE(
          w.AppendRow({Value::Int(i), Value::String(i % 2 ? "A" : "B")}).ok());
    }
    EXPECT_TRUE(w.Finish().ok());
    return std::filesystem::file_size(path);
  };
  auto compressed = write(config_, dir_ + "/comp.v1");
  auto plain = write(no_comp, dir_ + "/plain.v1");
  EXPECT_LT(compressed * 4, plain);  // sorted keys + 2-value dict: >4x
}

TEST_F(StorageTest, CorruptFooterDetected) {
  auto schema = MakeSchema();
  auto path = WriteTable(schema, ColumnGroups::Dsm(4), 100);
  // Flip a byte inside the footer region (just before the 16-byte tail).
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -40, SEEK_END);
    int c = std::fgetc(f);
    std::fseek(f, -40, SEEK_END);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
  }
  auto tf = TableFile::Open(path, schema, device_.get(), buffers_.get());
  EXPECT_FALSE(tf.ok());
  EXPECT_TRUE(tf.status().IsCorruption());
}

TEST_F(StorageTest, SchemaMismatchRejected) {
  auto schema = MakeSchema();
  auto path = WriteTable(schema, ColumnGroups::Dsm(4), 10);
  TableSchema other("t", {ColumnDef("id", DataType::Double()),
                          ColumnDef("price", DataType::Double()),
                          ColumnDef("day", DataType::Date()),
                          ColumnDef("tag", DataType::Varchar())});
  auto tf = TableFile::Open(path, other, device_.get(), buffers_.get());
  EXPECT_FALSE(tf.ok());
}

TEST_F(StorageTest, EmptyTable) {
  auto schema = MakeSchema();
  std::string path = dir_ + "/empty.v1";
  TableWriter writer(schema, ColumnGroups::Dsm(4), config_, path, device_.get());
  ASSERT_TRUE(writer.Finish().ok());
  auto tf = TableFile::Open(path, schema, device_.get(), buffers_.get());
  ASSERT_TRUE(tf.ok()) << tf.status().ToString();
  EXPECT_EQ((*tf)->row_count(), 0u);
  EXPECT_EQ((*tf)->stripe_count(), 0u);
}

TEST_F(StorageTest, BufferManagerCachesBlobs) {
  config_.stripe_rows = 50;
  auto schema = MakeSchema();
  auto path = WriteTable(schema, ColumnGroups::Dsm(4), 200);
  auto tf = TableFile::Open(path, schema, device_.get(), buffers_.get());
  ASSERT_TRUE(tf.ok());
  buffers_->ResetStats();
  Vector col;
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 1, 0, &col).ok());
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 1, 0, &col).ok());
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 1, 0, &col).ok());
  auto stats = buffers_->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST_F(StorageTest, BufferManagerEvictsLru) {
  BufferManager small(1000);  // fits ~2 blobs of 400B
  config_.stripe_rows = 50;
  auto schema = TableSchema("s", {ColumnDef("x", DataType::Double())});
  std::string path = dir_ + "/s.v1";
  Config cfg = config_;
  cfg.enable_compression = false;  // 400B per stripe blob
  TableWriter w(schema, ColumnGroups::Dsm(1), cfg, path, device_.get());
  Rng rng(9);
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(w.AppendRow({Value::Double(rng.NextDouble())}).ok());
  }
  ASSERT_TRUE(w.Finish().ok());
  auto tf = TableFile::Open(path, schema, device_.get(), &small);
  ASSERT_TRUE(tf.ok());
  Vector col;
  for (size_t s = 0; s < 10; s++) {
    ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), s, 0, &col).ok());
  }
  EXPECT_LE(small.bytes_cached(), 1000u);
  EXPECT_GT(small.stats().evictions, 0u);
  // Recently used stripes hit; old ones were evicted.
  small.ResetStats();
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 9, 0, &col).ok());
  EXPECT_EQ(small.stats().hits, 1u);
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 0, 0, &col).ok());
  EXPECT_EQ(small.stats().misses, 1u);
}

TEST_F(StorageTest, NoCompressionConfigRoundTrips) {
  config_.enable_compression = false;
  config_.stripe_rows = 77;
  auto schema = MakeSchema();
  auto path = WriteTable(schema, ColumnGroups::Dsm(4), 300);
  auto tf = TableFile::Open(path, schema, device_.get(), buffers_.get());
  ASSERT_TRUE(tf.ok());
  Vector id;
  ASSERT_TRUE(test::DecodeStripeColumn(tf->get(), 3, 0, &id).ok());
  EXPECT_EQ(id.Data<int64_t>()[0], 3 * 77);
}

}  // namespace
}  // namespace vwise
