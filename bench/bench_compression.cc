// Experiment E6 (paper Sec. B, PFOR family [2]): compression exists to keep
// the fast engine I/O-balanced, so what matters is the compression ratio
// and, critically, *decompression bandwidth* (super-scalar decompression is
// the point of PFOR). Reported per real TPC-H lineitem column and per
// synthetic distribution: chosen codec, ratio, decode bandwidth. Columns
// are encoded in stripe-sized segments, as the table writer stores them, and
// decoded the way the scan reads them: through a SegmentCursor, one vector
// at a time, into a cache-resident output vector.

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "compression/codec.h"
#include "tpch/schema.h"

namespace vwise::bench {
namespace {

constexpr size_t kSegmentRows = 16384;  // Config::stripe_rows default
constexpr size_t kVectorSize = 1024;    // Config::vector_size default

void Report(const char* name, TypeId type, const void* data, size_t n) {
  const size_t w = TypeWidth(type);
  const size_t raw = n * w;
  std::vector<CompressedSegment> segs;
  size_t stored = 0;
  bool mixed = false;
  for (size_t at = 0; at < n; at += kSegmentRows) {
    size_t m = std::min(kSegmentRows, n - at);
    Vector values(type, m);
    std::memcpy(values.raw(), static_cast<const uint8_t*>(data) + at * w, m * w);
    auto seg = compression::EncodeBest(values, m);
    VWISE_CHECK(seg.ok());
    stored += seg->byte_size();
    mixed |= !segs.empty() && seg->codec != segs.front().codec;
    segs.push_back(std::move(*seg));
  }
  // Decode repeatedly for a stable bandwidth number.
  Vector out(type, kVectorSize);
  compression::SegmentCursor cursor;
  int reps = 20;
  double secs = TimeSec([&] {
    for (int i = 0; i < reps; i++) {
      for (const CompressedSegment& seg : segs) {
        VWISE_CHECK(cursor
                        .Open(seg.codec, seg.type, seg.count, seg.data.data(),
                              seg.data.size())
                        .ok());
        for (size_t at = 0; at < seg.count; at += kVectorSize) {
          size_t m = std::min<size_t>(kVectorSize, seg.count - at);
          VWISE_CHECK(cursor.Decode(m, out.raw()).ok());
        }
      }
    }
  });
  double ratio = static_cast<double>(raw) / static_cast<double>(stored);
  double gbps = raw * reps / secs / 1e9;
  double ns_per_value = secs * 1e9 / (static_cast<double>(n) * reps);
  std::printf("%-22s %-10s %1s %9.2fx %8.2f GB/s %7.2f ns/value  (%zu values, "
              "%zu -> %zu bytes)\n",
              name, CodecToString(segs.front().codec), mixed ? "+" : "",
              ratio, gbps, ns_per_value, n, raw, stored);
}

}  // namespace
}  // namespace vwise::bench

int main() {
  using namespace vwise;
  using namespace vwise::bench;
  using namespace vwise::tpch::col;

  std::printf("# TPC-H lineitem columns (SF 0.02)\n");
  std::printf("# codec: of the first segment; '+' when segments differ\n");
  std::printf("%-22s %-12s %10s %13s %16s\n", "column", "codec", "ratio",
              "decode bw", "decode time");
  struct ColData {
    std::vector<int64_t> orderkey, qty, ext, disc;
    std::vector<int32_t> shipdate;
    std::vector<std::string> mode_store, flag_store;
  } d;
  tpch::Generator gen(0.02);
  Status st = gen.OrdersAndLineitem(
      [](const std::vector<Value>&) { return Status::OK(); },
      [&](const std::vector<Value>& row) {
        d.orderkey.push_back(row[l::kOrderkey].AsInt());
        d.qty.push_back(row[l::kQuantity].AsInt());
        d.ext.push_back(row[l::kExtendedprice].AsInt());
        d.disc.push_back(row[l::kDiscount].AsInt());
        d.shipdate.push_back(static_cast<int32_t>(row[l::kShipdate].AsInt()));
        d.mode_store.push_back(row[l::kShipmode].AsString());
        d.flag_store.push_back(row[l::kReturnflag].AsString());
        return Status::OK();
      });
  VWISE_CHECK(st.ok());
  size_t n = d.orderkey.size();
  Report("l_orderkey (sorted)", TypeId::kI64, d.orderkey.data(), n);
  Report("l_quantity", TypeId::kI64, d.qty.data(), n);
  Report("l_extendedprice", TypeId::kI64, d.ext.data(), n);
  Report("l_discount", TypeId::kI64, d.disc.data(), n);
  Report("l_shipdate", TypeId::kI32, d.shipdate.data(), n);
  std::vector<StringVal> modes, flags;
  for (const auto& s : d.mode_store) modes.emplace_back(s);
  for (const auto& s : d.flag_store) flags.emplace_back(s);
  Report("l_shipmode (7 values)", TypeId::kStr, modes.data(), n);
  Report("l_returnflag (3 vals)", TypeId::kStr, flags.data(), n);

  std::printf("\n# synthetic distributions (65536 x int64)\n");
  const size_t sn = 65536;
  Rng rng(42);
  std::vector<int64_t> v(sn);
  for (auto& x : v) x = rng.Uniform(0, 15);
  Report("uniform 4-bit", TypeId::kI64, v.data(), sn);
  for (auto& x : v) x = rng.Uniform(0, 100) + (rng.NextDouble() < 0.01 ? 1 << 30 : 0);
  Report("small + 1% outliers", TypeId::kI64, v.data(), sn);
  int64_t acc = 1'000'000'000;
  for (auto& x : v) x = (acc += rng.Uniform(1, 9));
  Report("sorted wide", TypeId::kI64, v.data(), sn);
  for (auto& x : v) x = static_cast<int64_t>(rng.Next());
  Report("random 64-bit", TypeId::kI64, v.data(), sn);
  return 0;
}
