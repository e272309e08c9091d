#ifndef VWISE_BENCH_BENCH_UTIL_H_
#define VWISE_BENCH_BENCH_UTIL_H_

#include <stdlib.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace vwise::bench {

// Wall-clock seconds of `fn()`.
template <typename F>
double TimeSec(F&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// A scratch database directory, deleted on destruction. The directory name
// gets a mkdtemp-unique suffix so concurrent runs of the same bench (or two
// benches sharing a tag) cannot delete each other's live data; `tag` only
// keeps the path recognizable in temp-dir listings.
class TempDb {
 public:
  explicit TempDb(const std::string& tag, const Config& config = Config()) {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        ("vwise_bench_" + tag + ".XXXXXX"))
                           .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    VWISE_CHECK_MSG(made != nullptr,
                    "mkdtemp failed for the bench scratch directory");
    dir_ = made;
    auto db = Database::Open(dir_.string(), config);
    VWISE_CHECK_MSG(db.ok(), db.status().ToString().c_str());
    db_ = std::move(*db);
  }
  ~TempDb() {
    db_.reset();
    // Tolerate a directory that is already gone (or undeletable): cleanup
    // failure must not abort the bench after its results were reported.
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Database* operator->() { return db_.get(); }
  Database* get() { return db_.get(); }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
  std::unique_ptr<Database> db_;
};

// Loads TPC-H at `sf` into the database, printing progress.
inline void LoadTpch(Database* db, double sf) {
  tpch::Generator gen(sf);
  double secs = TimeSec([&] {
    Status s = gen.LoadAll(db->Internals().tm);
    VWISE_CHECK_MSG(s.ok(), s.ToString().c_str());
  });
  std::printf("# loaded TPC-H SF %.3g in %.2fs (%lld orders)\n", sf, secs,
              static_cast<long long>(gen.num_orders()));
}

}  // namespace vwise::bench

#endif  // VWISE_BENCH_BENCH_UTIL_H_
