#ifndef VWISE_STORAGE_IO_FILE_H_
#define VWISE_STORAGE_IO_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/config.h"
#include "common/failpoint.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace vwise {

// Counters for the I/O layer; read by benches (E7 reports logical I/O volume,
// which is hardware-independent) and by cooperative-scan tests.
struct IoStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> bytes_written{0};

  void Reset() {
    reads = 0;
    bytes_read = 0;
    writes = 0;
    bytes_written = 0;
  }
};

// Models the disk beneath the buffer manager. Real reads go through pread;
// optionally, a bandwidth/seek model serializes requests and sleeps, so
// bandwidth-sharing behavior (Cooperative Scans, paper [4]) is measurable on
// a machine whose page cache is warm. One IoDevice is shared by all files of
// a database.
class IoDevice {
 public:
  explicit IoDevice(const Config& config)
      : bandwidth_(config.sim_io_bandwidth_bytes_per_sec),
        seek_us_(config.sim_io_seek_us) {}

  // Accounts (and possibly sleeps for) a read of `bytes`.
  void ChargeRead(uint64_t bytes) VWISE_EXCLUDES(mu_);
  void ChargeWrite(uint64_t bytes);

  IoStats& stats() { return stats_; }

 private:
  uint64_t bandwidth_;
  uint64_t seek_us_;
  // A disk serves one request at a time: the bandwidth/seek model holds mu_
  // for the simulated transfer so concurrent readers queue. stats_ members
  // are atomics and are deliberately NOT guarded — counting must not
  // serialize the unsimulated (bandwidth_ == 0) fast path.
  Mutex mu_;
  // vwise-lint: allow(unguarded-member): IoStats fields are atomics
  IoStats stats_;
};

// A file opened for positional reads, positional writes and appends.
//
// Every operation is a failpoint evaluation site named `<scope>.<op>`
// (common/failpoint.h): callers pick the scope at open time so faults can be
// aimed at one subsystem — the WAL opens its file with scope "wal"
// (-> wal.append, wal.sync, ...), table version files use "table", the
// catalog "catalog"; the default scope is "io". Disarmed cost per operation:
// one relaxed atomic load.
//
// Partial transfers and EINTR are handled here, not by callers: Read and
// Append loop until the full count moved (a short pread/pwrite is a retry,
// not success or failure), and Sync/Truncate retry EINTR.
class IoFile {
 public:
  static Result<std::unique_ptr<IoFile>> Create(const std::string& path,
                                                IoDevice* device,
                                                const std::string& scope = "io");
  static Result<std::unique_ptr<IoFile>> OpenRead(const std::string& path,
                                                  IoDevice* device,
                                                  const std::string& scope = "io");
  // Opens read-write, positioned for appends at the current end (WAL reuse).
  static Result<std::unique_ptr<IoFile>> OpenAppend(const std::string& path,
                                                    IoDevice* device,
                                                    const std::string& scope = "io");

  ~IoFile();
  IoFile(const IoFile&) = delete;
  IoFile& operator=(const IoFile&) = delete;

  Status Read(uint64_t offset, uint64_t size, void* out);
  // Appends `size` bytes; returns the offset they were written at. On
  // failure the logical size is unchanged: a later Append overwrites any
  // bytes a torn write left behind.
  Status Append(const void* data, uint64_t size, uint64_t* offset = nullptr);
  // Writes `size` bytes at `offset` (the append site's failpoints apply),
  // growing the logical size when they reach past it. A torn write lands a
  // prefix and leaves the logical size unchanged.
  Status WriteAt(uint64_t offset, const void* data, uint64_t size);
  Status Sync();
  Status Truncate(uint64_t size);
  uint64_t size() const { return size_; }
  uint64_t id() const { return id_; }
  const std::string& path() const { return path_; }

 private:
  IoFile(int fd, std::string path, uint64_t size, IoDevice* device,
         const std::string& scope);

  int fd_;
  std::string path_;
  uint64_t size_;
  IoDevice* device_;
  uint64_t id_;
  // Precomputed failpoint site names, so the armed path does not concatenate
  // strings per operation (the disarmed path never touches them).
  std::string site_read_;
  std::string site_append_;
  std::string site_sync_;
  std::string site_truncate_;
  static std::atomic<uint64_t> next_id_;
};

// fsyncs the directory itself, making preceding renames/creates in it
// durable (POSIX: a rename is not guaranteed on disk until the parent
// directory is synced).
Status SyncDir(const std::string& dir);

}  // namespace vwise

#endif  // VWISE_STORAGE_IO_FILE_H_
