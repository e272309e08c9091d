#include "storage/io_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/macros.h"

namespace vwise {

std::atomic<uint64_t> IoFile::next_id_{1};

void IoDevice::ChargeRead(uint64_t bytes) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  if (bandwidth_ == 0 && seek_us_ == 0) return;
  // Hold the device mutex while "transferring": concurrent readers queue,
  // which is exactly the contention Cooperative Scans exploit.
  MutexLock lock(&mu_);
  uint64_t us = seek_us_;
  if (bandwidth_ > 0) us += bytes * 1000000 / bandwidth_;
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

void IoDevice::ChargeWrite(uint64_t bytes) {
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
}

IoFile::IoFile(int fd, std::string path, uint64_t size, IoDevice* device,
               const std::string& scope)
    : fd_(fd), path_(std::move(path)), size_(size), device_(device),
      id_(next_id_.fetch_add(1)),
      site_read_(scope + ".read"),
      site_append_(scope + ".append"),
      site_sync_(scope + ".sync"),
      site_truncate_(scope + ".truncate") {}

IoFile::~IoFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<IoFile>> IoFile::Create(const std::string& path,
                                               IoDevice* device,
                                               const std::string& scope) {
  if (failpoint::Armed()) {
    VWISE_RETURN_IF_ERROR(failpoint::Check(scope + ".create"));
  }
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) {
    return Status::IOError("create " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<IoFile>(new IoFile(fd, path, 0, device, scope));
}

Result<std::unique_ptr<IoFile>> IoFile::OpenRead(const std::string& path,
                                                 IoDevice* device,
                                                 const std::string& scope) {
  if (failpoint::Armed()) {
    VWISE_RETURN_IF_ERROR(failpoint::Check(scope + ".open"));
  }
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  return std::unique_ptr<IoFile>(
      new IoFile(fd, path, static_cast<uint64_t>(size), device, scope));
}

Result<std::unique_ptr<IoFile>> IoFile::OpenAppend(const std::string& path,
                                                   IoDevice* device,
                                                   const std::string& scope) {
  if (failpoint::Armed()) {
    VWISE_RETURN_IF_ERROR(failpoint::Check(scope + ".open"));
  }
  int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  return std::unique_ptr<IoFile>(
      new IoFile(fd, path, static_cast<uint64_t>(size), device, scope));
}

Status IoFile::Read(uint64_t offset, uint64_t size, void* out) {
  failpoint::Action act;
  if (failpoint::Armed()) {
    act = failpoint::Evaluate(site_read_);
    if (!act.status.ok()) return act.status;
  }
  if (device_ != nullptr) device_->ChargeRead(size);
  uint8_t* dst = static_cast<uint8_t*>(out);
  uint64_t done = 0;
  while (done < size) {
    // A `short` failpoint caps every syscall's transfer; the loop must still
    // deliver the full count — that is the contract under test.
    uint64_t want = size - done;
    if (act.short_bytes > 0) want = std::min(want, act.short_bytes);
    ssize_t n = ::pread(fd_, dst + done, want,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread " + path_ + ": " + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("pread " + path_ + ": unexpected EOF");
    }
    done += static_cast<uint64_t>(n);
  }
  if (act.corrupt && size > 0) {
    uint64_t at = act.corrupt_at == UINT64_MAX ? size / 2
                                               : std::min(act.corrupt_at,
                                                          size - 1);
    dst[at] ^= 0x40;
  }
  return Status::OK();
}

Status IoFile::Append(const void* data, uint64_t size, uint64_t* offset) {
  if (offset != nullptr) *offset = size_;
  return WriteAt(size_, data, size);
}

Status IoFile::WriteAt(uint64_t offset, const void* data, uint64_t size) {
  failpoint::Action act;
  if (failpoint::Armed()) {
    act = failpoint::Evaluate(site_append_);
    if (!act.status.ok() && !act.torn) return act.status;
  }
  if (device_ != nullptr) device_->ChargeWrite(size);
  // A torn write physically lands a prefix of the data — exactly what a
  // power cut mid-pwrite leaves behind — then fails without moving the
  // logical size, so recovery code sees the partial bytes on reopen.
  uint64_t limit = act.torn ? std::min(act.torn_bytes, size) : size;
  const uint8_t* src = static_cast<const uint8_t*>(data);
  uint64_t done = 0;
  while (done < limit) {
    uint64_t want = limit - done;
    if (act.short_bytes > 0) want = std::min(want, act.short_bytes);
    ssize_t n = ::pwrite(fd_, src + done, want,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite " + path_ + ": " + std::strerror(errno));
    }
    done += static_cast<uint64_t>(n);
  }
  if (act.torn) return act.status;
  size_ = std::max(size_, offset + size);
  return Status::OK();
}

Status IoFile::Sync() {
  if (failpoint::Armed()) {
    VWISE_RETURN_IF_ERROR(failpoint::Check(site_sync_));
  }
  while (::fsync(fd_) != 0) {
    if (errno == EINTR) continue;
    return Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status IoFile::Truncate(uint64_t size) {
  if (failpoint::Armed()) {
    VWISE_RETURN_IF_ERROR(failpoint::Check(site_truncate_));
  }
  while (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    if (errno == EINTR) continue;
    return Status::IOError("ftruncate " + path_ + ": " + std::strerror(errno));
  }
  size_ = size;
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("open dir " + dir + ": " + std::strerror(errno));
  }
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  // Some filesystems reject fsync on directories (EINVAL); treat that as
  // best-effort rather than failing the checkpoint.
  if (rc != 0 && errno != EINVAL) {
    Status s = Status::IOError("fsync dir " + dir + ": " +
                               std::strerror(errno));
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace vwise
