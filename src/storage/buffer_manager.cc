#include "storage/buffer_manager.h"

#include <chrono>
#include <thread>

#include "common/crc32.h"
#include "common/failpoint.h"

namespace vwise {

namespace {
constexpr int kMaxReadAttempts = 3;
constexpr uint64_t kRetryBackoffUs = 100;
}  // namespace

Result<std::shared_ptr<Buffer>> BufferManager::Fetch(
    IoFile* file, uint64_t offset, uint64_t size,
    const uint32_t* expected_crc) {
  Key key{file->id(), offset};
  {
    MutexLock lock(&mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      stats_.hits++;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.buffer;
    }
    stats_.misses++;
  }
  if (failpoint::Armed()) {
    VWISE_RETURN_IF_ERROR(failpoint::Check("bufmgr.load"));
  }
  // Read outside the lock so a slow (simulated) device doesn't serialize
  // cache hits. A racing fetch of the same blob may duplicate the read;
  // the second insert wins harmlessly.
  //
  // Transient faults — an EIO that clears, a bit flip the next read doesn't
  // repeat — are retried with a short backoff. A persistent fault surfaces
  // to the caller as the query's error; nothing corrupt ever enters the
  // cache.
  auto buffer = Buffer::Allocate(size);
  Status read_status;
  for (int attempt = 1; attempt <= kMaxReadAttempts; attempt++) {
    if (attempt > 1) {
      {
        MutexLock lock(&mu_);
        stats_.read_retries++;
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(kRetryBackoffUs * (attempt - 1)));
    }
    read_status = file->Read(offset, size, buffer->data());
    if (!read_status.ok()) continue;
    if (expected_crc != nullptr &&
        Crc32(buffer->data(), size) != *expected_crc) {
      read_status = Status::Corruption(
          "chunk checksum mismatch reading " + file->path() + " at offset " +
          std::to_string(offset));
      continue;
    }
    break;
  }
  VWISE_RETURN_IF_ERROR(read_status);
  {
    MutexLock lock(&mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      lru_.push_front(key);
      entries_[key] = Entry{buffer, lru_.begin()};
      bytes_cached_ += size;
      EvictLocked();
    }
  }
  return buffer;
}

bool BufferManager::Cached(uint64_t file_id, uint64_t offset) const {
  MutexLock lock(&mu_);
  return entries_.count(Key{file_id, offset}) > 0;
}

void BufferManager::EvictLocked() {
  while (bytes_cached_ > capacity_bytes_ && !lru_.empty()) {
    // Find the least-recently-used unpinned entry.
    bool evicted = false;
    for (auto it = std::prev(lru_.end());; --it) {
      auto eit = entries_.find(*it);
      VWISE_CHECK(eit != entries_.end());
      if (eit->second.buffer.use_count() == 1) {  // only the cache holds it
        bytes_cached_ -= eit->second.buffer->capacity();
        stats_.evictions++;
        entries_.erase(eit);
        lru_.erase(it);
        evicted = true;
        break;
      }
      if (it == lru_.begin()) break;
    }
    if (!evicted) break;  // everything pinned: tolerate temporary overflow
  }
}

void BufferManager::EvictAll() {
  MutexLock lock(&mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto eit = entries_.find(*it);
    if (eit->second.buffer.use_count() > 1) {
      ++it;
      continue;
    }
    bytes_cached_ -= eit->second.buffer->capacity();
    entries_.erase(eit);
    it = lru_.erase(it);
  }
}

void BufferManager::DropFile(uint64_t file_id) {
  MutexLock lock(&mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->file_id != file_id) {
      ++it;
      continue;
    }
    auto eit = entries_.find(*it);
    bytes_cached_ -= eit->second.buffer->capacity();
    entries_.erase(eit);
    it = lru_.erase(it);
  }
}

}  // namespace vwise
