#ifndef VWISE_STORAGE_BUFFER_MANAGER_H_
#define VWISE_STORAGE_BUFFER_MANAGER_H_

#include <list>
#include <memory>
#include <unordered_map>

#include "common/buffer.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/io_file.h"

namespace vwise {

// Caches storage blobs (one blob = one column-group x stripe, the I/O unit)
// in a fixed byte budget with LRU replacement. Pins are shared_ptr<Buffer>:
// an entry whose pin count is >1 is never evicted. The cooperative-scan
// scheduler asks Cached() to prefer stripes already resident.
class BufferManager {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t read_retries = 0;  // miss-path reads retried after an error
  };

  explicit BufferManager(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  // Returns the blob at (file, offset, size), reading it if absent.
  //
  // When `expected_crc` is non-null, a freshly read blob is verified against
  // it before entering the cache; a mismatch is retried (a re-read can heal a
  // transient flip) and reported as Corruption if it persists. Verification
  // happens on the miss path only — cache hits hand back already-verified
  // bytes — so the steady-state scan cost is unchanged. Transient read
  // errors on the miss path are retried a bounded number of times with
  // backoff before the error is surfaced to the query.
  //
  // Failpoint: "bufmgr.load" is evaluated once per miss, *outside* the retry
  // loop, so `bufmgr.load=err:EIO,count:1` fails exactly one chunk load no
  // matter how forgiving the retry policy is.
  Result<std::shared_ptr<Buffer>> Fetch(IoFile* file, uint64_t offset,
                                        uint64_t size,
                                        const uint32_t* expected_crc = nullptr)
      VWISE_EXCLUDES(mu_);

  // True if the blob is resident (used by scan scheduling policies).
  bool Cached(uint64_t file_id, uint64_t offset) const VWISE_EXCLUDES(mu_);

  Stats stats() const VWISE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  size_t bytes_cached() const VWISE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return bytes_cached_;
  }
  void ResetStats() VWISE_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_ = Stats();
  }

  // Drops every unpinned entry (tests, table drops).
  void EvictAll() VWISE_EXCLUDES(mu_);

  // Drops every entry of `file_id`, pinned or not: called when the file's
  // last reader is gone (a table version a checkpoint superseded), so none
  // of its blobs can hit again. A pinned buffer stays valid for its holder
  // through the shared_ptr; only the cache lets go of it.
  void DropFile(uint64_t file_id) VWISE_EXCLUDES(mu_);

  // Expires with the pool. A table file checks it before DropFile: a
  // snapshot or plan may hold the file past its database.
  std::weak_ptr<const void> alive() const { return alive_; }

 private:
  struct Key {
    uint64_t file_id;
    uint64_t offset;
    bool operator==(const Key& o) const {
      return file_id == o.file_id && offset == o.offset;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.file_id * 0x9e3779b97f4a7c15ULL ^ k.offset);
    }
  };
  struct Entry {
    std::shared_ptr<Buffer> buffer;
    std::list<Key>::iterator lru_it;
  };

  // Evicts unpinned LRU entries until under budget.
  void EvictLocked() VWISE_REQUIRES(mu_);

  size_t capacity_bytes_;
  const std::shared_ptr<const void> alive_ = std::make_shared<char>(0);
  mutable Mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> entries_ VWISE_GUARDED_BY(mu_);
  std::list<Key> lru_ VWISE_GUARDED_BY(mu_);  // front = most recent
  size_t bytes_cached_ VWISE_GUARDED_BY(mu_) = 0;
  Stats stats_ VWISE_GUARDED_BY(mu_);
};

}  // namespace vwise

#endif  // VWISE_STORAGE_BUFFER_MANAGER_H_
