#include "log/log_storage.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include "common/clock.h"
#include "common/crc32c.h"
#include "io/fault_injector.h"
#include "log/log_stats.h"

namespace shoremt::log {

namespace {
/// O_DIRECT alignment for archive segment files (logical-block bound).
constexpr size_t kArchiveAlign = 4096;

/// Segments smaller than this (tests' toy sizes) stay on the heap: a
/// mapping each would round them up to a page and could exhaust the
/// process's mapping limit.
constexpr size_t kMinMappedSegment = 64 << 10;
}  // namespace

void* LogStorage::MapPages(size_t bytes) {
  if (bytes < kMinMappedSegment) return ::operator new(bytes);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void LogStorage::UnmapPages(void* p, size_t bytes) {
  if (bytes < kMinMappedSegment) {
    ::operator delete(p);
  } else {
    ::munmap(p, bytes);
  }
}

/// Direct-I/O segment write: O_DIRECT file, one aligned bounce buffer
/// padded to the block size, then ftruncate down to the exact byte
/// length (the manifest records it; restore reads by length). Returns
/// false when the path is unusable (open rejected O_DIRECT, allocation
/// failed) so the caller falls back to buffered stdio; `*ok` is the
/// write outcome when the path WAS usable.
bool LogStorage::WriteSegmentDirect(const std::string& path,
                                    const Segment& seg, bool* ok) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_DIRECT,
                  0644);
  if (fd < 0) return false;  // EINVAL on tmpfs etc.: buffered fallback.
  *ok = true;
  if (!seg.bytes.empty()) {
    size_t padded =
        (seg.bytes.size() + kArchiveAlign - 1) / kArchiveAlign * kArchiveAlign;
    uint8_t* buf = static_cast<uint8_t*>(
        std::aligned_alloc(kArchiveAlign, padded));
    if (buf == nullptr) {
      ::close(fd);
      ::unlink(path.c_str());
      return false;
    }
    std::memcpy(buf, seg.bytes.data(), seg.bytes.size());
    std::memset(buf + seg.bytes.size(), 0, padded - seg.bytes.size());
    size_t done = 0;
    while (done < padded) {
      ssize_t put = ::pwrite(fd, buf + done, padded - done,
                             static_cast<off_t>(done));
      if (put <= 0) {
        *ok = false;
        break;
      }
      done += static_cast<size_t>(put);
    }
    std::free(buf);
    // Trim the alignment padding so the file length equals the segment's
    // byte length (what the manifest line promises).
    if (*ok && ::ftruncate(fd, static_cast<off_t>(seg.bytes.size())) != 0) {
      *ok = false;
    }
  }
  if (::close(fd) != 0) *ok = false;
  return true;
}

Status LogStorage::Append(std::span<const uint8_t> data) {
  std::span<const uint8_t> parts[1] = {data};
  return AppendV(parts);
}

Status LogStorage::AppendV(std::span<const std::span<const uint8_t>> parts) {
  if (fail_appends_.load(std::memory_order_acquire)) {
    return Status::IOError("log device failure (injected)");
  }
  // Fault injection: the append may fail outright, or be TORN — only a
  // byte prefix of the batch reaches the device before the error, the
  // signature a power cut leaves in a real log file. The prefix is still
  // stored below (limit bytes) so recovery sees the torn tail.
  size_t limit = SIZE_MAX;
  Status injected = Status::Ok();
  if (io::FaultInjector* fi = injector_.load(std::memory_order_acquire)) {
    size_t full = 0;
    for (std::span<const uint8_t> part : parts) full += part.size();
    size_t torn = 0;
    injected = fi->PreAppend(full, &torn);
    if (!injected.ok()) {
      if (torn == 0) return injected;
      limit = torn;
    }
  }
  flush_calls_.fetch_add(1, std::memory_order_relaxed);
  if (append_latency_ns_ > 0) {
    if (append_latency_ns_ < 50'000) {
      uint64_t until = NowNanos() + append_latency_ns_;
      while (NowNanos() < until) {
      }
    } else {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(append_latency_ns_));
    }
  }
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t total = size_.load(std::memory_order_relaxed);
  size_t copied = 0;
  for (std::span<const uint8_t> part : parts) {
    const uint8_t* src = part.data();
    size_t remaining = part.size();
    if (copied + remaining > limit) remaining = limit - copied;
    while (remaining > 0) {
      if (segments_.empty() ||
          segments_.back().bytes.size() == segments_.back().capacity) {
        Segment seg;
        seg.base = total;
        seg.capacity = segment_bytes_;
        seg.bytes.reserve(seg.capacity);
        segments_.push_back(std::move(seg));
        segments_allocated_.fetch_add(1, std::memory_order_relaxed);
        if (attached_stats_ != nullptr) {
          attached_stats_->segments_allocated.fetch_add(
              1, std::memory_order_relaxed);
        }
      }
      Segment& tail = segments_.back();
      size_t room = tail.capacity - tail.bytes.size();
      size_t n = std::min(room, remaining);
      tail.bytes.insert(tail.bytes.end(), src, src + n);
      src += n;
      remaining -= n;
      total += n;
      copied += n;
    }
    if (copied >= limit) break;
  }
  size_.store(total, std::memory_order_release);
  return injected;
}

Status LogStorage::CheckRangeLocked(uint64_t offset, size_t len) const {
  if (offset + len > size_.load(std::memory_order_relaxed)) {
    return Status::IOError("log read past durable end");
  }
  uint64_t first_live = segments_.empty()
                            ? size_.load(std::memory_order_relaxed)
                            : segments_.front().base;
  if (len > 0 && offset < first_live) {
    return Status::IOError("log read below recycled horizon");
  }
  return Status::Ok();
}

void LogStorage::CopyOutLocked(uint64_t offset, size_t len,
                               uint8_t* out) const {
  // Locate the first overlapped segment (segments ascend by base).
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), offset,
      [](uint64_t off, const Segment& s) { return off < s.base; });
  if (it != segments_.begin()) --it;
  while (len > 0) {
    uint64_t in_seg = offset - it->base;
    size_t n = std::min<uint64_t>(len, it->bytes.size() - in_seg);
    std::memcpy(out, it->bytes.data() + in_seg, n);
    out += n;
    offset += n;
    len -= n;
    ++it;
  }
}

Status LogStorage::Read(uint64_t offset, size_t len,
                        std::vector<uint8_t>* out) const {
  std::lock_guard<std::mutex> guard(mutex_);
  SHOREMT_RETURN_NOT_OK(CheckRangeLocked(offset, len));
  out->resize(len);
  CopyOutLocked(offset, len, out->data());
  return Status::Ok();
}

Status LogStorage::ReadFrom(uint64_t offset, std::vector<uint8_t>* out) const {
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t total = size_.load(std::memory_order_relaxed);
  size_t len = offset < total ? static_cast<size_t>(total - offset) : 0;
  SHOREMT_RETURN_NOT_OK(CheckRangeLocked(offset, len));
  out->resize(len);
  CopyOutLocked(offset, len, out->data());
  return Status::Ok();
}

std::vector<uint8_t> LogStorage::Snapshot() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<uint8_t> out;
  for (const Segment& seg : segments_) {
    out.insert(out.end(), seg.bytes.begin(), seg.bytes.end());
  }
  return out;
}

size_t LogStorage::Recycle(Lsn below) {
  if (below.IsNull()) return 0;
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t horizon = below.value - 1;
  horizon = std::min(horizon, size_.load(std::memory_order_relaxed));
  if (horizon > horizon_offset_.load(std::memory_order_relaxed)) {
    horizon_offset_.store(horizon, std::memory_order_release);
  } else {
    horizon = horizon_offset_.load(std::memory_order_relaxed);
  }
  size_t freed = 0;
  size_t archived = 0;
  while (!segments_.empty() &&
         segments_.front().base + segments_.front().bytes.size() <= horizon &&
         segments_.front().bytes.size() == segments_.front().capacity) {
    if (!archive_dir_.empty()) {
      // Archive BEFORE freeing: an archive write failure keeps the
      // segment live (the log grows but no byte is ever dropped
      // unarchived), so archive + live log always covers offset 0 on.
      if (!ArchiveSegmentLocked(segments_.front())) break;
      ++archived;
    }
    segments_.pop_front();
    ++freed;
  }
  if (freed > 0) {
    segments_recycled_.fetch_add(freed, std::memory_order_relaxed);
    segments_archived_.fetch_add(archived, std::memory_order_relaxed);
    if (attached_stats_ != nullptr) {
      attached_stats_->segments_recycled.fetch_add(freed,
                                                   std::memory_order_relaxed);
      attached_stats_->segments_archived.fetch_add(archived,
                                                   std::memory_order_relaxed);
    }
  }
  return freed;
}

bool LogStorage::ArchiveSegmentLocked(const Segment& seg) {
  char name[64];
  std::snprintf(name, sizeof(name), "seg-%020llu.log",
                static_cast<unsigned long long>(seg.base));
  std::string path = archive_dir_ + "/" + name;
  bool ok = false;
  if (archive_direct_ && WriteSegmentDirect(path, seg, &ok)) {
    // Direct path handled it (ok carries the outcome); on filesystems
    // that reject O_DIRECT, WriteSegmentDirect returns false and the
    // buffered path below runs instead.
  } else {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    ok = seg.bytes.empty() ||
         std::fwrite(seg.bytes.data(), 1, seg.bytes.size(), f) ==
             seg.bytes.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) return false;
  std::string manifest = archive_dir_ + "/MANIFEST";
  std::FILE* m = std::fopen(manifest.c_str(), "ab");
  if (m == nullptr) return false;
  // v2: the line carries the CRC32C of the segment's bytes, so a restore
  // can prove an archived file still holds what was recycled out of the
  // live log (v1 lines from older archives remain readable, unverified).
  uint32_t crc = Crc32c(seg.bytes.data(), seg.bytes.size());
  ok = std::fprintf(m, "v2 %llu %llu %llu %lu %s\n",
                    static_cast<unsigned long long>(seg.base),
                    static_cast<unsigned long long>(seg.bytes.size()),
                    static_cast<unsigned long long>(seg.capacity),
                    static_cast<unsigned long>(crc), name) > 0;
  ok = std::fclose(m) == 0 && ok;
  return ok;
}

void LogStorage::set_archive_dir(std::string dir) {
  std::lock_guard<std::mutex> guard(mutex_);
  archive_dir_ = std::move(dir);
}

std::string LogStorage::archive_dir() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return archive_dir_;
}

void LogStorage::set_archive_direct_io(bool on) {
  std::lock_guard<std::mutex> guard(mutex_);
  archive_direct_ = on;
}

LogStorage::SegmentInfo LogStorage::SegmentInfoAt(uint64_t offset) const {
  std::lock_guard<std::mutex> guard(mutex_);
  SegmentInfo info;
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), offset,
      [](uint64_t off, const Segment& s) { return off < s.base; });
  if (it == segments_.begin()) return info;  // Recycled (or empty log).
  --it;
  if (offset >= it->base + it->bytes.size()) return info;  // Past the tail.
  info.base = it->base;
  info.capacity = it->capacity;
  info.filled = it->bytes.size();
  info.found = true;
  return info;
}

Status LogStorage::TruncateTo(uint64_t offset) {
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t total = size_.load(std::memory_order_relaxed);
  if (offset >= total) return Status::Ok();
  uint64_t first_live =
      segments_.empty() ? total : segments_.front().base;
  if (offset < first_live) {
    return Status::IOError("log truncate below recycled horizon");
  }
  while (!segments_.empty() && segments_.back().base >= offset) {
    segments_.pop_back();
  }
  if (!segments_.empty()) {
    Segment& tail = segments_.back();
    tail.bytes.resize(static_cast<size_t>(offset - tail.base));
  }
  size_.store(offset, std::memory_order_release);
  return Status::Ok();
}

void LogStorage::AttachStats(LogStats* stats) {
  std::lock_guard<std::mutex> guard(mutex_);
  attached_stats_ = stats;
}

}  // namespace shoremt::log
