#ifndef SHOREMT_LOG_LOG_STORAGE_H_
#define SHOREMT_LOG_LOG_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace shoremt::io {
class FaultInjector;
}

namespace shoremt::log {

struct LogStats;

/// The durable log device: an append-only byte stream stored as a chain of
/// fixed-size SEGMENTS. LSNs are byte offsets + 1 (so LSN 0 stays "null")
/// and stay absolute forever — recycling frees whole segments below the
/// reclamation horizon without renumbering anything, so the same LSN keys
/// the same record for the life of the database. The paper's testbed kept
/// the log on an in-memory filesystem; `append_latency_ns` models a slower
/// device per flush *call* (not per byte), which is what makes group
/// commit pay.
///
/// A LogStorage outlives the LogManager attached to it — restart/recovery
/// tests attach a fresh LogManager to the old storage, and anything that
/// was never flushed here is what a crash loses. The reclamation horizon
/// survives re-attachment the same way: recovery must start its analysis
/// scan at `reclaim_horizon()`, never below it.
class LogStorage {
 public:
  /// Default segment size; `segment_bytes` 0 keeps it. Callers that want a
  /// tightly bounded log (benches, recycling tests) pass something small.
  static constexpr size_t kDefaultSegmentBytes = 1 << 20;

  explicit LogStorage(uint64_t append_latency_ns = 0,
                      size_t segment_bytes = kDefaultSegmentBytes)
      : append_latency_ns_(append_latency_ns),
        segment_bytes_(segment_bytes == 0 ? kDefaultSegmentBytes
                                          : segment_bytes) {}

  LogStorage(const LogStorage&) = delete;
  LogStorage& operator=(const LogStorage&) = delete;

  /// Appends `data` durably. Must be called in LSN order (the log buffer's
  /// flusher guarantees this).
  Status Append(std::span<const uint8_t> data);

  /// Gather append: writes `parts` back to back as ONE device call (one
  /// latency charge, one flush_calls tick). This is the zero-copy drain
  /// path — ring buffers hand their (up to two, on wrap) live segments
  /// straight to the device instead of staging them through a scratch
  /// copy. Same LSN-order contract as Append.
  Status AppendV(std::span<const std::span<const uint8_t>> parts);

  /// Bytes durably stored since the beginning of time (recycled bytes
  /// included); durable LSN = size() + 1.
  uint64_t size() const { return size_.load(std::memory_order_acquire); }

  /// Copies out the byte range [offset, offset+len) of the durable log.
  /// Reading below the reclamation horizon's segment chain (bytes whose
  /// segment was recycled) fails with IOError.
  Status Read(uint64_t offset, size_t len, std::vector<uint8_t>* out) const;

  /// Copies every durable byte in [offset, size()) into `out` (recovery
  /// scans). `offset` below the first live segment is an IOError, like
  /// Read.
  Status ReadFrom(uint64_t offset, std::vector<uint8_t>* out) const;

  /// Snapshot of the live durable log. With no recycling this is the
  /// entire byte stream from offset 0; after recycling it starts at the
  /// first live segment (callers that index it by absolute offset must
  /// not have recycled).
  std::vector<uint8_t> Snapshot() const;

  // --- segment lifecycle ----------------------------------------------------

  /// Frees every segment that lies entirely below `below` (an LSN, i.e. a
  /// record boundary — typically the checkpoint's redo low-water mark) and
  /// advances the reclamation horizon to it. Bytes at or above the horizon
  /// stay readable; a partially-covered segment is kept whole. Returns the
  /// number of segments freed. Monotonic: a lower `below` than the current
  /// horizon is a no-op.
  size_t Recycle(Lsn below);

  /// First LSN recovery may scan from: everything below it has been
  /// declared reclaimable by a checkpoint (its segments may be gone).
  /// Lsn{1} until the first Recycle. Persists across LogManager
  /// re-attachment — it lives with the durable artifact.
  Lsn reclaim_horizon() const {
    return Lsn{horizon_offset_.load(std::memory_order_acquire) + 1};
  }

  /// While set, Recycle writes each sealed segment into `dir` as
  /// `seg-<base>.log` and appends a line to `dir`/MANIFEST
  /// (`v1 <base> <length> <capacity> <file>`, offsets in absolute log
  /// bytes) BEFORE freeing it — the archive plus the live log is the
  /// complete byte stream from offset 0, which is what point-in-time
  /// restore replays. Empty (the default) keeps the PR 5 free-on-recycle
  /// behavior. An archive write failure stops recycling at that segment
  /// (bytes are never dropped unarchived).
  void set_archive_dir(std::string dir);
  std::string archive_dir() const;

  /// While true (and an archive dir is set), Recycle writes segment files
  /// with O_DIRECT — the archive traffic is write-once cold data that
  /// should not evict warm page-cache entries. Falls back to buffered
  /// stdio per file where the filesystem rejects O_DIRECT (tmpfs).
  void set_archive_direct_io(bool on);

  /// Geometry of the live segment covering absolute byte `offset`:
  /// shipping needs to know where the covering segment starts, how big it
  /// is, and whether it is sealed (filled == capacity). `found` is false
  /// when the offset is below the first live segment (recycled — serve
  /// from the archive) or at/after the durable end.
  struct SegmentInfo {
    uint64_t base = 0;
    size_t capacity = 0;
    size_t filled = 0;
    bool found = false;
  };
  SegmentInfo SegmentInfoAt(uint64_t offset) const;

  /// Drops every durable byte at/above absolute offset `offset` (replica
  /// promotion cuts the unparsed partial tail; restore cuts past-target
  /// records). Truncating into recycled space is an IOError; offset at or
  /// past the durable end is a no-op.
  Status TruncateTo(uint64_t offset);

  size_t segment_bytes() const { return segment_bytes_; }
  /// Reconfigures the size used for segments allocated from now on
  /// (existing segments keep their geometry — segments are self-
  /// describing, so mixed sizes are fine).
  void set_segment_bytes(size_t bytes) {
    std::lock_guard<std::mutex> guard(mutex_);
    if (bytes > 0) segment_bytes_ = bytes;
  }

  /// Segments currently held in memory.
  size_t live_segments() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return segments_.size();
  }
  uint64_t segments_allocated() const {
    return segments_allocated_.load(std::memory_order_relaxed);
  }
  uint64_t segments_recycled() const {
    return segments_recycled_.load(std::memory_order_relaxed);
  }
  uint64_t segments_archived() const {
    return segments_archived_.load(std::memory_order_relaxed);
  }

  /// Attaches a LogStats block (the owning LogManager's): segment
  /// allocations/recycles from now on are mirrored into its
  /// segments_allocated / segments_recycled counters. Pass nullptr to
  /// detach. A re-attached manager (restart) starts its mirror from zero.
  void AttachStats(LogStats* stats);

  uint64_t flush_calls() const {
    return flush_calls_.load(std::memory_order_relaxed);
  }

  /// Test hook: while set, Append fails with IOError without storing
  /// anything — simulates a dying log device so callers can exercise the
  /// flush pipeline's sticky-error propagation.
  void set_fail_appends(bool fail) {
    fail_appends_.store(fail, std::memory_order_release);
  }

  /// Installs (or clears) a fault injector consulted by AppendV: its
  /// PreAppend hook can fail an append outright, tear it (store only a
  /// byte prefix — the torn-log-tail crash signature recovery's scan must
  /// stop at), or model a crashed device. Must outlive the installation.
  void set_fault_injector(io::FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

 private:
  /// Segment memory of 64 KiB and up comes straight from the OS
  /// (anonymous mmap), so a recycled segment's pages are returned at once.
  /// From malloc, a freed 1 MiB segment leaves a hole in the heap that
  /// small allocations then split, and the next segment grows the heap
  /// instead: under a fast load that churn, not the live log, set the
  /// process's peak memory.
  static void* MapPages(size_t bytes);
  static void UnmapPages(void* p, size_t bytes);
  template <class T>
  struct OsPages {
    using value_type = T;
    OsPages() = default;
    template <class U>
    OsPages(const OsPages<U>&) {}
    T* allocate(size_t n) { return static_cast<T*>(MapPages(n * sizeof(T))); }
    void deallocate(T* p, size_t n) { UnmapPages(p, n * sizeof(T)); }
    friend bool operator==(const OsPages&, const OsPages&) { return true; }
  };

  /// One fixed-capacity chunk of the byte stream. `base` is the absolute
  /// offset of bytes[0]; capacity is frozen at allocation time.
  struct Segment {
    uint64_t base = 0;
    size_t capacity = 0;
    std::vector<uint8_t, OsPages<uint8_t>> bytes;
  };

  /// Writes `seg` into the archive (file + manifest line). Caller holds
  /// mutex_. Returns false on any I/O failure (caller must keep the
  /// segment live).
  bool ArchiveSegmentLocked(const Segment& seg);
  /// O_DIRECT segment-file write; returns false when the direct path is
  /// unusable (caller falls back to buffered), else `*ok` = outcome.
  bool WriteSegmentDirect(const std::string& path, const Segment& seg,
                          bool* ok);
  /// Copies [offset, offset+len) out of the segment chain. Caller holds
  /// mutex_ and has validated the range.
  void CopyOutLocked(uint64_t offset, size_t len, uint8_t* out) const;
  /// Validates [offset, offset+len) against the live window. Caller holds
  /// mutex_.
  Status CheckRangeLocked(uint64_t offset, size_t len) const;

  uint64_t append_latency_ns_;
  mutable std::mutex mutex_;
  size_t segment_bytes_;
  std::deque<Segment> segments_;
  LogStats* attached_stats_ = nullptr;  ///< Guarded by mutex_.
  std::string archive_dir_;             ///< Guarded by mutex_; "" = off.
  bool archive_direct_ = false;         ///< Guarded by mutex_.
  std::atomic<uint64_t> size_{0};
  /// Absolute offset below which bytes are reclaimable (recycled segments
  /// are gone; a straddling segment keeps its sub-horizon bytes readable).
  std::atomic<uint64_t> horizon_offset_{0};
  std::atomic<uint64_t> segments_allocated_{0};
  std::atomic<uint64_t> segments_recycled_{0};
  std::atomic<uint64_t> segments_archived_{0};
  std::atomic<uint64_t> flush_calls_{0};
  std::atomic<bool> fail_appends_{false};
  std::atomic<io::FaultInjector*> injector_{nullptr};
};

}  // namespace shoremt::log

#endif  // SHOREMT_LOG_LOG_STORAGE_H_
