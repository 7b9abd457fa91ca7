#ifndef SHOREMT_LOG_LOG_ARCHIVE_H_
#define SHOREMT_LOG_LOG_ARCHIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace shoremt::log {

class LogStorage;

/// One archived log segment, as recorded by a MANIFEST line written by
/// LogStorage::Recycle when LogOptions::archive_dir is set:
///   v2 <base> <length> <capacity> <crc32c> <file>   (current)
///   v1 <base> <length> <capacity> <file>            (older archives)
struct ArchivedSegment {
  uint64_t base = 0;      ///< Absolute log byte offset of the first byte.
  uint64_t length = 0;    ///< Bytes in the archive file.
  uint64_t capacity = 0;  ///< The segment's configured capacity.
  uint32_t crc = 0;       ///< CRC32C of the file's bytes (v2 lines).
  bool has_crc = false;   ///< False for v1 lines — read unverified.
  std::string file;       ///< File name, relative to the archive dir.
};

/// Read-side view of a segment archive directory: parses the MANIFEST
/// and serves byte ranges out of the per-segment files, verifying each
/// touched v2 segment against its manifest CRC. Consumers: the shipper's
/// below-horizon fallback, and — through ReadHistory — point-in-time
/// restore (repl::RestoreToLsn) and the storage manager's media
/// auto-repair, which is why this lives in the log layer, below sm and
/// repl.
class LogArchive {
 public:
  /// Opens `dir`. A missing directory or MANIFEST yields an EMPTY archive
  /// (archiving may simply not have recycled anything yet); a malformed
  /// MANIFEST line is Corruption.
  static Result<LogArchive> Open(const std::string& dir);

  const std::vector<ArchivedSegment>& segments() const { return segments_; }
  bool empty() const { return segments_.empty(); }
  /// First archived byte (0 when empty).
  uint64_t base_offset() const {
    return segments_.empty() ? 0 : segments_.front().base;
  }
  /// One past the last archived byte (0 when empty).
  uint64_t end_offset() const {
    return segments_.empty() ? 0
                             : segments_.back().base + segments_.back().length;
  }

  /// Finds the archived segment containing absolute offset; null if the
  /// offset is not covered.
  const ArchivedSegment* SegmentAt(uint64_t offset) const;

  /// Reads [offset, offset + len) — which may span archive files — into
  /// `out` (cleared first). IOError when the range is not fully covered;
  /// Corruption when a touched v2 segment file fails its manifest CRC
  /// (named precisely, with stored vs computed values).
  Status Read(uint64_t offset, size_t len, std::vector<uint8_t>* out) const;

  /// Reads the log's whole history into `out` as one stream from offset 0
  /// (LSN 1): every archived byte, then `live`'s bytes from the archive's
  /// end on (`live` may be null). An archive that does not start at
  /// offset 0 is Corruption — its prefix was recycled before archiving
  /// was switched on — and a gap between the archive's end and the live
  /// reclamation horizon fails in LogStorage::ReadFrom.
  Status ReadHistory(const LogStorage* live, std::vector<uint8_t>* out) const;

 private:
  std::string dir_;
  std::vector<ArchivedSegment> segments_;  ///< Sorted by base, contiguous.
};

}  // namespace shoremt::log

#endif  // SHOREMT_LOG_LOG_ARCHIVE_H_
