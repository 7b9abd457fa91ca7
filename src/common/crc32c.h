#ifndef SHOREMT_COMMON_CRC32C_H_
#define SHOREMT_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace shoremt {

/// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum used for page images, log records, and archived
/// segments. It sits on the buffer pool's miss path (every page read is
/// verified), on the cleaner's write-back stamp, on every log append and
/// on every record restart reads, so its cost is not hidden by the I/O.
/// The byte-at-a-time table loop costs 22-25 µs per 8 KiB page, several
/// times the ~3 µs of the page's `pread` from the OS cache; the SSE4.2
/// `crc32` instruction, one 64-bit word at a time, costs 1.0-1.3 µs
/// (bench_abl_checksum, 4 vCPU x86-64, g++ 12.2).
///
/// Dispatch rule: once, at start-up, a CPU that reports SSE4.2 selects
/// the instruction path; any other CPU, or a non-x86-64 build, keeps the
/// table loop, the only fallback. Both produce bit-identical values, so
/// volumes, logs and archives written under either verify under the
/// other.
///
/// Crc32c(data, n) is the common whole-buffer form. The Extend form
/// chains partial buffers: Extend(Extend(0, a, na), b, nb) ==
/// Crc32c(concat(a, b)) — the page checksum uses it to skip the
/// in-header checksum word itself.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// The table loop alone: the fallback behind Crc32cExtend, exposed so
/// tests and the checksum bench can hold the two paths against each other.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace shoremt

#endif  // SHOREMT_COMMON_CRC32C_H_
