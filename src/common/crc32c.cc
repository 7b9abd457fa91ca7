#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace shoremt {
namespace {

// 256-entry table for the reflected Castagnoli polynomial, built once at
// static-init time (8-iteration shift per entry; ~1µs, no binary bloat).
struct Crc32cTable {
  std::array<uint32_t, 256> t;
  Crc32cTable() {
    constexpr uint32_t kPoly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};
const Crc32cTable kTable;

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli
// CRC: one byte at a time up to 8-byte alignment, then one 64-bit word
// per instruction, then the tail bytes.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = crc ^ 0xFFFFFFFFu;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
    --n;
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  for (; n > 0; --n) c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
  return static_cast<uint32_t>(c) ^ 0xFFFFFFFFu;
}
#endif

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

Crc32cFn PickCrc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // May run before libgcc's own CPU probe.
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cExtendSse42;
#endif
  return &Crc32cExtendPortable;
}
const Crc32cFn kCrc32cExtend = PickCrc32c();

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = kTable.t[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  return kCrc32cExtend(crc, data, n);
}

}  // namespace shoremt
