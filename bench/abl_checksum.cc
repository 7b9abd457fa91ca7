/// Ablation: what the CRC32C page checksum costs per 8 KiB page on each
/// path. The buffer pool verifies every page it reads and the cleaner
/// stamps every page it writes, so this figure is paid once per miss and
/// once per write-back; log appends and restart pay it per record byte.
///
///   hw        Crc32cExtend as dispatched at start-up: the SSE4.2 `crc32`
///             instruction where the CPU has it (`hw_available`), else
///             the table loop.
///   portable  Crc32cExtendPortable: the byte-at-a-time table loop.
///
/// Each path checksums a ring of 16 random pages (128 KiB, cache-resident
/// like a page just copied in by `pread`) for a fixed window, five times;
/// one JSON line per path gives the median, with the fastest and slowest
/// repeat as the spread. The run fails if the two paths disagree on any
/// page. `--smoke` shortens the window for CI, which checks the output's
/// shape, not the figures.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "common/types.h"

using namespace shoremt;

namespace {

constexpr int kPages = 16;
constexpr int kRepeats = 5;

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

volatile uint32_t g_sink;  // Keeps the checksums from being optimized out.

/// ns per page over one window of `window_ns`.
double TimeWindow(Crc32cFn fn, const std::vector<uint8_t>& ring,
                  uint64_t window_ns) {
  uint32_t acc = 0;
  uint64_t pages = 0;
  const uint64_t start = NowNanos();
  uint64_t now = start;
  while (now - start < window_ns) {
    for (int i = 0; i < kPages; ++i) {
      acc ^= fn(0, ring.data() + static_cast<size_t>(i) * kPageSize,
                kPageSize);
    }
    pages += kPages;
    now = NowNanos();
  }
  g_sink = acc;
  return static_cast<double>(now - start) / static_cast<double>(pages);
}

bool HwAvailable() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  uint64_t window_ns = smoke ? 20'000'000
                             : (bench::FullMode() ? 2'000'000'000
                                                  : 400'000'000);

  std::vector<uint8_t> ring(static_cast<size_t>(kPages) * kPageSize);
  Rng rng(1);
  for (auto& b : ring) b = static_cast<uint8_t>(rng.Next());
  for (int i = 0; i < kPages; ++i) {
    const uint8_t* page = ring.data() + static_cast<size_t>(i) * kPageSize;
    if (Crc32cExtend(0, page, kPageSize) !=
        Crc32cExtendPortable(0, page, kPageSize)) {
      std::fprintf(stderr, "abl_checksum: hw and portable CRC32C disagree "
                   "on page %d\n", i);
      return 1;
    }
  }

  struct Path {
    const char* name;
    Crc32cFn fn;
  };
  for (const Path& path : {Path{"hw", &Crc32cExtend},
                           Path{"portable", &Crc32cExtendPortable}}) {
    std::vector<double> ns(kRepeats);
    for (double& v : ns) v = TimeWindow(path.fn, ring, window_ns);
    std::sort(ns.begin(), ns.end());
    double median = ns[kRepeats / 2];
    std::printf("{\"bench\":\"abl_checksum\",\"path\":\"%s\","
                "\"hw_available\":%s,\"ns_per_8k_page\":%.1f,"
                "\"gb_per_s\":%.3f,\"ns_min\":%.1f,\"ns_max\":%.1f,"
                "\"repeats\":%d}\n",
                path.name, HwAvailable() ? "true" : "false", median,
                static_cast<double>(kPageSize) / median, ns.front(),
                ns.back(), kRepeats);
    std::fflush(stdout);
  }
  return 0;
}
