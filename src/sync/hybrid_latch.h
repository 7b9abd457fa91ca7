#ifndef SHOREMT_SYNC_HYBRID_LATCH_H_
#define SHOREMT_SYNC_HYBRID_LATCH_H_

#include <atomic>
#include <cstdint>

#include "sync/backoff.h"

namespace shoremt::sync {

/// Access mode for a blocking latch acquisition.
enum class LatchMode : uint8_t {
  kShared,     ///< Multiple readers may hold the latch together.
  kExclusive,  ///< Single writer; excludes all other holders.
};

/// Annotates functions that deliberately read shared memory without
/// synchronization under the optimistic-validation protocol: the reader
/// copies bytes that a concurrent exclusive holder may be rewriting, then
/// discards the copy unless HybridLatch::Validate proves no writer
/// overlapped. ThreadSanitizer cannot see the validation step, so the
/// racy-by-design loads are compiled uninstrumented. Such functions must
/// (a) only LOAD from the shared image — never store, (b) tolerate
/// arbitrary torn values (clamp every index before use), and (c) avoid
/// intercepted libcalls (memcpy/memmove) on the shared bytes.
#if defined(__clang__) || defined(__GNUC__)
#define SHOREMT_NO_SANITIZE_THREAD __attribute__((no_sanitize_thread))
#else
#define SHOREMT_NO_SANITIZE_THREAD
#endif

/// Version-stamped reader-writer latch supporting a third, latch-free
/// guard state (the ScaleStore/LeanStore "hybrid latch" pattern named in
/// ROADMAP). One atomic word packs everything:
///
///   | exclusive:1 | shared count:15 | version:48 |
///
/// Guard states:
///   optimistic — StampOptimistic() records the version WITHOUT writing
///                the word; the reader runs against live data and calls
///                Validate(stamp) afterwards. True = no exclusive holder
///                overlapped, every read was consistent. False = the data
///                may be torn; the reader must discard and restart.
///   shared     — classic reader lock (CAS increments the count). Shared
///                holders exclude writers but do NOT invalidate optimistic
///                stamps: readers don't modify, so versions only move on
///                exclusive release / downgrade.
///   exclusive  — single writer. Releasing (or downgrading) bumps the
///                version, which is what makes stale optimistic stamps
///                fail validation.
///
/// The optimistic probe never writes the latch word, so the common-case
/// read path of a hot structure touches no shared cache line in modified
/// state — the Shore-MT §7 lesson applied to the page-latch tier itself.
class HybridLatch {
 public:
  static constexpr uint64_t kInvalidStamp = ~0ull;

  HybridLatch() = default;
  HybridLatch(const HybridLatch&) = delete;
  HybridLatch& operator=(const HybridLatch&) = delete;

  // --- optimistic guard ----------------------------------------------------

  /// Records the current version, or kInvalidStamp while an exclusive
  /// holder is active (the caller should back off / restart — data is
  /// being rewritten right now).
  uint64_t StampOptimistic() const {
    uint64_t w = word_.load(std::memory_order_acquire);
    if ((w & kExclusiveBit) != 0) return kInvalidStamp;
    return w & kVersionMask;
  }

  /// True iff no exclusive holder is active and the version still equals
  /// `stamp` — i.e. every load the caller performed since StampOptimistic
  /// observed a consistent image. The acquire fence orders those data
  /// loads before the re-read of the word (LoadLoad), completing the
  /// seqlock protocol against the release store in ReleaseExclusive.
  bool Validate(uint64_t stamp) const {
    if (stamp == kInvalidStamp) return false;
    std::atomic_thread_fence(std::memory_order_acquire);
    uint64_t w = word_.load(std::memory_order_acquire);
    return (w & (kExclusiveBit | kVersionMask)) == stamp;
  }

  /// Current version (diagnostics/tests).
  uint64_t version() const {
    return word_.load(std::memory_order_acquire) & kVersionMask;
  }

  // --- blocking guards ------------------------------------------------------

  void Acquire(LatchMode mode) {
    Backoff backoff;
    while (!TryAcquire(mode)) backoff.Pause();
  }

  bool TryAcquire(LatchMode mode) {
    uint64_t w = word_.load(std::memory_order_relaxed);
    if (mode == LatchMode::kExclusive) {
      if ((w & (kExclusiveBit | kSharedMask)) != 0) return false;
      return word_.compare_exchange_weak(w, w | kExclusiveBit,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
    }
    if ((w & kExclusiveBit) != 0) return false;
    return word_.compare_exchange_weak(w, w + kSharedUnit,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed);
  }

  void Release(LatchMode mode) {
    if (mode == LatchMode::kExclusive) {
      ReleaseExclusive();
    } else {
      ReleaseShared();
    }
  }

  void AcquireShared() { Acquire(LatchMode::kShared); }
  void AcquireExclusive() { Acquire(LatchMode::kExclusive); }
  void ReleaseShared() {
    word_.fetch_sub(kSharedUnit, std::memory_order_release);
  }

  /// Bumps the version and clears the exclusive bit in one release store
  /// (no CAS needed: while exclusive is held the word cannot change —
  /// shared CASes fail on the set bit and optimistic probes never write).
  void ReleaseExclusive() {
    uint64_t w = word_.load(std::memory_order_relaxed);
    word_.store((w + 1) & kVersionMask, std::memory_order_release);
  }

  /// Converts a shared hold into exclusive iff the caller is the sole
  /// reader; on failure the shared hold remains.
  bool TryUpgrade() {
    uint64_t w = word_.load(std::memory_order_relaxed);
    if ((w & kSharedMask) != kSharedUnit || (w & kExclusiveBit) != 0) {
      return false;
    }
    return word_.compare_exchange_strong(w, (w - kSharedUnit) | kExclusiveBit,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  /// Converts an exclusive hold into shared. Bumps the version: the holder
  /// may have modified the data, so stamps taken before the exclusive
  /// acquisition must fail validation.
  void Downgrade() {
    uint64_t w = word_.load(std::memory_order_relaxed);
    word_.store(((w + 1) & kVersionMask) | kSharedUnit,
                std::memory_order_release);
  }

  bool IsHeldExclusive() const {
    return (word_.load(std::memory_order_relaxed) & kExclusiveBit) != 0;
  }
  uint32_t ReaderCount() const {
    return static_cast<uint32_t>(
        (word_.load(std::memory_order_relaxed) & kSharedMask) >> kSharedShift);
  }

 private:
  static constexpr int kSharedShift = 48;
  static constexpr uint64_t kExclusiveBit = 1ull << 63;
  static constexpr uint64_t kSharedUnit = 1ull << kSharedShift;
  static constexpr uint64_t kSharedMask = ((1ull << 15) - 1) << kSharedShift;
  static constexpr uint64_t kVersionMask = kSharedUnit - 1;

  std::atomic<uint64_t> word_{0};
};

}  // namespace shoremt::sync

#endif  // SHOREMT_SYNC_HYBRID_LATCH_H_
