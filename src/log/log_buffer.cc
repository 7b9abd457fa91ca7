#include "log/log_buffer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <thread>

#include "log/log_manager.h"
#include "sync/backoff.h"

namespace shoremt::log {

namespace {

/// Sink for buffers constructed without a LogStats (direct MakeLogBuffer
/// callers in tests/benches); keeps the hot path branch-free.
LogStats* EnsureStats(LogStats* stats) {
  static LogStats sink;
  return stats != nullptr ? stats : &sink;
}

/// Zero-copy drain shared by the ring buffers: hands the live ring
/// segment(s) covering [storage->size(), target) straight to the device
/// as one gather append — no scratch staging copy. Safe because claims
/// are bounded by durable + ring_size: no appender can overwrite a ring
/// position whose byte is not yet durable, and durability only advances
/// when this very call returns.
Status GatherDrain(LogStorage* storage, const uint8_t* ring, size_t ring_size,
                   uint64_t target) {
  uint64_t from = storage->size();
  if (target <= from) return Status::Ok();
  size_t len = target - from;
  size_t pos = from % ring_size;
  size_t first = std::min(len, ring_size - pos);
  std::array<std::span<const uint8_t>, 2> parts = {
      std::span<const uint8_t>(ring + pos, first),
      std::span<const uint8_t>(ring, len - first)};
  return storage->AppendV(
      {parts.data(), len > first ? size_t{2} : size_t{1}});
}

// -------------------------------------------------------------- kMutex ----

/// Original Shore's log buffer: one mutex over everything, non-circular
/// buffer, synchronous flush when full, and a daemon-wakeup mutex poked on
/// every insert (§6.2.4: "log inserts occasionally acquire a blocking
/// mutex in order to wake checkpoint and flush threads").
class MutexLogBuffer : public LogBuffer {
 public:
  MutexLogBuffer(LogStorage* storage, size_t capacity)
      : LogBuffer(storage), buffer_(capacity) {
    base_ = storage->size();
  }

  Result<Appended> Append(std::span<const uint8_t> rec) override {
    std::lock_guard<std::mutex> guard(mutex_);
    if (rec.size() > buffer_.size()) {
      return Status::InvalidArgument("record larger than log buffer");
    }
    if (head_ + rec.size() > buffer_.size()) {
      SHOREMT_RETURN_NOT_OK(FlushLocked());  // Stalls this and all inserters.
    }
    std::memcpy(buffer_.data() + head_, rec.data(), rec.size());
    uint64_t start = base_ + head_;
    head_ += rec.size();
    {
      // Daemon wakeup on the insert critical path (baseline bottleneck).
      std::lock_guard<std::mutex> wake(daemon_mutex_);
      ++daemon_pokes_;
    }
    return Appended{Lsn{start + 1}, Lsn{start + rec.size() + 1}};
  }

  Status FlushTo(Lsn upto) override {
    std::lock_guard<std::mutex> guard(mutex_);
    if (durable_lsn() >= upto) return Status::Ok();
    return FlushLocked();
  }

  Lsn next_lsn() const override {
    std::lock_guard<std::mutex> guard(mutex_);
    return Lsn{base_ + head_ + 1};
  }

 private:
  Status FlushLocked() {
    if (head_ == 0) return Status::Ok();
    SHOREMT_RETURN_NOT_OK(
        storage_->Append({buffer_.data(), head_}));
    base_ += head_;
    head_ = 0;
    return Status::Ok();
  }

  mutable std::mutex mutex_;
  std::mutex daemon_mutex_;
  uint64_t daemon_pokes_ = 0;
  std::vector<uint8_t> buffer_;
  uint64_t base_ = 0;  ///< Log-space offset of buffer_[0].
  size_t head_ = 0;    ///< Bytes used in buffer_.
};

// ---------------------------------------------------------- kDecoupled ----

/// Circular buffer with insert and flush decoupled (§6.2.2 problem 2).
/// Inserts claim + copy under a light-weight queueing mutex; flushing
/// drains [durable, head) under its own blocking mutex so a slow flush no
/// longer stalls inserts (unless the ring truly fills).
class DecoupledLogBuffer : public LogBuffer {
 public:
  DecoupledLogBuffer(LogStorage* storage, size_t capacity)
      : LogBuffer(storage), ring_(capacity) {
    head_.store(storage->size(), std::memory_order_relaxed);
  }

  Result<Appended> Append(std::span<const uint8_t> rec) override {
    if (rec.size() > ring_.size() / 2) {
      return Status::InvalidArgument("record larger than log buffer");
    }
    std::lock_guard<sync::HybridMutex> guard(insert_mutex_);
    uint64_t start = head_.load(std::memory_order_relaxed);
    // Cached-tail space check: only consult the (shared) durable counter
    // when the cheap check fails, then flush ourselves if truly full.
    while (start + rec.size() - storage_->size() > ring_.size()) {
      SHOREMT_RETURN_NOT_OK(FlushTo(Lsn{start + 1}));
    }
    CopyIn(start, rec);
    head_.store(start + rec.size(), std::memory_order_release);
    return Appended{Lsn{start + 1}, Lsn{start + rec.size() + 1}};
  }

  Status FlushTo(Lsn upto) override {
    std::unique_lock<std::mutex> lk(flush_mutex_);
    while (durable_lsn() < upto) {
      if (!flushing_) {
        flushing_ = true;
        uint64_t target = head_.load(std::memory_order_acquire);
        lk.unlock();
        // Group commit: flush all complete bytes straight from the ring.
        Status st = GatherDrain(storage_, ring_.data(), ring_.size(), target);
        lk.lock();
        flushing_ = false;
        flush_cv_.notify_all();
        SHOREMT_RETURN_NOT_OK(st);
      } else {
        flush_cv_.wait(lk);
      }
    }
    return Status::Ok();
  }

  Lsn next_lsn() const override {
    return Lsn{head_.load(std::memory_order_acquire) + 1};
  }

 private:
  void CopyIn(uint64_t offset, std::span<const uint8_t> rec) {
    size_t pos = offset % ring_.size();
    size_t first = std::min(rec.size(), ring_.size() - pos);
    std::memcpy(ring_.data() + pos, rec.data(), first);
    if (first < rec.size()) {
      std::memcpy(ring_.data(), rec.data() + first, rec.size() - first);
    }
  }

  std::vector<uint8_t> ring_;
  sync::HybridMutex insert_mutex_;
  std::atomic<uint64_t> head_{0};
  std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  bool flushing_ = false;
};

// ------------------------------------------------------- kConsolidated ----

/// Shore-MT's final design (§6.2.4): the insert critical section shrinks
/// to claiming buffer space — one atomic compare-and-swap, the moral
/// equivalent of the extended MCS queue handing the insert offset from
/// thread to thread. Threads then copy their records into the ring in
/// parallel and publish completion in LSN order so the flusher never
/// writes a hole.
class ConsolidatedLogBuffer : public LogBuffer {
 public:
  ConsolidatedLogBuffer(LogStorage* storage, size_t capacity)
      : LogBuffer(storage), ring_(capacity) {
    uint64_t base = storage->size();
    head_.store(base, std::memory_order_relaxed);
    completed_.store(base, std::memory_order_relaxed);
  }

  Result<Appended> Append(std::span<const uint8_t> rec) override {
    if (rec.size() > ring_.size() / 2) {
      return Status::InvalidArgument("record larger than log buffer");
    }
    // Claim: the only serialized step.
    uint64_t start = head_.load(std::memory_order_relaxed);
    for (;;) {
      if (start + rec.size() - storage_->size() > ring_.size()) {
        // Ring full: drain everything already completed (the watermark) —
        // flushing to a 1-byte target would return after any concurrent
        // drain of a tiny prefix and loop back here, re-flushing small
        // prefixes one device call at a time.
        uint64_t watermark = completed_.load(std::memory_order_acquire);
        if (watermark > storage_->size()) {
          SHOREMT_RETURN_NOT_OK(FlushTo(Lsn{watermark + 1}));
        } else {
          // Every completed byte is durable; the ring is full of claimed
          // bytes whose copiers are still in flight. Let them run.
          std::this_thread::yield();
        }
        start = head_.load(std::memory_order_relaxed);
        continue;
      }
      if (head_.compare_exchange_weak(start, start + rec.size(),
                                      std::memory_order_acq_rel)) {
        break;
      }
    }
    // Parallel copy outside any critical section.
    size_t pos = start % ring_.size();
    size_t first = std::min(rec.size(), ring_.size() - pos);
    std::memcpy(ring_.data() + pos, rec.data(), first);
    if (first < rec.size()) {
      std::memcpy(ring_.data(), rec.data() + first, rec.size() - first);
    }
    // Ordered completion hand-off (our queue node equivalent): wait for
    // the predecessor to publish, then publish our end offset. Yield
    // aggressively: the predecessor may need this CPU to finish its copy
    // (matters on hosts with few hardware contexts).
    int spins = 0;
    while (completed_.load(std::memory_order_acquire) != start) {
      if (++spins < 16) {
        sync::CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
    completed_.store(start + rec.size(), std::memory_order_release);
    return Appended{Lsn{start + 1}, Lsn{start + rec.size() + 1}};
  }

  Status FlushTo(Lsn upto) override {
    std::unique_lock<std::mutex> lk(flush_mutex_);
    while (durable_lsn() < upto) {
      if (!flushing_) {
        flushing_ = true;
        uint64_t target = completed_.load(std::memory_order_acquire);
        lk.unlock();
        Status st = GatherDrain(storage_, ring_.data(), ring_.size(), target);
        lk.lock();
        flushing_ = false;
        flush_cv_.notify_all();
        SHOREMT_RETURN_NOT_OK(st);
        // If `upto` is still not durable the bytes were not completed yet;
        // yield so the in-flight copiers can finish, then flush again.
        if (durable_lsn() < upto) {
          lk.unlock();
          std::this_thread::yield();
          lk.lock();
        }
      } else {
        flush_cv_.wait(lk);
      }
    }
    return Status::Ok();
  }

  Lsn next_lsn() const override {
    return Lsn{head_.load(std::memory_order_acquire) + 1};
  }

  Lsn completed_lsn() override {
    return Lsn{completed_.load(std::memory_order_acquire) + 1};
  }

 private:
  std::vector<uint8_t> ring_;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> completed_{0};
  std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  bool flushing_ = false;
};

// ------------------------------------------------------------ kCArray ----

/// Consolidation-array buffer: the claim stays a single CAS, but the two
/// remaining scalability holes of kConsolidated are closed.
///
/// 1. Contended claims CONSOLIDATE. A thread that loses the head CAS
///    joins an open group slot by CASing its size (and a member count)
///    into the slot's packed state word. The slot's leader — whoever
///    found it free — closes the group with one exchange, claims the
///    combined extent with a single head CAS, and publishes the group's
///    base offset; members compute their sub-ranges from the running size
///    they joined at and copy in parallel. N colliders now cost one CAS
///    on the shared head instead of N.
///
/// 2. Completion publishes OUT OF ORDER. The LSN space is divided into
///    fixed power-of-two regions; finishing a copy adds the byte counts
///    to the overlapped regions' monotonic completed-byte counters
///    (fetch_add, release). The flusher advances a contiguous watermark
///    region by region: a region is crossed when its counter reaches the
///    region's cumulative expected total, and a partial tail region is
///    crossed exactly when its counter equals the claimed bytes with the
///    claim frontier quiescent. A slow copier delays only the regions it
///    actually overlaps — successors never spin on a predecessor.
///
/// Counter soundness: there are 2x as many counters as ring regions, so
/// consecutive occupancies ("laps") of a ring region use different
/// counters, and a region can only be re-claimed once the durable LSN —
/// which never passes the watermark — has crossed its previous lap. The
/// counter the watermark is testing therefore never contains bytes from
/// any other lap, making both tests exact.
class CArrayLogBuffer : public LogBuffer {
 public:
  CArrayLogBuffer(LogStorage* storage, size_t capacity, LogStats* stats,
                  bool force_consolidation)
      : LogBuffer(storage),
        stats_(stats),
        force_consolidation_(force_consolidation) {
    // Power-of-two geometry: region math is mask-and-shift, and the
    // 2x-counters lap argument needs at least two regions.
    capacity_ = std::bit_ceil(std::max<size_t>(capacity, 512));
    ring_.resize(capacity_);
    region_size_ = std::max<size_t>(256, capacity_ / 64);
    region_shift_ = static_cast<unsigned>(std::countr_zero(region_size_));
    counter_count_ = 2 * (capacity_ / region_size_);
    counters_ = std::make_unique<Region[]>(counter_count_);
    region_base_.assign(counter_count_, 0);
    base_ = storage->size();
    head_.store(base_, std::memory_order_relaxed);
    watermark_.store(base_, std::memory_order_relaxed);
  }

  Result<Appended> Append(std::span<const uint8_t> rec) override {
    if (rec.size() > capacity_ / 2) {
      return Status::InvalidArgument("record larger than log buffer");
    }
    // Fast path: uncontended solo claim, one CAS. (The force-consolidation
    // test hook skips it so the group protocol runs even on hosts where
    // this CAS never fails.)
    if (!force_consolidation_ || rec.size() > capacity_ / 8) {
      uint64_t start = head_.load(std::memory_order_relaxed);
      if (HasSpace(start, rec.size()) &&
          head_.compare_exchange_strong(start, start + rec.size(),
                                        std::memory_order_acq_rel)) {
        stats_->carray_solo_claims.fetch_add(1, std::memory_order_relaxed);
        CopyAndPublish(start, rec);
        return Appended{Lsn{start + 1}, Lsn{start + rec.size() + 1}};
      }
    }
    return AppendSlow(rec);
  }

  Status FlushTo(Lsn upto) override {
    std::unique_lock<std::mutex> lk(flush_mutex_);
    while (durable_lsn() < upto) {
      if (!flushing_) {
        flushing_ = true;
        lk.unlock();
        uint64_t target = AdvanceWatermark();
        Status st = GatherDrain(storage_, ring_.data(), capacity_, target);
        lk.lock();
        flushing_ = false;
        flush_cv_.notify_all();
        SHOREMT_RETURN_NOT_OK(st);
        if (durable_lsn() < upto) {
          // The watermark is stuck behind an in-flight copier; give it
          // the CPU, then re-advance.
          stats_->carray_watermark_stalls.fetch_add(
              1, std::memory_order_relaxed);
          lk.unlock();
          std::this_thread::yield();
          lk.lock();
        }
      } else {
        flush_cv_.wait(lk);
      }
    }
    return Status::Ok();
  }

  Lsn next_lsn() const override {
    return Lsn{head_.load(std::memory_order_acquire) + 1};
  }

  Lsn completed_lsn() override { return Lsn{AdvanceWatermark() + 1}; }

 private:
  // Slot state word: | open:1 | busy:1 | members:14 | bytes:48 |.
  static constexpr uint64_t kOpen = 1ull << 63;
  static constexpr uint64_t kBusy = 1ull << 62;  ///< Closed, claim running.
  static constexpr uint64_t kMemberUnit = 1ull << 48;
  static constexpr uint64_t kSizeMask = kMemberUnit - 1;
  static constexpr uint64_t kMaxMembers = 63;
  static constexpr uint64_t kBaseError = ~0ull;
  static constexpr int kSlots = 4;
  /// Adaptive gather-window bounds (spins a leader waits for joiners).
  static constexpr int kGatherSpinsMin = 8;
  static constexpr int kGatherSpinsInit = 64;
  static constexpr int kGatherSpinsMax = 512;

  struct alignas(64) Slot {
    std::atomic<uint64_t> state{0};  ///< 0 = free.
    std::atomic<uint64_t> base{0};   ///< 0 = pending; start+1; kBaseError.
    std::atomic<uint32_t> readers{0};
    Status error;  ///< Written by the leader before publishing kBaseError.
  };

  struct alignas(64) Region {
    std::atomic<uint64_t> completed{0};  ///< Monotonic completed bytes.
  };

  static uint64_t MembersOf(uint64_t state) {
    return (state >> 48) & 0x3fff;
  }

  bool HasSpace(uint64_t start, size_t size) const {
    return start + size - storage_->size() <= capacity_;
  }

  Result<Appended> AppendSlow(std::span<const uint8_t> rec) {
    thread_local uint64_t slot_hint =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    const uint64_t max_join = capacity_ / 8;
    const uint64_t max_group = capacity_ / 4;
    for (;;) {
      uint64_t start = head_.load(std::memory_order_relaxed);
      if (!HasSpace(start, rec.size())) {
        SHOREMT_RETURN_NOT_OK(ReclaimSpace());
        continue;
      }
      // We lost a claim CAS with space available: real contention — try
      // to consolidate with the other colliders through a slot.
      if (rec.size() <= max_join) {
        Slot& s = slots_[slot_hint++ & (kSlots - 1)];
        uint64_t st = s.state.load(std::memory_order_acquire);
        if (st == 0) {
          uint64_t open = kOpen | kMemberUnit | rec.size();
          if (s.state.compare_exchange_strong(st, open,
                                              std::memory_order_acq_rel)) {
            return LeadGroup(s, rec);
          }
        } else if ((st & kOpen) != 0 && MembersOf(st) < kMaxMembers &&
                   (st & kSizeMask) + rec.size() <= max_group) {
          if (s.state.compare_exchange_strong(
                  st, st + kMemberUnit + rec.size(),
                  std::memory_order_acq_rel)) {
            return JoinGroup(s, st & kSizeMask, rec);
          }
        }
      }
      // Solo retry between slot attempts (suppressed under the
      // force-consolidation hook so joinable records go through slots).
      if (force_consolidation_ && rec.size() <= max_join) continue;
      start = head_.load(std::memory_order_relaxed);
      if (HasSpace(start, rec.size()) &&
          head_.compare_exchange_weak(start, start + rec.size(),
                                      std::memory_order_acq_rel)) {
        stats_->carray_solo_claims.fetch_add(1, std::memory_order_relaxed);
        CopyAndPublish(start, rec);
        return Appended{Lsn{start + 1}, Lsn{start + rec.size() + 1}};
      }
    }
  }

  Result<Appended> LeadGroup(Slot& s, std::span<const uint8_t> rec) {
    // Gather window: colliders join while we spin briefly; close early
    // once the group is comfortably sized. Under the force-consolidation
    // hook the window yields instead, so joiners arrive even on a
    // single-context host (where a pure spin gathers nobody). The budget
    // is adaptive (see below).
    const int window = gather_spins_.load(std::memory_order_relaxed);
    for (int i = 0; i < window; ++i) {
      uint64_t st = s.state.load(std::memory_order_relaxed);
      if (MembersOf(st) >= 8 || (st & kSizeMask) >= capacity_ / 8) break;
      if (force_consolidation_) {
        std::this_thread::yield();
      } else {
        sync::CpuRelax();
      }
    }
    uint64_t st = s.state.exchange(kBusy, std::memory_order_acq_rel);
    uint64_t total = st & kSizeMask;
    uint64_t members = MembersOf(st);
    // Adapt the window to observed collision pressure: a well-subscribed
    // group means colliders arrive faster than the spin burns — widen so
    // the next leader amortizes more of them into one claim CAS. A group
    // nobody joined means the spin was pure added latency — narrow.
    // Leaders are rare relative to appends (one per group), so these
    // relaxed ops stay off the append fast path.
    if (members >= 4) {
      int widened = std::min(kGatherSpinsMax, window * 2);
      if (widened != window) {
        gather_spins_.store(widened, std::memory_order_relaxed);
        stats_->carray_gather_widens.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (members == 1) {
      int narrowed = std::max(kGatherSpinsMin, window / 2);
      if (narrowed != window) {
        gather_spins_.store(narrowed, std::memory_order_relaxed);
        stats_->carray_gather_narrows.fetch_add(1,
                                                std::memory_order_relaxed);
      }
    }
    stats_->carray_gather_spins.store(
        static_cast<uint64_t>(gather_spins_.load(std::memory_order_relaxed)),
        std::memory_order_relaxed);
    // One CAS claims the whole group's extent.
    uint64_t start = head_.load(std::memory_order_relaxed);
    for (;;) {
      if (!HasSpace(start, total)) {
        Status fs = ReclaimSpace();
        if (!fs.ok()) {
          PublishGroupError(s, members, fs);
          return fs;
        }
        start = head_.load(std::memory_order_relaxed);
        continue;
      }
      if (head_.compare_exchange_weak(start, start + total,
                                      std::memory_order_acq_rel)) {
        break;
      }
    }
    stats_->carray_groups.fetch_add(1, std::memory_order_relaxed);
    stats_->carray_group_records.fetch_add(members,
                                           std::memory_order_relaxed);
    stats_->carray_group_bytes.fetch_add(total, std::memory_order_relaxed);
    stats_->carray_group_size_hist[HistBucket(members)].fetch_add(
        1, std::memory_order_relaxed);
    if (members == 1) {
      s.state.store(0, std::memory_order_release);  // Nobody joined.
    } else {
      s.readers.store(static_cast<uint32_t>(members - 1),
                      std::memory_order_relaxed);
      s.base.store(start + 1, std::memory_order_release);
    }
    CopyAndPublish(start, rec);  // The leader's record sits at offset 0.
    return Appended{Lsn{start + 1}, Lsn{start + rec.size() + 1}};
  }

  Result<Appended> JoinGroup(Slot& s, uint64_t intra_offset,
                             std::span<const uint8_t> rec) {
    stats_->carray_slot_joins.fetch_add(1, std::memory_order_relaxed);
    sync::Backoff backoff;
    uint64_t base;
    while ((base = s.base.load(std::memory_order_acquire)) == 0) {
      backoff.Pause();
    }
    if (base == kBaseError) {
      Status err = s.error;
      ReleaseReader(s);
      return err;
    }
    uint64_t start = (base - 1) + intra_offset;
    ReleaseReader(s);  // The slot can recycle while we copy.
    CopyAndPublish(start, rec);
    return Appended{Lsn{start + 1}, Lsn{start + rec.size() + 1}};
  }

  void PublishGroupError(Slot& s, uint64_t members, const Status& err) {
    if (members == 1) {
      s.state.store(0, std::memory_order_release);
      return;
    }
    s.error = err;
    s.readers.store(static_cast<uint32_t>(members - 1),
                    std::memory_order_relaxed);
    s.base.store(kBaseError, std::memory_order_release);
  }

  void ReleaseReader(Slot& s) {
    if (s.readers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last member out resets the slot: base must clear before the state
      // release so the next group's members can never observe stale base.
      s.base.store(0, std::memory_order_relaxed);
      s.state.store(0, std::memory_order_release);
    }
  }

  static size_t HistBucket(uint64_t members) {
    if (members <= 2) return members - 1;       // 1, 2
    if (members <= 4) return 2;                 // 3-4
    if (members <= 8) return 3;                 // 5-8
    if (members <= 16) return 4;                // 9-16
    return 5;                                   // >16
  }

  /// Copies [start, start+rec.size()) into the ring and publishes the
  /// bytes to every overlapped region counter (release, so the flusher's
  /// acquire read of a counter sees the copied bytes).
  void CopyAndPublish(uint64_t start, std::span<const uint8_t> rec) {
    size_t pos = start & (capacity_ - 1);
    size_t first = std::min(rec.size(), capacity_ - pos);
    std::memcpy(ring_.data() + pos, rec.data(), first);
    if (first < rec.size()) {
      std::memcpy(ring_.data(), rec.data() + first, rec.size() - first);
    }
    uint64_t off = start;
    uint64_t end = start + rec.size();
    while (off < end) {
      uint64_t region = off >> region_shift_;
      uint64_t region_end = (region + 1) << region_shift_;
      uint64_t n = std::min(end, region_end) - off;
      counters_[region & (counter_count_ - 1)].completed.fetch_add(
          n, std::memory_order_release);
      off += n;
    }
  }

  /// Advances the contiguous completion watermark over fully-completed
  /// regions (plus an exactly-complete partial tail region) and returns
  /// it. Serialized by its own mutex; the critical section is a handful
  /// of atomic loads.
  uint64_t AdvanceWatermark() {
    std::lock_guard<std::mutex> guard(watermark_mutex_);
    uint64_t w = watermark_.load(std::memory_order_relaxed);
    for (;;) {
      uint64_t region = w >> region_shift_;
      size_t idx = region & (counter_count_ - 1);
      uint64_t region_start = region << region_shift_;
      uint64_t region_end = region_start + region_size_;
      // Bytes below the construction base never complete (they predate
      // this buffer); only the first region can straddle it.
      uint64_t live_start = std::max(base_, region_start);
      uint64_t full_need = region_base_[idx] + (region_end - live_start);
      uint64_t c = counters_[idx].completed.load(std::memory_order_acquire);
      if (c >= full_need) {
        region_base_[idx] = full_need;
        w = region_end;
        continue;
      }
      // Partial tail: the claim frontier sits inside this region. If the
      // counter accounts for every claimed byte while the frontier is
      // quiescent, there is no hole below it.
      uint64_t h1 = head_.load(std::memory_order_acquire);
      if (h1 > w && h1 < region_end) {
        c = counters_[idx].completed.load(std::memory_order_acquire);
        if (c == region_base_[idx] + (h1 - live_start) &&
            head_.load(std::memory_order_acquire) == h1) {
          w = h1;
        }
      }
      break;
    }
    watermark_.store(w, std::memory_order_release);
    return w;
  }

  /// Ring-full path: drain the completed watermark, or yield to in-flight
  /// copiers when everything completed is already durable.
  Status ReclaimSpace() {
    uint64_t watermark = AdvanceWatermark();
    if (watermark > storage_->size()) {
      return FlushTo(Lsn{watermark + 1});
    }
    stats_->carray_watermark_stalls.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
    return Status::Ok();
  }

  LogStats* stats_;
  const bool force_consolidation_;  ///< Test hook; see LogOptions.
  /// Adaptive gather-window spin budget, [kGatherSpinsMin, kGatherSpinsMax].
  std::atomic<int> gather_spins_{kGatherSpinsInit};
  size_t capacity_ = 0;         ///< Power of two.
  std::vector<uint8_t> ring_;
  size_t region_size_ = 0;      ///< Power of two, divides capacity_.
  unsigned region_shift_ = 0;
  size_t counter_count_ = 0;    ///< 2 * (capacity_ / region_size_).
  std::unique_ptr<Region[]> counters_;
  /// Counter value at which each counter's CURRENT region occupancy
  /// starts (contributions of all previous occupancies). Only touched
  /// under watermark_mutex_.
  std::vector<uint64_t> region_base_;
  uint64_t base_ = 0;           ///< storage size at construction.
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> watermark_{0};
  std::mutex watermark_mutex_;
  Slot slots_[kSlots];
  std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  bool flushing_ = false;
};

}  // namespace

std::unique_ptr<LogBuffer> MakeLogBuffer(LogBufferKind kind,
                                         LogStorage* storage,
                                         size_t capacity, LogStats* stats,
                                         bool force_consolidation) {
  switch (kind) {
    case LogBufferKind::kMutex:
      return std::make_unique<MutexLogBuffer>(storage, capacity);
    case LogBufferKind::kDecoupled:
      return std::make_unique<DecoupledLogBuffer>(storage, capacity);
    case LogBufferKind::kConsolidated:
      return std::make_unique<ConsolidatedLogBuffer>(storage, capacity);
    case LogBufferKind::kCArray:
      return std::make_unique<CArrayLogBuffer>(storage, capacity,
                                               EnsureStats(stats),
                                               force_consolidation);
  }
  return nullptr;
}

}  // namespace shoremt::log
