#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/volume.h"
#include "log/log_buffer.h"
#include "log/log_manager.h"
#include "log/log_record.h"
#include "log/log_storage.h"
#include "page/page.h"
#include "repl/archive.h"
#include "repl/framing.h"
#include "repl/replica.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

namespace shoremt::log {
namespace {

LogRecord MakeUpdate(TxnId txn, PageNum page, uint16_t slot,
                     std::vector<uint8_t> before, std::vector<uint8_t> after) {
  LogRecord rec;
  rec.type = LogRecordType::kPageUpdate;
  rec.txn = txn;
  rec.page = page;
  rec.slot = slot;
  rec.before = std::move(before);
  rec.after = std::move(after);
  return rec;
}

TEST(LogRecordTest, SerializeRoundtrip) {
  LogRecord rec = MakeUpdate(42, 7, 3, {1, 2}, {3, 4, 5});
  rec.prev_lsn = Lsn{100};
  rec.undo_next = Lsn{50};
  rec.store = 9;
  std::vector<uint8_t> bytes;
  SerializeLogRecord(rec, &bytes);
  EXPECT_EQ(bytes.size(), rec.SerializedSize());

  LogRecord back;
  size_t consumed;
  ASSERT_TRUE(DeserializeLogRecord(bytes, &back, &consumed).ok());
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(back.type, LogRecordType::kPageUpdate);
  EXPECT_EQ(back.txn, 42u);
  EXPECT_EQ(back.page, 7u);
  EXPECT_EQ(back.slot, 3u);
  EXPECT_EQ(back.store, 9u);
  EXPECT_EQ(back.prev_lsn, Lsn{100});
  EXPECT_EQ(back.undo_next, Lsn{50});
  EXPECT_EQ(back.before, (std::vector<uint8_t>{1, 2}));
  EXPECT_EQ(back.after, (std::vector<uint8_t>{3, 4, 5}));
}

TEST(LogRecordTest, TruncatedDataIsCorruption) {
  LogRecord rec = MakeUpdate(1, 2, 0, {}, {9});
  std::vector<uint8_t> bytes;
  SerializeLogRecord(rec, &bytes);
  LogRecord back;
  size_t consumed;
  std::span<const uint8_t> half(bytes.data(), bytes.size() / 2);
  EXPECT_EQ(DeserializeLogRecord(half, &back, &consumed).code(),
            StatusCode::kCorruption);
}

TEST(LogRecordTest, CheckpointBodyRoundtrip) {
  CheckpointBody body;
  body.redo_lsn = Lsn{777};
  body.active_txns = {{1, Lsn{10}, Lsn{3}}, {5, Lsn{99}, Lsn{42}}};
  body.tables = {{0xaa, 0xbb}, {0xcc}};
  body.stores = {{7, {1, 2, 9}}, {8, {}}};
  std::vector<uint8_t> bytes;
  SerializeCheckpoint(body, &bytes);
  CheckpointBody back;
  ASSERT_TRUE(DeserializeCheckpoint(bytes, &back).ok());
  EXPECT_EQ(back.redo_lsn, Lsn{777});
  ASSERT_EQ(back.active_txns.size(), 2u);
  EXPECT_EQ(back.active_txns[1].id, 5u);
  EXPECT_EQ(back.active_txns[1].last_lsn, Lsn{99});
  EXPECT_EQ(back.active_txns[1].first_lsn, Lsn{42});
  ASSERT_EQ(back.tables.size(), 2u);
  EXPECT_EQ(back.tables[0], (std::vector<uint8_t>{0xaa, 0xbb}));
  ASSERT_EQ(back.stores.size(), 2u);
  EXPECT_EQ(back.stores[0].first, 7u);
  EXPECT_EQ(back.stores[0].second, (std::vector<PageNum>{1, 2, 9}));
  EXPECT_TRUE(back.stores[1].second.empty());
  // A truncated body must surface as corruption, not a bogus parse.
  std::span<const uint8_t> half(bytes.data(), bytes.size() / 2);
  EXPECT_EQ(DeserializeCheckpoint(half, &back).code(),
            StatusCode::kCorruption);
}

TEST(LogStorageTest, AppendAndRead) {
  LogStorage storage;
  std::vector<uint8_t> data{1, 2, 3, 4};
  ASSERT_TRUE(storage.Append(data).ok());
  EXPECT_EQ(storage.size(), 4u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(storage.Read(1, 2, &out).ok());
  EXPECT_EQ(out, (std::vector<uint8_t>{2, 3}));
  EXPECT_EQ(storage.Read(2, 10, &out).code(), StatusCode::kIOError);
  EXPECT_EQ(storage.flush_calls(), 1u);
}

class LogBufferTest : public ::testing::TestWithParam<LogBufferKind> {
 protected:
  std::unique_ptr<LogBuffer> Make(size_t cap = 1 << 16) {
    return MakeLogBuffer(GetParam(), &storage_, cap);
  }
  LogStorage storage_;
};

TEST_P(LogBufferTest, AppendAssignsMonotonicLsns) {
  auto buf = Make();
  std::vector<uint8_t> rec(64, 0xaa);
  uint64_t prev_end = 1;
  for (int i = 0; i < 10; ++i) {
    auto r = buf->Append(rec);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->lsn.value, prev_end);
    EXPECT_EQ(r->end.value, prev_end + 64);
    prev_end = r->end.value;
  }
  EXPECT_EQ(buf->next_lsn().value, prev_end);
}

TEST_P(LogBufferTest, FlushMakesBytesDurable) {
  auto buf = Make();
  std::vector<uint8_t> rec(100, 0x5a);
  auto r = buf->Append(rec);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(buf->durable_lsn().value, r->end.value);
  ASSERT_TRUE(buf->FlushTo(r->end).ok());
  EXPECT_GE(buf->durable_lsn().value, r->end.value);
  EXPECT_EQ(storage_.size(), 100u);
}

TEST_P(LogBufferTest, WrapAroundSmallRing) {
  // Ring of 1 KiB, 100-byte records, 64 appends: forces many wraps and
  // flushes; every byte must land in storage in order.
  auto buf = Make(1024);
  for (int i = 0; i < 64; ++i) {
    std::vector<uint8_t> rec(100, static_cast<uint8_t>(i));
    auto r = buf->Append(rec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_TRUE(buf->FlushTo(buf->next_lsn()).ok());
  EXPECT_EQ(storage_.size(), 6400u);
  // Check content ordering: byte at offset i*100 equals i.
  std::vector<uint8_t> out;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(storage_.Read(static_cast<uint64_t>(i) * 100, 1, &out).ok());
    EXPECT_EQ(out[0], static_cast<uint8_t>(i));
  }
}

TEST_P(LogBufferTest, OversizeRecordRejected) {
  auto buf = Make(1024);
  std::vector<uint8_t> rec(2048, 0);
  EXPECT_EQ(buf->Append(rec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(LogBufferTest, ConcurrentAppendersProduceDenseLog) {
  auto buf = Make(1 << 16);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  std::vector<std::vector<uint64_t>> lsns(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<uint8_t> rec(32, static_cast<uint8_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        auto r = buf->Append(rec);
        ASSERT_TRUE(r.ok());
        lsns[t].push_back(r->lsn.value);
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_TRUE(buf->FlushTo(buf->next_lsn()).ok());
  EXPECT_EQ(storage_.size(),
            static_cast<uint64_t>(kThreads) * kPerThread * 32);
  // All LSNs distinct and 32-byte aligned in the claim space.
  std::set<uint64_t> all;
  for (const auto& v : lsns) {
    for (uint64_t l : v) {
      EXPECT_TRUE(all.insert(l).second) << "duplicate LSN " << l;
      EXPECT_EQ((l - 1) % 32, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, LogBufferTest,
                         ::testing::Values(LogBufferKind::kMutex,
                                           LogBufferKind::kDecoupled,
                                           LogBufferKind::kConsolidated,
                                           LogBufferKind::kCArray),
                         [](const auto& info) {
                           switch (info.param) {
                             case LogBufferKind::kMutex:
                               return "Mutex";
                             case LogBufferKind::kDecoupled:
                               return "Decoupled";
                             case LogBufferKind::kConsolidated:
                               return "Consolidated";
                             case LogBufferKind::kCArray:
                               return "CArray";
                           }
                           return "Unknown";
                         });

constexpr LogBufferKind kAllBufferKinds[] = {
    LogBufferKind::kMutex, LogBufferKind::kDecoupled,
    LogBufferKind::kConsolidated, LogBufferKind::kCArray};

// Deterministic per-record payload so readback can prove bytes are
// neither torn nor cross-wired between records.
std::vector<uint8_t> StressPayload(TxnId txn, PageNum seq) {
  size_t len = 20 + (static_cast<size_t>(txn) * 37 + seq * 11) % 180;
  std::vector<uint8_t> p(len);
  for (size_t i = 0; i < len; ++i) {
    p[i] = static_cast<uint8_t>(txn * 101 + seq * 31 + i);
  }
  return p;
}

/// Multi-producer stress over every buffer kind: after a full drain, a
/// ReadRecord walk over the durable stream must see every record intact
/// (no torn or reordered bytes) and each producer's records in its append
/// order. Small ring + varied record sizes force wraps, ring-full
/// self-flushes and — for kCArray — group claims with out-of-order
/// completion publication.
TEST(LogBufferStressTest, MultiProducerRecordsSurviveDrainIntact) {
  constexpr int kThreads = 4;
  const int kPerThread = 300;
  for (LogBufferKind kind : kAllBufferKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    LogStorage storage;
    LogOptions opts;
    opts.buffer_kind = kind;
    opts.buffer_capacity = 1 << 14;  // 16 KiB: plenty of wraps.
    LogManager mgr(&storage, opts);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          TxnId txn = static_cast<TxnId>(t + 1);
          LogRecord rec = MakeUpdate(txn, static_cast<PageNum>(i), 0, {},
                                     StressPayload(txn, i));
          ASSERT_TRUE(mgr.Append(rec).ok());
        }
      });
    }
    for (auto& w : workers) w.join();
    ASSERT_TRUE(mgr.FlushAll().ok());

    // ReadRecord walk: every record re-read from the durable stream by
    // LSN, advancing by its serialized size.
    std::vector<int> next_seq(kThreads, 0);
    uint64_t offset = 0;
    size_t records = 0;
    while (offset < storage.size()) {
      auto rec = mgr.ReadRecord(Lsn{offset + 1});
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      int t = static_cast<int>(rec->txn) - 1;
      ASSERT_GE(t, 0);
      ASSERT_LT(t, kThreads);
      // In-order per producer, intact payload.
      EXPECT_EQ(rec->page, static_cast<PageNum>(next_seq[t]));
      EXPECT_EQ(rec->after, StressPayload(rec->txn, rec->page));
      ++next_seq[t];
      ++records;
      offset += rec->SerializedSize();
    }
    EXPECT_EQ(offset, storage.size());  // Dense: no gaps, no tail garbage.
    EXPECT_EQ(records, static_cast<size_t>(kThreads) * kPerThread);
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next_seq[t], kPerThread);
  }
}

/// Crash simulation under out-of-order completion publication: producers
/// race appends and mid-stream flushes, then the manager is abandoned
/// (power failure — no final drain). Recovery must replay EXACTLY the
/// contiguous completed prefix: every record below the durable horizon
/// intact and dense, covering at least every explicitly flushed target,
/// with the unflushed tail gone.
TEST(LogBufferStressTest, CrashRecoversContiguousCompletedPrefix) {
  for (LogBufferKind kind :
       {LogBufferKind::kConsolidated, LogBufferKind::kCArray}) {
    SCOPED_TRACE(static_cast<int>(kind));
    constexpr int kThreads = 4;
    const int kPerThread = 200;
    LogStorage storage;
    std::atomic<uint64_t> max_flushed{0};
    {
      LogOptions opts;
      opts.buffer_kind = kind;
      opts.buffer_capacity = 1 << 13;
      LogManager mgr(&storage, opts);
      std::vector<std::thread> workers;
      for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
          for (int i = 0; i < kPerThread; ++i) {
            TxnId txn = static_cast<TxnId>(t + 1);
            LogRecord rec = MakeUpdate(txn, static_cast<PageNum>(i), 0, {},
                                       StressPayload(txn, i));
            auto a = mgr.Append(rec);
            ASSERT_TRUE(a.ok());
            if (i % 25 == 24) {
              ASSERT_TRUE(mgr.FlushTo(a->end).ok());
              uint64_t prev = max_flushed.load();
              while (prev < a->end.value &&
                     !max_flushed.compare_exchange_weak(prev, a->end.value)) {
              }
            }
          }
        });
      }
      for (auto& w : workers) w.join();
      mgr.Abandon();  // Crash: whatever was not flushed is lost.
    }
    ASSERT_GE(storage.size() + 1, max_flushed.load());

    LogManager recovered(&storage, LogOptions{});
    uint64_t offset = 0;
    Lsn last_end{0};
    ASSERT_TRUE(recovered
                    .Scan([&](const LogRecord& rec, Lsn end) {
                      // Contiguous prefix: each record starts exactly
                      // where its predecessor ended.
                      EXPECT_EQ(rec.lsn.value, offset + 1);
                      EXPECT_EQ(rec.after, StressPayload(rec.txn, rec.page));
                      offset = end.value - 1;
                      last_end = end;
                      return Status::Ok();
                    })
                    .ok());
    // The replayed prefix covers every acknowledged flush target and ends
    // at the durable horizon — nothing beyond it, no holes inside it.
    EXPECT_GE(last_end.value, max_flushed.load());
    EXPECT_EQ(offset, storage.size());
  }
}

/// Regression for the consolidated buffer's ring-full path: it used to
/// flush to `storage size + 2` — one byte past durable — so a full ring
/// could bounce through FlushTo re-flushing tiny prefixes, one device
/// call each. Flushing to the completed watermark drains everything
/// completed per call: with records near ring capacity and heavy
/// ring-full traffic, the device-call count stays in the order of the
/// record count.
TEST(LogBufferStressTest, ConsolidatedRingFullDrainsCompletedWatermark) {
  for (LogBufferKind kind :
       {LogBufferKind::kConsolidated, LogBufferKind::kCArray}) {
    SCOPED_TRACE(static_cast<int>(kind));
    constexpr int kThreads = 4;
    const int kPerThread = 200;
    constexpr size_t kRing = 1 << 12;
    constexpr size_t kRecord = 1800;  // Near the ring/2 record ceiling.
    LogStorage storage;
    auto buf = MakeLogBuffer(kind, &storage, kRing);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        std::vector<uint8_t> rec(kRecord,
                                 static_cast<uint8_t>(1 + t));
        for (int i = 0; i < kPerThread; ++i) {
          ASSERT_TRUE(buf->Append(rec).ok());
        }
      });
    }
    for (auto& w : workers) w.join();
    ASSERT_TRUE(buf->FlushTo(buf->next_lsn()).ok());
    const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
    ASSERT_EQ(storage.size(), total * kRecord);
    // No torn records: the stream is a permutation of uniform blocks.
    std::vector<uint8_t> bytes = storage.Snapshot();
    std::vector<int> per_thread(kThreads + 1, 0);
    for (uint64_t r = 0; r < total; ++r) {
      uint8_t v = bytes[r * kRecord];
      ASSERT_GE(v, 1);
      ASSERT_LE(v, kThreads);
      ++per_thread[v];
      for (size_t i = 1; i < kRecord; ++i) {
        ASSERT_EQ(bytes[r * kRecord + i], v) << "torn record " << r;
      }
    }
    for (int t = 1; t <= kThreads; ++t) EXPECT_EQ(per_thread[t], kPerThread);
    // Tiny-prefix pathology bound: draining the watermark needs at most
    // ~one device call per ring-full record (plus slack for races).
    EXPECT_LE(storage.flush_calls(), 2 * total);
  }
}

/// Group-protocol coverage: with the force-consolidation hook every
/// append routes through the slots, so leaders and members run on any
/// host — on few-context machines the solo CAS essentially never fails
/// and the slot protocol would otherwise go unexercised. Verifies join
/// accounting, base hand-off, parallel member copies and out-of-order
/// publication end to end via a full readback.
TEST(LogBufferStressTest, ForcedConsolidationGroupsStayIntact) {
  constexpr int kThreads = 8;
  const int kPerThread = 200;
  LogStorage storage;
  LogOptions opts;
  opts.buffer_kind = LogBufferKind::kCArray;
  opts.buffer_capacity = 1 << 14;
  opts.carray_force_consolidation = true;
  LogManager mgr(&storage, opts);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TxnId txn = static_cast<TxnId>(t + 1);
        LogRecord rec = MakeUpdate(txn, static_cast<PageNum>(i), 0, {},
                                   StressPayload(txn, i));
        ASSERT_TRUE(mgr.Append(rec).ok());
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_TRUE(mgr.FlushAll().ok());

  const LogStats& s = mgr.stats();
  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
  // Every append either led a group or joined one; the accounting closes.
  EXPECT_GT(s.carray_groups.load(), 0u);
  EXPECT_GT(s.carray_slot_joins.load(), 0u)
      << "no member ever joined a slot: the hand-off path went untested";
  EXPECT_EQ(s.carray_group_records.load() + s.carray_solo_claims.load(),
            total);
  EXPECT_EQ(s.carray_group_records.load(),
            s.carray_groups.load() + s.carray_slot_joins.load());
  uint64_t hist = 0;
  for (const auto& bucket : s.carray_group_size_hist) hist += bucket.load();
  EXPECT_EQ(hist, s.carray_groups.load());

  // Full readback: no torn, lost or reordered bytes.
  std::vector<int> next_seq(kThreads, 0);
  uint64_t offset = 0;
  while (offset < storage.size()) {
    auto rec = mgr.ReadRecord(Lsn{offset + 1});
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    int t = static_cast<int>(rec->txn) - 1;
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(rec->page, static_cast<PageNum>(next_seq[t]));
    EXPECT_EQ(rec->after, StressPayload(rec->txn, rec->page));
    ++next_seq[t];
    offset += rec->SerializedSize();
  }
  EXPECT_EQ(offset, storage.size());
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next_seq[t], kPerThread);
}

/// Adaptive gather window: a solo producer under forced consolidation
/// leads every group alone (members == 1), so each close signals that
/// spinning for joiners was pure latency and the leader must halve the
/// spin budget toward its floor. The narrow counter plus the gauge
/// sitting below the initial budget prove the adaptation actually
/// engaged rather than the window idling at its compile-time default.
TEST(LogBufferStressTest, ForcedConsolidationSoloNarrowsGatherWindow) {
  LogStorage storage;
  LogOptions opts;
  opts.buffer_kind = LogBufferKind::kCArray;
  opts.buffer_capacity = 1 << 14;
  opts.carray_force_consolidation = true;
  LogManager mgr(&storage, opts);
  for (int i = 0; i < 64; ++i) {
    LogRecord rec = MakeUpdate(1, static_cast<PageNum>(i), 0, {},
                               StressPayload(1, i));
    ASSERT_TRUE(mgr.Append(rec).ok());
  }
  ASSERT_TRUE(mgr.FlushAll().ok());
  const LogStats& s = mgr.stats();
  EXPECT_GT(s.carray_gather_narrows.load(), 0u)
      << "solo-led groups never narrowed the gather window";
  EXPECT_LT(s.carray_gather_spins.load(), 64u)
      << "gauge still at the initial spin budget: adaptation never engaged";
  EXPECT_GE(s.carray_gather_spins.load(), 8u)
      << "gauge fell through the floor";
}

/// Ring-full appends against a dead log device must surface the flush
/// error to every producer — nobody may hang waiting for space (or, in a
/// consolidation group, for a leader whose claim can never succeed).
TEST(LogBufferStressTest, ForcedConsolidationRingFullDeviceErrorSurfaces) {
  constexpr int kThreads = 4;
  LogStorage storage;
  LogOptions opts;
  opts.buffer_kind = LogBufferKind::kCArray;
  opts.buffer_capacity = 1 << 12;
  opts.carray_force_consolidation = true;
  {
    LogManager mgr(&storage, opts);
    // Fill the ring (completed but unflushed), then kill the device:
    // every further append needs a reclaim flush, which must fail.
    std::vector<uint8_t> filler(1900);
    for (int i = 0; i < 2; ++i) {
      LogRecord rec = MakeUpdate(99, 0, 0, {}, filler);
      ASSERT_TRUE(mgr.Append(rec).ok());
    }
    storage.set_fail_appends(true);
    std::atomic<int> io_errors{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        LogRecord rec = MakeUpdate(static_cast<TxnId>(t + 1), 0, 0, {},
                                   std::vector<uint8_t>(400, 0xee));
        auto a = mgr.Append(rec);
        ASSERT_FALSE(a.ok());
        EXPECT_EQ(a.status().code(), StatusCode::kIOError);
        io_errors.fetch_add(1);
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(io_errors.load(), kThreads);
    storage.set_fail_appends(false);
    mgr.Abandon();  // The unflushed tail is deliberately lost.
  }
  // Nothing ever reached the device.
  EXPECT_EQ(storage.size(), 0u);
}

TEST(LogManagerTest, OnDurableFiresWhenDaemonPassesTarget) {
  LogStorage storage;
  LogManager mgr(&storage, LogOptions{});
  auto a = mgr.Append(MakeUpdate(1, 1, 0, {}, {1}));
  ASSERT_TRUE(a.ok());
  std::atomic<int> fired{0};
  Status seen = Status::Internal("never invoked");
  // Registration doubles as the flush submission: no SubmitFlush needed.
  mgr.OnDurable(a->end, [&](Status st) {
    seen = st;
    fired.fetch_add(1, std::memory_order_release);
  });
  for (int i = 0; i < 2000 && fired.load(std::memory_order_acquire) == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fired.load(), 1);
  EXPECT_TRUE(seen.ok()) << seen.ToString();
  EXPECT_TRUE(mgr.IsDurable(a->end));
}

TEST(LogManagerTest, OnDurableAlreadyDurableFiresInline) {
  LogStorage storage;
  LogManager mgr(&storage, LogOptions{});
  auto a = mgr.Append(MakeUpdate(1, 1, 0, {}, {1}));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(mgr.FlushTo(a->end).ok());
  bool fired = false;
  mgr.OnDurable(a->end, [&](Status st) {
    EXPECT_TRUE(st.ok());
    fired = true;
  });
  EXPECT_TRUE(fired);  // Inline: before OnDurable returned.
}

TEST(LogManagerTest, OnDurableFiresInLsnOrderAcrossBatches) {
  // A slow device keeps the daemon's first batch in flight until every
  // registration (deliberately out of order) has landed in the pending
  // map: none can take the already-durable inline path, so the dispatch
  // order observed is the daemon's — which must be ascending-LSN.
  LogStorage storage(/*append_latency_ns=*/20'000'000);
  LogManager mgr(&storage, LogOptions{});
  std::mutex mu;
  std::vector<int> order;
  std::vector<Lsn> ends;
  for (int i = 0; i < 5; ++i) {
    auto a = mgr.Append(MakeUpdate(1, 1, 0, {}, {static_cast<uint8_t>(i)}));
    ASSERT_TRUE(a.ok());
    ends.push_back(a->end);
  }
  // Register out of order; dispatch must follow LSN order.
  for (int i : {3, 0, 4, 2, 1}) {
    mgr.OnDurable(ends[i], [&, i](Status st) {
      EXPECT_TRUE(st.ok());
      std::lock_guard<std::mutex> guard(mu);
      order.push_back(i);
    });
  }
  ASSERT_TRUE(mgr.WaitDurable(ends[4]).ok());
  for (int i = 0; i < 2000; ++i) {
    {
      std::lock_guard<std::mutex> guard(mu);
      if (order.size() == 5) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> guard(mu);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(LogManagerTest, OnDurableGetsStickyPipelineError) {
  LogStorage storage;
  LogManager mgr(&storage, LogOptions{});
  auto a = mgr.Append(MakeUpdate(1, 1, 0, {}, {1}));
  ASSERT_TRUE(a.ok());
  storage.set_fail_appends(true);
  std::atomic<int> fired{0};
  Status seen;
  mgr.OnDurable(a->end, [&](Status st) {
    seen = st;
    fired.fetch_add(1, std::memory_order_release);
  });
  for (int i = 0; i < 2000 && fired.load(std::memory_order_acquire) == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fired.load(), 1);
  EXPECT_EQ(seen.code(), StatusCode::kIOError);
  // A closure registered AFTER the pipeline was poisoned fires inline
  // with the same sticky error.
  bool late_fired = false;
  mgr.OnDurable(Lsn{a->end.value + 100}, [&](Status st) {
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    late_fired = true;
  });
  EXPECT_TRUE(late_fired);
  storage.set_fail_appends(false);  // Let the destructor's drain proceed.
}

TEST(LogManagerTest, OnDurableFiresFromFinalDrainOnShutdown) {
  LogStorage storage;
  std::atomic<int> fired{0};
  Status seen = Status::Internal("never invoked");
  {
    LogManager mgr(&storage, LogOptions{});
    auto a = mgr.Append(MakeUpdate(7, 1, 0, {}, {3}));
    ASSERT_TRUE(a.ok());
    mgr.OnDurable(a->end, [&](Status st) {
      seen = st;
      fired.fetch_add(1);
    });
    // Destroyed without waiting: the final drain covers the target and
    // the closure fires with Ok before the daemon joins.
  }
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(seen.ok()) << seen.ToString();
  EXPECT_GT(storage.size(), 0u);
}

TEST(LogManagerTest, OnDurableSynchronousFlushDispatches) {
  // Durability advanced behind the daemon's back (synchronous FlushTo)
  // must also dispatch registered closures via NotifyDurableAdvanced.
  LogStorage storage;
  LogManager mgr(&storage, LogOptions{});
  auto a1 = mgr.Append(MakeUpdate(1, 1, 0, {}, {1}));
  ASSERT_TRUE(a1.ok());
  auto a2 = mgr.Append(MakeUpdate(2, 2, 0, {}, {2}));
  ASSERT_TRUE(a2.ok());
  std::atomic<int> fired{0};
  mgr.OnDurable(a1->end, [&](Status st) {
    EXPECT_TRUE(st.ok());
    fired.fetch_add(1, std::memory_order_release);
  });
  ASSERT_TRUE(mgr.FlushTo(a2->end).ok());
  // The synchronous flush path dispatches due callbacks itself (the
  // daemon may also have raced it; either way it fires exactly once).
  for (int i = 0; i < 2000 && fired.load(std::memory_order_acquire) == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), 1);
}

TEST(LogManagerTest, AppendFlushReadback) {
  LogStorage storage;
  LogManager mgr(&storage, LogOptions{});
  LogRecord rec = MakeUpdate(1, 10, 0, {1}, {2});
  auto a = mgr.Append(rec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(mgr.FlushTo(a->end).ok());
  auto back = mgr.ReadRecord(a->lsn);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->txn, 1u);
  EXPECT_EQ(back->page, 10u);
  EXPECT_EQ(back->lsn, a->lsn);
  EXPECT_EQ(mgr.stats().records.load(), 1u);
}

TEST(LogManagerTest, ScanVisitsRecordsInOrder) {
  LogStorage storage;
  LogManager mgr(&storage, LogOptions{});
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(mgr.Append(MakeUpdate(i, i * 2, 0, {}, {9})).ok());
  }
  ASSERT_TRUE(mgr.FlushAll().ok());
  std::vector<TxnId> seen;
  Lsn last_end{0};
  ASSERT_TRUE(mgr.Scan([&](const LogRecord& rec, Lsn end) {
                  seen.push_back(rec.txn);
                  EXPECT_GT(end.value, rec.lsn.value);
                  EXPECT_GE(rec.lsn.value, last_end.value);
                  last_end = end;
                  return Status::Ok();
                }).ok());
  ASSERT_EQ(seen.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(seen[i], static_cast<TxnId>(i + 1));
}

TEST(LogManagerTest, UnflushedTailIsLostOnCrash) {
  LogStorage storage;
  std::vector<TxnId> seen;
  {
    LogManager mgr(&storage, LogOptions{});
    auto a1 = mgr.Append(MakeUpdate(1, 1, 0, {}, {1}));
    ASSERT_TRUE(a1.ok());
    ASSERT_TRUE(mgr.FlushTo(a1->end).ok());
    // Appended but never flushed: a crash forgets it.
    ASSERT_TRUE(mgr.Append(MakeUpdate(2, 2, 0, {}, {2})).ok());
  }
  // "Restart": a fresh manager attached to the same storage.
  LogManager recovered(&storage, LogOptions{});
  ASSERT_TRUE(recovered.Scan([&](const LogRecord& rec, Lsn) {
                  seen.push_back(rec.txn);
                  return Status::Ok();
                }).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 1u);
}

TEST(LogManagerTest, ClrCountsAsCompensation) {
  LogStorage storage;
  LogManager mgr(&storage, LogOptions{});
  LogRecord clr;
  clr.type = LogRecordType::kClr;
  clr.txn = 3;
  clr.undo_next = Lsn{1};
  ASSERT_TRUE(mgr.AppendClr(clr).ok());
  EXPECT_EQ(mgr.stats().compensations.load(), 1u);
}

TEST(LogManagerTest, ReadRecordValidatesLengthPrefix) {
  LogStorage storage;
  LogManager mgr(&storage, LogOptions{});
  // A record beyond the durable end is Corruption, not a bogus read.
  EXPECT_EQ(mgr.ReadRecord(Lsn{1}).status().code(), StatusCode::kCorruption);

  // Garbage bytes whose length prefix is absurdly large: the prefix must
  // be validated against the durable size before any read is attempted.
  std::vector<uint8_t> garbage(64, 0xFF);
  ASSERT_TRUE(storage.Append(garbage).ok());
  EXPECT_EQ(mgr.ReadRecord(Lsn{1}).status().code(), StatusCode::kCorruption);

  // A prefix smaller than any valid record (here: 2) is equally rejected.
  LogStorage tiny_storage;
  LogManager tiny_mgr(&tiny_storage, LogOptions{});
  std::vector<uint8_t> tiny(64, 0);
  tiny[0] = 2;
  ASSERT_TRUE(tiny_storage.Append(tiny).ok());
  EXPECT_EQ(tiny_mgr.ReadRecord(Lsn{1}).status().code(),
            StatusCode::kCorruption);

  // A truncated-but-plausible prefix (record extends past durable end).
  LogStorage torn_storage;
  LogManager torn_mgr(&torn_storage, LogOptions{});
  std::vector<uint8_t> torn(8, 0);
  uint32_t claims = 1 << 20;
  std::memcpy(torn.data(), &claims, 4);
  ASSERT_TRUE(torn_storage.Append(torn).ok());
  EXPECT_EQ(torn_mgr.ReadRecord(Lsn{1}).status().code(),
            StatusCode::kCorruption);
}

TEST(LogManagerTest, PipelineSubmitThenWaitBecomesDurable) {
  LogStorage storage;
  LogManager mgr(&storage, LogOptions{});
  auto a = mgr.Append(MakeUpdate(1, 1, 0, {}, {1}));
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(mgr.IsDurable(a->end));
  mgr.SubmitFlush(a->end);
  ASSERT_TRUE(mgr.WaitDurable(a->end).ok());
  EXPECT_TRUE(mgr.IsDurable(a->end));
  EXPECT_GE(mgr.stats().group_batches.load(), 1u);
}

TEST(LogManagerTest, PipelineWaitWithoutSubmitSelfSubmits) {
  LogStorage storage;
  LogManager mgr(&storage, LogOptions{});
  auto a = mgr.Append(MakeUpdate(1, 1, 0, {}, {2}));
  ASSERT_TRUE(a.ok());
  // Wait alone must not hang: it registers the target itself.
  ASSERT_TRUE(mgr.WaitDurable(a->end).ok());
  EXPECT_TRUE(mgr.IsDurable(a->end));
}

TEST(LogManagerTest, PipelineDrainsSubmittedTargetsOnDestruction) {
  LogStorage storage;
  {
    LogManager mgr(&storage, LogOptions{});
    auto a = mgr.Append(MakeUpdate(7, 1, 0, {}, {3}));
    ASSERT_TRUE(a.ok());
    mgr.SubmitFlush(a->end);
    // Destroyed without waiting: the final drain must cover the submit.
  }
  ASSERT_GT(storage.size(), 0u);
  std::vector<TxnId> seen;
  LogManager recovered(&storage, LogOptions{});
  ASSERT_TRUE(recovered.Scan([&](const LogRecord& rec, Lsn) {
                  seen.push_back(rec.txn);
                  return Status::Ok();
                }).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 7u);
}

TEST(LogManagerTest, AbandonedPipelineLosesUnflushedSubmits) {
  LogStorage storage;
  {
    LogManager mgr(&storage, LogOptions{});
    auto a1 = mgr.Append(MakeUpdate(1, 1, 0, {}, {1}));
    ASSERT_TRUE(a1.ok());
    ASSERT_TRUE(mgr.FlushTo(a1->end).ok());
    // Abandon *before* submitting, so the daemon never has work: the
    // submitted-but-undrained record must be lost at destruction, exactly
    // like a power failure.
    mgr.Abandon();
    auto a2 = mgr.Append(MakeUpdate(2, 2, 0, {}, {2}));
    ASSERT_TRUE(a2.ok());
  }
  std::vector<TxnId> seen;
  LogManager recovered(&storage, LogOptions{});
  ASSERT_TRUE(recovered.Scan([&](const LogRecord& rec, Lsn) {
                  seen.push_back(rec.txn);
                  return Status::Ok();
                }).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 1u);
}

TEST(LogManagerTest, FlushDaemonEventuallyFlushes) {
  LogStorage storage;
  LogOptions opts;
  opts.flush_daemon = true;
  opts.flush_interval_us = 200;
  LogManager mgr(&storage, opts);
  auto a = mgr.Append(MakeUpdate(1, 1, 0, {}, {1}));
  ASSERT_TRUE(a.ok());
  for (int i = 0; i < 500 && mgr.durable_lsn() < a->end; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(mgr.durable_lsn().value, a->end.value);
}

TEST(LogManagerTest, GroupCommitAmortizesFlushCalls) {
  // With 4 committers and a slow log device, the group-commit flush path
  // should need far fewer storage appends than commits.
  LogStorage storage(/*append_latency_ns=*/200'000);
  LogOptions opts;
  opts.buffer_kind = LogBufferKind::kConsolidated;
  LogManager mgr(&storage, opts);
  constexpr int kThreads = 4;
  constexpr int kCommits = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kCommits; ++i) {
        auto a = mgr.Append(MakeUpdate(1, 1, 0, {}, {7}));
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(mgr.FlushTo(a->end).ok());
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LT(storage.flush_calls(), kThreads * kCommits);
}

// ------------------------------------------ one walker, four readers ----

/// One engine's log and volume: a table's worth of committed inserts
/// with the data pages written back (checksum-stamped) to the volume.
struct EngineHistory {
  io::MemVolume volume;
  std::vector<uint8_t> log;
  std::vector<uint64_t> starts;  ///< Byte offset of every record.
  PageNum data_page = kInvalidPageNum;
};

sm::StorageOptions WalkerEngineOptions() {
  sm::StorageOptions o = sm::StorageOptions::ForStage(sm::Stage::kFinal);
  o.buffer.enable_cleaner = false;
  o.checkpoint_daemon = false;
  return o;
}

void BuildEngineHistory(EngineHistory* h) {
  LogStorage wal;
  {
    auto opened =
        sm::StorageManager::Open(WalkerEngineOptions(), &h->volume, &wal);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& db = *opened;
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Commit().ok());
    for (uint64_t k = 0; k < 40; ++k) {
      ASSERT_TRUE(session->Begin().ok());
      ASSERT_TRUE(
          session->Insert(*table, k, std::vector<uint8_t>(48, k & 0xFF))
              .ok());
      ASSERT_TRUE(session->Commit().ok());
    }
    session.reset();
    ASSERT_TRUE(db->Shutdown().ok());
  }
  h->log = wal.Snapshot();
  ASSERT_TRUE(WalkLogRecords(h->log, 0,
                             [&](LogRecord& rec, Lsn) {
                               h->starts.push_back(rec.lsn.value - 1);
                               return Status::Ok();
                             })
                  .ok());
  std::vector<uint8_t> img(kPageSize);
  for (PageNum p = 1; p < h->volume.NumPages(); ++p) {
    ASSERT_TRUE(h->volume.ReadPage(p, img.data()).ok());
    const page::PageHeader* ph = page::HeaderOf(img.data());
    if (ph->magic == page::kPageMagic && ph->type == page::PageType::kData &&
        ph->checksum != 0) {
      h->data_page = p;
      break;
    }
  }
  ASSERT_NE(h->data_page, kInvalidPageNum);
}

struct WalkerCase {
  const char* name;
  /// Damages the stream; returns the LSN a Corruption must name (0 when
  /// the damaged stream must read cleanly).
  uint64_t (*damage)(const EngineHistory& h, std::vector<uint8_t>* log);
};

const WalkerCase kWalkerCases[] = {
    {"ShortLengthPrefixMidStream",
     [](const EngineHistory& h, std::vector<uint8_t>* log) -> uint64_t {
       uint64_t at = h.starts[h.starts.size() / 2];
       uint32_t bad = 8;  // Below header + CRC: no record is this small.
       std::memcpy(log->data() + at, &bad, sizeof(bad));
       return at + 1;
     }},
    {"CrcMismatchMidStream",
     [](const EngineHistory& h, std::vector<uint8_t>* log) -> uint64_t {
       size_t mid = h.starts.size() / 2;
       (*log)[h.starts[mid + 1] - 1] ^= 0x10;  // The record's CRC word.
       return h.starts[mid] + 1;
     }},
    {"RecordCutAtEndOfStream",
     [](const EngineHistory& h, std::vector<uint8_t>* log) -> uint64_t {
       uint64_t last = h.starts.back();
       log->resize(last + (log->size() - last) / 2);
       return 0;
     }},
};

void ExpectWalkerRule(const char* reader, const Status& st, uint64_t lsn) {
  if (lsn == 0) {
    EXPECT_TRUE(st.ok()) << reader << ": " << st.ToString();
    return;
  }
  EXPECT_EQ(st.code(), StatusCode::kCorruption)
      << reader << ": " << st.ToString();
  EXPECT_NE(st.message().find("LSN " + std::to_string(lsn)),
            std::string::npos)
      << reader << " must name the damaged record: " << st.ToString();
}

// Damaged bytes written whole are Corruption naming the record's LSN, and
// a record cut at the end of the stream is a clean stop — for the log
// scan, media repair, point-in-time restore and the replica alike, since
// all four walk the log through WalkLogRecords.
TEST(LogWalkerTest, EveryReaderFollowsTheSameRule) {
  EngineHistory h;
  ASSERT_NO_FATAL_FAILURE(BuildEngineHistory(&h));
  for (const WalkerCase& c : kWalkerCases) {
    SCOPED_TRACE(c.name);
    std::vector<uint8_t> log = h.log;
    uint64_t lsn = c.damage(h, &log);

    {  // LogManager::Scan (recovery's analysis and redo passes).
      LogStorage wal;
      ASSERT_TRUE(wal.Append(log).ok());
      LogManager mgr(&wal, LogOptions{});
      ExpectWalkerRule("scan",
                       mgr.Scan([](LogRecord&, Lsn) { return Status::Ok(); }),
                       lsn);
    }
    {  // Media repair: a checksum-failed page rebuilt from the log.
      io::MemVolume volume;
      ASSERT_TRUE(volume.Extend(h.volume.NumPages()).ok());
      std::vector<uint8_t> img(kPageSize);
      for (PageNum p = 0; p < h.volume.NumPages(); ++p) {
        ASSERT_TRUE(h.volume.ReadPage(p, img.data()).ok());
        if (p == h.data_page) img[200] ^= 0x01;
        ASSERT_TRUE(volume.WritePage(p, img.data()).ok());
      }
      LogStorage wal;
      ASSERT_TRUE(wal.Append(log).ok());
      // Attach mode runs no recovery: the damaged page is first read by
      // the fix below, which sends it through repair.
      sm::StorageOptions o = WalkerEngineOptions();
      o.open_mode = sm::OpenMode::kReplicaAttach;
      auto db = sm::StorageManager::Open(o, &volume, &wal);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      auto fixed =
          (*db)->pool()->FixPage(h.data_page, sync::LatchMode::kShared);
      ExpectWalkerRule("repair", fixed.status(), lsn);
    }
    {  // Point-in-time restore to the end of the stream (no archive).
      LogStorage wal;
      ASSERT_TRUE(wal.Append(log).ok());
      auto restored = repl::RestoreToLsn(
          ::testing::TempDir() + "/no-archive", &wal,
          Lsn{h.log.size() + 1}, WalkerEngineOptions());
      ExpectWalkerRule("restore", restored.status(), lsn);
    }
    {  // A replica attaching over a received prefix parses it at Start.
      int fds[2];
      ASSERT_TRUE(repl::MakeSocketPair(fds).ok());
      io::MemVolume volume;
      LogStorage wal;
      ASSERT_TRUE(wal.Append(log).ok());
      repl::Replica::Options ro;
      ro.storage = WalkerEngineOptions();
      repl::Replica replica(&volume, &wal, ro);
      ExpectWalkerRule("replica", replica.Start(fds[1]), lsn);
      replica.Stop();
      ::close(fds[0]);
      ::close(fds[1]);
    }
  }
}

}  // namespace
}  // namespace shoremt::log
