#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "sync/backoff.h"
#include "sync/hybrid_mutex.h"
#include "sync/lockfree_stack.h"
#include "sync/mcs_lock.h"
#include "sync/spinlock.h"
#include "sync/sync_stats.h"

namespace shoremt::sync {
namespace {

// Number of threads for concurrency tests; kept small because the test
// machine may have a single hardware context.
constexpr int kThreads = 4;
constexpr int kItersPerThread = 2000;

/// Hammers `lock` from kThreads threads incrementing an unprotected
/// counter; mutual exclusion holds iff the final count is exact.
template <typename Lock>
void CheckMutualExclusion(Lock& lock) {
  int64_t counter = 0;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      for (int j = 0; j < kItersPerThread; ++j) {
        std::lock_guard<Lock> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kItersPerThread);
}

TEST(TatasLockTest, MutualExclusion) {
  TatasLock lock;
  CheckMutualExclusion(lock);
}

TEST(TatasLockTest, TryLockSemantics) {
  TatasLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_TRUE(lock.IsLocked());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_FALSE(lock.IsLocked());
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(TtasLockTest, MutualExclusion) {
  TtasLock lock;
  CheckMutualExclusion(lock);
}

TEST(TtasLockTest, TryLockSemantics) {
  TtasLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
}

TEST(HybridMutexTest, MutualExclusion) {
  HybridMutex lock;
  CheckMutualExclusion(lock);
}

TEST(HybridMutexTest, TryLockSemantics) {
  HybridMutex lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(HybridMutexTest, ContendedSleepersWakeUp) {
  HybridMutex lock;
  std::atomic<int> entered{0};
  lock.lock();
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      lock.lock();
      entered.fetch_add(1);
      lock.unlock();
    });
  }
  // Hold long enough that waiters take the parking slow path.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(entered.load(), 0);
  lock.unlock();
  for (auto& w : workers) w.join();
  EXPECT_EQ(entered.load(), kThreads);
}

// The lost-wakeup schedule: a waiter is parked, unlock() notifies it, and
// before it runs a try_lock spinner (here the unlocking thread itself)
// takes the lock with a 0 -> 1 CAS that erases the sleepers mark. The
// woken waiter must re-mark the lock before sleeping again, or the
// spinner's unlock sees no sleepers and the waiter never wakes. The wait
// for the waiter is bounded so a regression fails instead of hanging.
TEST(HybridMutexTest, SpinnerStealingTheWakeupDoesNotStrandTheWaiter) {
  int stolen = 0;
  for (int round = 0; round < 5; ++round) {
    HybridMutex lock;
    std::promise<void> acquired;
    std::future<void> done = acquired.get_future();
    lock.lock();
    std::thread waiter([&] {
      lock.lock();
      acquired.set_value();
      lock.unlock();
    });
    // Long past the waiter's spin budget: it is parked on the cv.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    lock.unlock();          // Notifies the parked waiter...
    if (lock.try_lock()) {  // ...and steals the lock first.
      ++stolen;
      // Hold it while the woken waiter runs and finds it taken.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      lock.unlock();
    }
    if (done.wait_for(std::chrono::seconds(5)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "waiter stranded after a stolen wakeup (round "
                    << round << ")";
      // Free it so it can be joined: a second parked waiter re-marks the
      // lock, so the next unlock notifies again and each acquirer's
      // unlock wakes the other.
      lock.lock();
      std::thread rescuer([&] {
        lock.lock();
        lock.unlock();
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      lock.unlock();
      rescuer.join();
    }
    waiter.join();
  }
  EXPECT_GT(stolen, 0) << "the spinner never won the race it exists for";
}

TEST(McsLockTest, MutualExclusion) {
  McsLock lock;
  int64_t counter = 0;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      for (int j = 0; j < kItersPerThread; ++j) {
        McsGuard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kItersPerThread);
}

TEST(McsLockTest, TryAcquireFailsWhenHeld) {
  McsLock lock;
  McsLock::QNode a, b;
  EXPECT_TRUE(lock.TryAcquire(&a));
  EXPECT_TRUE(lock.IsLocked());
  EXPECT_FALSE(lock.TryAcquire(&b));
  lock.Release(&a);
  EXPECT_FALSE(lock.IsLocked());
}

TEST(McsLockTest, HandoffToQueuedWaiter) {
  McsLock lock;
  McsLock::QNode a;
  lock.Acquire(&a);
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    McsLock::QNode b;
    lock.Acquire(&b);
    got.store(true);
    lock.Release(&b);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(got.load());
  lock.Release(&a);
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(LockFreeStackTest, PushPopSingleThread) {
  LockFreeIndexStack stack(8);
  EXPECT_TRUE(stack.Empty());
  EXPECT_FALSE(stack.Pop().has_value());
  stack.Push(3);
  stack.Push(5);
  EXPECT_FALSE(stack.Empty());
  EXPECT_EQ(stack.Pop().value(), 5u);  // LIFO.
  EXPECT_EQ(stack.Pop().value(), 3u);
  EXPECT_FALSE(stack.Pop().has_value());
}

TEST(LockFreeStackTest, ConcurrentPushPopPreservesSet) {
  constexpr uint32_t kSlots = 64;
  LockFreeIndexStack stack(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) stack.Push(i);

  // Each thread repeatedly pops a slot and pushes it back; at the end every
  // slot must still be present exactly once.
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        auto idx = stack.Pop();
        if (idx.has_value()) stack.Push(*idx);
      }
    });
  }
  for (auto& w : workers) w.join();

  std::set<uint32_t> seen;
  while (auto idx = stack.Pop()) {
    EXPECT_TRUE(seen.insert(*idx).second) << "duplicate slot " << *idx;
  }
  EXPECT_EQ(seen.size(), kSlots);
}

TEST(SyncStatsTest, RecordsAcquisitions) {
  SyncStats stats("test");
  stats.RecordAcquire(false, 0);
  stats.RecordAcquire(true, 500);
  stats.RecordHold(1000);
  stats.RecordHold(2000);
  EXPECT_EQ(stats.acquires(), 2u);
  EXPECT_EQ(stats.contended(), 1u);
  EXPECT_EQ(stats.total_wait_ns(), 500u);
  EXPECT_EQ(stats.total_hold_ns(), 3000u);
  EXPECT_DOUBLE_EQ(stats.ContentionRate(), 0.5);
  EXPECT_DOUBLE_EQ(stats.MeanHoldNs(), 1500.0);
  stats.Reset();
  EXPECT_EQ(stats.acquires(), 0u);
}

TEST(SyncStatsTest, StatsHookedIntoLock) {
  SyncStats stats("hooked");
  TtasLock lock(&stats);
  {
    std::lock_guard<TtasLock> g(lock);
  }
  EXPECT_EQ(stats.acquires(), 1u);
  EXPECT_EQ(stats.contended(), 0u);
}

TEST(SyncStatsRegistryTest, RegisterReportUnregister) {
  SyncStats stats("registry_probe");
  auto& reg = SyncStatsRegistry::Instance();
  reg.Register(&stats);
  stats.RecordAcquire(false, 0);
  std::string report = reg.Report();
  EXPECT_NE(report.find("registry_probe"), std::string::npos);
  reg.ResetAll();
  EXPECT_EQ(stats.acquires(), 0u);
  reg.Unregister(&stats);
  auto all = reg.All();
  for (auto* s : all) EXPECT_NE(s, &stats);
}

TEST(BackoffTest, PauseDoesNotCrashAndResets) {
  Backoff b;
  for (int i = 0; i < 50; ++i) b.Pause();
  b.Reset();
  b.Pause();
}

}  // namespace
}  // namespace shoremt::sync
