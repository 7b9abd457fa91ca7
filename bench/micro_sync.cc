/// google-benchmark micro-suite over the synchronization primitives —
/// the raw numbers behind the paper's principle #1 ("efficient
/// synchronization primitives are critical").

#include <benchmark/benchmark.h>

#include <mutex>

#include "sync/hybrid_latch.h"
#include "sync/hybrid_mutex.h"
#include "sync/lockfree_stack.h"
#include "sync/mcs_lock.h"
#include "sync/spinlock.h"

namespace shoremt::sync {
namespace {

// ------------------------------------------------------- uncontended -----

template <typename Lock>
void BM_Uncontended(benchmark::State& state) {
  Lock lock;
  for (auto _ : state) {
    lock.lock();
    benchmark::DoNotOptimize(&lock);
    lock.unlock();
  }
}
BENCHMARK_TEMPLATE(BM_Uncontended, TatasLock);
BENCHMARK_TEMPLATE(BM_Uncontended, TtasLock);
BENCHMARK_TEMPLATE(BM_Uncontended, HybridMutex);
BENCHMARK_TEMPLATE(BM_Uncontended, std::mutex);

void BM_UncontendedMcs(benchmark::State& state) {
  McsLock lock;
  for (auto _ : state) {
    McsLock::QNode node;
    lock.Acquire(&node);
    benchmark::DoNotOptimize(&lock);
    lock.Release(&node);
  }
}
BENCHMARK(BM_UncontendedMcs);

// --------------------------------------------------------- contended -----

template <typename Lock>
void BM_Contended(benchmark::State& state) {
  static Lock lock;
  static int64_t counter;
  for (auto _ : state) {
    lock.lock();
    ++counter;
    lock.unlock();
  }
}
BENCHMARK_TEMPLATE(BM_Contended, TatasLock)->Threads(4)->Iterations(50000);
BENCHMARK_TEMPLATE(BM_Contended, TtasLock)->Threads(4)->Iterations(50000);
BENCHMARK_TEMPLATE(BM_Contended, HybridMutex)->Threads(4)->Iterations(50000);
BENCHMARK_TEMPLATE(BM_Contended, std::mutex)->Threads(4)->Iterations(50000);

void BM_ContendedMcs(benchmark::State& state) {
  static McsLock lock;
  static int64_t counter;
  for (auto _ : state) {
    McsLock::QNode node;
    lock.Acquire(&node);
    ++counter;
    lock.Release(&node);
  }
}
BENCHMARK(BM_ContendedMcs)->Threads(4)->Iterations(50000);

// ------------------------------------------------------------ latches ----

void BM_HybridLatchShared(benchmark::State& state) {
  static HybridLatch latch;
  for (auto _ : state) {
    latch.AcquireShared();
    benchmark::DoNotOptimize(&latch);
    latch.ReleaseShared();
  }
}
BENCHMARK(BM_HybridLatchShared);
BENCHMARK(BM_HybridLatchShared)->Threads(4)->Iterations(50000);

void BM_HybridLatchExclusive(benchmark::State& state) {
  static HybridLatch latch;
  for (auto _ : state) {
    latch.AcquireExclusive();
    benchmark::DoNotOptimize(&latch);
    latch.ReleaseExclusive();
  }
}
BENCHMARK(BM_HybridLatchExclusive);

// ---------------------------------------------------- lock-free stack ----

void BM_LockFreeStackPushPop(benchmark::State& state) {
  static LockFreeIndexStack stack(1024);
  if (state.thread_index() == 0) {
    while (stack.Pop().has_value()) {
    }
    for (uint32_t i = 0; i < 1024; ++i) stack.Push(i);
  }
  for (auto _ : state) {
    auto idx = stack.Pop();
    if (idx.has_value()) stack.Push(*idx);
  }
}
BENCHMARK(BM_LockFreeStackPushPop);
BENCHMARK(BM_LockFreeStackPushPop)->Threads(4)->Iterations(50000);

}  // namespace
}  // namespace shoremt::sync

BENCHMARK_MAIN();
