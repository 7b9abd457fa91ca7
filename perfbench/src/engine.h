#ifndef PERFBENCH_ENGINE_H_
#define PERFBENCH_ENGINE_H_

// The engine under test: the durable state (volume + log device) that
// survives a simulated crash, the storage manager over it, and the
// per-module counters the benchmark reads before and after a run.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "io/volume.h"
#include "log/log_storage.h"
#include "sm/options.h"
#include "sm/storage_manager.h"

namespace perfbench {

struct EngineSpec {
  shoremt::sm::StorageOptions options;
  uint64_t log_flush_latency_ns = 0;
  /// Empty: in-memory volume. Otherwise the path of a volume file.
  std::string volume_file;
};

class Engine {
 public:
  static shoremt::Result<std::unique_ptr<Engine>> Create(EngineSpec spec);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  shoremt::sm::StorageManager* sm() { return sm_.get(); }
  shoremt::io::Volume* volume() { return volume_.get(); }
  shoremt::log::LogStorage* wal() { return &wal_; }

  /// Crashes the manager (only durable state survives) and reopens it over
  /// the same volume and log. Every session must be closed first. Returns
  /// the seconds StorageManager::Open took, recovery included.
  shoremt::Result<double> CrashAndRestart();

 private:
  explicit Engine(EngineSpec spec);

  EngineSpec spec_;
  std::unique_ptr<shoremt::io::Volume> volume_;
  shoremt::log::LogStorage wal_;
  std::unique_ptr<shoremt::sm::StorageManager> sm_;
};

/// Every module counter the per-layer metrics are computed from.
struct LayerCounters {
  uint64_t fixes = 0, hits = 0, misses = 0, evictions = 0,
           dirty_writebacks = 0, cleaner_writes = 0;
  uint64_t log_bytes = 0, group_batches = 0, group_batch_txns = 0,
           slot_joins = 0, solo_claims = 0, watermark_stalls = 0,
           checkpoints = 0, flush_calls = 0;
  uint64_t lock_acquired = 0, lock_waits = 0, lock_cache_hits = 0;
  uint64_t pages_allocated = 0, ownership_checks = 0, ownership_hits = 0;
  uint64_t io_reads = 0, io_read_ns = 0, io_writes = 0, io_pages_written = 0;
  uint64_t finds = 0, restarts = 0, fallbacks = 0, splits = 0;
};

/// Reads the counters of every module; `tables` are the indexes whose
/// split counts are summed. Sessions must have been harvested.
LayerCounters ReadCounters(Engine* engine,
                           const std::vector<shoremt::sm::TableInfo>& tables);

/// Per-layer metrics over the interval between `a` and `b`, in which
/// `txns` transactions committed during `seconds` seconds.
void AddLayerMetrics(const LayerCounters& a, const LayerCounters& b,
                     uint64_t txns, double seconds, Metrics* out);

/// Per-call latency metrics (sm.*), the benchmark's own time per
/// transaction and the commit-to-durable wait (log.durable_wait_*) from
/// the traced clients' span logs.
void AddSpanMetrics(std::vector<SpanLog>* spans, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_H_
