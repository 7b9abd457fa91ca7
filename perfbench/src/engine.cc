#include "engine.h"

#include <algorithm>

namespace perfbench {

using shoremt::Result;
using shoremt::Status;

Engine::Engine(EngineSpec spec)
    : spec_(std::move(spec)), wal_(spec_.log_flush_latency_ns) {}

Engine::~Engine() {
  sm_.reset();  // The manager must go before the volume it writes to.
}

Result<std::unique_ptr<Engine>> Engine::Create(EngineSpec spec) {
  std::unique_ptr<Engine> e(new Engine(std::move(spec)));
  if (e->spec_.volume_file.empty()) {
    e->volume_ = std::make_unique<shoremt::io::MemVolume>();
  } else {
    SHOREMT_ASSIGN_OR_RETURN(
        e->volume_, shoremt::io::FileVolume::Open(e->spec_.volume_file));
  }
  SHOREMT_ASSIGN_OR_RETURN(e->sm_,
                           shoremt::sm::StorageManager::Open(
                               e->spec_.options, e->volume_.get(), &e->wal_));
  return e;
}

Result<double> Engine::CrashAndRestart() {
  sm_->SimulateCrash();
  sm_.reset();
  uint64_t t0 = NowNs();
  SHOREMT_ASSIGN_OR_RETURN(sm_, shoremt::sm::StorageManager::Open(
                                    spec_.options, volume_.get(), &wal_));
  return static_cast<double>(NowNs() - t0) / 1e9;
}

LayerCounters ReadCounters(Engine* engine,
                           const std::vector<shoremt::sm::TableInfo>& tables) {
  shoremt::sm::StorageManager* sm = engine->sm();
  LayerCounters c;
  const auto& bp = sm->pool()->stats();
  c.fixes = bp.fixes.load();
  c.hits = bp.hits.load();
  c.misses = bp.misses.load();
  c.evictions = bp.evictions.load();
  c.dirty_writebacks = bp.dirty_writebacks.load();
  c.cleaner_writes = bp.cleaner_writes.load();

  const auto& ls = sm->log()->stats();
  c.log_bytes = ls.bytes.load();
  c.group_batches = ls.group_batches.load();
  c.group_batch_txns = ls.group_batch_txns.load();
  c.slot_joins = ls.carray_slot_joins.load();
  c.solo_claims = ls.carray_solo_claims.load();
  c.watermark_stalls = ls.carray_watermark_stalls.load();
  c.checkpoints = ls.checkpoint_count.load();
  c.flush_calls = engine->wal()->flush_calls();

  c.lock_acquired = sm->locks()->stats().acquired.load();
  c.lock_waits = sm->locks()->stats().waits.load();
  c.lock_cache_hits = sm->harvested_session_stats().lock_cache_hits;

  const auto& sp = sm->space()->stats();
  c.pages_allocated = sp.pages_allocated.load();
  c.ownership_checks = sp.ownership_checks.load();
  c.ownership_hits = sp.ownership_cache_hits.load();

  const auto& io = engine->volume()->stats();
  c.io_reads = io.reads.load();
  c.io_read_ns = io.read_ns.load();
  c.io_writes = io.writes.load();
  c.io_pages_written = io.pages_written.load();

  shoremt::obs::MetricsSnapshot snap = sm->metrics()->Snapshot();
  c.finds = snap[shoremt::obs::Metric::kBtreeFinds];
  c.restarts = snap[shoremt::obs::Metric::kBtreeRestarts];
  c.fallbacks = snap[shoremt::obs::Metric::kBtreeLatchFallbacks];
  for (const auto& t : tables) {
    if (auto* tree = sm->index_of(t)) c.splits += tree->stats().splits.load();
  }
  return c;
}

namespace {

double Ratio(uint64_t num, uint64_t den, double scale = 1.0) {
  return den == 0 ? 0.0
                  : scale * static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void AddLayerMetrics(const LayerCounters& a, const LayerCounters& b,
                     uint64_t txns, double seconds, Metrics* out) {
#define D(field) (b.field - a.field)
  out->Set("log.bytes_per_txn", Ratio(D(log_bytes), txns), "B");
  out->Set("log.flushes_per_commit", Ratio(D(flush_calls), txns), "count");
  out->Set("log.txns_per_group_flush",
           Ratio(D(group_batch_txns), D(group_batches)), "count");
  out->Set("log.carray_join_ratio",
           Ratio(D(slot_joins), D(slot_joins) + D(solo_claims)), "ratio");
  out->Set("log.watermark_stalls_per_1k_txn",
           Ratio(D(watermark_stalls), txns, 1000), "count");

  out->Set("lock.acquires_per_txn", Ratio(D(lock_acquired), txns), "count");
  out->Set("lock.cache_hit_ratio",
           Ratio(D(lock_cache_hits), D(lock_cache_hits) + D(lock_acquired)),
           "ratio");
  out->Set("lock.waits_per_1k_txn", Ratio(D(lock_waits), txns, 1000),
           "count");

  out->Set("buffer.hit_ratio", Ratio(D(hits), D(hits) + D(misses)), "ratio");
  out->Set("buffer.fixes_per_txn", Ratio(D(fixes), txns), "count");
  out->Set("buffer.evictions_per_1k_txn", Ratio(D(evictions), txns, 1000),
           "count");
  out->Set("buffer.foreground_writebacks_per_1k_txn",
           Ratio(D(dirty_writebacks), txns, 1000), "count");
  out->Set("buffer.cleaner_pages_per_1k_txn",
           Ratio(D(cleaner_writes), txns, 1000), "count");

  out->Set("io.read_calls_per_txn", Ratio(D(io_reads), txns), "count");
  out->Set("io.read_us_per_call", Ratio(D(io_read_ns), D(io_reads), 1e-3),
           "us");
  out->Set("io.pages_per_write_call",
           Ratio(D(io_pages_written), D(io_writes)), "count");

  out->Set("btree.restarts_per_1k_find", Ratio(D(restarts), D(finds), 1000),
           "count");
  out->Set("btree.fallbacks_per_1k_find",
           Ratio(D(fallbacks), D(finds), 1000), "count");
  out->Set("btree.splits_per_1k_txn", Ratio(D(splits), txns, 1000), "count");

  out->Set("space.pages_allocated_per_1k_txn",
           Ratio(D(pages_allocated), txns, 1000), "count");
  out->Set("space.ownership_cache_hit_ratio",
           Ratio(D(ownership_hits), D(ownership_checks)), "ratio");

  out->Set("ckpt.checkpoints_per_s",
           seconds > 0 ? static_cast<double>(D(checkpoints)) / seconds : 0,
           "1/s");
#undef D
}

void AddSpanMetrics(std::vector<SpanLog>* spans, Metrics* out) {
  auto merged = [&](SpanKind k) {
    std::vector<uint32_t> all;
    for (auto& s : *spans) {
      const auto& v = s.samples[static_cast<int>(k)];
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  };
  std::vector<uint32_t> reads = merged(SpanKind::kRead);
  std::vector<uint32_t> updates = merged(SpanKind::kUpdate);
  std::vector<uint32_t> inserts = merged(SpanKind::kInsert);
  std::vector<uint32_t> commits = merged(SpanKind::kCommit);
  out->Set("sm.read_p50_us", Quantile(&reads, 0.50) / 1e3, "us");
  out->Set("sm.read_p99_us", Quantile(&reads, 0.99) / 1e3, "us");
  out->Set("sm.update_p50_us", Quantile(&updates, 0.50) / 1e3, "us");
  out->Set("sm.insert_p50_us", Quantile(&inserts, 0.50) / 1e3, "us");
  out->Set("sm.commit_p50_us", Quantile(&commits, 0.50) / 1e3, "us");
  out->Set("sm.commit_p99_us", Quantile(&commits, 0.99) / 1e3, "us");
  std::vector<uint32_t> self;
  for (auto& s : *spans) {
    self.insert(self.end(), s.self_ns.begin(), s.self_ns.end());
  }
  out->Set("bench.self_us", Quantile(&self, 0.50) / 1e3, "us");
  std::vector<uint32_t> durable;
  for (auto& s : *spans) {
    std::lock_guard<std::mutex> guard(s.durable->mu);
    durable.insert(durable.end(), s.durable->ns.begin(), s.durable->ns.end());
  }
  out->Set("log.durable_wait_p50_us", Quantile(&durable, 0.50) / 1e3, "us");
  out->Set("log.durable_wait_p99_us", Quantile(&durable, 0.99) / 1e3, "us");
}

}  // namespace perfbench
