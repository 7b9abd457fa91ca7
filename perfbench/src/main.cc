// Engine benchmark: runs one workload against the storage manager through
// sm::Session, checks the database against the benchmark's own tallies,
// and prints the metrics as one JSON object on the last line.
//
//   engine_bench --workload tpcc|restart|ycsb-b-disk|ycsb-a-hot
//                --seed N --seconds S --trace 0|1
//                [--stage final|baseline]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// ones, from a run that times the engine calls of every other block of
// transactions.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "engine.h"
#include "tpcc_bench.h"
#include "ycsb_bench.h"

namespace perfbench {
namespace {

using shoremt::sm::Session;
using shoremt::sm::Stage;
using shoremt::sm::StorageOptions;

/// Set-ups per run: at least kMinSetups and until kSetupBudgetS seconds
/// have gone, at most kMaxSetups; setup_s is their median.
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 41;
constexpr double kSetupBudgetS = 3.0;

bool MoreSetups(const std::vector<double>& setups) {
  double total = 0;
  for (double s : setups) total += s;
  int n = static_cast<int>(setups.size());
  return n < kMinSetups || (n < kMaxSetups && total < kSetupBudgetS);
}

/// Unmeasured seconds before the measured windows.
constexpr double kWarmupS = 1.0;
/// Crash-restarts per run; restart_s is their median. The restart
/// workload's restarts each redo its whole run, so it makes fewer.
constexpr int kRestarts = 41;
constexpr int kRestartsOfRestart = 5;
/// restart: transactions per second of --seconds, split over the
/// terminals (a fixed count, so the redo volume is fixed).
constexpr uint64_t kRestartTxnsPerSecond = 4000;

struct Outcome {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string errors;
};

// --- engine configuration per workload ---------------------------------------

EngineSpec TpccSpec(Stage stage, bool daemons, std::string volume_file) {
  EngineSpec spec;
  spec.options = StorageOptions::ForStage(stage);
  spec.volume_file = std::move(volume_file);
  spec.options.buffer.frame_count = 8192;  // The database stays resident.
  spec.log_flush_latency_ns = 100'000;     // A 100 us log device.
  if (daemons) {
    spec.options.log.segment_bytes = 64 << 10;
    spec.options.buffer.enable_cleaner = true;
    spec.options.buffer.cleaner_interval_us = 2000;
    spec.options.checkpoint_daemon = true;
    spec.options.checkpoint_interval_ms = 50;
  }
  return spec;
}

EngineSpec YcsbSpec(Stage stage, size_t frames, std::string volume_file) {
  EngineSpec spec;
  spec.options = StorageOptions::ForStage(stage);
  spec.options.buffer.frame_count = frames;
  spec.options.buffer.enable_cleaner = true;
  spec.options.checkpoint_daemon = true;
  spec.volume_file = std::move(volume_file);
  return spec;
}

// --- shared run phases ----------------------------------------------------------

std::vector<std::unique_ptr<Session>> OpenSessions(Engine* e, int n) {
  std::vector<std::unique_ptr<Session>> v;
  for (int i = 0; i < n; ++i) v.push_back(e->sm()->OpenSession());
  return v;
}

void Harvest(std::vector<std::unique_ptr<Session>>* sessions) {
  for (auto& s : *sessions) s->Harvest();
}

/// Checks the database, crashes it at quiescence (with `settle`, after
/// writing every page back and checkpointing) and restarts it `restarts`
/// times, then checks it again. Each restart redoes the same log: the
/// pages it recovered are lost again by the next crash. Returns the
/// median restart time.
template <typename Clients>
double CheckCrashCheck(Engine* engine, Clients* clients, int restarts,
                       bool settle, Outcome* out, double* redo_mb) {
  {
    auto s = engine->sm()->OpenSession();
    if (!clients->Check(s.get(), &out->errors)) out->correct = false;
  }
  if (settle) {
    // The daemons leave a redo tail that depends on when they last ran;
    // writing every page back and checkpointing makes each restart redo
    // the same (empty) tail, so restart_s measures the restart itself.
    // Only every checkpoint_snapshot_every-th checkpoint lets the log be
    // recycled, and analysis scans the whole live log, so take that many.
    shoremt::Status st = engine->sm()->pool()->FlushAll();
    size_t n = engine->sm()->options().checkpoint_snapshot_every;
    for (size_t i = 0; st.ok() && i < std::max<size_t>(n, 1); ++i) {
      st = engine->sm()->Checkpoint().status();
    }
    if (!st.ok()) {
      out->correct = false;
      out->errors += "checkpoint: " + st.ToString() + "; ";
      return 0;
    }
  }
  std::vector<double> times;
  for (int i = 0; i < restarts; ++i) {
    auto restarted = engine->CrashAndRestart();
    if (!restarted.ok()) {
      out->correct = false;
      out->errors += "restart: " + restarted.status().ToString() + "; ";
      return 0;
    }
    times.push_back(*restarted);
  }
  *redo_mb = static_cast<double>(
                 engine->sm()->log()->stats().redo_scan_bytes.load()) /
             1e6;
  auto s = engine->sm()->OpenSession();
  shoremt::Status st = clients->Reopen(s.get());
  if (!st.ok()) {
    out->correct = false;
    out->errors += "reopen: " + st.ToString() + "; ";
  } else if (!clients->Check(s.get(), &out->errors)) {
    out->correct = false;
    out->errors += "(after restart) ";
  }
  return Median(times);
}

void SetEndToEnd(const WindowResult& r, double setup_s, double restart_s,
                 Outcome* out) {
  out->metrics.Set("txn_per_s", Median(r.tps), "txn/s");
  out->metrics.Set("setup_s", setup_s, "s");
  out->metrics.Set("restart_s", restart_s, "s");
}

void SetRecovery(double redo_mb, double restart_s, Outcome* out) {
  out->metrics.Set("recovery.redo_mb", redo_mb, "MB");
  out->metrics.Set("recovery.redo_mb_per_s",
                   restart_s > 0 ? redo_mb / restart_s : 0, "MB/s");
}

/// Runs the clients on the loaded database, then checks, crashes and
/// restarts it. The clients run `cfg.seconds` after a warm-up, or exactly
/// `fixed_txns` transactions when that is not 0. A traced run times the
/// engine calls of every other block of transactions; the tracing
/// overhead compares the traced blocks with the untraced ones, and the
/// per-layer counters cover the whole measured run.
template <typename Clients>
void RunMeasured(const RunConfig& cfg, Engine* engine, Clients* clients,
                 uint64_t fixed_txns, double setup_s, Outcome* out) {
  auto sessions = OpenSessions(engine, cfg.clients);
  TxnFn fn = [&](int c) { return clients->Run(sessions[c].get(), c); };
  const bool timed = fixed_txns == 0;
  const uint64_t per_client = fixed_txns / cfg.clients;
  WindowResult r;
  if (!cfg.trace) {
    r = RunClients(cfg.clients, timed ? kWarmupS : 0, cfg.seconds,
                   per_client, false, fn);
  } else {
    WindowResult warm;
    if (timed) warm = RunClients(cfg.clients, kWarmupS, 0, 0, false, fn);
    Harvest(&sessions);
    LayerCounters before = ReadCounters(engine, clients->tables());
    r = RunClients(cfg.clients, 0, cfg.seconds, per_client, true, fn);
    Harvest(&sessions);
    LayerCounters after = ReadCounters(engine, clients->tables());
    AddLayerMetrics(before, after, r.committed, r.seconds, &out->metrics);
    AddSpanMetrics(&r.spans, &out->metrics);
    out->metrics.Set("trace.overhead_ratio", r.trace_overhead, "ratio");
    // Transaction latency follows the host more than the engine (see the
    // README), so it is reported here, unbounded, from the untraced blocks.
    out->metrics.Set("txn_p50_us", Median(r.p50_us), "us");
    out->metrics.Set("txn_p99_us", Median(r.p99_us), "us");
    r.attempted += warm.attempted;
    r.failed += warm.failed;
  }
  sessions.clear();  // Closing waits for every async commit to be durable.
  out->attempted = r.attempted;
  out->failed = r.failed;
  double redo_mb = 0;
  bool fixed = fixed_txns > 0;
  double restart_s =
      CheckCrashCheck(engine, clients, fixed ? kRestartsOfRestart : kRestarts,
                      /*settle=*/!fixed, out, &redo_mb);
  if (cfg.trace) {
    SetRecovery(redo_mb, restart_s, out);
  } else {
    SetEndToEnd(r, setup_s, restart_s, out);
  }
}

// --- workloads ----------------------------------------------------------------

/// Opens a fresh engine on `spec` and fills it with `load` until MoreSetups
/// stops; keeps the last one and sets `setup_s` to the median set-up time.
/// On failure marks `out` incorrect and returns null.
std::unique_ptr<Engine> SetUp(
    const EngineSpec& spec,
    const std::function<shoremt::Status(Session*)>& load, double* setup_s,
    Outcome* out) {
  std::vector<double> setups;
  std::unique_ptr<Engine> engine;
  while (MoreSetups(setups)) {
    engine.reset();
    if (!spec.volume_file.empty()) std::filesystem::remove(spec.volume_file);
    uint64_t t0 = NowNs();
    auto e = Engine::Create(spec);
    shoremt::Status st = e.status();
    if (st.ok()) {
      engine = std::move(*e);
      auto loader = engine->sm()->OpenSession();
      st = load(loader.get());
    }
    if (!st.ok()) {
      out->correct = false;
      out->errors = "set-up: " + st.ToString();
      return nullptr;
    }
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  *setup_s = Median(setups);
  return engine;
}

/// tpcc, or with `restart` the fixed-count, daemon-free restart workload.
Outcome RunTpcc(const RunConfig& cfg, bool restart) {
  Outcome out;
  shoremt::workload::TpccConfig tcfg;
  tcfg.warehouses = static_cast<uint32_t>(cfg.clients);
  shoremt::workload::TpccDatabase db;
  double setup_s = 0;
  auto engine = SetUp(
      TpccSpec(cfg.stage, /*daemons=*/!restart, cfg.work_dir + "/volume"),
      [&](Session* s) {
        auto loaded = shoremt::workload::LoadTpcc(s, tcfg);
        if (loaded.ok()) db = *loaded;
        return loaded.status();
      },
      &setup_s, &out);
  if (engine == nullptr) return out;
  TpccClients clients(db, cfg.clients, cfg.seed);
  RunMeasured(cfg, engine.get(), &clients,
              restart ? kRestartTxnsPerSecond * cfg.seconds : 0, setup_s,
              &out);
  return out;
}

struct YcsbShape {
  uint64_t rows;
  size_t frames;
  double zipf_theta;
  double read_fraction;
  bool on_file;
};

Outcome RunYcsb(const RunConfig& cfg, const YcsbShape& shape) {
  Outcome out;
  shoremt::workload::YcsbConfig ycfg;
  ycfg.record_count = shape.rows;
  ycfg.zipf_theta = shape.zipf_theta;
  std::unique_ptr<shoremt::workload::YcsbDatabase> db;
  double setup_s = 0;
  auto engine = SetUp(
      YcsbSpec(cfg.stage, shape.frames,
               shape.on_file ? cfg.work_dir + "/volume" : ""),
      [&](Session* s) {
        db = std::make_unique<shoremt::workload::YcsbDatabase>();
        return shoremt::workload::LoadYcsb(s, ycfg, db.get());
      },
      &setup_s, &out);
  if (engine == nullptr) return out;
  YcsbClients clients(db.get(), shape.read_fraction, cfg.clients, cfg.seed);
  RunMeasured(cfg, engine.get(), &clients, 0, setup_s, &out);
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: engine_bench --workload "
               "tpcc|restart|ycsb-b-disk|ycsb-a-hot --seed N --seconds S "
               "--trace 0|1 [--stage final|baseline]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  if (argc % 2 == 0) return Usage();  // Flags come in --name value pairs.
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      cfg.workload = v;
    } else if (k == "--seed") {
      cfg.seed = std::stoull(v);
    } else if (k == "--seconds") {
      cfg.seconds = std::max(1, std::stoi(v));
    } else if (k == "--trace") {
      cfg.trace = v == "1";
    } else if (k == "--stage" && (v == "final" || v == "baseline")) {
      cfg.stage = v == "final" ? Stage::kFinal : Stage::kBaseline;
    } else {
      return Usage();
    }
  }
  // Half the hardware threads run clients; the other half is left to the
  // engine's own threads (group-commit flusher, page cleaner, checkpoint
  // daemon, I/O workers), so a client is not time-sliced against them.
  cfg.clients = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency() / 2, 1u, 4u));
  cfg.work_dir = ".bench_build/run-" + std::to_string(getpid());

  const bool tpcc = cfg.workload == "tpcc" || cfg.workload == "restart";
  const bool disk = cfg.workload == "ycsb-b-disk";
  if (!tpcc && !disk && cfg.workload != "ycsb-a-hot") return Usage();

  double steal0 = StealSeconds();
  std::filesystem::create_directories(cfg.work_dir);
  Outcome out;
  if (tpcc) {
    out = RunTpcc(cfg, cfg.workload == "restart");
  } else {
    // ycsb-b-disk: ~41 MB of rows over an 8 MB pool on a volume file.
    // ycsb-a-hot: ~7 MB of rows in a 16 MB pool, Zipfian theta 0.99.
    YcsbShape shape = disk ? YcsbShape{300'000, 1024, 0.0, 0.95, true}
                           : YcsbShape{50'000, 2048, 0.99, 0.50, false};
    out = RunYcsb(cfg, shape);
  }
  std::filesystem::remove_all(cfg.work_dir);
  if (!cfg.trace) out.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (char& ch : out.errors) {
    if (ch == '"' || ch == '\\' || ch < ' ') ch = '\'';
  }

  std::printf(
      "{\"host\": %s, \"workload\": \"%s\", \"seed\": %llu, \"stage\": "
      "\"%s\", \"clients\": %d, \"seconds\": %d, \"trace\": %d, "
      "\"attempted\": %llu, \"failed\": %llu, \"host_steal_s\": %.2f, "
      "\"errors\": \"%s\"}\n",
      HostJson().c_str(), cfg.workload.c_str(),
      static_cast<unsigned long long>(cfg.seed),
      std::string(shoremt::sm::StageName(cfg.stage)).c_str(), cfg.clients,
      cfg.seconds, cfg.trace ? 1 : 0,
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), StealSeconds() - steal0,
      out.errors.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}
