#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the engine benchmark: run configuration, per-call
// spans, the closed-loop client runner and the metric sink.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sm/options.h"
#include "sm/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  shoremt::sm::Stage stage = shoremt::sm::Stage::kFinal;
  int clients = 1;
  /// Working directory under .bench_build for file-backed volumes.
  std::string work_dir;
};

// --- spans ------------------------------------------------------------------

/// The engine calls the benchmark times; the runner times the whole
/// transaction, from Begin to the return of Commit/CommitAsync.
enum class SpanKind : int { kBegin, kRead, kUpdate, kInsert, kCommit, kCount };

/// Commit-to-durable times (ns) of traced asynchronous commits. The log's
/// flush thread fills it through Session::OnDurable, hence the mutex.
struct DurableLag {
  std::mutex mu;
  std::vector<uint32_t> ns;
};

/// One client thread's span samples (nanoseconds), recorded for the
/// transactions a traced run times.
struct SpanLog {
  std::vector<uint32_t> samples[static_cast<int>(SpanKind::kCount)];
  std::vector<uint32_t> self_ns;  ///< Per txn: latency minus engine calls.
  uint64_t in_txn_engine_ns = 0;  ///< Running sum for the open txn.
  std::shared_ptr<DurableLag> durable = std::make_shared<DurableLag>();
};

/// The calling client thread's span log, or null when tracing is off.
SpanLog*& TlsSpans();

inline uint32_t ClampNs(uint64_t ns) {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

/// Times `fn()` as one `kind` span when the thread is traced.
template <typename F>
auto Timed(SpanKind kind, F&& fn) {
  SpanLog* log = TlsSpans();
  if (log == nullptr) return fn();
  uint64_t t0 = NowNs();
  auto result = fn();
  uint64_t d = NowNs() - t0;
  log->samples[static_cast<int>(kind)].push_back(ClampNs(d));
  log->in_txn_engine_ns += d;
  return result;
}

/// Commits the open transaction with CommitAsync, timed as a kCommit span.
/// On a traced thread an update transaction also records, through
/// OnDurable, how long its commit took to become durable: the group-commit
/// wait that a synchronous Commit would add to its latency.
shoremt::Status TimedCommitAsync(shoremt::sm::Session* s);

// --- statistics ---------------------------------------------------------------

/// Exact quantile `q` of `v` (reorders `v`); 0 for an empty sample.
double Quantile(std::vector<uint32_t>* v, double q);
double Median(std::vector<double> v);

// --- closed-loop clients ------------------------------------------------------

/// One transaction attempt by client `client`: returns true when it
/// committed. The runner times it from the call to the return.
using TxnFn = std::function<bool(int client)>;

struct WindowResult {
  /// Per measured one-second window: commits/s, p50 and p99 latency (us),
  /// all of the untraced transactions only.
  std::vector<double> tps, p50_us, p99_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t committed = 0;  ///< Measured commits.
  double seconds = 0;
  std::vector<SpanLog> spans;  ///< One per client (traced runs only).
  /// Traced runs: mean latency of the traced transactions over that of
  /// the untraced ones, i.e. untraced over traced throughput.
  double trace_overhead = 0;
};

/// Runs `clients` closed-loop client threads on `txn`: `warmup_s`
/// unmeasured seconds, then either `seconds` measured seconds split into
/// one-second windows by completion time (`per_client` == 0), or exactly
/// `per_client` transactions per client measured as one window. With
/// `trace`, each client times alternate blocks of its measured
/// transactions, so traced and untraced ones run side by side.
WindowResult RunClients(int clients, double warmup_s, double seconds,
                        uint64_t per_client, bool trace, const TxnFn& txn);

// --- output -------------------------------------------------------------------

/// Ordered metric sink: name -> (value, unit).
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Host fingerprint as a JSON object: nproc, kernel, compiler, build type.
std::string HostJson();

/// CPU time the hypervisor has taken from this machine's CPUs since boot
/// (the steal column of /proc/stat), in seconds; 0 where unavailable.
double StealSeconds();

/// Peak resident set of this process in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
