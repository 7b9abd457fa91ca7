#include "bench.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

SpanLog*& TlsSpans() {
  static thread_local SpanLog* log = nullptr;
  return log;
}

double Quantile(std::vector<uint32_t>* v, double q) {
  if (v->empty()) return 0;
  size_t k = std::min(v->size() - 1,
                      static_cast<size_t>(q * static_cast<double>(v->size())));
  std::nth_element(v->begin(), v->begin() + k, v->end());
  return (*v)[k];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

shoremt::Status TimedCommitAsync(shoremt::sm::Session* s) {
  SpanLog* log = TlsSpans();
  uint64_t t0 = NowNs();
  auto token = Timed(SpanKind::kCommit, [&] { return s->CommitAsync(); });
  if (log == nullptr || !token.ok() || token->lsn.IsNull()) {
    return token.status();  // Untraced, failed, or read-only.
  }
  std::shared_ptr<DurableLag> lag = log->durable;
  s->OnDurable(token->lsn, [lag, t0](shoremt::Status st) {
    if (!st.ok()) return;
    uint32_t ns = ClampNs(NowNs() - t0);
    std::lock_guard<std::mutex> guard(lag->mu);
    lag->ns.push_back(ns);
  });
  return shoremt::Status::Ok();
}

namespace {

constexpr double kWindowS = 1.0;
/// A traced run times every other block of this many transactions of
/// each client.
constexpr uint64_t kTraceBlock = 64;

/// Per-client state of one run: latencies by window plus the tallies.
struct ClientRecord {
  std::vector<std::vector<uint32_t>> lat_by_window;  ///< Untraced only.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t committed = 0;
  SpanLog spans;
  /// Traced runs: total latency and count of traced ([1]) and untraced
  /// ([0]) measured transactions.
  uint64_t lat_ns[2] = {0, 0};
  uint64_t lat_n[2] = {0, 0};
};

}  // namespace

WindowResult RunClients(int clients, double warmup_s, double seconds,
                        uint64_t per_client, bool trace, const TxnFn& txn) {
  std::vector<ClientRecord> recs(clients);
  std::atomic<bool> stop{false};
  const uint64_t start = NowNs() + static_cast<uint64_t>(warmup_s * 1e9);
  const uint64_t end = per_client > 0
                           ? UINT64_MAX
                           : start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientRecord* rec = &recs[c];
      uint64_t measured_n = 0;
      while (!stop.load(std::memory_order_relaxed) &&
             (per_client == 0 || measured_n < per_client)) {
        uint64_t t0 = NowNs();
        bool measured = t0 >= start && t0 < end;
        bool traced = trace && measured && (measured_n / kTraceBlock) % 2 == 1;
        SpanLog* log = traced ? &rec->spans : nullptr;
        TlsSpans() = log;
        if (log != nullptr) log->in_txn_engine_ns = 0;
        bool ok = txn(c);
        uint64_t t1 = NowNs();
        TlsSpans() = nullptr;
        ++rec->attempted;
        if (!ok) ++rec->failed;
        if (!measured) continue;
        ++measured_n;
        uint64_t lat = t1 - t0;
        rec->lat_ns[traced] += lat;
        ++rec->lat_n[traced];
        if (log != nullptr) {
          log->self_ns.push_back(
              ClampNs(lat - std::min(lat, log->in_txn_engine_ns)));
        }
        if (ok && t1 < end) ++rec->committed;
        if (ok && t1 < end && !traced) {
          auto w = per_client > 0
                       ? 0
                       : static_cast<size_t>(static_cast<double>(t1 - start) /
                                             (kWindowS * 1e9));
          if (rec->lat_by_window.size() <= w) rec->lat_by_window.resize(w + 1);
          rec->lat_by_window[w].push_back(ClampNs(t1 - t0));
        }
      }
    });
  }
  if (per_client == 0) {
    uint64_t now = NowNs();
    if (now < end) std::this_thread::sleep_for(std::chrono::nanoseconds(end - now));
    stop.store(true);
  }
  for (auto& t : threads) t.join();
  double elapsed = static_cast<double>(NowNs() - start) / 1e9;

  // A count-bound run is one window of its whole length.
  size_t windows = 1;
  double window_s = elapsed;
  if (per_client == 0) {
    windows = std::max<size_t>(1, static_cast<size_t>(seconds / kWindowS));
    window_s = kWindowS;
  }
  WindowResult r;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<uint32_t> all;
    for (auto& c : recs) {
      if (w < c.lat_by_window.size()) {
        all.insert(all.end(), c.lat_by_window[w].begin(),
                   c.lat_by_window[w].end());
      }
    }
    r.tps.push_back(static_cast<double>(all.size()) / window_s);
    r.p50_us.push_back(Quantile(&all, 0.50) / 1000.0);
    r.p99_us.push_back(Quantile(&all, 0.99) / 1000.0);
  }
  uint64_t lat_ns[2] = {0, 0}, lat_n[2] = {0, 0};
  for (auto& c : recs) {
    r.committed += c.committed;
    r.attempted += c.attempted;
    r.failed += c.failed;
    r.spans.push_back(std::move(c.spans));
    for (int t = 0; t < 2; ++t) {
      lat_ns[t] += c.lat_ns[t];
      lat_n[t] += c.lat_n[t];
    }
  }
  if (trace && lat_n[0] > 0 && lat_n[1] > 0 && lat_ns[0] > 0) {
    r.trace_overhead = (static_cast<double>(lat_ns[1]) / lat_n[1]) /
                       (static_cast<double>(lat_ns[0]) / lat_n[0]);
  }
  r.seconds = window_s * static_cast<double>(windows);
  return r;
}

std::string Metrics::Json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    char buf[256];
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v, vu.second.c_str());
    out += buf;
    first = false;
  }
  return out + "}";
}

std::string HostJson() {
  utsname u{};
  uname(&u);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"kernel\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}",
                std::thread::hardware_concurrency(), u.release, BENCH_COMPILER,
                BENCH_BUILD_TYPE);
  return buf;
}

double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / sysconf(_SC_CLK_TCK) : 0;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
