#ifndef SHOREMT_SM_SESSION_H_
#define SHOREMT_SM_SESSION_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "sm/session_stats.h"
#include "sm/storage_manager.h"

namespace shoremt::sm {

/// One logical row operation for Session::Apply. `payload` must stay alive
/// until Apply returns; it is ignored for kDelete.
enum class OpType : uint8_t { kInsert, kUpdate, kDelete };
struct Op {
  OpType type = OpType::kInsert;
  uint64_t key = 0;
  std::span<const uint8_t> payload{};
};

class Session;

/// Pull-style row cursor over one table's index, bound to the session's
/// current transaction. Layered on btree::BTree::Iterator: the iterator
/// yields (key, RecordId) with no latches held between rows, the cursor
/// adds shared row locks and the heap read. Rows deleted after the index
/// probe are skipped: the cursor re-probes the index under the row lock,
/// so a heap slot reused by another key never yields that key's row.
///
///   auto cur = session->OpenCursor(table);
///   for (auto st = cur.Seek(lo); cur.Valid() && cur.key() <= hi;
///        st = cur.Next()) { use(cur.key(), cur.value()); }
///
/// `value()` points into a buffer owned by the cursor and is invalidated
/// by the next Seek/Next. A cursor must not outlive its session or the
/// transaction it started under.
class Cursor {
 public:
  /// Positions at the first row with key >= `key`. A failed Seek/Next
  /// (e.g. a lock timeout) leaves the cursor invalid.
  Status Seek(uint64_t key);
  /// Advances to the next row; the cursor becomes invalid past the last.
  Status Next();
  bool Valid() const { return valid_; }

  uint64_t key() const { return key_; }
  std::span<const uint8_t> value() const { return value_buf_; }

 private:
  friend class Session;
  Cursor(Session* session, const TableInfo& table, btree::BTree* tree);

  /// Locks + heap-reads rows starting at the iterator's position until one
  /// still exists, leaving the cursor on it (or invalid at end).
  Status SettleOnRow();

  /// Issues bounded-window prefetch for the heap pages of the iterator's
  /// remaining buffered entries plus the next leaf, once per leaf
  /// snapshot generation (StorageOptions::scan_readahead; 0 disables).
  void MaybeReadahead();

  Session* session_;
  TableInfo table_;
  btree::BTree::Iterator it_;
  std::vector<uint8_t> value_buf_;
  std::vector<PageNum> ra_buf_;  ///< Scratch for MaybeReadahead.
  uint64_t last_refill_gen_ = 0;
  uint64_t key_ = 0;
  bool valid_ = false;
};

/// A worker thread's handle onto the storage manager (the tentpole of the
/// Shore-MT redesign): each thread opens one session and runs all
/// transaction lifecycle and DML through it. The session owns the state a
/// worker needs — an RNG, a reusable read buffer, and a SessionStats block
/// — so the per-operation path touches no shared counters at all;
/// statistics reach the manager only at session close or via Harvest(),
/// mirroring the paper's distributed statistics fix (§5).
///
/// A session is NOT thread-safe and carries at most one open transaction.
class Session {
 public:
  /// Aborts any open transaction, waits for outstanding commit
  /// acknowledgments (WaitAll), then harvests. After the manager's
  /// SimulateCrash the open transaction dies with the crash instead: no
  /// rollback, no wait, nothing more written to the abandoned log.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- transaction lifecycle ----------------------------------------------

  /// Starts a transaction; InvalidArgument if one is already open.
  Status Begin();
  /// Commits the open transaction and blocks until it is durable — a thin
  /// CommitAsync + Wait composition riding the group-commit pipeline
  /// (several sessions committing concurrently share one device flush).
  Status Commit();
  /// Commits the open transaction asynchronously: the commit record is
  /// appended and every lock is released immediately (early lock release);
  /// durability is acknowledged later through Wait(&token) or WaitAll().
  /// After a crash, a committed-but-unacknowledged transaction may be
  /// lost — but never half-applied, and never out of commit-LSN order.
  /// On failure the transaction has been rolled back (like Commit).
  Result<txn::CommitToken> CommitAsync();
  /// Blocks until `token`'s commit is durable; returns the pipeline's
  /// sticky error if the log device failed.
  Status Wait(txn::CommitToken* token);
  /// Blocks until every CommitAsync this session has issued is durable
  /// (one wait on the highest pending commit LSN — durability is a log
  /// prefix, so it covers all of them).
  Status WaitAll();
  /// Non-blocking ack harvest: true when every CommitAsync this session
  /// has issued is durable (clearing the pending watermark), false while
  /// acknowledgments are still outstanding. Never parks — a server loop
  /// calls this between requests instead of dedicating a thread to
  /// WaitAll. Pair with CommitToken::TryWait for per-token polling.
  /// If the flush pipeline carries a sticky error it also returns true
  /// (polling can never succeed) but leaves the watermark set — call
  /// WaitAll(), which returns immediately, to observe the error.
  bool PollAcks();
  /// Registered durability callback — the push-style third option next to
  /// Wait (park) and PollAcks/TryWait (poll): `fn` is invoked exactly
  /// once when the durable LSN passes `lsn` (e.g. a CommitToken's lsn),
  /// FROM THE FLUSH DAEMON'S THREAD — or inline, before this returns, if
  /// `lsn` is already durable. The closure receives Ok on durability and
  /// the pipeline's sticky error if the log device failed first; it must
  /// not block and must not touch this (single-threaded) Session.
  /// Registration submits the flush target itself; it does not change the
  /// session's pending-ack watermark, so Wait/WaitAll/PollAcks semantics
  /// are unaffected.
  void OnDurable(Lsn lsn, std::function<void(Status)> fn);
  /// Aborts the open transaction, rolling back through the WAL chain.
  Status Abort();
  bool InTransaction() const { return txn_ != nullptr; }

  // --- catalog ------------------------------------------------------------

  /// Creates a table under the open transaction, holding X store locks
  /// until it ends.
  Result<TableInfo> CreateTable(const std::string& name);
  /// Looks up a table, taking a shared store lock so in-flight DDL is
  /// never observed half-created. Uses the open transaction when there is
  /// one, else a short internal transaction.
  Result<TableInfo> OpenTable(const std::string& name);

  // --- DML (under the open transaction) -----------------------------------

  Result<RecordId> Insert(const TableInfo& table, uint64_t key,
                          std::span<const uint8_t> payload);
  /// Reads into the session's reusable buffer; the span is valid until the
  /// next Read/Apply on this session.
  Result<std::span<const uint8_t>> Read(const TableInfo& table, uint64_t key);
  Status Update(const TableInfo& table, uint64_t key,
                std::span<const uint8_t> payload);
  Status Delete(const TableInfo& table, uint64_t key);

  /// Opens a cursor over `table` bound to this session's transactions.
  Cursor OpenCursor(const TableInfo& table);

  // --- batched execution --------------------------------------------------

  /// Applies `ops` in order as one atomic batch. With no transaction open,
  /// the batch runs in its own transaction whose commit rides the
  /// group-commit pipeline (one flush acknowledges the batch, shared with
  /// every concurrent committer), and any failure aborts the whole batch —
  /// nothing persists. Inside an open transaction the ops simply join it;
  /// a failure then leaves the transaction poisoned and the caller must
  /// Abort().
  Status Apply(const TableInfo& table, std::span<const Op> ops);

  /// Apply with asynchronous durability: requires no open transaction,
  /// runs `ops` as one atomic batch and commits via CommitAsync. Returns
  /// once the batch's commit record is in the log buffer; acknowledge with
  /// Wait(&token) / WaitAll().
  Result<txn::CommitToken> ApplyAsync(const TableInfo& table,
                                      std::span<const Op> ops);

  // --- per-session state --------------------------------------------------

  /// The session's private RNG (seeded uniquely per session).
  Rng& rng() { return rng_; }
  /// This session's counters since the last Harvest().
  const SessionStats& stats() const { return stats_; }
  /// Folds the local counters into the manager's aggregate and zeroes
  /// them. Called automatically on destruction.
  void Harvest();
  /// This worker's live metrics block in the manager's MetricsRegistry
  /// (the feed the ProfilingThread aggregates once a second). The session
  /// bumps the engine metrics itself; workloads bump workload-level
  /// metrics (e.g. Metric::kRmws) through this. Null when the registry's
  /// worker slots were exhausted — callers must tolerate it.
  obs::WorkerCounters* counters() { return wc_; }

  StorageManager* manager() { return sm_; }

 private:
  friend class StorageManager;
  friend class Cursor;

  Session(StorageManager* sm, uint64_t seed);

  /// Guard used by every DML entry point.
  Status RequireTxn() const;

  /// Live-metric bump (no-op when the registry had no free worker slot).
  void Bump(obs::Metric m, uint64_t delta = 1) {
    if (wc_ != nullptr) wc_->Inc(m, delta);
  }

  /// Shared tail of Commit/CommitAsync: submits the commit record, rolls
  /// back on append failure, books the token into the session's pending
  /// set and its statistics.
  Result<txn::CommitToken> SubmitCommit();

  /// Shared body of Apply/ApplyAsync: runs `ops` under the open
  /// transaction, aborting it on failure when this session owns it.
  Status ApplyOps(const TableInfo& table, std::span<const Op> ops,
                  bool own_txn);

  StorageManager* sm_;
  txn::Transaction* txn_ = nullptr;
  Rng rng_;
  std::vector<uint8_t> read_buf_;
  SessionStats stats_;
  /// Highest commit LSN this session has submitted but not yet seen
  /// acknowledged (WaitAll target); null when nothing is outstanding.
  Lsn pending_ack_lsn_;
  /// This worker's block in the manager's MetricsRegistry (null when the
  /// slot pool was exhausted); registered at open, released at close.
  obs::WorkerCounters* wc_ = nullptr;
  /// Begin() timestamp of the open transaction — commit latency for the
  /// live feed's histogram.
  uint64_t txn_begin_ns_ = 0;
};

}  // namespace shoremt::sm

#endif  // SHOREMT_SM_SESSION_H_
