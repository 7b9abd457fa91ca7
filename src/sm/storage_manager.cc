#include "sm/storage_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <utility>

#include "btree/btree_node.h"
#include "io/retry.h"
#include "log/log_archive.h"
#include "page/page.h"
#include "page/slotted_page.h"

namespace shoremt::sm {

using buffer::PageHandle;
using sync::LatchMode;

namespace {

/// Catalog entry wire format: u32 name_len | name | u32 heap | u32 index |
/// u64 root.
void SerializeTableInfo(const TableInfo& info, std::vector<uint8_t>* out) {
  out->clear();
  auto put = [&](const void* p, size_t n) {
    size_t at = out->size();
    out->resize(at + n);
    std::memcpy(out->data() + at, p, n);
  };
  uint32_t len = static_cast<uint32_t>(info.name.size());
  put(&len, 4);
  put(info.name.data(), info.name.size());
  put(&info.heap_store, 4);
  put(&info.index_store, 4);
  put(&info.index_root, 8);
}

Status DeserializeTableInfo(std::span<const uint8_t> data, TableInfo* info) {
  if (data.size() < 4) return Status::Corruption("catalog entry truncated");
  uint32_t len;
  std::memcpy(&len, data.data(), 4);
  if (data.size() < 4 + len + 16) {
    return Status::Corruption("catalog entry truncated");
  }
  info->name.assign(reinterpret_cast<const char*>(data.data() + 4), len);
  std::memcpy(&info->heap_store, data.data() + 4 + len, 4);
  std::memcpy(&info->index_store, data.data() + 8 + len, 4);
  std::memcpy(&info->index_root, data.data() + 12 + len, 8);
  return Status::Ok();
}

/// The record type whose page change `rec` carries: a CLR's embedded
/// action, the record's own type otherwise.
log::LogRecordType PageActionOf(const log::LogRecord& rec) {
  return rec.type == log::LogRecordType::kClr
             ? static_cast<log::LogRecordType>(rec.page_type)
             : rec.type;
}

/// True for the page actions redo applies to page bytes (two contiguous
/// runs of the enum); every other record type is metadata (analysis) or
/// transaction bookkeeping.
bool IsPageAction(log::LogRecordType type) {
  using T = log::LogRecordType;
  return (type >= T::kPageFormat && type <= T::kPageDelete) ||
         (type >= T::kBtreeInsert && type <= T::kBtreeSetContent);
}

/// The one redo kernel: recovery, the replica's replay pool and PITR
/// restore reach it through ApplyRedo, media repair directly. Applies the
/// page action `rec` carries (ending at `end`) to the raw image `img` —
/// a format initializes the image; any other action first checks that
/// the image is a formatted copy of rec.page, since anything else means
/// the WAL invariants broke upstream and writing through garbage offsets
/// would spread the damage. Stamps page_lsn = max(page_lsn, end), so
/// commit-ordered replica replay only ever ratchets it upward. Records
/// without a page action leave the image alone.
Status RedoToImage(const log::LogRecord& rec, Lsn end, uint8_t* img) {
  using log::LogRecordType;
  LogRecordType action = PageActionOf(rec);
  if (!IsPageAction(action)) return Status::Ok();
  page::PageHeader* header = page::HeaderOf(img);
  if (action != LogRecordType::kPageFormat &&
      !page::PageLooksValid(img, rec.page)) {
    return Status::Corruption("redo hit an invalid image for page " +
                              std::to_string(rec.page));
  }
  switch (action) {
    case LogRecordType::kPageFormat: {
      auto type = static_cast<page::PageType>(rec.page_type);
      if (type == page::PageType::kData) {
        page::SlottedPage(img).Init(rec.page, rec.store, type);
      } else {
        btree::BTreeNode(img).Init(
            rec.page, rec.store, type == page::PageType::kBTreeLeaf ? 0 : 1);
      }
      break;
    }
    case LogRecordType::kPageInsert:
      SHOREMT_RETURN_NOT_OK(
          page::SlottedPage(img).InsertAt(rec.slot, rec.after));
      break;
    case LogRecordType::kPageUpdate:
      SHOREMT_RETURN_NOT_OK(
          rec.type == LogRecordType::kClr
              ? page::SlottedPage(img).Restore(rec.slot, rec.after)
              : page::SlottedPage(img).Update(rec.slot, rec.after));
      break;
    case LogRecordType::kPageDelete:
      SHOREMT_RETURN_NOT_OK(page::SlottedPage(img).Delete(rec.slot));
      break;
    case LogRecordType::kBtreeInsert: {
      btree::BTreeEntry e;
      std::memcpy(&e, rec.after.data(), sizeof(e));
      btree::BTreeNode(img).InsertSorted(e.key, e.value);
      break;
    }
    case LogRecordType::kBtreeDelete: {
      btree::BTreeEntry e;
      std::memcpy(&e, rec.before.data(), sizeof(e));
      btree::BTreeNode(img).RemoveKey(e.key);
      break;
    }
    default:  // kBtreeSetContent
      btree::BTreeNode(img).RestoreContent(rec.after);
      break;
  }
  header->page_lsn = std::max(header->page_lsn, end.value);
  return Status::Ok();
}

}  // namespace

StorageManager::StorageManager(StorageOptions options, io::Volume* volume,
                               log::LogStorage* log_storage)
    : options_(options), volume_(volume), log_storage_(log_storage) {
  log_ = std::make_unique<log::LogManager>(log_storage_, options_.log);
  pool_ = std::make_unique<buffer::BufferPool>(
      volume_, options_.buffer,
      [this](Lsn lsn) { return log_->FlushTo(lsn); });
  pool_->SetLsnProvider([this] { return log_->next_lsn(); });
  space_ = std::make_unique<space::SpaceManager>(volume_, options_.space);
  locks_ = std::make_unique<lock::LockManager>(options_.lock);
  txns_ = std::make_unique<txn::TxnManager>(log_.get(), locks_.get(),
                                            options_.txn);
  txns_->SetUndoApplier(
      [this](txn::Transaction* txn, const log::LogRecord& rec) {
        return UndoRecord(txn, txn->id, rec);
      });
  // Close the log-lifecycle loop: cleaner write-backs are mirrored into
  // LogStats, and log-segment pressure (reported by the flush daemon after
  // its batches) wakes the cleaner and the checkpoint daemon so the
  // low-water mark advances and Recycle can free segments — cv notifies
  // end to end, nothing polls.
  pool_->SetCleanerWritebackHook([this] { log_->NoteCleanerWriteback(); });
  // Media auto-repair: a checksum-failed read-in (miss path or scrubber)
  // rebuilds the page from the archived + live log history instead of
  // surfacing Corruption to the fixer.
  pool_->SetPageRepairer(
      [this](PageNum page, uint8_t* img) { return RepairPage(page, img); });
  log_->SetPressureHook([this] {
    pool_->WakeCleaner();
    WakeCheckpoint();
  });
  // Live-metrics sources: the engine-global halves of the registry view.
  // Each source reads its subsystem's existing atomic stats struct at
  // snapshot time — the subsystems keep their structs; the registry (and
  // the profiling feed over it) is the union. Worker-side metrics (txn
  // lifecycle, DML, lock waits, log bytes) come from the sessions'
  // WorkerCounters blocks instead.
  metrics_.AddSource([this](std::array<uint64_t, obs::kMetricCount>* t) {
    const buffer::BufferPoolStats& s = pool_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kBufferHits)] +=
        s.hits.load(std::memory_order_relaxed) +
        s.optimistic_hits.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kBufferMisses)] +=
        s.misses.load(std::memory_order_relaxed);
  });
  metrics_.AddSource([this](std::array<uint64_t, obs::kMetricCount>* t) {
    const log::LogStats& s = log_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kLogRecords)] +=
        s.records.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kGroupBatches)] +=
        s.group_batches.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kCleanerWritebacks)] +=
        s.cleaner_writebacks.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kCheckpoints)] +=
        s.checkpoint_count.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kSegmentsRecycled)] +=
        s.segments_recycled.load(std::memory_order_relaxed);
  });
  metrics_.AddSource([this](std::array<uint64_t, obs::kMetricCount>* t) {
    const lock::LockStats& s = locks_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kLockAcquired)] +=
        s.acquired.load(std::memory_order_relaxed);
  });
  metrics_.AddSource([this](std::array<uint64_t, obs::kMetricCount>* t) {
    const io::IoStats& s = volume_->stats();
    uint64_t reads = s.reads.load(std::memory_order_relaxed);
    uint64_t writes = s.writes.load(std::memory_order_relaxed);
    uint64_t pages_read = s.pages_read.load(std::memory_order_relaxed);
    uint64_t pages_written = s.pages_written.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kIoReads)] += reads;
    (*t)[static_cast<size_t>(obs::Metric::kIoWrites)] += writes;
    (*t)[static_cast<size_t>(obs::Metric::kIoReadNs)] +=
        s.read_ns.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kIoWriteNs)] +=
        s.write_ns.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kIoBatchedOps)] +=
        s.batched_reads.load(std::memory_order_relaxed) +
        s.batched_writes.load(std::memory_order_relaxed);
    // Pages that rode an existing call instead of costing their own —
    // saturating: the unsynchronized loads can be mid-update.
    (*t)[static_cast<size_t>(obs::Metric::kIoCoalescedPages)] +=
        (pages_read > reads ? pages_read - reads : 0) +
        (pages_written > writes ? pages_written - writes : 0);
    const buffer::BufferPoolStats& b = pool_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kIoPrefetchIssued)] +=
        b.prefetch_issued.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kIoPrefetchDropped)] +=
        b.prefetch_dropped.load(std::memory_order_relaxed);
  });
  metrics_.AddSource([this](std::array<uint64_t, obs::kMetricCount>* t) {
    // Integrity: retries come from the volume's IoStats (RetryTransient
    // counts there from both the scheduler workers and the pool's
    // synchronous paths, so it is the single non-double-counting source);
    // detection/repair/scrub come from the pool.
    const io::IoStats& s = volume_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kIoRetries)] +=
        s.retries.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kIoRetryBackoffNs)] +=
        s.retry_backoff_ns.load(std::memory_order_relaxed);
    const buffer::BufferPoolStats& b = pool_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kChecksumFailures)] +=
        b.checksum_failures.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kPagesRepaired)] +=
        b.pages_repaired.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kScrubPages)] +=
        b.scrub_pages.load(std::memory_order_relaxed);
  });
}

StorageManager::~StorageManager() {
  ckpt_daemon_.Stop();
  // Disarm the pressure hook before any member dies: SetPostBatchHook
  // synchronizes under the pipeline's lock, so after this returns the
  // flush daemon can no longer poke the checkpoint cv or the cleaner.
  log_->SetPressureHook(nullptr);
  if (!crashed_) (void)Shutdown();
}

void StorageManager::StartCheckpointDaemon() {
  if (!options_.checkpoint_daemon) return;
  auto interval = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::milliseconds(options_.checkpoint_interval_ms));
  ckpt_daemon_.Start(interval,
                     [this] { (void)Checkpoint(); },  // Best effort.
                     /*min_gap=*/interval / 2 +
                         std::chrono::microseconds(1000));
}

void StorageManager::WakeCheckpoint() { ckpt_daemon_.Wake(); }

Result<std::unique_ptr<StorageManager>> StorageManager::Open(
    StorageOptions options, io::Volume* volume,
    log::LogStorage* log_storage) {
  if (volume->NumPages() < kPagesPerExtent) {
    SHOREMT_RETURN_NOT_OK(volume->Extend(kPagesPerExtent));
  }
  auto sm = std::unique_ptr<StorageManager>(
      new StorageManager(options, volume, log_storage));
  switch (options.open_mode) {
    case OpenMode::kRecover:
    case OpenMode::kRestore:
      if (log_storage->size() > 0) {
        SHOREMT_RETURN_NOT_OK(sm->Recover());
      }
      break;
    case OpenMode::kPromote:
      SHOREMT_RETURN_NOT_OK(sm->PromoteRecover());
      break;
    case OpenMode::kReplicaAttach:
      // No recovery: the repl::Replica's replay pool applies the shipped
      // log itself, continuously.
      break;
  }
  // Background checkpoints only start once recovery is done: a fuzzy
  // checkpoint mid-redo would snapshot half-replayed state. A replica
  // attach never starts one — a checkpoint would log records into a log
  // the primary owns.
  if (options.open_mode != OpenMode::kReplicaAttach) {
    sm->StartCheckpointDaemon();
  }
  return sm;
}

void StorageManager::RegisterTable(const TableInfo& info) {
  std::lock_guard<std::mutex> guard(catalog_mutex_);
  catalog_[info.name] = info;
  indexes_[info.index_store] = std::make_unique<btree::BTree>(
      pool_.get(), space_.get(), log_.get(), txns_.get(), info.index_store,
      info.index_root, options_.btree);
}

btree::BTree* StorageManager::index_of(const TableInfo& table) {
  std::lock_guard<std::mutex> guard(catalog_mutex_);
  auto it = indexes_.find(table.index_store);
  return it == indexes_.end() ? nullptr : it->second.get();
}

Result<TableInfo> StorageManager::CreateTable(txn::Transaction* txn,
                                              const std::string& name) {
  // Reserve the name under the catalog mutex so two racing CreateTable
  // calls cannot both pass the uniqueness check and overwrite each
  // other's catalog entry; the reservation is dropped on any error.
  {
    std::lock_guard<std::mutex> guard(catalog_mutex_);
    if (catalog_.contains(name) || !creating_.insert(name).second) {
      return Status::AlreadyExists("table exists: " + name);
    }
  }
  Result<TableInfo> result = CreateTableReserved(txn, name);
  std::lock_guard<std::mutex> guard(catalog_mutex_);
  creating_.erase(name);
  return result;
}

Result<TableInfo> StorageManager::CreateTableReserved(
    txn::Transaction* txn, const std::string& name) {
  TableInfo info;
  info.name = name;
  info.heap_store = next_store_.fetch_add(1, std::memory_order_relaxed);
  info.index_store = next_store_.fetch_add(1, std::memory_order_relaxed);

  // Exclusive store locks, held until the DDL transaction ends: a
  // concurrent transactional OpenTable blocks on these instead of
  // observing the table half-created.
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockStore(info.heap_store, lock::LockMode::kX));
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockStore(info.index_store, lock::LockMode::kX));

  for (StoreId sid : {info.heap_store, info.index_store}) {
    SHOREMT_RETURN_NOT_OK(space_->CreateStore(sid));
    log::LogRecord rec;
    rec.type = log::LogRecordType::kCreateStore;
    rec.store = sid;
    rec.txn = txn->id;
    rec.prev_lsn = txn->last_lsn;
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
    txns_->NoteLogged(txn, a.lsn, a.end);
  }

  SHOREMT_ASSIGN_OR_RETURN(
      info.index_root,
      btree::BTree::CreateRoot(pool_.get(), space_.get(), log_.get(),
                               txns_.get(), txn, info.index_store));

  log::LogRecord cat;
  cat.type = log::LogRecordType::kCatalog;
  cat.txn = txn->id;
  cat.prev_lsn = txn->last_lsn;
  SerializeTableInfo(info, &cat.after);
  SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(cat));
  txns_->NoteLogged(txn, a.lsn, a.end);

  RegisterTable(info);
  return info;
}

Result<TableInfo> StorageManager::OpenTable(txn::Transaction* txn,
                                            const std::string& name) {
  TableInfo info;
  {
    std::lock_guard<std::mutex> guard(catalog_mutex_);
    auto it = catalog_.find(name);
    if (it == catalog_.end()) return Status::NotFound("no table " + name);
    info = it->second;
  }
  // Shared store lock: if the creating transaction still holds its X
  // locks, we wait here until the DDL commits (or time out if it never
  // does) rather than touch a half-built table.
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockStore(info.heap_store, lock::LockMode::kIS));
  return info;
}

Result<RecordId> StorageManager::HeapInsert(txn::Transaction* txn,
                                            StoreId heap_store,
                                            std::span<const uint8_t> payload) {
  if (payload.size() > page::SlottedPage::MaxRecordSize()) {
    return Status::InvalidArgument("row too large for a page");
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    // Append target: the store's last page (cache vs chain walk is a
    // space-manager knob, §7.6).
    auto last = space_->LastPageOf(heap_store);
    if (last.ok()) {
      // §6.2.2: every insert verifies the page belongs to the right store
      // (thread-local extent cache makes this cheap in later stages).
      auto owner = space_->OwnerOf(*last);
      if (owner.ok() && *owner == heap_store) {
        SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                                 pool_->FixPage(*last, LatchMode::kExclusive));
        page::SlottedPage sp(h.data());
        if (sp.header()->store == heap_store && sp.Fits(payload.size())) {
          SHOREMT_ASSIGN_OR_RETURN(uint16_t slot, sp.Insert(payload));
          log::LogRecord rec;
          rec.type = log::LogRecordType::kPageInsert;
          rec.page = *last;
          rec.store = heap_store;
          rec.slot = slot;
          rec.txn = txn->id;
          rec.prev_lsn = txn->last_lsn;
          rec.after.assign(payload.begin(), payload.end());
          SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
          txns_->NoteLogged(txn, a.lsn, a.end);
          h.MarkDirty(a.end, a.lsn);
          return RecordId{*last, slot};
        }
      }
    }
    // No usable page: grow the store by one page and retry the insert on
    // it (the init callback runs inside/outside the space critical
    // section depending on the refactored_alloc knob — Figure 6).
    auto init = [&](PageNum p) -> Status {
      SHOREMT_ASSIGN_OR_RETURN(PageHandle h, pool_->NewPage(p));
      page::SlottedPage sp(h.data());
      sp.Init(p, heap_store, page::PageType::kData);
      log::LogRecord rec;
      rec.type = log::LogRecordType::kPageFormat;
      rec.page = p;
      rec.store = heap_store;
      rec.page_type = static_cast<uint8_t>(page::PageType::kData);
      rec.txn = txn->id;
      rec.prev_lsn = txn->last_lsn;
      SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
      txns_->NoteLogged(txn, a.lsn, a.end);
      h.MarkDirty(a.end, a.lsn);
      return Status::Ok();
    };
    SHOREMT_ASSIGN_OR_RETURN(PageNum fresh,
                             space_->AllocatePage(heap_store, init));
    log::LogRecord alloc;
    alloc.type = log::LogRecordType::kAllocPage;
    alloc.page = fresh;
    alloc.store = heap_store;
    alloc.txn = txn->id;
    alloc.prev_lsn = txn->last_lsn;
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(alloc));
    txns_->NoteLogged(txn, a.lsn, a.end);
    // Loop: the fresh page is now the store's last page.
  }
  return Status::Internal("heap insert failed to place the row");
}

Result<RecordId> StorageManager::Insert(txn::Transaction* txn,
                                        const TableInfo& table, uint64_t key,
                                        std::span<const uint8_t> payload) {
  btree::BTree* index = index_of(table);
  if (index == nullptr) return Status::NotFound("unknown table");
  SHOREMT_ASSIGN_OR_RETURN(RecordId rid,
                           HeapInsert(txn, table.heap_store, payload));
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockRecord(table.heap_store, rid, lock::LockMode::kX));
  // On duplicate key the caller aborts the transaction, which rolls the
  // heap placement back through the WAL chain.
  SHOREMT_RETURN_NOT_OK(index->Insert(txn, key, rid));
  return rid;
}

Status StorageManager::ReadInto(txn::Transaction* txn, const TableInfo& table,
                                uint64_t key, std::vector<uint8_t>* out) {
  btree::BTree* index = index_of(table);
  if (index == nullptr) return Status::NotFound("unknown table");
  SHOREMT_ASSIGN_OR_RETURN(RecordId rid, index->Find(txn, key));
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockRecord(table.heap_store, rid, lock::LockMode::kS));
  SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                           pool_->FixPage(rid.page, LatchMode::kShared));
  page::SlottedPage sp(h.data());
  SHOREMT_ASSIGN_OR_RETURN(std::span<const uint8_t> rec, sp.Read(rid.slot));
  out->assign(rec.begin(), rec.end());
  return Status::Ok();
}

Status StorageManager::Update(txn::Transaction* txn, const TableInfo& table,
                              uint64_t key,
                              std::span<const uint8_t> payload) {
  btree::BTree* index = index_of(table);
  if (index == nullptr) return Status::NotFound("unknown table");
  SHOREMT_ASSIGN_OR_RETURN(RecordId rid, index->Find(txn, key));
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockRecord(table.heap_store, rid, lock::LockMode::kX));
  SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                           pool_->FixPage(rid.page, LatchMode::kExclusive));
  page::SlottedPage sp(h.data());
  SHOREMT_ASSIGN_OR_RETURN(std::span<const uint8_t> old, sp.Read(rid.slot));
  log::LogRecord rec;
  rec.type = log::LogRecordType::kPageUpdate;
  rec.page = rid.page;
  rec.store = table.heap_store;
  rec.slot = rid.slot;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.before.assign(old.begin(), old.end());
  rec.after.assign(payload.begin(), payload.end());
  SHOREMT_RETURN_NOT_OK(sp.Update(rid.slot, payload));
  SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
  txns_->NoteLogged(txn, a.lsn, a.end);
  h.MarkDirty(a.end, a.lsn);
  return Status::Ok();
}

Status StorageManager::Delete(txn::Transaction* txn, const TableInfo& table,
                              uint64_t key) {
  btree::BTree* index = index_of(table);
  if (index == nullptr) return Status::NotFound("unknown table");
  SHOREMT_ASSIGN_OR_RETURN(RecordId rid, index->Find(txn, key));
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockRecord(table.heap_store, rid, lock::LockMode::kX));
  {
    SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                             pool_->FixPage(rid.page, LatchMode::kExclusive));
    page::SlottedPage sp(h.data());
    SHOREMT_ASSIGN_OR_RETURN(std::span<const uint8_t> old, sp.Read(rid.slot));
    log::LogRecord rec;
    rec.type = log::LogRecordType::kPageDelete;
    rec.page = rid.page;
    rec.store = table.heap_store;
    rec.slot = rid.slot;
    rec.txn = txn->id;
    rec.prev_lsn = txn->last_lsn;
    rec.before.assign(old.begin(), old.end());
    SHOREMT_RETURN_NOT_OK(sp.Delete(rid.slot));
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
    txns_->NoteLogged(txn, a.lsn, a.end);
    h.MarkDirty(a.end, a.lsn);
  }
  return index->Remove(txn, key);
}

Result<Lsn> StorageManager::Checkpoint() {
  // One checkpoint at a time, snapshot through recycle: two overlapping
  // checkpoints could otherwise append their records out of snapshot
  // order, and the later-appended-but-earlier-snapshotted one would
  // become recovery's "last checkpoint" while the other's Recycle had
  // already freed commit records of transactions the stale body still
  // lists as active — resurrecting committed work as losers.
  std::lock_guard<std::mutex> ckpt_guard(ckpt_api_mutex_);
  // Decoupled (§7.7 completed): the dirty-page table's incremental
  // minimum replaces the buffer-pool scan — an O(1) read while the
  // transaction table is frozen. The blocking variant keeps the original
  // Shore behavior for the stage-comparison benches. Either way the
  // no-dirty-pages fallback is the current append horizon: everything
  // below it is clean on disk, and updates racing the snapshot are
  // covered by the active-transaction begin-LSN floor TakeCheckpoint
  // applies.
  auto redo_source = [this] {
    Lsn lsn = options_.decoupled_checkpoint ? pool_->DirtyMinRecLsn()
                                            : pool_->ScanMinRecLsn();
    return lsn.IsNull() ? log_->next_lsn() : lsn;
  };
  // The body carries catalog + space snapshots: once segments below the
  // horizon are recycled, the metadata records that built these maps are
  // gone, so recovery's analysis bootstraps from the snapshot instead.
  // The snapshot is O(database pages), so it rides only every Nth
  // checkpoint (checkpoint_snapshot_every); in between, recycling is
  // clamped to the newest snapshot-carrying record so analysis can
  // always reach one.
  bool full_snapshot = last_snapshot_ckpt_.IsNull() ||
                       ++ckpts_since_snapshot_ >=
                           options_.checkpoint_snapshot_every;
  auto augment = [this](log::CheckpointBody* body) {
    {
      std::lock_guard<std::mutex> guard(catalog_mutex_);
      body->tables.reserve(catalog_.size());
      for (const auto& [name, info] : catalog_) {
        std::vector<uint8_t> bytes;
        SerializeTableInfo(info, &bytes);
        body->tables.push_back(std::move(bytes));
      }
    }
    body->stores = space_->SnapshotStores();
  };
  Lsn redo_lsn;
  SHOREMT_ASSIGN_OR_RETURN(
      Lsn ck, txns_->TakeCheckpoint(
                  redo_source,
                  full_snapshot
                      ? std::function<void(log::CheckpointBody*)>(augment)
                      : std::function<void(log::CheckpointBody*)>(),
                  &redo_lsn));
  if (full_snapshot) {
    last_snapshot_ckpt_ = ck;
    ckpts_since_snapshot_ = 0;
  }
  // The checkpoint record is durable (TakeCheckpoint flushes it): whole
  // log segments below the low-water mark can go. Recovery never needs
  // them — redo starts at redo_lsn, undo chains of live transactions are
  // floored by it, and analysis rebuilds metadata from the newest
  // snapshot body, which the clamp keeps above the horizon.
  Lsn recycle_to = redo_lsn;
  if (recycle_to > last_snapshot_ckpt_) recycle_to = last_snapshot_ckpt_;
  log_->Recycle(recycle_to);
  return ck;
}

Status StorageManager::Shutdown() {
  SHOREMT_RETURN_NOT_OK(log_->FlushAll());
  SHOREMT_RETURN_NOT_OK(pool_->FlushAll());
  return Status::Ok();
}

// ----------------------------------------------------------------- undo ----

Status StorageManager::UndoRecord(txn::Transaction* txn, TxnId txn_id,
                                  const log::LogRecord& rec, bool log_only) {
  using log::LogRecordType;
  log::LogRecord clr;
  clr.type = LogRecordType::kClr;
  clr.txn = txn_id;
  clr.prev_lsn = txn != nullptr ? txn->last_lsn : rec.lsn;
  clr.undo_next = rec.prev_lsn;
  clr.store = rec.store;

  PageHandle handle;
  switch (rec.type) {
    case LogRecordType::kPageInsert: {
      if (!log_only) {
        SHOREMT_ASSIGN_OR_RETURN(
            handle, pool_->FixPage(rec.page, LatchMode::kExclusive));
        page::SlottedPage sp(handle.data());
        SHOREMT_RETURN_NOT_OK(sp.Delete(rec.slot));
      }
      clr.page = rec.page;
      clr.slot = rec.slot;
      clr.page_type = static_cast<uint8_t>(LogRecordType::kPageDelete);
      break;
    }
    case LogRecordType::kPageUpdate: {
      if (!log_only) {
        SHOREMT_ASSIGN_OR_RETURN(
            handle, pool_->FixPage(rec.page, LatchMode::kExclusive));
        page::SlottedPage sp(handle.data());
        SHOREMT_RETURN_NOT_OK(sp.Restore(rec.slot, rec.before));
      }
      clr.page = rec.page;
      clr.slot = rec.slot;
      clr.page_type = static_cast<uint8_t>(LogRecordType::kPageUpdate);
      clr.after = rec.before;
      break;
    }
    case LogRecordType::kPageDelete: {
      if (!log_only) {
        SHOREMT_ASSIGN_OR_RETURN(
            handle, pool_->FixPage(rec.page, LatchMode::kExclusive));
        page::SlottedPage sp(handle.data());
        SHOREMT_RETURN_NOT_OK(sp.InsertAt(rec.slot, rec.before));
      }
      clr.page = rec.page;
      clr.slot = rec.slot;
      clr.page_type = static_cast<uint8_t>(LogRecordType::kPageInsert);
      clr.after = rec.before;
      break;
    }
    case LogRecordType::kBtreeInsert: {
      btree::BTree* index = nullptr;
      {
        std::lock_guard<std::mutex> guard(catalog_mutex_);
        auto it = indexes_.find(rec.store);
        if (it != indexes_.end()) index = it->second.get();
      }
      if (index == nullptr) return Status::Internal("undo: unknown index");
      btree::BTreeEntry e;
      std::memcpy(&e, rec.after.data(), sizeof(e));
      uint64_t removed;
      PageNum leaf;
      SHOREMT_ASSIGN_OR_RETURN(handle,
                               index->RemoveUnlogged(e.key, &removed, &leaf));
      clr.page = leaf;
      clr.page_type = static_cast<uint8_t>(LogRecordType::kBtreeDelete);
      clr.before = rec.after;
      break;
    }
    case LogRecordType::kBtreeDelete: {
      btree::BTree* index = nullptr;
      {
        std::lock_guard<std::mutex> guard(catalog_mutex_);
        auto it = indexes_.find(rec.store);
        if (it != indexes_.end()) index = it->second.get();
      }
      if (index == nullptr) return Status::Internal("undo: unknown index");
      btree::BTreeEntry e;
      std::memcpy(&e, rec.before.data(), sizeof(e));
      PageNum leaf;
      SHOREMT_ASSIGN_OR_RETURN(handle,
                               index->InsertUnlogged(e.key, e.value, &leaf));
      clr.page = leaf;
      clr.page_type = static_cast<uint8_t>(LogRecordType::kBtreeInsert);
      clr.after = rec.before;
      break;
    }
    default:
      // Structure/space/catalog records are not undone (freed space is
      // reclaimed lazily, as in the original system).
      return Status::Ok();
  }

  SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->AppendClr(clr));
  if (txn != nullptr) txns_->NoteLogged(txn, a.lsn, a.end);
  if (handle.valid()) handle.MarkDirty(a.end, a.lsn);
  return Status::Ok();
}

// ------------------------------------------------------------- recovery ----

Status StorageManager::ApplyRedo(const log::LogRecord& rec, Lsn end,
                                 bool force) {
  log::LogRecordType action = PageActionOf(rec);
  if (!IsPageAction(action)) return Status::Ok();  // Metadata: analysis.
  bool format = action == log::LogRecordType::kPageFormat;
  PageHandle h;
  if (format) {
    SHOREMT_ASSIGN_OR_RETURN(h, pool_->NewPage(rec.page));
  } else {
    SHOREMT_ASSIGN_OR_RETURN(h,
                             pool_->FixPage(rec.page, LatchMode::kExclusive));
  }
  // Recovery replays in LSN order, so "page LSN covers end" means
  // "already applied" — skip. Commit-gated replica replay applies in
  // COMMIT order: a page's LSN can already be above an unapplied record's
  // end, so force mode applies unconditionally (the dispatcher guarantees
  // exactly-once per record). A format is the page's birth: a valid image
  // whose LSN covers it is already past it, force mode or not (re-Init
  // would wipe later applies).
  bool covered = page::HeaderOf(h.data())->page_lsn >= end.value;
  if (format ? covered && page::PageLooksValid(h.data(), rec.page)
             : covered && !force) {
    return Status::Ok();
  }
  SHOREMT_RETURN_NOT_OK(RedoToImage(rec, end, h.data()));
  h.MarkDirty(Lsn{page::HeaderOf(h.data())->page_lsn}, rec.lsn);
  return Status::Ok();
}

Status StorageManager::RepairPage(PageNum page, uint8_t* img) {
  // The page's full history: archived segments first (they carry the
  // recycled prefix), live log bytes after. A damaged archived segment
  // fails its manifest CRC here and the repair is refused — never rebuilt
  // from bytes that cannot be trusted; with no archive, a recycled prefix
  // fails in ReadFrom — the history is gone.
  log::LogArchive archive;
  if (!options_.log.archive_dir.empty()) {
    SHOREMT_ASSIGN_OR_RETURN(archive,
                             log::LogArchive::Open(options_.log.archive_dir));
  }
  std::vector<uint8_t> stream;
  SHOREMT_RETURN_NOT_OK(archive.ReadHistory(log_storage_, &stream));

  // Replay every record that touches `page`, oldest first, into a zeroed
  // image. The final state is at least as new as any image write-back
  // could have produced (every change to an unfixed page is WAL-durable
  // before the page leaves the pool), so redo's page-LSN idempotence
  // remains correct afterwards. A damaged record anywhere in the stream
  // fails the walk: a partial replay would hand back a stale image.
  std::memset(img, 0, kPageSize);
  bool touched = false;
  SHOREMT_RETURN_NOT_OK(
      log::WalkLogRecords(stream, 0,
                          [&](log::LogRecord& rec, Lsn end) -> Status {
                            if (rec.page != page) return Status::Ok();
                            touched = true;
                            return RedoToImage(rec, end, img);
                          })
          .status());
  if (!touched) {
    return Status::Corruption("no log record references page " +
                              std::to_string(page) + " — unrepairable");
  }
  if (!page::PageLooksValid(img, page)) {
    return Status::Corruption("repaired image for page " +
                              std::to_string(page) +
                              " failed validation");
  }
  page::StampPageChecksum(img);
  // Heal the media copy too, so the repair sticks even if the frame is
  // later evicted clean.
  io::RetryPolicy policy{options_.buffer.io.max_retries,
                         options_.buffer.io.retry_initial_backoff_ns,
                         options_.buffer.io.retry_max_backoff_ns};
  return io::RetryTransient(volume_, policy,
                            [&] { return volume_->WritePage(page, img); });
}

void StorageManager::RaiseNextStore(StoreId store) {
  StoreId want = store + 1;
  StoreId cur = next_store_.load(std::memory_order_relaxed);
  while (cur < want &&
         !next_store_.compare_exchange_weak(cur, want,
                                            std::memory_order_relaxed)) {
  }
}

Status StorageManager::ApplyMetadata(const log::LogRecord& rec,
                                     log::CheckpointBody* ckpt_out) {
  using log::LogRecordType;
  switch (rec.type) {
    case LogRecordType::kCheckpoint: {
      log::CheckpointBody local;
      log::CheckpointBody* body = ckpt_out != nullptr ? ckpt_out : &local;
      SHOREMT_RETURN_NOT_OK(DeserializeCheckpoint(rec.after, body));
      // Bootstrap metadata from the snapshots (idempotent against the
      // records already applied and those still ahead).
      for (const auto& t : body->tables) {
        TableInfo info;
        SHOREMT_RETURN_NOT_OK(DeserializeTableInfo(t, &info));
        RaiseNextStore(std::max(info.heap_store, info.index_store));
        RegisterTable(info);
      }
      for (const auto& [store, pages] : body->stores) {
        RaiseNextStore(store);
        SHOREMT_RETURN_NOT_OK(space_->ApplyCreateStore(store));
        for (PageNum page : pages) {
          SHOREMT_RETURN_NOT_OK(space_->ApplyAllocPage(store, page));
        }
      }
      return Status::Ok();
    }
    case LogRecordType::kCreateStore:
      RaiseNextStore(rec.store);
      return space_->ApplyCreateStore(rec.store);
    case LogRecordType::kAllocPage:
      return space_->ApplyAllocPage(rec.store, rec.page);
    case LogRecordType::kCatalog: {
      TableInfo info;
      SHOREMT_RETURN_NOT_OK(DeserializeTableInfo(rec.after, &info));
      RaiseNextStore(std::max(info.heap_store, info.index_store));
      RegisterTable(info);
      return Status::Ok();
    }
    default:
      return Status::Ok();
  }
}

Status StorageManager::AnalyzeLog(AnalysisState* out,
                                  bool honor_checkpoint_redo) {
  // Analysis: scan the LIVE log (from the reclamation horizon — with
  // recycling, earlier segments are gone), find the last checkpoint, and
  // rebuild the space map + catalog + active transaction table. Metadata
  // below the horizon comes from the checkpoint body's snapshots; records
  // above it are re-applied through idempotent hooks, so the fuzzy
  // overlap between the two is harmless.
  Lsn redo_start = log_->reclaim_horizon();
  // Losers evidenced by scanned records. Kept separate from checkpoint
  // hearsay: only the LAST checkpoint's active table is merged in, at the
  // end. An EARLIER checkpoint may list a transaction whose commit record
  // has since been recycled (it committed before the current horizon) —
  // seeding losers from that body would roll back committed work. For the
  // last checkpoint the hazard cannot arise: every listed transaction's
  // begin LSN is ≥ that checkpoint's redo floor ≥ the recycle horizon, so
  // its commit/abort record (which follows its begin) is in the scanned
  // region whenever it exists.
  std::map<TxnId, Lsn> scanned_losers;
  // Transactions whose commit/abort record the scan has passed: a fuzzy
  // checkpoint can still list them as active (the snapshot ran between
  // their commit-record append and their retirement), and they must never
  // be resurrected as losers.
  std::set<TxnId> ended;
  std::vector<log::CheckpointTxn> last_checkpoint_active;

  SHOREMT_RETURN_NOT_OK(log_->Scan([&](const log::LogRecord& rec, Lsn end) {
    (void)end;
    using log::LogRecordType;
    switch (rec.type) {
      case LogRecordType::kCheckpoint: {
        log::CheckpointBody body;
        SHOREMT_RETURN_NOT_OK(ApplyMetadata(rec, &body));
        // Remember only the LATEST checkpoint's active table (see the
        // scanned_losers comment above); it is merged after the scan.
        last_checkpoint_active = std::move(body.active_txns);
        if (honor_checkpoint_redo && !body.redo_lsn.IsNull()) {
          redo_start = body.redo_lsn;
        }
        break;
      }
      case LogRecordType::kCreateStore:
      case LogRecordType::kAllocPage:
      case LogRecordType::kCatalog:
        SHOREMT_RETURN_NOT_OK(ApplyMetadata(rec));
        break;
      case LogRecordType::kCommit:
      case LogRecordType::kAbort:
        scanned_losers.erase(rec.txn);
        ended.insert(rec.txn);
        break;
      default:
        break;
    }
    if (rec.txn != kInvalidTxnId &&
        rec.type != LogRecordType::kCommit &&
        rec.type != LogRecordType::kAbort) {
      scanned_losers[rec.txn] = rec.lsn;
    }
    return Status::Ok();
  }));

  // Final loser table: record-evidenced losers, plus the last checkpoint's
  // active transactions that never ended in the scanned region. Take the
  // max last_lsn per transaction — records scanned after the (fuzzy)
  // snapshot carry newer undo-chain tails than the body.
  out->losers = std::move(scanned_losers);
  for (const log::CheckpointTxn& t : last_checkpoint_active) {
    if (ended.contains(t.id)) continue;
    Lsn& slot = out->losers[t.id];
    if (t.last_lsn > slot) slot = t.last_lsn;
  }
  out->redo_start = redo_start;
  return Status::Ok();
}

Status StorageManager::UndoLosers(const std::map<TxnId, Lsn>& losers,
                                  bool structure_only) {
  // Roll back losers (newest first), logging CLRs so a crash during
  // recovery is itself recoverable. Promotion undoes structure-only: a
  // replica's commit-gated replay never applied a loser's heap records,
  // so only its immediately-applied B-tree records touch pages here —
  // but heap CLRs are still LOGGED (log_only) so a later restart of the
  // promoted log, which redoes the loser's heap records, compensates
  // them instead of colliding with post-promotion slot reuse.
  for (auto it = losers.rbegin(); it != losers.rend(); ++it) {
    TxnId txn_id = it->first;
    Lsn cursor = it->second;
    while (!cursor.IsNull()) {
      SHOREMT_ASSIGN_OR_RETURN(log::LogRecord rec, log_->ReadRecord(cursor));
      if (rec.type == log::LogRecordType::kClr) {
        cursor = rec.undo_next;
        continue;
      }
      bool is_btree = rec.type == log::LogRecordType::kBtreeInsert ||
                      rec.type == log::LogRecordType::kBtreeDelete;
      SHOREMT_RETURN_NOT_OK(UndoRecord(
          nullptr, txn_id, rec, /*log_only=*/structure_only && !is_btree));
      cursor = rec.prev_lsn;
    }
    log::LogRecord done;
    done.type = log::LogRecordType::kAbort;
    done.txn = txn_id;
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(done));
    SHOREMT_RETURN_NOT_OK(log_->FlushTo(a.end));
  }
  return Status::Ok();
}

Status StorageManager::Recover() {
  AnalysisState analysis;
  SHOREMT_RETURN_NOT_OK(AnalyzeLog(
      &analysis,
      // A restore rebuilds an EMPTY volume: checkpoint redo low-water
      // marks describe page state the fresh volume does not have, so redo
      // must replay from the very beginning of the (reconstructed) log.
      /*honor_checkpoint_redo=*/options_.open_mode != OpenMode::kRestore));
  Lsn redo_start = analysis.redo_start;

  // --- Redo: replay history from the checkpoint's low-water mark only —
  // the whole point of the cleaner/checkpoint loop. redo_scan_bytes is
  // the measured window; compare it against LogStats::bytes (everything
  // ever written) to see the bound.
  log_->NoteRedoScanBytes(log_storage_->size() -
                          std::min(log_storage_->size(),
                                   redo_start.value - 1));
  // Redo windowing: buffer `window` records, prefetch the distinct pages
  // the window names (detached async reads through the buffer pool), then
  // apply the window strictly in log order. The page reads move off the
  // critical path; the applies themselves never reorder, so the replayed
  // state is byte-identical to record-at-a-time redo.
  const size_t window = options_.recovery_prefetch_window;
  std::vector<std::pair<log::LogRecord, Lsn>> pending;
  std::vector<PageNum> prefetch;
  auto flush_window = [&]() -> Status {
    if (pending.empty()) return Status::Ok();
    if (window > 0) {
      prefetch.clear();
      for (const auto& [rec, end] : pending) {
        // kPageFormat allocates via NewPage — no read to warm. A CLR's
        // embedded action targets rec.page like any page record.
        if (rec.type == log::LogRecordType::kPageFormat) continue;
        if (rec.page == kInvalidPageNum) continue;
        if (std::find(prefetch.begin(), prefetch.end(), rec.page) ==
            prefetch.end()) {
          prefetch.push_back(rec.page);
        }
      }
      pool_->PrefetchPages(prefetch);
    }
    for (const auto& [rec, end] : pending) {
      SHOREMT_RETURN_NOT_OK(ApplyRedo(rec, end, /*force=*/false));
    }
    pending.clear();
    return Status::Ok();
  };
  SHOREMT_RETURN_NOT_OK(log_->Scan(
      [&](log::LogRecord& rec, Lsn end) {
        // The walker hands over its scratch record: take its payloads.
        pending.emplace_back(std::move(rec), end);
        if (pending.size() < std::max<size_t>(window, 1)) return Status::Ok();
        return flush_window();
      },
      redo_start));
  SHOREMT_RETURN_NOT_OK(flush_window());

  SHOREMT_RETURN_NOT_OK(UndoLosers(analysis.losers,
                                   /*structure_only=*/false));
  SHOREMT_RETURN_NOT_OK(log_->FlushAll());
  return Status::Ok();
}

Status StorageManager::PromoteRecover() {
  // Promotion runs over a drained replica: every committed record the
  // primary shipped is already applied (page state), and the receive log
  // has been truncated to a record boundary. The normal recovery tail
  // minus redo: analysis finds the in-flight transactions, whose
  // commit-gated heap records were never applied — undo their B-tree
  // records (applied immediately during streaming) and formally abort
  // them, so a later NORMAL restart over this log sees them ended and the
  // asymmetry (skipped heap redo vs no heap undo) can never bite.
  AnalysisState analysis;
  SHOREMT_RETURN_NOT_OK(AnalyzeLog(&analysis,
                                   /*honor_checkpoint_redo=*/true));
  SHOREMT_RETURN_NOT_OK(UndoLosers(analysis.losers,
                                   /*structure_only=*/true));
  SHOREMT_RETURN_NOT_OK(log_->FlushAll());
  return Status::Ok();
}

}  // namespace shoremt::sm
