/// Recovery internals demo: watch ARIES analysis/redo/undo at work.
///
/// Writes a mix of committed and in-flight transactions, crashes without
/// flushing a single data page, then walks the write-ahead log record by
/// record before reopening the database and verifying the recovered state.

#include <cstdio>
#include <string>

#include "io/volume.h"
#include "log/log_manager.h"
#include "log/log_storage.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

using namespace shoremt;

namespace {

std::vector<uint8_t> Row(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

const char* TypeName(log::LogRecordType t) {
  using log::LogRecordType;
  switch (t) {
    case LogRecordType::kNoop: return "noop";
    case LogRecordType::kPageFormat: return "page_format";
    case LogRecordType::kPageInsert: return "page_insert";
    case LogRecordType::kPageUpdate: return "page_update";
    case LogRecordType::kPageDelete: return "page_delete";
    case LogRecordType::kAllocPage: return "alloc_page";
    case LogRecordType::kCreateStore: return "create_store";
    case LogRecordType::kCommit: return "COMMIT";
    case LogRecordType::kAbort: return "ABORT";
    case LogRecordType::kClr: return "CLR";
    case LogRecordType::kCheckpoint: return "CHECKPOINT";
    case LogRecordType::kBtreeInsert: return "btree_insert";
    case LogRecordType::kBtreeDelete: return "btree_delete";
    case LogRecordType::kBtreeSetContent: return "btree_set_content";
    case LogRecordType::kCatalog: return "catalog";
  }
  return "?";
}

}  // namespace

int main() {
  io::MemVolume volume;
  log::LogStorage wal;

  {
    auto opened = sm::StorageManager::Open(
        sm::StorageOptions::ForStage(sm::Stage::kFinal), &volume, &wal);
    if (!opened.ok()) return 1;
    auto& db = *opened;

    auto winner = db->OpenSession();
    (void)winner->Begin();
    auto table = winner->CreateTable("ledger");
    (void)winner->Insert(*table, 1, Row("committed-before-crash"));
    (void)winner->Commit();

    auto loser = db->OpenSession();
    (void)loser->Begin();
    (void)loser->Insert(*table, 2, Row("never-committed"));
    (void)loser->Update(*table, 1, Row("tampered"));
    // ... power fails mid-transaction. Closing the session after the
    // crash rolls nothing back: the in-flight updates die with the crash.
    db->SimulateCrash();
    std::printf("crashed with 1 committed txn and 1 in-flight txn\n\n");
  }

  // Inspect the surviving WAL: this is exactly what recovery analysis
  // sees. Note the loser's records have no commit.
  std::printf("durable WAL (%llu bytes):\n",
              static_cast<unsigned long long>(wal.size()));
  log::LogManager reader(&wal, log::LogOptions{});
  int shown = 0;
  (void)reader.Scan([&](const log::LogRecord& rec, Lsn) {
    std::printf("  lsn %6llu  txn %2llu  %-17s page %llu\n",
                static_cast<unsigned long long>(rec.lsn.value),
                static_cast<unsigned long long>(rec.txn),
                TypeName(rec.type),
                static_cast<unsigned long long>(rec.page));
    ++shown;
    return Status::Ok();
  });
  std::printf("  (%d records)\n\n", shown);

  // Reopen: analysis finds the loser, redo replays history, undo rolls
  // the loser back (appending CLRs you could see by re-dumping the log).
  auto reopened = sm::StorageManager::Open(
      sm::StorageOptions::ForStage(sm::Stage::kFinal), &volume, &wal);
  if (!reopened.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  auto& db = *reopened;
  auto check = db->OpenSession();
  auto table = check->OpenTable("ledger");
  (void)check->Begin();
  auto key1 = check->Read(*table, 1);
  std::string key1_str =
      key1.ok() ? std::string(key1->begin(), key1->end()) : std::string();
  auto key2 = check->Read(*table, 2);
  std::printf("after recovery:\n");
  std::printf("  key 1 -> \"%s\" (expected the committed image)\n",
              key1.ok() ? key1_str.c_str()
                        : key1.status().ToString().c_str());
  std::printf("  key 2 -> %s (expected NotFound: loser rolled back)\n",
              key2.ok() ? "present (!)" : key2.status().ToString().c_str());
  (void)check->Commit();

  bool ok = key1.ok() && key1_str == "committed-before-crash" &&
            key2.status().IsNotFound();
  std::printf("\nrecovery verdict: %s\n", ok ? "OK" : "BROKEN");
  return ok ? 0 : 1;
}
