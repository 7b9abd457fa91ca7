#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/random.h"
#include "io/volume.h"
#include "log/log_storage.h"
#include "page/page.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

namespace shoremt::sm {
namespace {

/// Randomized ARIES torture test: run a random transactional workload,
/// crash at a random point (nothing flushed to the volume except what
/// eviction/cleaner wrote), recover, and verify the database equals the
/// reference model of *committed* state — no lost committed writes, no
/// leaked uncommitted ones.
struct CrashCase {
  uint64_t seed;
  Stage stage;
  bool checkpoint_midway;
};

class RecoveryProperty : public ::testing::TestWithParam<CrashCase> {};

TEST_P(RecoveryProperty, CommittedStateSurvivesRandomCrash) {
  auto [seed, stage, checkpoint_midway] = GetParam();
  Rng rng(seed);
  io::MemVolume volume;
  log::LogStorage wal;

  // Reference model of committed state only.
  std::map<uint64_t, std::vector<uint8_t>> committed;

  {
    auto opened =
        StorageManager::Open(StorageOptions::ForStage(stage), &volume, &wal);
    ASSERT_TRUE(opened.ok());
    auto& db = *opened;
    auto s = db->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Commit().ok());

    int total_txns = 30 + static_cast<int>(rng.Uniform(30));
    int crash_after = static_cast<int>(rng.Uniform(total_txns));
    for (int i = 0; i < total_txns; ++i) {
      if (checkpoint_midway && i == crash_after / 2) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
      ASSERT_TRUE(s->Begin().ok());
      // Shadow of this transaction's effects.
      std::map<uint64_t, std::vector<uint8_t>> delta = committed;
      int ops = 1 + static_cast<int>(rng.Uniform(8));
      bool ok = true;
      for (int j = 0; j < ops && ok; ++j) {
        uint64_t key = rng.Uniform(200);
        int kind = static_cast<int>(rng.Uniform(100));
        if (kind < 55) {
          std::vector<uint8_t> payload(8 + rng.Uniform(120));
          for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());
          if (delta.contains(key)) {
            ok = s->Update(*table, key, payload).ok();
          } else {
            ok = s->Insert(*table, key, payload).ok();
          }
          if (ok) delta[key] = payload;
        } else if (kind < 80) {
          if (delta.contains(key)) {
            ok = s->Delete(*table, key).ok();
            if (ok) delta.erase(key);
          }
        } else {
          auto read = s->Read(*table, key);
          if (delta.contains(key)) {
            ok = read.ok() && std::equal(read->begin(), read->end(),
                                         delta[key].begin(),
                                         delta[key].end());
          } else {
            ok = read.status().IsNotFound();
          }
        }
      }
      if (!ok) {
        ASSERT_TRUE(s->Abort().ok());
      } else if (rng.Bernoulli(0.25)) {
        // Deliberate rollback: delta discarded.
        ASSERT_TRUE(s->Abort().ok());
      } else {
        ASSERT_TRUE(s->Commit().ok());
        committed = std::move(delta);
      }
      if (i == crash_after) {
        // Leave one transaction in flight at the crash for extra spice.
        ASSERT_TRUE(s->Begin().ok());
        (void)s->Insert(*table, 9999, std::vector<uint8_t>(16, 0xDE));
        break;
      }
    }
    db->SimulateCrash();
  }

  // Restart + recovery.
  auto reopened =
      StorageManager::Open(StorageOptions::ForStage(stage), &volume, &wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto s = (*reopened)->OpenSession();
  auto table = s->OpenTable("t");
  ASSERT_TRUE(table.ok());

  ASSERT_TRUE(s->Begin().ok());
  // Every committed row present and intact.
  for (const auto& [key, payload] : committed) {
    auto read = s->Read(*table, key);
    ASSERT_TRUE(read.ok()) << "lost committed key " << key << " (seed "
                           << seed << ")";
    EXPECT_TRUE(std::equal(read->begin(), read->end(), payload.begin(),
                           payload.end()))
        << "corrupt committed key " << key << " (seed " << seed << ")";
  }
  // No extra rows (uncommitted leaks), checked via full scan.
  uint64_t rows = 0;
  auto cur = s->OpenCursor(*table);
  for (auto st = cur.Seek(0); cur.Valid(); st = cur.Next()) {
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(committed.contains(cur.key()))
        << "leaked uncommitted key " << cur.key() << " (seed " << seed << ")";
    ++rows;
  }
  EXPECT_EQ(rows, committed.size());
  ASSERT_TRUE(s->Commit().ok());

  // And the recovered system remains fully usable.
  ASSERT_TRUE(s->Begin().ok());
  ASSERT_TRUE(s->Insert(*table, 777777, std::vector<uint8_t>(8, 0x42)).ok());
  ASSERT_TRUE(s->Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndStages, RecoveryProperty,
    ::testing::Values(CrashCase{1001, Stage::kFinal, false},
                      CrashCase{1002, Stage::kFinal, true},
                      CrashCase{1003, Stage::kFinal, true},
                      CrashCase{1004, Stage::kFinal, false},
                      CrashCase{2001, Stage::kBaseline, false},
                      CrashCase{2002, Stage::kBaseline, true},
                      CrashCase{3001, Stage::kLog, true},
                      CrashCase{3002, Stage::kBufferPool2, true},
                      CrashCase{4001, Stage::kCaching, false},
                      CrashCase{4002, Stage::kLockManager, true}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed);
    });

/// Double-crash: crash during the post-recovery session too; recovery of
/// a recovered log (with CLRs in it) must be stable.
TEST(RecoveryProperty2, DoubleCrashWithClrsIsStable) {
  io::MemVolume volume;
  log::LogStorage wal;
  std::vector<uint8_t> payload(32, 0xAB);
  {
    auto db = std::move(*StorageManager::Open(
        StorageOptions::ForStage(Stage::kFinal), &volume, &wal));
    auto s = db->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Commit().ok());
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Insert(*table, 1, payload).ok());
    ASSERT_TRUE(s->Commit().ok());
    // Aborted txn → CLRs in the log.
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Update(*table, 1, std::vector<uint8_t>(8, 1)).ok());
    ASSERT_TRUE(s->Insert(*table, 2, payload).ok());
    ASSERT_TRUE(s->Abort().ok());
    // In-flight txn at crash → restart undo writes more CLRs.
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Update(*table, 1, std::vector<uint8_t>(8, 2)).ok());
    db->SimulateCrash();
  }
  for (int round = 0; round < 3; ++round) {
    auto db = std::move(*StorageManager::Open(
        StorageOptions::ForStage(Stage::kFinal), &volume, &wal));
    auto s = db->OpenSession();
    auto table = s->OpenTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Begin().ok());
    auto read = s->Read(*table, 1);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->size(), payload.size()) << "round " << round;
    EXPECT_TRUE(s->Read(*table, 2).status().IsNotFound());
    ASSERT_TRUE(s->Commit().ok());
    db->SimulateCrash();  // Crash again immediately after recovery.
  }
}

/// An abort must never fail. Updates redraw a row's size on every write, so
/// a transaction shrinks some rows in place and grows others on pages the
/// load filled; rolling it back grows the shrunk rows back, which must fit
/// in the bytes they held before. A forward update may fail for lack of
/// space (rows never move off their page); the rollback after it may not.
class AbortProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AbortProperty, VariableSizeUpdatesAlwaysRollBack) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  io::MemVolume volume;
  log::LogStorage wal;
  auto opened = StorageManager::Open(StorageOptions::ForStage(Stage::kFinal),
                                     &volume, &wal);
  ASSERT_TRUE(opened.ok());
  auto s = (*opened)->OpenSession();
  auto draw_row = [&] {
    std::vector<uint8_t> row(8 + rng.Uniform(120));
    for (auto& b : row) b = static_cast<uint8_t>(rng.Next());
    return row;
  };

  constexpr uint64_t kKeys = 1500;
  std::vector<std::vector<uint8_t>> committed(kKeys);
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < kKeys; ++k) {
    committed[k] = draw_row();
    ASSERT_TRUE(s->Insert(*table, k, committed[k]).ok());
  }
  ASSERT_TRUE(s->Commit().ok());

  uint64_t aborts = 0;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(s->Begin().ok());
    std::vector<std::vector<uint8_t>> delta = committed;
    bool failed = false;
    int ops = 1 + static_cast<int>(rng.Uniform(8));
    for (int j = 0; j < ops && !failed; ++j) {
      uint64_t key = rng.Uniform(kKeys);
      std::vector<uint8_t> row = draw_row();
      Status st = s->Update(*table, key, row);
      if (st.ok()) {
        delta[key] = std::move(row);
      } else {
        ASSERT_EQ(st.code(), StatusCode::kOutOfSpace) << st.ToString();
        failed = true;
      }
    }
    if (failed || rng.Bernoulli(0.25)) {
      Status st = s->Abort();
      ASSERT_TRUE(st.ok()) << "abort of txn " << i << " failed (seed " << seed
                           << "): " << st.ToString();
      ++aborts;
    } else {
      ASSERT_TRUE(s->Commit().ok());
      committed = std::move(delta);
    }
  }
  EXPECT_GT(aborts, 0u);

  ASSERT_TRUE(s->Begin().ok());
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto read = s->Read(*table, k);
    ASSERT_TRUE(read.ok()) << "key " << k << " (seed " << seed << ")";
    ASSERT_TRUE(std::equal(read->begin(), read->end(), committed[k].begin(),
                           committed[k].end()))
        << "key " << k << " (seed " << seed << ")";
  }
  ASSERT_TRUE(s->Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbortProperty, ::testing::Range<uint64_t>(1, 51));

/// Redo parity: recovery redo (ApplyRedo on a frame) and media repair
/// (RepairPage replaying the log into a zeroed image) run one kernel, so
/// after a crash and restart every page repair rebuilds from the log must
/// equal, byte for byte, the image recovery produced — whether recovery
/// started from a written-back page (and skipped records it covers) or
/// replayed the page from its format. Only the checksum word is ignored.
class RedoParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RedoParity, RepairRebuildsTheImageRecoveryRedid) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  io::MemVolume volume;
  log::LogStorage wal;
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.buffer.enable_cleaner = false;
  opts.checkpoint_daemon = false;

  uint64_t splits = 0;
  uint64_t aborts = 0;
  {
    auto opened = StorageManager::Open(opts, &volume, &wal);
    ASSERT_TRUE(opened.ok());
    auto& db = *opened;
    auto s = db->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Commit().ok());
    std::set<uint64_t> present;  // Committed keys.
    for (int i = 0; i < 800; ++i) {
      if (i % 200 == 100) {
        // Write back and checkpoint: restart redo then starts past these
        // pages' formats and replays onto their media images, while
        // repair always replays a page from its format.
        ASSERT_TRUE(db->pool()->CleanerPass(0).ok());
        ASSERT_TRUE(db->Checkpoint().ok());
      }
      ASSERT_TRUE(s->Begin().ok());
      std::set<uint64_t> delta = present;
      bool failed = false;
      int ops = 1 + static_cast<int>(rng.Uniform(8));
      for (int j = 0; j < ops && !failed; ++j) {
        uint64_t key = rng.Uniform(4000);
        std::vector<uint8_t> row(8 + rng.Uniform(120));
        for (auto& b : row) b = static_cast<uint8_t>(rng.Next());
        if (!delta.contains(key)) {
          ASSERT_TRUE(s->Insert(*table, key, row).ok());
          delta.insert(key);
        } else if (rng.Bernoulli(0.3)) {
          ASSERT_TRUE(s->Delete(*table, key).ok());
          delta.erase(key);
        } else {
          // A row that outgrows its full page fails; the abort below
          // then rolls back the rows this transaction shrank and grew.
          Status st = s->Update(*table, key, row);
          ASSERT_TRUE(st.ok() || st.code() == StatusCode::kOutOfSpace)
              << st.ToString();
          failed = !st.ok();
        }
      }
      if (failed || rng.Bernoulli(0.25)) {
        Status ab = s->Abort();  // CLRs, heap and B-tree alike.
        ASSERT_TRUE(ab.ok()) << ab.ToString() << " txn " << i;
        ++aborts;
      } else {
        ASSERT_TRUE(s->Commit().ok());
        present = std::move(delta);
      }
    }
    // A loser in flight at the crash: restart undo logs more CLRs.
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Insert(*table, 5000, std::vector<uint8_t>(16, 1)).ok());
    splits = db->index_of(*table)->stats().splits.load();
    db->SimulateCrash();
  }
  ASSERT_GE(splits, 2u) << "the workload must split leaves, not just the root";
  ASSERT_GT(aborts, 0u);

  // Restart (analysis, redo, undo), then write every page back.
  {
    auto reopened = StorageManager::Open(opts, &volume, &wal);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE((*reopened)->Shutdown().ok());
  }
  constexpr size_t kChecksumAt = offsetof(page::PageHeader, checksum);
  std::map<PageNum, std::vector<uint8_t>> redone;
  std::vector<uint8_t> img(kPageSize);
  for (PageNum p = 1; p < volume.NumPages(); ++p) {
    ASSERT_TRUE(volume.ReadPage(p, img.data()).ok());
    const page::PageHeader* h = page::HeaderOf(img.data());
    if (!page::PageLooksValid(img.data(), p) || h->checksum == 0) continue;
    redone[p] = img;
    std::memset(redone[p].data() + kChecksumAt, 0, sizeof(uint32_t));
    img[kPageSize - 1] ^= 0x01;  // Fails the checksum: forces repair.
    ASSERT_TRUE(volume.WritePage(p, img.data()).ok());
  }
  ASSERT_GT(redone.size(), 4u);

  // Attach mode runs no recovery, so each fix below misses, fails its
  // checksum and is rebuilt by media repair.
  opts.open_mode = OpenMode::kReplicaAttach;
  auto attached = StorageManager::Open(opts, &volume, &wal);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  for (const auto& [p, want] : redone) {
    auto h = (*attached)->pool()->FixPage(p, sync::LatchMode::kShared);
    ASSERT_TRUE(h.ok()) << "page " << p << ": " << h.status().ToString();
    std::memcpy(img.data(), h->data(), kPageSize);
    std::memset(img.data() + kChecksumAt, 0, sizeof(uint32_t));
    size_t first_diff = 0;
    while (first_diff < kPageSize && img[first_diff] == want[first_diff]) {
      ++first_diff;
    }
    EXPECT_EQ(first_diff, kPageSize)
        << "page " << p << " (type "
        << static_cast<int>(page::HeaderOf(want.data())->type)
        << ") differs first at byte " << first_diff << " (seed " << seed
        << ")";
  }
  EXPECT_EQ((*attached)->pool()->stats().pages_repaired.load(),
            redone.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedoParity, ::testing::Values(11, 12, 13));

}  // namespace
}  // namespace shoremt::sm
