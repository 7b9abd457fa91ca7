#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "io/volume.h"
#include "log/log_storage.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

namespace shoremt::sm {
namespace {

std::vector<uint8_t> Row(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// `prefix` followed by the decimal `n`. Built by appending: with GCC 12,
/// `"x" + std::to_string(n)` trips a false -Wrestrict report at -O3.
std::string Numbered(const char* prefix, uint64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

std::string AsString(std::span<const uint8_t> v) {
  return std::string(v.begin(), v.end());
}

/// Durable state (volume + log) that outlives StorageManager instances, so
/// tests can crash and reopen.
struct Durable {
  io::MemVolume volume;
  log::LogStorage log;

  std::unique_ptr<StorageManager> Open(
      StorageOptions options = StorageOptions::ForStage(Stage::kFinal)) {
    auto sm = StorageManager::Open(options, &volume, &log);
    EXPECT_TRUE(sm.ok()) << sm.status().ToString();
    return sm.ok() ? std::move(*sm) : nullptr;
  }
};

TEST(StorageManagerTest, CreateOpenTable) {
  Durable d;
  auto sm = d.Open();
  ASSERT_NE(sm, nullptr);
  auto s = sm->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("users");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(s->CreateTable("users").status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(s->Commit().ok());
  auto opened = s->OpenTable("users");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->heap_store, table->heap_store);
  EXPECT_TRUE(s->OpenTable("ghosts").status().IsNotFound());
}

TEST(StorageManagerTest, AbortRestoresDeletedRow) {
  Durable d;
  auto sm = d.Open();
  ASSERT_NE(sm, nullptr);
  auto s = sm->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Insert(*table, 5, Row("precious")).ok());
  ASSERT_TRUE(s->Commit().ok());

  ASSERT_TRUE(s->Begin().ok());
  ASSERT_TRUE(s->Delete(*table, 5).ok());
  ASSERT_TRUE(s->Abort().ok());

  ASSERT_TRUE(s->Begin().ok());
  EXPECT_EQ(AsString(*s->Read(*table, 5)), "precious");
  ASSERT_TRUE(s->Commit().ok());
}

TEST(StorageManagerTest, DuplicateKeyInsertFailsCleanly) {
  Durable d;
  auto sm = d.Open();
  ASSERT_NE(sm, nullptr);
  auto s = sm->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Insert(*table, 1, Row("first")).ok());
  EXPECT_EQ(s->Insert(*table, 1, Row("second")).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(s->Abort().ok());
}

TEST(StorageManagerTest, CrashBeforeCommitLosesNothingDurable) {
  Durable d;
  {
    auto sm = d.Open();
    ASSERT_NE(sm, nullptr);
    auto s = sm->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Insert(*table, 1, Row("durable")).ok());
    ASSERT_TRUE(s->Commit().ok());

    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Insert(*table, 2, Row("in-flight")).ok());
    ASSERT_TRUE(s->Update(*table, 1, Row("tampered")).ok());
    // Crash: the loser never commits; nothing was flushed to the volume.
    sm->SimulateCrash();
  }
  auto sm = d.Open();
  ASSERT_NE(sm, nullptr);
  auto s = sm->OpenSession();
  auto reopened = s->OpenTable("t");
  ASSERT_TRUE(reopened.ok()) << "catalog must survive via the log";
  ASSERT_TRUE(s->Begin().ok());
  EXPECT_EQ(AsString(*s->Read(*reopened, 1)), "durable");
  EXPECT_TRUE(s->Read(*reopened, 2).status().IsNotFound());
  ASSERT_TRUE(s->Commit().ok());
}

TEST(StorageManagerTest, CrashAfterCommitPreservesEverything) {
  Durable d;
  {
    auto sm = d.Open();
    ASSERT_NE(sm, nullptr);
    auto s = sm->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(s->Insert(*table, k, Row(Numbered("val", k))).ok());
    }
    ASSERT_TRUE(s->Commit().ok());
    sm->SimulateCrash();  // Volume never saw most of these pages.
  }
  auto sm = d.Open();
  ASSERT_NE(sm, nullptr);
  auto s = sm->OpenSession();
  auto table = s->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Begin().ok());
  for (uint64_t k = 0; k < 200; ++k) {
    auto read = s->Read(*table, k);
    ASSERT_TRUE(read.ok()) << "key " << k << ": " << read.status().ToString();
    EXPECT_EQ(AsString(*read), Numbered("val", k));
  }
  ASSERT_TRUE(s->Commit().ok());
}

TEST(StorageManagerTest, RecoveryIsIdempotentAcrossDoubleCrash) {
  Durable d;
  {
    auto sm = d.Open();
    ASSERT_NE(sm, nullptr);
    auto s = sm->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Insert(*table, 1, Row("one")).ok());
    ASSERT_TRUE(s->Commit().ok());
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Insert(*table, 2, Row("two")).ok());
    sm->SimulateCrash();
  }
  {
    // First recovery, then crash again immediately.
    auto sm = d.Open();
    ASSERT_NE(sm, nullptr);
    sm->SimulateCrash();
  }
  auto sm = d.Open();
  ASSERT_NE(sm, nullptr);
  auto s = sm->OpenSession();
  auto table = s->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Begin().ok());
  EXPECT_EQ(AsString(*s->Read(*table, 1)), "one");
  EXPECT_TRUE(s->Read(*table, 2).status().IsNotFound());
  ASSERT_TRUE(s->Commit().ok());
}

TEST(StorageManagerTest, CheckpointBoundsRecoveryWork) {
  Durable d;
  {
    auto sm = d.Open();
    ASSERT_NE(sm, nullptr);
    auto s = sm->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    for (uint64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(s->Insert(*table, k, Row("x")).ok());
    }
    ASSERT_TRUE(s->Commit().ok());
    ASSERT_TRUE(sm->Checkpoint().ok());
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Insert(*table, 1000, Row("tail")).ok());
    ASSERT_TRUE(s->Commit().ok());
    sm->SimulateCrash();
  }
  auto sm = d.Open();
  ASSERT_NE(sm, nullptr);
  auto s = sm->OpenSession();
  auto table = s->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Begin().ok());
  EXPECT_TRUE(s->Read(*table, 50).ok());
  EXPECT_TRUE(s->Read(*table, 1000).ok());
  ASSERT_TRUE(s->Commit().ok());
}

TEST(StorageManagerTest, BlockingCheckpointVariantAlsoRecovers) {
  Durable d;
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.decoupled_checkpoint = false;
  {
    auto sm = d.Open(opts);
    ASSERT_NE(sm, nullptr);
    auto s = sm->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Insert(*table, 1, Row("v")).ok());
    ASSERT_TRUE(s->Commit().ok());
    ASSERT_TRUE(sm->Checkpoint().ok());
    sm->SimulateCrash();
  }
  auto sm = d.Open(opts);
  ASSERT_NE(sm, nullptr);
  auto s = sm->OpenSession();
  auto table = s->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Begin().ok());
  EXPECT_TRUE(s->Read(*table, 1).ok());
  ASSERT_TRUE(s->Commit().ok());
}

TEST(StorageManagerTest, ConcurrentPrivateTables) {
  // The paper's Figure 1 setup in miniature: each client inserts into its
  // own table — no logical contention, only internal structures shared.
  Durable d;
  auto sm = d.Open();
  ASSERT_NE(sm, nullptr);
  constexpr int kClients = 4;
  constexpr uint64_t kRows = 300;
  std::vector<TableInfo> tables(kClients);
  auto s = sm->OpenSession();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(s->Begin().ok());
    auto t = s->CreateTable(Numbered("client", c));
    ASSERT_TRUE(t.ok());
    tables[c] = *t;
    ASSERT_TRUE(s->Commit().ok());
  }
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      auto worker = sm->OpenSession();
      if (!worker->Begin().ok()) failures.fetch_add(1);
      for (uint64_t k = 0; k < kRows; ++k) {
        if (!worker->Insert(tables[c], k, Row("r")).ok()) {
          failures.fetch_add(1);
        }
        if ((k + 1) % 100 == 0) {
          if (!worker->Commit().ok()) failures.fetch_add(1);
          if (!worker->Begin().ok()) failures.fetch_add(1);
        }
      }
      if (!worker->Commit().ok()) failures.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(s->Begin().ok());
  for (int c = 0; c < kClients; ++c) {
    uint64_t seen = 0;
    auto cur = s->OpenCursor(tables[c]);
    for (auto st = cur.Seek(0); cur.Valid(); st = cur.Next()) {
      ASSERT_TRUE(st.ok());
      ++seen;
    }
    EXPECT_EQ(seen, kRows) << "client " << c;
  }
  ASSERT_TRUE(s->Commit().ok());
}

class StagePresetTest : public ::testing::TestWithParam<Stage> {};

TEST_P(StagePresetTest, FullWorkloadIsCorrectAtEveryStage) {
  // Every §7 stage must produce the same answers — the stages differ only
  // in scalability, never in semantics.
  Durable d;
  auto sm = d.Open(StorageOptions::ForStage(GetParam()));
  ASSERT_NE(sm, nullptr);
  auto s = sm->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < 150; ++k) {
    ASSERT_TRUE(s->Insert(*table, k, Row(Numbered("v", k))).ok());
  }
  ASSERT_TRUE(s->Commit().ok());

  ASSERT_TRUE(s->Begin().ok());
  ASSERT_TRUE(s->Update(*table, 3, Row("bad")).ok());
  ASSERT_TRUE(s->Abort().ok());

  ASSERT_TRUE(s->Begin().ok());
  EXPECT_EQ(AsString(*s->Read(*table, 3)), "v3");
  EXPECT_EQ(AsString(*s->Read(*table, 149)), "v149");
  ASSERT_TRUE(s->Commit().ok());
}

TEST_P(StagePresetTest, RecoversAfterCrash) {
  Durable d;
  {
    auto sm = d.Open(StorageOptions::ForStage(GetParam()));
    ASSERT_NE(sm, nullptr);
    auto s = sm->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Insert(*table, 42, Row("answer")).ok());
    ASSERT_TRUE(s->Commit().ok());
    sm->SimulateCrash();
  }
  auto sm = d.Open(StorageOptions::ForStage(GetParam()));
  ASSERT_NE(sm, nullptr);
  auto s = sm->OpenSession();
  auto table = s->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Begin().ok());
  EXPECT_EQ(AsString(*s->Read(*table, 42)), "answer");
  ASSERT_TRUE(s->Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(AllStages, StagePresetTest,
                         ::testing::ValuesIn(kAllStages),
                         [](const auto& info) {
                           std::string name(StageName(info.param));
                           for (char& c : name) {
                             if (c == ' ') c = '_';
                           }
                           return name;
                         });

TEST(StorageManagerTest, LargeRowsRejected) {
  Durable d;
  auto sm = d.Open();
  ASSERT_NE(sm, nullptr);
  auto s = sm->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  std::vector<uint8_t> huge(kPageSize, 0);
  EXPECT_EQ(s->Insert(*table, 1, huge).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(s->Abort().ok());
}

TEST(StorageManagerTest, RowConflictBetweenTxnsTimesOut) {
  Durable d;
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.lock.timeout_us = 30'000;
  auto sm = d.Open(opts);
  ASSERT_NE(sm, nullptr);
  auto writer = sm->OpenSession();
  ASSERT_TRUE(writer->Begin().ok());
  auto table = writer->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(writer->Insert(*table, 1, Row("v")).ok());
  ASSERT_TRUE(writer->Commit().ok());

  // Two transactions on one thread: one session each.
  ASSERT_TRUE(writer->Begin().ok());
  ASSERT_TRUE(writer->Update(*table, 1, Row("w")).ok());
  auto reader = sm->OpenSession();
  ASSERT_TRUE(reader->Begin().ok());
  EXPECT_TRUE(reader->Read(*table, 1).status().IsDeadlock())
      << "reader must time out against the writer's X lock";
  ASSERT_TRUE(reader->Abort().ok());
  ASSERT_TRUE(writer->Commit().ok());
}

}  // namespace
}  // namespace shoremt::sm
