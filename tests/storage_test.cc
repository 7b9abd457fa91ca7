#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "io/volume.h"
#include "page/page.h"
#include "page/slotted_page.h"
#include "space/space_manager.h"

namespace shoremt {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string ToString(std::span<const uint8_t> s) {
  return std::string(s.begin(), s.end());
}

// ---------------------------------------------------------------- page ----

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : sp_(buf_) {
    sp_.Init(7, 3, page::PageType::kData);
  }
  alignas(8) uint8_t buf_[kPageSize] = {};
  page::SlottedPage sp_;
};

TEST_F(SlottedPageTest, InitSetsHeader) {
  const page::PageHeader* h = sp_.header();
  EXPECT_EQ(h->magic, page::kPageMagic);
  EXPECT_EQ(h->page_num, 7u);
  EXPECT_EQ(h->store, 3u);
  EXPECT_EQ(h->type, page::PageType::kData);
  EXPECT_EQ(sp_.SlotCount(), 0u);
  EXPECT_TRUE(page::PageLooksValid(buf_, 7));
  EXPECT_FALSE(page::PageLooksValid(buf_, 8));
}

TEST_F(SlottedPageTest, InsertAndRead) {
  auto payload = Bytes("hello world");
  auto slot = sp_.Insert(payload);
  ASSERT_TRUE(slot.ok());
  auto read = sp_.Read(*slot);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(*read), "hello world");
  EXPECT_EQ(sp_.LiveCount(), 1u);
}

TEST_F(SlottedPageTest, MultipleRecordsKeepDistinctSlots) {
  for (int i = 0; i < 10; ++i) {
    auto slot = sp_.Insert(Bytes("record-" + std::to_string(i)));
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(*slot, i);
  }
  for (int i = 0; i < 10; ++i) {
    auto read = sp_.Read(static_cast<uint16_t>(i));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(ToString(*read), "record-" + std::to_string(i));
  }
}

TEST_F(SlottedPageTest, DeleteTombstonesAndReuses) {
  auto s0 = sp_.Insert(Bytes("aaa"));
  auto s1 = sp_.Insert(Bytes("bbb"));
  ASSERT_TRUE(s0.ok() && s1.ok());
  ASSERT_TRUE(sp_.Delete(*s0).ok());
  EXPECT_FALSE(sp_.IsLive(*s0));
  EXPECT_TRUE(sp_.Read(*s0).status().IsNotFound());
  EXPECT_TRUE(sp_.Delete(*s0).IsNotFound());
  // New insert reuses the tombstoned slot 0.
  auto s2 = sp_.Insert(Bytes("ccc"));
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, *s0);
  EXPECT_EQ(ToString(*sp_.Read(*s2)), "ccc");
}

TEST_F(SlottedPageTest, UpdateInPlaceAndGrow) {
  auto slot = sp_.Insert(Bytes("0123456789"));
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(sp_.Update(*slot, Bytes("short")).ok());
  EXPECT_EQ(ToString(*sp_.Read(*slot)), "short");
  ASSERT_TRUE(sp_.Update(*slot, Bytes(std::string(200, 'x'))).ok());
  EXPECT_EQ(sp_.Read(*slot)->size(), 200u);
}

TEST_F(SlottedPageTest, ShrinkKeepsCapacityForRollback) {
  auto slot = sp_.Insert(std::vector<uint8_t>(400, 1));
  ASSERT_TRUE(slot.ok());
  while (sp_.Insert(std::vector<uint8_t>(50)).ok()) {
  }
  ASSERT_TRUE(sp_.Update(*slot, std::vector<uint8_t>(10, 2)).ok());
  // The 390 bytes the shrink gave up stay reserved for the record.
  EXPECT_FALSE(sp_.Fits(50));
  EXPECT_FALSE(sp_.Insert(std::vector<uint8_t>(50)).ok());
  ASSERT_TRUE(sp_.Restore(*slot, std::vector<uint8_t>(400, 1)).ok());
  EXPECT_EQ(sp_.Read(*slot)->size(), 400u);
}

TEST_F(SlottedPageTest, RestoreGivesBackAnUndoneGrowth) {
  auto a = sp_.Insert(std::vector<uint8_t>(100, 1));
  auto b = sp_.Insert(std::vector<uint8_t>(100, 2));
  ASSERT_TRUE(a.ok() && b.ok());
  while (sp_.Insert(std::vector<uint8_t>(50)).ok()) {
  }
  // One transaction deletes b, grows a into b's bytes, then rolls back in
  // reverse order: a's rollback must free what its growth took, or b
  // cannot come back.
  ASSERT_TRUE(sp_.Delete(*b).ok());
  ASSERT_TRUE(sp_.Update(*a, std::vector<uint8_t>(190, 3)).ok());
  ASSERT_TRUE(sp_.Restore(*a, std::vector<uint8_t>(100, 1)).ok());
  ASSERT_TRUE(sp_.InsertAt(*b, std::vector<uint8_t>(100, 2)).ok());
  auto row_a = sp_.Read(*a);
  auto row_b = sp_.Read(*b);
  ASSERT_TRUE(row_a.ok() && row_b.ok());
  EXPECT_EQ(std::vector<uint8_t>(row_a->begin(), row_a->end()),
            std::vector<uint8_t>(100, 1));
  EXPECT_EQ(std::vector<uint8_t>(row_b->begin(), row_b->end()),
            std::vector<uint8_t>(100, 2));
}

TEST_F(SlottedPageTest, FillsUntilOutOfSpace) {
  std::vector<uint8_t> rec(100);
  int inserted = 0;
  for (;;) {
    auto slot = sp_.Insert(rec);
    if (!slot.ok()) {
      EXPECT_EQ(slot.status().code(), StatusCode::kOutOfSpace);
      break;
    }
    ++inserted;
  }
  // 8KB page, 100-byte records + 4-byte slots: ~78 fit.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 82);
  EXPECT_FALSE(sp_.Fits(100));
  EXPECT_TRUE(sp_.Fits(1));
}

TEST_F(SlottedPageTest, CompactionRecoversDeletedSpace) {
  std::vector<uint8_t> rec(500);
  std::vector<uint16_t> slots;
  while (true) {
    auto s = sp_.Insert(rec);
    if (!s.ok()) break;
    slots.push_back(*s);
  }
  // Delete every other record, then insert records that only fit after
  // compaction.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(sp_.Delete(slots[i]).ok());
  }
  auto big = sp_.Insert(std::vector<uint8_t>(900));
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  // Survivors are intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_TRUE(sp_.IsLive(slots[i]));
    EXPECT_EQ(sp_.Read(slots[i])->size(), 500u);
  }
}

TEST_F(SlottedPageTest, RejectsOversizeRecord) {
  auto r = sp_.Insert(std::vector<uint8_t>(kPageSize));
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SlottedPageTest, InsertAtForRedo) {
  ASSERT_TRUE(sp_.InsertAt(0, Bytes("redo")).ok());
  EXPECT_TRUE(sp_.InsertAt(0, Bytes("dup")).code() ==
              StatusCode::kAlreadyExists);
  // Commit-order replicated replay can materialize slot 5 before 1-4:
  // the gap becomes tombstones a later InsertAt (or Insert reuse) fills.
  ASSERT_TRUE(sp_.InsertAt(5, Bytes("gap")).ok());
  EXPECT_TRUE(sp_.IsLive(5));
  EXPECT_EQ(sp_.Read(5)->size(), Bytes("gap").size());
  for (uint16_t s = 1; s < 5; ++s) EXPECT_FALSE(sp_.IsLive(s));
  ASSERT_TRUE(sp_.InsertAt(3, Bytes("fill")).ok());
  EXPECT_TRUE(sp_.IsLive(3));
}

// ------------------------------------------------------------------ io ----

TEST(MemVolumeTest, ExtendReadWriteRoundtrip) {
  io::MemVolume vol;
  EXPECT_EQ(vol.NumPages(), 0u);
  ASSERT_TRUE(vol.Extend(16).ok());
  EXPECT_EQ(vol.NumPages(), 16u);

  alignas(8) uint8_t out[kPageSize];
  alignas(8) uint8_t in[kPageSize];
  std::memset(out, 0xab, sizeof(out));
  ASSERT_TRUE(vol.WritePage(5, out).ok());
  ASSERT_TRUE(vol.ReadPage(5, in).ok());
  EXPECT_EQ(std::memcmp(out, in, kPageSize), 0);
  EXPECT_EQ(vol.stats().reads.load(), 1u);
  EXPECT_EQ(vol.stats().writes.load(), 1u);
}

TEST(MemVolumeTest, FreshPagesAreZero) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(4).ok());
  uint8_t in[kPageSize];
  ASSERT_TRUE(vol.ReadPage(3, in).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(in[i], 0);
}

TEST(MemVolumeTest, OutOfRangeAccessFails) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(2).ok());
  uint8_t buf[kPageSize] = {};
  EXPECT_EQ(vol.ReadPage(2, buf).code(), StatusCode::kIOError);
  EXPECT_EQ(vol.WritePage(9, buf).code(), StatusCode::kIOError);
}

TEST(MemVolumeTest, GrowthKeepsOldData) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(1).ok());
  uint8_t buf[kPageSize];
  std::memset(buf, 0x77, sizeof(buf));
  ASSERT_TRUE(vol.WritePage(0, buf).ok());
  ASSERT_TRUE(vol.Extend(5000).ok());  // Crosses chunk boundaries.
  uint8_t in[kPageSize];
  ASSERT_TRUE(vol.ReadPage(0, in).ok());
  EXPECT_EQ(in[100], 0x77);
}

TEST(MemVolumeTest, ConcurrentWritersDistinctPages) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&vol, t] {
      uint8_t buf[kPageSize];
      std::memset(buf, static_cast<uint8_t>(t + 1), sizeof(buf));
      for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(vol.WritePage(t * 16 + i, buf).ok());
      }
    });
  }
  for (auto& w : workers) w.join();
  uint8_t in[kPageSize];
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(vol.ReadPage(t * 16 + 7, in).ok());
    EXPECT_EQ(in[0], t + 1);
  }
}

TEST(FileVolumeTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/shoremt_vol_test.db";
  ::unlink(path.c_str());
  {
    auto vol = io::FileVolume::Open(path);
    ASSERT_TRUE(vol.ok());
    ASSERT_TRUE((*vol)->Extend(8).ok());
    uint8_t buf[kPageSize];
    std::memset(buf, 0x5c, sizeof(buf));
    ASSERT_TRUE((*vol)->WritePage(3, buf).ok());
  }
  {
    auto vol = io::FileVolume::Open(path);
    ASSERT_TRUE(vol.ok());
    EXPECT_EQ((*vol)->NumPages(), 8u);
    uint8_t in[kPageSize];
    ASSERT_TRUE((*vol)->ReadPage(3, in).ok());
    EXPECT_EQ(in[4000], 0x5c);
  }
  ::unlink(path.c_str());
}

// --------------------------------------------------------------- space ----

class SpaceManagerTest : public ::testing::Test {
 protected:
  SpaceManagerTest() : sm_(&vol_, space::SpaceOptions{}) {}
  io::MemVolume vol_;
  space::SpaceManager sm_;
};

TEST_F(SpaceManagerTest, CreateAndDropStore) {
  EXPECT_TRUE(sm_.CreateStore(1).ok());
  EXPECT_TRUE(sm_.StoreExists(1));
  EXPECT_EQ(sm_.CreateStore(1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(sm_.CreateStore(kInvalidStoreId).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(sm_.DropStore(1).ok());
  EXPECT_FALSE(sm_.StoreExists(1));
  EXPECT_EQ(sm_.DropStore(1).code(), StatusCode::kNotFound);
}

TEST_F(SpaceManagerTest, AllocationFillsExtentsSequentially) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  std::vector<PageNum> pages;
  for (int i = 0; i < 12; ++i) {
    auto p = sm_.AllocatePage(1, nullptr);
    ASSERT_TRUE(p.ok());
    pages.push_back(*p);
  }
  // First 8 pages fill extent 1 (extent 0 is reserved), contiguously.
  for (int i = 1; i < 8; ++i) EXPECT_EQ(pages[i], pages[i - 1] + 1);
  EXPECT_EQ(ExtentOf(pages[0]), 1u);
  EXPECT_EQ(ExtentOf(pages[8]), 2u);
  EXPECT_EQ(*sm_.PageCountOf(1), 12u);
  EXPECT_GE(vol_.NumPages(), pages.back() + 1);
}

TEST_F(SpaceManagerTest, InitCallbackReceivesPage) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  PageNum seen = kInvalidPageNum;
  auto p = sm_.AllocatePage(1, [&](PageNum page) {
    seen = page;
    return Status::Ok();
  });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(seen, *p);
}

TEST_F(SpaceManagerTest, OwnershipTracking) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  ASSERT_TRUE(sm_.CreateStore(2).ok());
  auto p1 = sm_.AllocatePage(1, nullptr);
  auto p2 = sm_.AllocatePage(2, nullptr);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(*sm_.OwnerOf(*p1), 1u);
  EXPECT_EQ(*sm_.OwnerOf(*p2), 2u);
  EXPECT_TRUE(sm_.OwnerOf(*p1 + kPagesPerExtent * 50).status().IsNotFound());
}

TEST_F(SpaceManagerTest, ExtentCacheHitsOnRepeatedChecks) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  auto p = sm_.AllocatePage(1, nullptr);
  ASSERT_TRUE(p.ok());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(sm_.OwnerOf(*p).ok());
  // First check misses, the rest hit (same thread, hot extent).
  EXPECT_GE(sm_.stats().ownership_cache_hits.load(), 99u);
}

TEST_F(SpaceManagerTest, CacheInvalidatedByDrop) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  auto p = sm_.AllocatePage(1, nullptr);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(sm_.OwnerOf(*p).ok());  // Warm the cache.
  ASSERT_TRUE(sm_.DropStore(1).ok());
  EXPECT_TRUE(sm_.OwnerOf(*p).status().IsNotFound());
}

TEST_F(SpaceManagerTest, FreePageAndExtentRecycling) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  std::vector<PageNum> pages;
  for (int i = 0; i < 8; ++i) {
    auto p = sm_.AllocatePage(1, nullptr);
    ASSERT_TRUE(p.ok());
    pages.push_back(*p);
  }
  for (PageNum p : pages) ASSERT_TRUE(sm_.FreePage(p).ok());
  EXPECT_EQ(*sm_.PageCountOf(1), 0u);
  EXPECT_TRUE(sm_.FreePage(pages[0]).IsNotFound());
  // The freed extent is reused by the next allocation.
  ASSERT_TRUE(sm_.CreateStore(2).ok());
  auto p = sm_.AllocatePage(2, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(ExtentOf(*p), ExtentOf(pages[0]));
}

TEST_F(SpaceManagerTest, LastPageTracksAppends) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  EXPECT_TRUE(sm_.LastPageOf(1).status().IsNotFound());
  PageNum last = kInvalidPageNum;
  for (int i = 0; i < 20; ++i) {
    auto p = sm_.AllocatePage(1, nullptr);
    ASSERT_TRUE(p.ok());
    last = *p;
  }
  EXPECT_EQ(*sm_.LastPageOf(1), last);
}

TEST(SpaceManagerStagedTest, NoLastPageCacheWalksChain) {
  io::MemVolume vol;
  space::SpaceOptions opts;
  opts.last_page_cache = false;
  space::SpaceManager sm(&vol, opts);
  ASSERT_TRUE(sm.CreateStore(1).ok());
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(sm.AllocatePage(1, nullptr).ok());
  ASSERT_TRUE(sm.LastPageOf(1).ok());
  EXPECT_EQ(sm.stats().last_page_scan_steps.load(), 50u);
  ASSERT_TRUE(sm.LastPageOf(1).ok());
  EXPECT_EQ(sm.stats().last_page_scan_steps.load(), 100u);
}

TEST(SpaceManagerStagedTest, NoExtentCacheAlwaysMisses) {
  io::MemVolume vol;
  space::SpaceOptions opts;
  opts.extent_cache = false;
  space::SpaceManager sm(&vol, opts);
  ASSERT_TRUE(sm.CreateStore(1).ok());
  auto p = sm.AllocatePage(1, nullptr);
  ASSERT_TRUE(p.ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(sm.OwnerOf(*p).ok());
  EXPECT_EQ(sm.stats().ownership_cache_hits.load(), 0u);
}

TEST(SpaceManagerStagedTest, FullScanOwnershipStillCorrect) {
  io::MemVolume vol;
  space::SpaceOptions opts;
  opts.extent_cache = false;
  opts.full_scan_ownership = true;
  space::SpaceManager sm(&vol, opts);
  ASSERT_TRUE(sm.CreateStore(1).ok());
  ASSERT_TRUE(sm.CreateStore(2).ok());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(sm.AllocatePage(1, nullptr).ok());
  auto p = sm.AllocatePage(2, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*sm.OwnerOf(*p), 2u);
}

TEST(SpaceManagerStagedTest, NonRefactoredRunsInitInsideCs) {
  // Behavioural contract only (timing covered by benches): init callback
  // still runs and failures propagate.
  io::MemVolume vol;
  space::SpaceOptions opts;
  opts.refactored_alloc = false;
  space::SpaceManager sm(&vol, opts);
  ASSERT_TRUE(sm.CreateStore(1).ok());
  auto p = sm.AllocatePage(
      1, [](PageNum) { return Status::IOError("injected"); });
  EXPECT_EQ(p.status().code(), StatusCode::kIOError);
}

TEST(SpaceManagerStagedTest, MutexKindsAllWork) {
  for (auto kind : {sync::MutexKind::kPthread, sync::MutexKind::kTtas,
                    sync::MutexKind::kMcs}) {
    io::MemVolume vol;
    space::SpaceOptions opts;
    opts.mutex_kind = kind;
    space::SpaceManager sm(&vol, opts);
    ASSERT_TRUE(sm.CreateStore(1).ok());
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          if (!sm.AllocatePage(1, nullptr).ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(*sm.PageCountOf(1), 200u);
    // All pages distinct.
    auto pages = sm.PagesOf(1);
    ASSERT_TRUE(pages.ok());
    std::set<PageNum> unique(pages->begin(), pages->end());
    EXPECT_EQ(unique.size(), 200u);
  }
}

TEST_F(SpaceManagerTest, RedoHooksRebuildState) {
  ASSERT_TRUE(sm_.ApplyCreateStore(9).ok());
  ASSERT_TRUE(sm_.ApplyAllocPage(9, 24).ok());
  ASSERT_TRUE(sm_.ApplyAllocPage(9, 25).ok());
  ASSERT_TRUE(sm_.ApplyAllocPage(9, 24).ok());  // Idempotent.
  EXPECT_EQ(*sm_.PageCountOf(9), 2u);
  EXPECT_EQ(*sm_.OwnerOf(24), 9u);
  EXPECT_EQ(*sm_.LastPageOf(9), 25u);
  // Conflicting redo is rejected.
  ASSERT_TRUE(sm_.ApplyCreateStore(10).ok());
  EXPECT_EQ(sm_.ApplyAllocPage(10, 25).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace shoremt
