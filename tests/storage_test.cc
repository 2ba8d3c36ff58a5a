#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "util/string_util.h"

namespace focus::storage {
namespace {

TEST(MemDiskManagerTest, AllocateReadWrite) {
  MemDiskManager disk;
  auto id1 = disk.AllocatePage();
  ASSERT_TRUE(id1.ok());
  auto id2 = disk.AllocatePage();
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(id1.value(), id2.value());
  EXPECT_EQ(disk.NumPages(), 2u);

  Page out;
  ASSERT_TRUE(disk.ReadPage(id1.value(), out.data).ok());
  for (uint32_t i = 0; i < kPageSize; ++i) EXPECT_EQ(out.data[i], 0);

  Page in;
  in.Zero();
  in.Write<uint64_t>(100, 0xdeadbeefULL);
  ASSERT_TRUE(disk.WritePage(id2.value(), in.data).ok());
  ASSERT_TRUE(disk.ReadPage(id2.value(), out.data).ok());
  EXPECT_EQ(out.Read<uint64_t>(100), 0xdeadbeefULL);
}

TEST(MemDiskManagerTest, OutOfRangeRejected) {
  MemDiskManager disk;
  Page p;
  EXPECT_EQ(disk.ReadPage(0, p.data).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk.WritePage(5, p.data).code(), StatusCode::kOutOfRange);
}

TEST(FileDiskManagerTest, RoundTrip) {
  std::string path = testing::TempDir() + "/focus_disk_test.db";
  auto disk_or = FileDiskManager::Open(path);
  ASSERT_TRUE(disk_or.ok()) << disk_or.status();
  auto& disk = *disk_or.value();
  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  Page in;
  in.Zero();
  in.Write<uint32_t>(0, 1234);
  ASSERT_TRUE(disk.WritePage(id.value(), in.data).ok());
  Page out;
  ASSERT_TRUE(disk.ReadPage(id.value(), out.data).ok());
  EXPECT_EQ(out.Read<uint32_t>(0), 1234u);
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_EQ(disk.stats().writes, 1u);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, HitAfterMiss) {
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  PageId id;
  auto page = pool.NewPage(&id);
  ASSERT_TRUE(page.ok());
  page.value()->Write<uint32_t>(0, 77);
  pool.UnpinPage(id, true);

  auto again = pool.FetchPage(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->Read<uint32_t>(0), 77u);
  pool.UnpinPage(id, false);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  MemDiskManager disk;
  BufferPool pool(&disk, 4);
  std::vector<PageId> ids;
  for (int i = 0; i < 12; ++i) {
    PageId id;
    auto page = pool.NewPage(&id);
    ASSERT_TRUE(page.ok());
    page.value()->Write<int>(0, i * 11);
    pool.UnpinPage(id, true);
    ids.push_back(id);
  }
  // Early pages were evicted; their contents must survive.
  for (int i = 0; i < 12; ++i) {
    auto page = pool.FetchPage(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page.value()->Read<int>(0), i * 11);
    pool.UnpinPage(ids[i], false);
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_GT(pool.stats().misses, 0u);
}

TEST(BufferPoolTest, AllPinnedIsResourceExhausted) {
  MemDiskManager disk;
  BufferPool pool(&disk, 4);
  std::vector<PageId> ids(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.NewPage(&ids[i]).ok());
  }
  PageId extra;
  auto r = pool.NewPage(&extra);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  for (int i = 0; i < 4; ++i) pool.UnpinPage(ids[i], false);
}

TEST(BufferPoolTest, LruEvictsColdestPage) {
  MemDiskManager disk;
  BufferPool pool(&disk, 4);
  std::vector<PageId> ids(5);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.NewPage(&ids[i]).ok());
    pool.UnpinPage(ids[i], true);
  }
  // Touch page 0 so page 1 becomes the LRU victim.
  ASSERT_TRUE(pool.FetchPage(ids[0]).ok());
  pool.UnpinPage(ids[0], false);
  ASSERT_TRUE(pool.NewPage(&ids[4]).ok());
  pool.UnpinPage(ids[4], true);

  pool.ResetStats();
  ASSERT_TRUE(pool.FetchPage(ids[0]).ok());  // still resident
  pool.UnpinPage(ids[0], false);
  EXPECT_EQ(pool.stats().hits, 1u);
  ASSERT_TRUE(pool.FetchPage(ids[1]).ok());  // was evicted
  pool.UnpinPage(ids[1], false);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, EvictAllFlushesAndEmpties) {
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  PageId id;
  auto page = pool.NewPage(&id);
  ASSERT_TRUE(page.ok());
  page.value()->Write<int>(0, 5);
  pool.UnpinPage(id, true);
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();
  auto again = pool.FetchPage(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->Read<int>(0), 5);
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.UnpinPage(id, false);
}

TEST(BufferPoolTest, StatsDiff) {
  BufferPool::Stats a, b;
  a.fetches = 10;
  a.misses = 4;
  b.fetches = 3;
  b.misses = 1;
  auto d = a - b;
  EXPECT_EQ(d.fetches, 7u);
  EXPECT_EQ(d.misses, 3u);
}

class HeapFileTest : public testing::Test {
 protected:
  HeapFileTest() : pool_(&disk_, 16) {}
  MemDiskManager disk_;
  BufferPool pool_;
};

TEST_F(HeapFileTest, InsertAndGet) {
  auto file_or = HeapFile::Create(&pool_);
  ASSERT_TRUE(file_or.ok());
  HeapFile file = file_or.TakeValue();
  auto rid = file.Insert("hello world");
  ASSERT_TRUE(rid.ok());
  std::string out;
  ASSERT_TRUE(file.Get(rid.value(), &out).ok());
  EXPECT_EQ(out, "hello world");
  EXPECT_EQ(file.num_records(), 1u);
}

TEST_F(HeapFileTest, ManyRecordsSpanPages) {
  auto file_or = HeapFile::Create(&pool_);
  ASSERT_TRUE(file_or.ok());
  HeapFile file = file_or.TakeValue();
  std::vector<Rid> rids;
  for (int i = 0; i < 2000; ++i) {
    auto rid = file.Insert(StrCat("record-", i, "-padding-padding"));
    ASSERT_TRUE(rid.ok()) << rid.status();
    rids.push_back(rid.value());
  }
  EXPECT_EQ(file.num_records(), 2000u);
  std::string out;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(file.Get(rids[i], &out).ok());
    EXPECT_EQ(out, StrCat("record-", i, "-padding-padding"));
  }
  // Spot-check that multiple pages were used.
  EXPECT_GT(disk_.NumPages(), 5u);
}

TEST_F(HeapFileTest, UpdateInPlace) {
  auto file_or = HeapFile::Create(&pool_);
  ASSERT_TRUE(file_or.ok());
  HeapFile file = file_or.TakeValue();
  auto rid = file.Insert("AAAA");
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(file.Update(rid.value(), "BBBB").ok());
  std::string out;
  ASSERT_TRUE(file.Get(rid.value(), &out).ok());
  EXPECT_EQ(out, "BBBB");
  // Size-changing updates are rejected.
  EXPECT_EQ(file.Update(rid.value(), "CCC").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(HeapFileTest, DeleteTombstones) {
  auto file_or = HeapFile::Create(&pool_);
  ASSERT_TRUE(file_or.ok());
  HeapFile file = file_or.TakeValue();
  auto r1 = file.Insert("one");
  auto r2 = file.Insert("two");
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_TRUE(file.Delete(r1.value()).ok());
  std::string out;
  EXPECT_EQ(file.Get(r1.value(), &out).code(), StatusCode::kNotFound);
  EXPECT_TRUE(file.Get(r2.value(), &out).ok());
  EXPECT_EQ(file.num_records(), 1u);
  EXPECT_EQ(file.Delete(r1.value()).code(), StatusCode::kNotFound);
}

TEST_F(HeapFileTest, ScanVisitsLiveRecordsInOrder) {
  auto file_or = HeapFile::Create(&pool_);
  ASSERT_TRUE(file_or.ok());
  HeapFile file = file_or.TakeValue();
  std::vector<Rid> rids;
  for (int i = 0; i < 500; ++i) {
    auto rid = file.Insert(StrCat("rec", i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  for (int i = 0; i < 500; i += 3) {
    ASSERT_TRUE(file.Delete(rids[i]).ok());
  }
  auto it = file.Scan();
  Rid rid;
  std::string rec;
  int count = 0, expected_i = 0;
  while (it.Next(&rid, &rec)) {
    while (expected_i % 3 == 0) ++expected_i;
    EXPECT_EQ(rec, StrCat("rec", expected_i));
    ++expected_i;
    ++count;
  }
  EXPECT_TRUE(it.status().ok());
  EXPECT_EQ(count, 500 - 167);
}

// A slot entry that points into the page header or past the page end is
// an IOError on every access path (slot 0's entry is the uint16 offset
// and length at bytes 8 and 10 of the page).
TEST_F(HeapFileTest, SlotOutsidePageIsIOError) {
  for (uint16_t offset : {uint16_t{4}, uint16_t{4094}}) {
    HeapFile file = HeapFile::Create(&pool_).TakeValue();
    Rid rid = file.Insert("record").value();
    {
      PageGuard guard(&pool_, rid.page_id);
      ASSERT_TRUE(guard.ok());
      guard.page()->Write<uint16_t>(8, offset);
      guard.MarkDirty();
    }
    std::string out;
    EXPECT_EQ(file.Get(rid, &out).code(), StatusCode::kIOError) << offset;
    EXPECT_EQ(file.Update(rid, "RECORD").code(), StatusCode::kIOError);
    EXPECT_EQ(file.Delete(rid).code(), StatusCode::kIOError);
    EXPECT_EQ(file.RewriteInPlace([](std::span<char>, bool*) {
                    return Status::OK();
                  }).code(),
              StatusCode::kIOError);
    auto it = file.Scan();
    Rid at;
    EXPECT_FALSE(it.Next(&at, &out));
    EXPECT_EQ(it.status().code(), StatusCode::kIOError);
  }
}

TEST_F(HeapFileTest, OversizeRecordRejected) {
  auto file_or = HeapFile::Create(&pool_);
  ASSERT_TRUE(file_or.ok());
  HeapFile file = file_or.TakeValue();
  std::string big(kPageSize, 'x');
  EXPECT_EQ(file.Insert(big).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(HeapFileTest, RidPackUnpackRoundTrip) {
  Rid r{12345, 678};
  Rid s = Rid::Unpack(r.Pack());
  EXPECT_EQ(r, s);
}

}  // namespace
}  // namespace focus::storage
