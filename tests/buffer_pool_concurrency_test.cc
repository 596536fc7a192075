// Concurrency tests for the buffer pool's in-transit frames: a miss reads
// and a dirty victim is written back with the pool latch released, and
// every other fetch of those pages waits for the I/O instead of repeating
// it or reading a stale image.
//
// A GateEnv under the PageFile counts page reads and writes and can park
// the next read or write of one page inside the Env until the test opens
// the gate, so each test fixes the interleaving it checks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "src/storage/buffer_pool.h"
#include "src/storage/page_file.h"
#include "src/util/thread_annotations.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

constexpr auto kPatience = std::chrono::seconds(10);

// Polls `pred` until it holds or kPatience runs out.
bool Eventually(const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() + kPatience;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class GateEnv : public Env {
 public:
  enum class Op { kRead, kWrite };

  ~GateEnv() override { Open(); }

  /// The next `op` on `page` fails with an IOError if `fail`, after
  /// waiting inside the Env for Open() if `park`.
  void Arm(Op op, PageId page, bool fail, bool park = true) {
    MutexLock lock(&mu_);
    armed_ = true;
    armed_op_ = op;
    armed_page_ = page;
    fail_ = fail;
    park_ = park;
    gate_open_ = false;
    parked_ = false;
  }
  /// Waits until the armed op is parked inside the Env.
  bool WaitParked() {
    return Eventually([this] {
      MutexLock lock(&mu_);
      return parked_;
    });
  }
  void Open() {
    MutexLock lock(&mu_);
    gate_open_ = true;
    cv_.NotifyAll();
  }
  void ResetCounts() {
    MutexLock lock(&mu_);
    reads_.clear();
    writes_.clear();
  }

  int reads(PageId page) {
    MutexLock lock(&mu_);
    return reads_[page];
  }
  int writes(PageId page) {
    MutexLock lock(&mu_);
    return writes_[page];
  }
  /// True if a Sync finished after the last write of `page` finished.
  bool SyncedAfterWrite(PageId page) {
    MutexLock lock(&mu_);
    auto it = write_done_.find(page);
    return it != write_done_.end() && last_sync_ > it->second;
  }

  Status NewRandomAccessFile(const std::string& path, bool create,
                             std::unique_ptr<RandomAccessFile>* out) override;
  Status FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status GetFileSize(const std::string& path, uint64_t* out) override {
    return base_->GetFileSize(path, out);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status SyncDir(const std::string& path) override {
    return base_->SyncDir(path);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* out) override {
    return base_->ListDir(path, out);
  }

 private:
  friend class GateFile;

  // Counts the op and, if it is the armed one, parks and/or fails it.
  Status Enter(Op op, uint64_t offset) {
    const PageId page = static_cast<PageId>(offset / kDiskPageSize);
    MutexLock lock(&mu_);
    (op == Op::kRead ? reads_ : writes_)[page]++;
    if (!armed_ || op != armed_op_ || page != armed_page_) {
      return Status::OK();
    }
    armed_ = false;
    if (park_) {
      parked_ = true;
      while (!gate_open_) cv_.Wait();
    }
    if (fail_) return Status::IOError("injected fault on page " +
                                      std::to_string(page));
    return Status::OK();
  }
  void WriteDone(uint64_t offset) {
    MutexLock lock(&mu_);
    write_done_[static_cast<PageId>(offset / kDiskPageSize)] = ++seq_;
  }
  void SyncDone() {
    MutexLock lock(&mu_);
    last_sync_ = ++seq_;
  }

  Env* const base_ = Env::Default();
  Mutex mu_;
  CondVar cv_{&mu_};
  bool armed_ GUARDED_BY(mu_) = false;
  Op armed_op_ GUARDED_BY(mu_) = Op::kRead;
  PageId armed_page_ GUARDED_BY(mu_) = kInvalidPageId;
  bool fail_ GUARDED_BY(mu_) = false;
  bool park_ GUARDED_BY(mu_) = false;
  bool gate_open_ GUARDED_BY(mu_) = true;
  bool parked_ GUARDED_BY(mu_) = false;
  std::map<PageId, int> reads_ GUARDED_BY(mu_);
  std::map<PageId, int> writes_ GUARDED_BY(mu_);
  uint64_t seq_ GUARDED_BY(mu_) = 0;
  std::map<PageId, uint64_t> write_done_ GUARDED_BY(mu_);
  uint64_t last_sync_ GUARDED_BY(mu_) = 0;
};

class GateFile : public RandomAccessFile {
 public:
  GateFile(GateEnv* env, std::unique_ptr<RandomAccessFile> base)
      : env_(env), base_(std::move(base)) {}
  Status Read(uint64_t offset, size_t n, char* scratch,
              size_t* out_n) override {
    DMX_RETURN_IF_ERROR(env_->Enter(GateEnv::Op::kRead, offset));
    return base_->Read(offset, n, scratch, out_n);
  }
  Status Write(uint64_t offset, const char* data, size_t n) override {
    DMX_RETURN_IF_ERROR(env_->Enter(GateEnv::Op::kWrite, offset));
    DMX_RETURN_IF_ERROR(base_->Write(offset, data, n));
    env_->WriteDone(offset);
    return Status::OK();
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync(bool data_only) override {
    DMX_RETURN_IF_ERROR(base_->Sync(data_only));
    env_->SyncDone();
    return Status::OK();
  }
  Status Size(uint64_t* out) override { return base_->Size(out); }
  Status Close() override { return base_->Close(); }

 private:
  GateEnv* env_;
  std::unique_ptr<RandomAccessFile> base_;
};

Status GateEnv::NewRandomAccessFile(const std::string& path, bool create,
                                    std::unique_ptr<RandomAccessFile>* out) {
  std::unique_ptr<RandomAccessFile> file;
  DMX_RETURN_IF_ERROR(base_->NewRandomAccessFile(path, create, &file));
  *out = std::make_unique<GateFile>(this, std::move(file));
  return Status::OK();
}

// A page image filled with `tag`, so each test can tell images apart.
void Stamp(Page* p, char tag) { memset(p->data + 8, tag, kPageSize - 8); }
bool HasStamp(const Page* p, char tag) {
  for (size_t i = 8; i < kPageSize; ++i) {
    if (p->data[i] != tag) return false;
  }
  return true;
}

class BufferPoolConcurrencyTest : public ::testing::Test {
 protected:
  BufferPoolConcurrencyTest() : dir_("bpconc") {
    EXPECT_TRUE(file_.Open(dir_.path() + "/db", true, &env_).ok());
  }
  ~BufferPoolConcurrencyTest() override { env_.Open(); }

  // Allocates a page and writes `tag` straight to the file.
  PageId OnDisk(char tag) {
    PageId id = kInvalidPageId;
    EXPECT_TRUE(file_.Allocate(&id).ok());
    Page p;
    memset(p.data, 0, kPageSize);
    Stamp(&p, tag);
    EXPECT_TRUE(file_.Write(id, p).ok());
    return id;
  }
  // Caches a fresh page holding `tag`, dirty and unpinned.
  PageId DirtyInPool(BufferPool* pool, char tag) {
    PageId id = kInvalidPageId;
    PageHandle h;
    EXPECT_TRUE(pool->New(&id, &h).ok());
    Stamp(h.page(), tag);
    h.MarkDirty();
    return id;
  }

  TempDir dir_;
  GateEnv env_;
  PageFile file_;
};

TEST_F(BufferPoolConcurrencyTest, TwoMissesOnOnePageReadItOnce) {
  const PageId p = OnDisk('a');
  BufferPool pool(&file_, 4);
  env_.Arm(GateEnv::Op::kRead, p, /*fail=*/false);
  PageHandle ha, hb;
  auto a = std::async(std::launch::async, [&] { return pool.Fetch(p, &ha); });
  ASSERT_TRUE(env_.WaitParked());
  auto b = std::async(std::launch::async, [&] { return pool.Fetch(p, &hb); });
  const bool b_waited =
      Eventually([&] { return pool.stats().io_waits >= 1; });
  env_.Open();
  ASSERT_TRUE(b_waited);
  ASSERT_TRUE(a.get().ok());
  ASSERT_TRUE(b.get().ok());
  EXPECT_EQ(env_.reads(p), 1);
  EXPECT_EQ(ha.page(), hb.page());  // one frame, so the same bytes
  EXPECT_TRUE(HasStamp(hb.page(), 'a'));
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().io_waits, 1u);
}

TEST_F(BufferPoolConcurrencyTest, HitReturnsWhileAnotherMissReads) {
  const PageId cached = OnDisk('c');
  const PageId missed = OnDisk('m');
  BufferPool pool(&file_, 4);
  {
    PageHandle h;
    ASSERT_TRUE(pool.Fetch(cached, &h).ok());
  }
  env_.Arm(GateEnv::Op::kRead, missed, /*fail=*/false);
  PageHandle hm;
  auto miss = std::async(std::launch::async,
                         [&] { return pool.Fetch(missed, &hm); });
  ASSERT_TRUE(env_.WaitParked());
  PageHandle hc;
  auto hit = std::async(std::launch::async,
                        [&] { return pool.Fetch(cached, &hc); });
  const bool hit_returned =
      hit.wait_for(kPatience) == std::future_status::ready;
  env_.Open();
  EXPECT_TRUE(hit_returned) << "a hit queued behind another miss's read";
  ASSERT_TRUE(hit.get().ok());
  ASSERT_TRUE(miss.get().ok());
  EXPECT_TRUE(HasStamp(hc.page(), 'c'));
  EXPECT_TRUE(HasStamp(hm.page(), 'm'));
}

// Capacity 2 holding a dirty `victim` and a clean page: the clock hand
// passes both once, clearing their reference bits, and takes the victim.
class WriteBackConcurrencyTest : public BufferPoolConcurrencyTest {
 protected:
  void SetUp() override {
    victim_ = DirtyInPool(&pool_, 'v');
    other_ = OnDisk('o');
    incoming_ = OnDisk('i');
    {
      PageHandle h;
      ASSERT_TRUE(pool_.Fetch(other_, &h).ok());
    }
    env_.ResetCounts();
  }
  BufferPool pool_{&file_, 2};
  PageId victim_ = kInvalidPageId;
  PageId other_ = kInvalidPageId;
  PageId incoming_ = kInvalidPageId;
};

TEST_F(WriteBackConcurrencyTest, FetchDuringWriteBackWaitsForTheWrittenImage) {
  env_.Arm(GateEnv::Op::kWrite, victim_, /*fail=*/false);
  PageHandle hi, hv;
  auto evict = std::async(std::launch::async,
                          [&] { return pool_.Fetch(incoming_, &hi); });
  ASSERT_TRUE(env_.WaitParked());
  auto refetch = std::async(std::launch::async,
                            [&] { return pool_.Fetch(victim_, &hv); });
  const bool waited =
      Eventually([&] { return pool_.stats().io_waits >= 1; });
  env_.Open();
  ASSERT_TRUE(waited);
  ASSERT_TRUE(evict.get().ok());
  ASSERT_TRUE(refetch.get().ok());
  EXPECT_TRUE(HasStamp(hi.page(), 'i'));
  EXPECT_TRUE(HasStamp(hv.page(), 'v'));
  // The refetch read the page back only after the write-back landed.
  EXPECT_EQ(env_.writes(victim_), 1);
  EXPECT_EQ(env_.reads(victim_), 1);
}

TEST_F(WriteBackConcurrencyTest, WriteBackErrorLeavesTheVictimCachedAndDirty) {
  env_.Arm(GateEnv::Op::kWrite, victim_, /*fail=*/true, /*park=*/false);
  PageHandle hi;
  EXPECT_TRUE(pool_.Fetch(incoming_, &hi).IsIOError());
  EXPECT_FALSE(hi.valid());
  EXPECT_EQ(pool_.stats().evictions, 0u);
  {
    PageHandle hv;  // still cached: a hit, no read
    ASSERT_TRUE(pool_.Fetch(victim_, &hv).ok());
    EXPECT_TRUE(HasStamp(hv.page(), 'v'));
    EXPECT_EQ(env_.reads(victim_), 0);
  }
  // Still dirty: the next flush writes it again, this time for good.
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_EQ(env_.writes(victim_), 2);
  Page p;
  ASSERT_TRUE(file_.Read(victim_, &p).ok());
  EXPECT_TRUE(HasStamp(&p, 'v'));
}

TEST_F(WriteBackConcurrencyTest, FlushAllWaitsForAnEvictionWriteBackBeforeSync) {
  env_.Arm(GateEnv::Op::kWrite, victim_, /*fail=*/false);
  PageHandle hi;
  auto evict = std::async(std::launch::async,
                          [&] { return pool_.Fetch(incoming_, &hi); });
  ASSERT_TRUE(env_.WaitParked());
  auto flush = std::async(std::launch::async, [&] { return pool_.FlushAll(); });
  const bool returned_early =
      flush.wait_for(std::chrono::milliseconds(200)) ==
      std::future_status::ready;
  env_.Open();
  EXPECT_FALSE(returned_early) << "FlushAll synced ahead of a write-back";
  ASSERT_TRUE(flush.get().ok());
  EXPECT_TRUE(env_.SyncedAfterWrite(victim_));
  ASSERT_TRUE(evict.get().ok());
}

TEST_F(BufferPoolConcurrencyTest, ReadErrorUnmapsTheFrameAndWakesWaiters) {
  const PageId p = OnDisk('r');
  BufferPool pool(&file_, 4);
  env_.Arm(GateEnv::Op::kRead, p, /*fail=*/true);
  PageHandle ha, hb;
  auto a = std::async(std::launch::async, [&] { return pool.Fetch(p, &ha); });
  ASSERT_TRUE(env_.WaitParked());
  auto b = std::async(std::launch::async, [&] { return pool.Fetch(p, &hb); });
  const bool b_waited =
      Eventually([&] { return pool.stats().io_waits >= 1; });
  env_.Open();
  ASSERT_TRUE(b_waited);
  EXPECT_TRUE(a.get().IsIOError());
  EXPECT_FALSE(ha.valid());
  // The waiter found the page unmapped and read it itself.
  ASSERT_TRUE(b.get().ok());
  EXPECT_TRUE(HasStamp(hb.page(), 'r'));
  EXPECT_EQ(env_.reads(p), 2);
  PageHandle hc;
  ASSERT_TRUE(pool.Fetch(p, &hc).ok());
  EXPECT_EQ(hc.page(), hb.page());
  EXPECT_EQ(env_.reads(p), 2);
}

// Threads own disjoint pages and bump a counter in each through a pool
// far smaller than the page set, so misses, clean evictions and dirty
// write-backs of different pages overlap: no update may be lost to a
// stale read, a lost dirty bit or a second copy of a page.
TEST(BufferPoolStressTest, CountersSurviveOverlappingEvictions) {
  TempDir dir("bpstress");
  PageFile file;
  ASSERT_TRUE(file.Open(dir.path() + "/db", true).ok());
  constexpr int kThreads = 4, kPagesPerThread = 6, kRounds = 2000;
  std::vector<PageId> pages(kThreads * kPagesPerThread);
  for (PageId& id : pages) ASSERT_TRUE(file.Allocate(&id).ok());
  BufferPool pool(&file, 8);
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(t);
      std::vector<uint32_t> expect(kPagesPerThread, 0);
      for (int r = 0; r < kRounds; ++r) {
        const int k = static_cast<int>(rng() % kPagesPerThread);
        PageHandle h;
        if (!pool.Fetch(pages[t * kPagesPerThread + k], &h).ok()) {
          ++failures;
          return;
        }
        uint32_t n;
        memcpy(&n, h.page()->data + 16, 4);
        if (n != expect[k]) ++failures;
        n = ++expect[k];
        memcpy(h.page()->data + 16, &n, 4);
        h.MarkDirty();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(pool.stats().flushes, 0u);
  ASSERT_TRUE(pool.FlushAll().ok());
  // Re-read every page from the file: counters sum to all the rounds.
  uint64_t total = 0;
  for (PageId id : pages) {
    Page p;
    ASSERT_TRUE(file.Read(id, &p).ok());
    uint32_t n;
    memcpy(&n, p.data + 16, 4);
    total += n;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kRounds);
}

}  // namespace
}  // namespace dmx
