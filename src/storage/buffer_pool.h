// BufferPool: fixed set of in-memory frames over a PageFile with clock
// eviction, pin counts, and WAL-before-write enforcement.
//
// Extensions (heap and B-tree structures) access pages only through pinned
// PageHandles; RecordViews handed to the common predicate evaluator alias
// the pinned frame, which is how filtering happens "while the field values
// ... are still in the buffer pool" (paper, Common Services).
//
// Latching. The pool latch `mu_` guards only the page table, the free
// list, the clock hand and each frame's state; it is never held across
// PageFile I/O or the WAL flush. A frame is in one of four states:
//   free          on the free list, mapped to no page;
//   valid         mapped, its image current;
//   loading       mapped to the page a miss is reading in with mu_
//                 released;
//   writing back  a dirty victim's image is being written out with mu_
//                 released; both the victim's id and the id that replaces
//                 it map to the frame.
// A fetch that finds its page in a loading or writing-back frame waits on
// `io_cv_` and looks the page up again, so a page is never read twice at
// once and never read while its newer image is still on its way to disk.
//
// Pin count, dirty and referenced are atomics, so PageHandle::MarkDirty
// and Release never take mu_. Release unpins with release order and the
// eviction check reads the pin count with acquire order, so everything a
// pinner wrote reaches the write-back. Pins are only taken under mu_, so
// a frame seen unpinned under mu_ stays unpinned until mu_ is released.
//
// Callers change a page image, then MarkDirty, then Release. FlushAll
// writes frames that pinned writers may be changing; it clears the dirty
// bit before copying the image, so a change it missed is always followed
// by a MarkDirty that leaves the frame dirty for the next write-back.

#ifndef DMX_STORAGE_BUFFER_POOL_H_
#define DMX_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/storage/page_file.h"
#include "src/util/common.h"
#include "src/util/metrics.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace dmx {

class BufferPool;

/// RAII pin on a buffer frame. Move-only; unpins on destruction.
class PageHandle {
 public:
  PageHandle() = default;
  ~PageHandle() { Release(); }

  PageHandle(PageHandle&& o) noexcept { *this = std::move(o); }
  PageHandle& operator=(PageHandle&& o) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }

  /// Mark the frame dirty (call after mutating the page image).
  void MarkDirty();

  /// Unpin early (before destruction).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, size_t frame, PageId pid, Page* page)
      : pool_(pool), frame_(frame), page_id_(pid), page_(page) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
  Page* page_ = nullptr;
};

/// Statistics counters (for tests and benchmarks). Atomic so concurrent
/// scans can read them while other threads fault pages in.
struct BufferPoolStats {
  Counter hits;
  Counter misses;
  Counter evictions;
  Counter flushes;   // dirty write-backs
  Counter io_waits;  // lookups that waited on a frame in transit

  void Reset() {
    hits.Reset();
    misses.Reset();
    evictions.Reset();
    flushes.Reset();
    io_waits.Reset();
  }
};

/// Buffer manager over one PageFile. Thread-safe (see the latching notes
/// above; page content latching is the caller's concern — the lock
/// manager serializes record-level access above this layer).
class BufferPool {
 public:
  /// `wal_flush` is invoked with a page's LSN before that page is written
  /// back, enforcing write-ahead logging; pass nullptr for WAL-less use.
  BufferPool(PageFile* file, size_t capacity,
             std::function<Status(Lsn)> wal_flush = nullptr);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pin an existing page.
  Status Fetch(PageId id, PageHandle* out);
  /// Allocate and pin a fresh zeroed page.
  Status New(PageId* id, PageHandle* out);
  /// Drop a page: must not be pinned; discards the frame and frees the page.
  Status FreePage(PageId id);

  /// Write back every frame dirty at the call, then sync the file (does
  /// not evict). Fetches and writers keep running; an eviction write-back
  /// already in flight is waited for before the sync, so on OK every page
  /// changed before the call is durable.
  Status FlushAll();

  size_t capacity() const { return capacity_; }
  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  friend class PageHandle;

  enum class FrameState : uint8_t { kFree, kValid, kLoading, kWritingBack };

  struct Frame {
    Page page;
    // Bookkeeping, guarded by mu_ (frames_ itself never changes size).
    PageId pid = kInvalidPageId;      // the page held or being loaded
    PageId old_pid = kInvalidPageId;  // kWritingBack: the victim's page
    FrameState state = FrameState::kFree;
    bool flushing = false;  // FlushAll is writing the image
    // Touched by PageHandle without mu_.
    std::atomic<int> pin_count{0};
    std::atomic<bool> dirty{false};
    std::atomic<bool> referenced{false};
  };
  using FramePage = std::pair<size_t, PageId>;

  void Unpin(size_t frame);
  // Looks `id` up, waiting out any transit; the frame or kNoFrame.
  size_t FindSettled(PageId id) REQUIRES(mu_);
  // Takes a free frame or a clock victim, writes the victim back if
  // dirty (with mu_ released), and maps the frame to `id` as loading and
  // pinned once; the caller fills the image and marks it valid. Sets
  // kNoFrame if `id` was mapped by another miss while this one waited for
  // a frame to leave transit.
  Status ClaimFrame(PageId id, size_t* frame) REQUIRES(mu_);
  bool PickVictim(size_t* frame, bool* in_transit) REQUIRES(mu_);
  // Reads page `id` into its claimed frame with mu_ released, then
  // publishes the frame, or unmaps it on error; wakes its waiters.
  Status ReadInto(size_t frame, PageId id) REQUIRES(mu_);
  // FlushAll's per-frame step: `page` of `frame` is pinned for a write,
  // still in a write to wait for, or clean.
  void SelectFlush(size_t frame, PageId page, std::vector<FramePage>* writes,
                   std::vector<FramePage>* in_flight) REQUIRES(mu_);
  bool WriteInFlight(size_t frame, PageId page) REQUIRES(mu_);
  // Writes `image` as page `pid`, flushing the WAL to its LSN first.
  Status WriteOut(PageId pid, const Page& image);

  static constexpr size_t kNoFrame = static_cast<size_t>(-1);

  PageFile* file_;
  size_t capacity_;
  std::function<Status(Lsn)> wal_flush_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> table_ GUARDED_BY(mu_);
  std::vector<size_t> free_ GUARDED_BY(mu_);  // frames in state kFree
  size_t clock_hand_ GUARDED_BY(mu_) = 0;
  BufferPoolStats stats_;  // atomic counters
  // Process-wide mirrors of stats_ ("bufferpool.*" in the registry).
  Counter* metric_hits_;
  Counter* metric_misses_;
  Counter* metric_evictions_;
  Counter* metric_flushes_;
  Counter* metric_io_waits_;
  Mutex mu_;
  CondVar io_cv_{&mu_};  // a frame left transit
};

}  // namespace dmx

#endif  // DMX_STORAGE_BUFFER_POOL_H_
