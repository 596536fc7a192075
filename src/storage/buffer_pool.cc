#include "src/storage/buffer_pool.h"

#include <cassert>
#include <cstring>

namespace dmx {

PageHandle& PageHandle::operator=(PageHandle&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    page_id_ = o.page_id_;
    page_ = o.page_;
    o.pool_ = nullptr;
    o.page_ = nullptr;
  }
  return *this;
}

void PageHandle::MarkDirty() {
  if (pool_ == nullptr) return;
  pool_->frames_[frame_].dirty.store(true, std::memory_order_release);
}

void PageHandle::Release() {
  if (pool_ == nullptr) return;
  pool_->Unpin(frame_);
  pool_ = nullptr;
  page_ = nullptr;
}

BufferPool::BufferPool(PageFile* file, size_t capacity,
                       std::function<Status(Lsn)> wal_flush)
    : file_(file),
      capacity_(capacity),
      wal_flush_(std::move(wal_flush)),
      frames_(capacity) {
  // Popped from the back: frames are first handed out in index order.
  for (size_t i = capacity_; i > 0; --i) free_.push_back(i - 1);
  MetricsRegistry* metrics = MetricsRegistry::Global();
  metric_hits_ = metrics->GetCounter("bufferpool.hits");
  metric_misses_ = metrics->GetCounter("bufferpool.misses");
  metric_evictions_ = metrics->GetCounter("bufferpool.evictions");
  metric_flushes_ = metrics->GetCounter("bufferpool.writebacks");
  metric_io_waits_ = metrics->GetCounter("bufferpool.io_waits");
}

BufferPool::~BufferPool() {
  (void)FlushAll();  // best-effort write-back; errors unreportable here
}

void BufferPool::Unpin(size_t frame) {
  Frame& f = frames_[frame];
  f.referenced.store(true, std::memory_order_relaxed);
  // Release: this pin's writes to the image happen before the write-back
  // of whoever next sees the frame unpinned.
  const int before = f.pin_count.fetch_sub(1, std::memory_order_release);
  assert(before > 0);
  (void)before;
}

Status BufferPool::WriteOut(PageId pid, const Page& image) {
  if (wal_flush_) {
    const Lsn lsn = PageLsn(image);
    if (lsn != kInvalidLsn) DMX_RETURN_IF_ERROR(wal_flush_(lsn));
  }
  DMX_RETURN_IF_ERROR(file_->Write(pid, image));
  stats_.flushes.Increment();
  metric_flushes_->Increment();
  return Status::OK();
}

size_t BufferPool::FindSettled(PageId id) {
  bool waited = false;
  for (;;) {
    auto it = table_.find(id);
    if (it == table_.end()) return kNoFrame;
    if (frames_[it->second].state == FrameState::kValid) return it->second;
    // Loading `id`, or writing back `id` or the page `id` replaces.
    if (!waited) {
      waited = true;
      stats_.io_waits.Increment();
      metric_io_waits_->Increment();
    }
    io_cv_.Wait();
  }
}

bool BufferPool::PickVictim(size_t* frame, bool* in_transit) {
  // Clock sweep over unpinned valid frames; two full rounds then give up.
  for (size_t step = 0; step < 2 * capacity_; ++step) {
    const size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % capacity_;
    Frame& f = frames_[idx];
    // Free frames are on free_, never swept; a frame FlushAll is
    // writing is pinned only until that write lands.
    if (f.state != FrameState::kValid || f.flushing) {
      *in_transit = true;
      continue;
    }
    if (f.pin_count.load(std::memory_order_acquire) > 0) continue;
    // Unpinned under mu_, so no Release races this: a plain load and
    // store, no read-modify-write per swept frame.
    if (f.referenced.load(std::memory_order_relaxed)) {
      f.referenced.store(false, std::memory_order_relaxed);
      continue;
    }
    *frame = idx;
    return true;
  }
  return false;
}

Status BufferPool::ClaimFrame(PageId id, size_t* frame) {
  size_t idx;
  for (;;) {
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
      break;
    }
    bool in_transit = false;
    if (PickVictim(&idx, &in_transit)) break;
    if (!in_transit) {
      return Status::Busy("buffer pool exhausted: all frames pinned");
    }
    io_cv_.Wait();  // a frame in transit becomes a candidate when it lands
    if (table_.count(id) > 0) {  // another miss mapped `id` meanwhile
      *frame = kNoFrame;
      return Status::OK();
    }
  }
  Frame& f = frames_[idx];
  f.pin_count.store(1, std::memory_order_relaxed);
  f.referenced.store(true, std::memory_order_relaxed);
  table_[id] = idx;
  if (f.state == FrameState::kValid) {  // a clock victim
    const PageId victim = f.pid;
    if (f.dirty.load(std::memory_order_relaxed)) {
      f.state = FrameState::kWritingBack;
      f.old_pid = victim;
      f.pid = id;
      mu_.Unlock();
      // Nobody else touches the image: the frame is unpinned and in
      // transit, so fetchers of either page wait.
      Status s = WriteOut(victim, f.page);
      mu_.Lock();
      f.old_pid = kInvalidPageId;
      if (!s.ok()) {
        // Leave the victim cached and dirty; give up the new mapping.
        table_.erase(id);
        f.pid = victim;
        f.state = FrameState::kValid;
        f.pin_count.store(0, std::memory_order_relaxed);
        io_cv_.NotifyAll();
        return s;
      }
      f.dirty.store(false, std::memory_order_relaxed);
    }
    table_.erase(victim);
    stats_.evictions.Increment();
    metric_evictions_->Increment();
    // Fetchers of the victim now miss and read the image just written.
    io_cv_.NotifyAll();
  }
  f.pid = id;
  f.state = FrameState::kLoading;
  *frame = idx;
  return Status::OK();
}

Status BufferPool::ReadInto(size_t frame, PageId id) {
  Frame& f = frames_[frame];
  mu_.Unlock();
  Status s = file_->Read(id, &f.page);
  mu_.Lock();
  if (!s.ok()) {
    // Unmap the frame; the waiters look again and miss.
    table_.erase(id);
    f.pid = kInvalidPageId;
    f.state = FrameState::kFree;
    f.pin_count.store(0, std::memory_order_relaxed);
    free_.push_back(frame);
  } else {
    f.dirty.store(false, std::memory_order_relaxed);
    f.state = FrameState::kValid;
  }
  io_cv_.NotifyAll();
  return s;
}

Status BufferPool::Fetch(PageId id, PageHandle* out) {
  MutexLock lock(&mu_);
  size_t frame;
  for (;;) {
    frame = FindSettled(id);
    if (frame != kNoFrame) {
      Frame& f = frames_[frame];
      f.pin_count.fetch_add(1, std::memory_order_relaxed);
      f.referenced.store(true, std::memory_order_relaxed);
      stats_.hits.Increment();
      metric_hits_->Increment();
      *out = PageHandle(this, frame, id, &frames_[frame].page);
      return Status::OK();
    }
    Status s = ClaimFrame(id, &frame);
    if (!s.ok() || frame != kNoFrame) {
      stats_.misses.Increment();
      metric_misses_->Increment();
      DMX_RETURN_IF_ERROR(s);
      break;
    }
  }
  DMX_RETURN_IF_ERROR(ReadInto(frame, id));
  *out = PageHandle(this, frame, id, &frames_[frame].page);
  return Status::OK();
}

Status BufferPool::New(PageId* id, PageHandle* out) {
  DMX_RETURN_IF_ERROR(file_->Allocate(id));
  MutexLock lock(&mu_);
  size_t frame;
  DMX_RETURN_IF_ERROR(ClaimFrame(*id, &frame));
  if (frame == kNoFrame) {  // only a miss on a page never handed out
    return Status::Corruption("fresh page " + std::to_string(*id) +
                              " is already cached");
  }
  Frame& f = frames_[frame];
  memset(f.page.data, 0, kPageSize);
  f.dirty.store(true, std::memory_order_relaxed);
  f.state = FrameState::kValid;
  io_cv_.NotifyAll();
  *out = PageHandle(this, frame, *id, &f.page);
  return Status::OK();
}

Status BufferPool::FreePage(PageId id) {
  {
    MutexLock lock(&mu_);
    size_t frame = FindSettled(id);
    // A FlushAll write of the page must land before the page file reuses
    // the page.
    while (frame != kNoFrame && frames_[frame].flushing) {
      io_cv_.Wait();
      frame = FindSettled(id);
    }
    if (frame != kNoFrame) {
      Frame& f = frames_[frame];
      if (f.pin_count.load(std::memory_order_acquire) > 0) {
        return Status::Busy("freeing pinned page " + std::to_string(id));
      }
      table_.erase(id);
      f.pid = kInvalidPageId;
      f.state = FrameState::kFree;
      f.dirty.store(false, std::memory_order_relaxed);
      free_.push_back(frame);
    }
  }
  return file_->Free(id);
}

bool BufferPool::WriteInFlight(size_t frame, PageId page) {
  const Frame& f = frames_[frame];
  return (f.state == FrameState::kWritingBack && f.old_pid == page) ||
         (f.flushing && f.pid == page);
}

void BufferPool::SelectFlush(size_t frame, PageId page,
                             std::vector<FramePage>* writes,
                             std::vector<FramePage>* in_flight) {
  Frame& f = frames_[frame];
  if (WriteInFlight(frame, page)) {
    in_flight->emplace_back(frame, page);
  } else if (f.state == FrameState::kValid && f.pid == page &&
             f.dirty.load(std::memory_order_acquire)) {
    f.pin_count.fetch_add(1, std::memory_order_relaxed);
    f.flushing = true;
    writes->emplace_back(frame, page);
  }
}

Status BufferPool::FlushAll() {
  // Settle every cached page: write it if dirty. A page whose write is
  // already in flight (an eviction write-back, or another FlushAll's) is
  // waited for instead and looked at again, since that write may have
  // failed and left it dirty.
  std::vector<FramePage> todo;
  {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < capacity_; ++i) {
      const Frame& f = frames_[i];
      if (f.state == FrameState::kWritingBack) {
        todo.emplace_back(i, f.old_pid);
      } else if (f.state == FrameState::kValid) {
        todo.emplace_back(i, f.pid);
      }
    }
  }
  while (!todo.empty()) {
    std::vector<FramePage> writes, in_flight;
    {
      MutexLock lock(&mu_);
      for (const FramePage& fp : todo) {
        SelectFlush(fp.first, fp.second, &writes, &in_flight);
      }
    }
    Status s;
    for (const FramePage& fp : writes) {
      if (!s.ok()) break;
      Frame& f = frames_[fp.first];
      // Pinned writers may be changing the image: clear dirty first (a
      // later MarkDirty re-dirties the frame), then write a copy, so the
      // WAL is flushed to the LSN of the very bytes written.
      f.dirty.exchange(false, std::memory_order_acq_rel);
      Page image;
      memcpy(image.data, f.page.data, kPageSize);
      s = WriteOut(fp.second, image);
      if (!s.ok()) f.dirty.store(true, std::memory_order_relaxed);
    }
    MutexLock lock(&mu_);
    for (const FramePage& fp : writes) {
      Frame& f = frames_[fp.first];
      f.flushing = false;
      // Not Unpin: a flush is no reference for the clock.
      f.pin_count.fetch_sub(1, std::memory_order_release);
    }
    if (!writes.empty()) io_cv_.NotifyAll();
    if (!s.ok()) return s;
    for (const FramePage& fp : in_flight) {
      while (WriteInFlight(fp.first, fp.second)) io_cv_.Wait();
    }
    todo = std::move(in_flight);
  }
  return file_->Sync();
}

}  // namespace dmx
