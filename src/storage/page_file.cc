#include "src/storage/page_file.h"

#include <cstdio>
#include <cstring>
#include <thread>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace dmx {

namespace {
constexpr uint32_t kMagic = 0x444D5831;  // "DMX1"
}  // namespace

Lsn PageLsn(const Page& p) { return DecodeFixed64(p.data); }

void SetPageLsn(Page* p, Lsn lsn) {
  char buf[8];
  memcpy(buf, &lsn, 8);
  memcpy(p->data, buf, 8);
}

PageFile::~PageFile() {
  (void)Close();  // best-effort header write; errors unreportable here
}

// Cold open: the header must be durable before the file is shared, and
// mu_ is private until Open returns.
// deeplint: allow(blocking-under-lock, cold open precedes sharing)
Status PageFile::Open(const std::string& path, bool create, Env* env) {
  MutexLock lock(&mu_);
  env_ = env != nullptr ? env : Env::Default();
  const bool existed = env_->FileExists(path).ok();
  DMX_RETURN_IF_ERROR(env_->NewRandomAccessFile(path, create, &file_));
  path_ = path;
  uint64_t size = 0;
  Status s = file_->Size(&size);
  if (s.ok() && size == 0) {
    // Fresh file: write the header page, then make it durable — the file
    // itself and, if we just created it, its directory entry.
    page_count_ = 1;
    freelist_head_ = kInvalidPageId;
    s = WriteHeader();
    if (s.ok()) s = file_->Sync(/*data_only=*/false);
    if (s.ok() && !existed) s = env_->SyncDir(DirnameOf(path));
  } else if (s.ok()) {
    s = ReadHeader();
  }
  if (!s.ok()) {
    (void)file_->Close();  // the open failure takes precedence
    file_.reset();
  }
  return s;
}

// Teardown: the final header write must not interleave with a late
// Allocate/Free.
// deeplint: allow(blocking-under-lock, teardown serializes final header)
Status PageFile::Close() {
  MutexLock lock(&mu_);
  if (!file_) return Status::OK();
  Status s = WriteHeader();
  Status c = file_->Close();
  file_.reset();
  return s.ok() ? c : s;
}

Status PageFile::ReadRaw(PageId id, char* buf) {
  char frame[kDiskPageSize];
  size_t n = 0;
  DMX_RETURN_IF_ERROR(file_->Read(
      static_cast<uint64_t>(id) * kDiskPageSize, kDiskPageSize, frame, &n));
  if (n != kDiskPageSize) {
    return Status::Corruption("short read of page " + std::to_string(id) +
                              " in '" + path_ + "'");
  }
  const uint32_t expected = DecodeFixed32(frame + kPageSize);
  const uint32_t actual = Crc32c(frame, kPageSize);
  if (expected != actual) {
    char crcs[48];
    snprintf(crcs, sizeof(crcs), " (stored 0x%08x, computed 0x%08x)",
             expected, actual);
    return Status::Corruption("page " + std::to_string(id) +
                              " checksum mismatch in '" + path_ + "'" + crcs);
  }
  memcpy(buf, frame, kPageSize);
  return Status::OK();
}

Status PageFile::WriteRaw(PageId id, const char* buf) {
  char frame[kDiskPageSize];
  memcpy(frame, buf, kPageSize);
  // Over the copy, not `buf`: a caller's buffer may still be changing,
  // and the trailer must match the bytes actually written.
  const uint32_t crc = Crc32c(frame, kPageSize);
  memcpy(frame + kPageSize, &crc, 4);
  memset(frame + kPageSize + 4, 0, 4);
  return file_->Write(static_cast<uint64_t>(id) * kDiskPageSize, frame,
                      kDiskPageSize);
}

Status PageFile::ReadHeader() {
  char buf[kPageSize];
  DMX_RETURN_IF_ERROR(ReadRaw(0, buf));
  if (DecodeFixed32(buf) != kMagic) {
    return Status::Corruption("bad magic in '" + path_ + "'");
  }
  page_count_ = DecodeFixed32(buf + 4);
  freelist_head_ = DecodeFixed32(buf + 8);
  return Status::OK();
}

Status PageFile::WriteHeader() {
  char buf[kPageSize];
  memset(buf, 0, kPageSize);
  std::string hdr;
  PutFixed32(&hdr, kMagic);
  PutFixed32(&hdr, page_count_);
  PutFixed32(&hdr, freelist_head_);
  memcpy(buf, hdr.data(), hdr.size());
  return WriteRaw(0, buf);
}

// The freelist unlink/growth must be durable atomically with the
// allocation metadata that publishes it.
// deeplint: allow(blocking-under-lock, freelist sync atomic with alloc)
Status PageFile::Allocate(PageId* id) {
  MutexLock lock(&mu_);
  if (freelist_head_ != kInvalidPageId) {
    PageId reused = freelist_head_;
    char buf[kPageSize];
    DMX_RETURN_IF_ERROR(ReadRaw(reused, buf));
    freelist_head_ = DecodeFixed32(buf + 8);  // next ptr after LSN word
    memset(buf, 0, kPageSize);
    DMX_RETURN_IF_ERROR(WriteRaw(reused, buf));
    DMX_RETURN_IF_ERROR(WriteHeader());
    // Make the unlink durable: after a crash the page must not come back
    // as both allocated (to our caller) and head of the free list.
    DMX_RETURN_IF_ERROR(file_->Sync(/*data_only=*/true));
    *id = reused;
    return Status::OK();
  }
  PageId fresh = page_count_++;
  char buf[kPageSize];
  memset(buf, 0, kPageSize);
  DMX_RETURN_IF_ERROR(WriteRaw(fresh, buf));
  DMX_RETURN_IF_ERROR(WriteHeader());
  // Make the growth durable so the new page id is never handed out twice
  // across a crash.
  DMX_RETURN_IF_ERROR(file_->Sync(/*data_only=*/true));
  *id = fresh;
  return Status::OK();
}

Status PageFile::Free(PageId id) {
  MutexLock lock(&mu_);
  if (id == kInvalidPageId || id >= page_count_) {
    return Status::InvalidArgument("free of invalid page " +
                                   std::to_string(id));
  }
  char buf[kPageSize];
  memset(buf, 0, kPageSize);
  std::string next;
  PutFixed32(&next, freelist_head_);
  memcpy(buf + 8, next.data(), 4);
  DMX_RETURN_IF_ERROR(WriteRaw(id, buf));
  freelist_head_ = id;
  // No sync: losing a Free across a crash merely leaks the page.
  return WriteHeader();
}

Status PageFile::Read(PageId id, Page* page) {
  if (id == kInvalidPageId || id >= page_count_) {
    return Status::InvalidArgument("read of invalid page " +
                                   std::to_string(id));
  }
  return ReadRaw(id, page->data);
}

Status PageFile::Write(PageId id, const Page& page) {
  if (id == kInvalidPageId || id >= page_count_) {
    return Status::InvalidArgument("write of invalid page " +
                                   std::to_string(id));
  }
  return WriteRaw(id, page.data);
}

Status PageFile::Sync() { return file_->Sync(/*data_only=*/false); }

// mu_ freezes the allocation structure for the copy; record writes
// proceed, and reads are page-sized and bounded. The attempt loop is a
// torn-read CRC retry under concurrent writers, not an I/O-status retry:
// real I/O failures break it unretried.
// deeplint: allow(blocking-under-lock, mu_ freezes allocation for copy)
// deeplint: allow(status-discipline, torn-read CRC retry, not I/O retry)
Status PageFile::SnapshotTo(const std::string& dest_path, uint32_t* out_pages,
                            uint32_t* out_crc) {
  MutexLock lock(&mu_);  // freeze allocation structure, not record writes
  if (!file_) return Status::InvalidArgument("page file not open");
  std::unique_ptr<RandomAccessFile> dest;
  DMX_RETURN_IF_ERROR(
      env_->NewRandomAccessFile(dest_path, /*create=*/true, &dest));
  Status s = dest->Truncate(0);
  const uint32_t pages = page_count_.load(std::memory_order_relaxed);
  uint32_t crc = 0;
  char frame[kDiskPageSize];
  for (PageId id = 0; s.ok() && id < pages; ++id) {
    // Bounded checksum-retry: a concurrent record-level pwrite can tear
    // this read; re-reading lands before or after the writer. A mismatch
    // that survives every attempt is stable on-disk damage, not a race.
    constexpr int kAttempts = 64;
    for (int attempt = 0;; ++attempt) {
      size_t n = 0;
      s = file_->Read(static_cast<uint64_t>(id) * kDiskPageSize,
                      kDiskPageSize, frame, &n);
      if (s.ok() && n != kDiskPageSize) {
        s = Status::Corruption("short read of page " + std::to_string(id) +
                               " during backup of '" + path_ + "'");
      }
      if (!s.ok()) break;
      if (DecodeFixed32(frame + kPageSize) == Crc32c(frame, kPageSize)) break;
      if (attempt + 1 >= kAttempts) {
        s = Status::Corruption("page " + std::to_string(id) +
                               " checksum mismatch persisted across " +
                               std::to_string(kAttempts) +
                               " backup reads of '" + path_ + "'");
        break;
      }
      std::this_thread::yield();
    }
    if (!s.ok()) break;
    s = dest->Write(static_cast<uint64_t>(id) * kDiskPageSize, frame,
                    kDiskPageSize);
    if (s.ok()) crc = Crc32cExtend(crc, frame, kDiskPageSize);
  }
  if (s.ok()) s = dest->Sync(/*data_only=*/false);
  Status c = dest->Close();
  if (s.ok()) s = c;
  if (!s.ok()) {
    // Best-effort: the partial snapshot is garbage; s names the real error.
  (void)env_->DeleteFile(dest_path);
    return s;
  }
  *out_pages = pages;
  *out_crc = crc;
  return Status::OK();
}

}  // namespace dmx
