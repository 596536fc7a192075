// deeplint fixture: see latched_pool.h. Never compiled.

#include "tests/lint/fixtures/deeplint/latched_pool.h"

namespace dmx {

// Flagged: the miss reads the page with the pool latch held.
Status LatchedPool::Fetch(PageId id, Page* out) {
  MutexLock lock(&mu_);
  return file_->Read(id, out);
}

// Flagged: the header's REQUIRES(mu_) holds here, so the WAL flush and the
// write-back are made under mu_.
Status LatchedPool::FlushFrame(Page& page, PageId id) {
  Lsn lsn = PageLsn(page);
  DMX_RETURN_IF_ERROR(wal_flush_(lsn));
  return file_->Write(id, page);
}

// Flagged: the sync is made under mu_.
Status LatchedPool::FlushAll() {
  MutexLock lock(&mu_);
  return file_->Sync();
}

Status UnlatchedPool::Fetch(PageId id, Page* out) {
  MutexLock lock(&mu_);
  return ReadInto(id, out);
}

// Clean: REQUIRES(mu_) on entry, but the read runs with mu_ released.
Status UnlatchedPool::ReadInto(PageId id, Page* out) {
  mu_.Unlock();
  Status s = file_->Read(id, out);
  mu_.Lock();
  return s;
}

}  // namespace dmx
