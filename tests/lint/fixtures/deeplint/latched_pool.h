// deeplint fixture: the buffer pool as it was when its latch covered page
// I/O. Never compiled — deeplint_test.py asserts the blocking-under-lock
// pass sees the PageFile I/O and the WAL hook in LatchedPool, including
// the calls inside FlushFrame, whose REQUIRES(mu_) sits only on this
// in-class declaration and not on the definition in latched_pool.cc.

#include <functional>

#include "src/storage/page_file.h"
#include "src/util/thread_annotations.h"

namespace dmx {

class LatchedPool {
 public:
  Status Fetch(PageId id, Page* out);
  Status FlushAll();

 private:
  Status FlushFrame(Page& page, PageId id) REQUIRES(mu_);

  PageFile* file_;
  std::function<Status(Lsn)> wal_flush_;
  Mutex mu_;
};

// Clean: the pool latch is released around the read.
class UnlatchedPool {
 public:
  Status Fetch(PageId id, Page* out);

 private:
  Status ReadInto(PageId id, Page* out) REQUIRES(mu_);

  PageFile* file_;
  Mutex mu_;
};

}  // namespace dmx
