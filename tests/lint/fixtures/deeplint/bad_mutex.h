// deeplint fixture: mutex-discipline violations. Never compiled —
// deeplint_test.py asserts the mutex-discipline pass flags each one.

#ifndef DMX_TESTS_LINT_FIXTURES_DEEPLINT_BAD_MUTEX_H_
#define DMX_TESTS_LINT_FIXTURES_DEEPLINT_BAD_MUTEX_H_

#include <mutex>

#include "src/util/thread_annotations.h"

namespace dmx {

// Flagged: std::mutex is invisible to thread-safety analysis.
class RawMutexHolder {
 public:
  void Touch();

 private:
  std::mutex mu_;
  int count_ = 0;
};

// Flagged: an annotated Mutex that guards nothing.
class UnguardedMutexHolder {
 public:
  void Touch();

 private:
  Mutex mu_;
  int count_ = 0;
};

// Not flagged: the Mutex guards count_.
class GuardedMutexHolder {
 public:
  void Touch();

 private:
  Mutex count_mu_;
  int count_ GUARDED_BY(count_mu_) = 0;
};

// Not flagged: a reasoned waiver.
class ExternallySynchronized {
 private:
  Mutex waived_mu_;  // deeplint: allow(mutex-discipline, caller guards it)
  int count_ = 0;
};

}  // namespace dmx

#endif  // DMX_TESTS_LINT_FIXTURES_DEEPLINT_BAD_MUTEX_H_
