// deeplint fixture: two classes in one file, each with a member `mu_`.
// Never compiled — deeplint_test.py asserts the mutex-discipline pass
// flags the unguarded one even though its neighbour's `mu_` is guarded.

#ifndef DMX_TESTS_LINT_FIXTURES_DEEPLINT_SIBLING_MUTEX_H_
#define DMX_TESTS_LINT_FIXTURES_DEEPLINT_SIBLING_MUTEX_H_

#include "src/util/thread_annotations.h"

namespace dmx {

// Not flagged: mu_ guards hits_.
class GuardedSibling {
 public:
  void Hit();

 private:
  Mutex mu_;
  int hits_ GUARDED_BY(mu_) = 0;
};

// Flagged: nothing in this class names its mu_.
class UnguardedSibling {
 public:
  void Hit();

 private:
  Mutex mu_;
  int hits_ = 0;
};

}  // namespace dmx

#endif  // DMX_TESTS_LINT_FIXTURES_DEEPLINT_SIBLING_MUTEX_H_
