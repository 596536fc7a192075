// deeplint fixture: dispatch that bypasses the registry. Never compiled —
// deeplint_test.py asserts the direct-dispatch pass flags it.

#include "src/core/extension.h"

namespace dmx {

// Flagged: a sibling's entry point called through its accessor instead of
// the registered vector.
Status BypassRegistry(SmContext& ctx) {
  uint64_t n = 0;
  return HeapStorageMethodOps().count(ctx, &n);
}

// Not flagged: copying a vector to inherit from it.
SmOps InheritsFromHeap() {
  SmOps ops = HeapStorageMethodOps();
  ops.name = "inherits";
  return ops;
}

}  // namespace dmx
