// Registration of the built-in extensions — the "at the factory" step.
//
// Identifiers are assigned in registration order; note that the temporary
// storage method receives internal identifier 1, matching the paper's
// worked example ("the base database system has a storage method for
// implementing temporary relations and that storage method is assigned the
// internal identifier 1").

#include "src/attach/btree_index.h"
#include "src/attach/check_constraint.h"
#include "src/attach/deferred_check.h"
#include "src/attach/hash_index.h"
#include "src/attach/join_index.h"
#include "src/attach/ref_integrity.h"
#include "src/attach/rtree_index.h"
#include "src/attach/stats.h"
#include "src/attach/trigger.h"
#include "src/attach/unique_constraint.h"
#include "src/core/database.h"
#include "src/sm/appendonly.h"
#include "src/sm/btree_sm.h"
#include "src/sm/foreign.h"
#include "src/sm/heap.h"
#include "src/sm/memory.h"

namespace dmx {

Status RegisterBuiltinExtensions(ExtensionRegistry* registry) {
  // Storage methods: heap = 0, temp = 1 (as in the paper), ...
  DMX_RETURN_IF_ERROR(registry->RegisterStorageMethod(HeapStorageMethodOps()));
  DMX_RETURN_IF_ERROR(registry->RegisterStorageMethod(TempStorageMethodOps()));
  DMX_RETURN_IF_ERROR(
      registry->RegisterStorageMethod(MainMemoryStorageMethodOps()));
  DMX_RETURN_IF_ERROR(registry->RegisterStorageMethod(BTreeStorageMethodOps()));
  DMX_RETURN_IF_ERROR(
      registry->RegisterStorageMethod(AppendOnlyStorageMethodOps()));
  DMX_RETURN_IF_ERROR(
      registry->RegisterStorageMethod(ForeignStorageMethodOps()));

  // Attachment types (identifier = relation-descriptor field number).
  DMX_RETURN_IF_ERROR(registry->RegisterAttachmentType(BTreeIndexOps()));
  DMX_RETURN_IF_ERROR(registry->RegisterAttachmentType(HashIndexOps()));
  DMX_RETURN_IF_ERROR(registry->RegisterAttachmentType(RTreeIndexOps()));
  DMX_RETURN_IF_ERROR(registry->RegisterAttachmentType(CheckConstraintOps()));
  DMX_RETURN_IF_ERROR(registry->RegisterAttachmentType(UniqueConstraintOps()));
  DMX_RETURN_IF_ERROR(registry->RegisterAttachmentType(RefIntegrityOps()));
  DMX_RETURN_IF_ERROR(registry->RegisterAttachmentType(TriggerOps()));
  DMX_RETURN_IF_ERROR(registry->RegisterAttachmentType(JoinIndexOps()));
  DMX_RETURN_IF_ERROR(registry->RegisterAttachmentType(StatsOps()));
  DMX_RETURN_IF_ERROR(registry->RegisterAttachmentType(DeferredCheckOps()));
  return Status::OK();
}

}  // namespace dmx
