// ExtensionRegistry: the procedure vectors.
//
// "For each generic operation on stored relations, there is a vector of
// procedures with an entry for each relation storage method. For generic
// operations on attachments, there is a vector of procedures with an entry
// for each attachment type... Storage method and attachment internal
// identifiers are small integers that serve as indexes into the vectors of
// procedures. This approach makes the activation of the appropriate
// extension quite efficient."
//
// Registration happens "at the factory": extensions are compiled and linked
// into the binary and install their operation tables at database startup.
// Identifiers are assigned in registration order; the registry is frozen
// before transactions run, so dispatch needs no synchronization.
//
// Because dispatch is a bare vector index, registration is where the
// extension contract is enforced: a vector with a missing entry point is
// refused here instead of surfacing as a null call at run time.

#ifndef DMX_CORE_REGISTRY_H_
#define DMX_CORE_REGISTRY_H_

#include <string>
#include <vector>

#include "src/core/extension.h"

namespace dmx {

class ExtensionRegistry {
 public:
  ExtensionRegistry() = default;

  /// Install a storage method's entry points. On success *id (when
  /// non-null) receives its SmId, its index in the storage-method procedure
  /// vectors. Refused with InvalidArgument, naming the extension and the
  /// entry point, unless the name is non-empty and unique and validate,
  /// create, drop, open, insert, update, erase, fetch, open_scan, cost,
  /// undo, redo, count and verify are all set. A refused vector leaves the
  /// registry unchanged.
  Status RegisterStorageMethod(const SmOps& ops, SmId* id = nullptr);

  /// Install an attachment type's entry points. On success *id (when
  /// non-null) receives its AtId, its procedure-vector index *and* its
  /// relation-descriptor field number. Refused with InvalidArgument, leaving
  /// the registry unchanged, unless the name is non-empty and unique, fewer
  /// than kMaxAttachmentTypes types are registered, create_instance,
  /// drop_instance, open, instance_count, on_insert and on_update are set,
  /// undo and redo are set together, and lookup or open_scan comes with
  /// list_instances, repair_instance with release_instance and
  /// guards_integrity with verify.
  Status RegisterAttachmentType(const AtOps& ops, AtId* id = nullptr);

  /// O(1) dispatch: index the vector with the identifier from the relation
  /// descriptor.
  const SmOps& sm_ops(SmId id) const { return sm_ops_[id]; }
  const AtOps& at_ops(AtId id) const { return at_ops_[id]; }

  size_t num_storage_methods() const { return sm_ops_.size(); }
  size_t num_attachment_types() const { return at_ops_.size(); }

  /// Name lookup, used only by DDL parsing (never on data paths).
  int FindStorageMethod(const std::string& name) const;
  int FindAttachmentType(const std::string& name) const;

 private:
  std::vector<SmOps> sm_ops_;
  std::vector<AtOps> at_ops_;
};

}  // namespace dmx

#endif  // DMX_CORE_REGISTRY_H_
