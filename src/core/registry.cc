#include "src/core/registry.h"

#include <initializer_list>
#include <utility>

namespace dmx {

namespace {

// One entry point of a vector: its field name and whether it is set.
struct Entry {
  const char* field;
  bool set;
};
#define DMX_ENTRY(f) Entry{#f, ops.f != nullptr}

// The contract one vector must meet: every `required` entry point set, and
// for each (given, needed) pair, `needed` set whenever `given` is.
Status CheckVector(const char* kind, const char* name, int existing,
                   std::initializer_list<Entry> required,
                   std::initializer_list<std::pair<Entry, Entry>> implied) {
  const std::string who = std::string(kind) + " '" + name + "': ";
  if (*name == '\0') return Status::InvalidArgument(who + "name is empty");
  if (existing >= 0) {
    return Status::InvalidArgument(who + "name is already registered");
  }
  for (const Entry& e : required) {
    if (!e.set) {
      return Status::InvalidArgument(who + "required entry point " + e.field +
                                     " is null");
    }
  }
  for (const auto& [given, needed] : implied) {
    if (given.set && !needed.set) {
      return Status::InvalidArgument(who + given.field + " is set but " +
                                     needed.field + " is null");
    }
  }
  return Status::OK();
}

}  // namespace

Status ExtensionRegistry::RegisterStorageMethod(const SmOps& ops, SmId* id) {
  if (ops.name == nullptr) {
    return Status::InvalidArgument("storage method: name is null");
  }
  DMX_RETURN_IF_ERROR(CheckVector(
      "storage method", ops.name, FindStorageMethod(ops.name),
      {DMX_ENTRY(validate), DMX_ENTRY(create), DMX_ENTRY(drop),
       DMX_ENTRY(open), DMX_ENTRY(insert), DMX_ENTRY(update),
       DMX_ENTRY(erase), DMX_ENTRY(fetch), DMX_ENTRY(open_scan),
       DMX_ENTRY(cost), DMX_ENTRY(undo), DMX_ENTRY(redo), DMX_ENTRY(count),
       DMX_ENTRY(verify)},
      {}));
  sm_ops_.push_back(ops);
  if (id != nullptr) *id = static_cast<SmId>(sm_ops_.size() - 1);
  return Status::OK();
}

Status ExtensionRegistry::RegisterAttachmentType(const AtOps& ops, AtId* id) {
  if (ops.name == nullptr) {
    return Status::InvalidArgument("attachment type: name is null");
  }
  // Recovery needs both directions; the planner and REPAIR enumerate the
  // instances of an access path; REPAIR releases the storage it replaces;
  // quarantine re-checks an integrity guard through verify.
  DMX_RETURN_IF_ERROR(CheckVector(
      "attachment type", ops.name, FindAttachmentType(ops.name),
      {DMX_ENTRY(create_instance), DMX_ENTRY(drop_instance), DMX_ENTRY(open),
       DMX_ENTRY(instance_count), DMX_ENTRY(on_insert),
       DMX_ENTRY(on_update)},
      {{DMX_ENTRY(undo), DMX_ENTRY(redo)},
       {DMX_ENTRY(redo), DMX_ENTRY(undo)},
       {DMX_ENTRY(lookup), DMX_ENTRY(list_instances)},
       {DMX_ENTRY(open_scan), DMX_ENTRY(list_instances)},
       {DMX_ENTRY(repair_instance), DMX_ENTRY(release_instance)},
       {DMX_ENTRY(guards_integrity), DMX_ENTRY(verify)}}));
  if (at_ops_.size() >= kMaxAttachmentTypes) {
    return Status::InvalidArgument(
        std::string("attachment type '") + ops.name + "': all " +
        std::to_string(kMaxAttachmentTypes) +
        " relation-descriptor attachment fields are taken");
  }
  at_ops_.push_back(ops);
  if (id != nullptr) *id = static_cast<AtId>(at_ops_.size() - 1);
  return Status::OK();
}

#undef DMX_ENTRY

int ExtensionRegistry::FindStorageMethod(const std::string& name) const {
  for (size_t i = 0; i < sm_ops_.size(); ++i) {
    if (name == sm_ops_[i].name) return static_cast<int>(i);
  }
  return -1;
}

int ExtensionRegistry::FindAttachmentType(const std::string& name) const {
  for (size_t i = 0; i < at_ops_.size(); ++i) {
    if (name == at_ops_[i].name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace dmx
