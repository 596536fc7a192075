// Conformance tests for the procedure-vector registry: identifier
// assignment, name lookup, and the contract registration enforces on every
// vector (a registration mistake would otherwise surface as a null call
// deep inside the dispatcher). They run in the default -DNDEBUG build: the
// checks are Status returns, not asserts.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/core/registry.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() {
    EXPECT_TRUE(RegisterBuiltinExtensions(&registry_).ok());
    builtin_sms_ = registry_.num_storage_methods();
    builtin_ats_ = registry_.num_attachment_types();
  }

  // Expects `s` to be an InvalidArgument that names `extension` and
  // `field`, and the registry to be as it was before the attempt.
  void ExpectRefused(const Status& s, const std::string& extension,
                     const std::string& field) {
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.ToString().find("'" + extension + "'"), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.ToString().find(field), std::string::npos) << s.ToString();
    EXPECT_EQ(registry_.num_storage_methods(), builtin_sms_);
    EXPECT_EQ(registry_.num_attachment_types(), builtin_ats_);
  }

  // An attachment vector with every entry point set, each taken from the
  // first built-in that provides it — the base the conditional cases
  // knock single entry points out of.
  AtOps FullAttachmentOps(const char* name) {
    AtOps full;
    for (AtId id = 0; id < registry_.num_attachment_types(); ++id) {
      const AtOps& b = registry_.at_ops(id);
#define DMX_TAKE(f) \
  if (full.f == nullptr) full.f = b.f
      DMX_TAKE(create_instance);
      DMX_TAKE(drop_instance);
      DMX_TAKE(release_instance);
      DMX_TAKE(open);
      DMX_TAKE(on_insert);
      DMX_TAKE(on_update);
      DMX_TAKE(on_delete);
      DMX_TAKE(open_scan);
      DMX_TAKE(lookup);
      DMX_TAKE(cost);
      DMX_TAKE(undo);
      DMX_TAKE(redo);
      DMX_TAKE(rebuild);
      DMX_TAKE(instance_count);
      DMX_TAKE(list_instances);
      DMX_TAKE(instance_fields);
      DMX_TAKE(verify);
      DMX_TAKE(repair_instance);
      DMX_TAKE(guards_integrity);
#undef DMX_TAKE
    }
    full.name = name;
    return full;
  }

  ExtensionRegistry registry_;
  size_t builtin_sms_ = 0;
  size_t builtin_ats_ = 0;
};

// One required entry point, and how to clear it in a copied vector.
template <typename Ops>
struct Field {
  const char* name;
  std::function<void(Ops*)> clear;
};
#define DMX_FIELD(Ops, f) \
  Field<Ops> { #f, [](Ops* o) { o->f = nullptr; } }

TEST_F(RegistryTest, RefusesStorageMethodMissingAnyRequiredEntryPoint) {
  const std::vector<Field<SmOps>> required = {
      DMX_FIELD(SmOps, validate), DMX_FIELD(SmOps, create),
      DMX_FIELD(SmOps, drop),     DMX_FIELD(SmOps, open),
      DMX_FIELD(SmOps, insert),   DMX_FIELD(SmOps, update),
      DMX_FIELD(SmOps, erase),    DMX_FIELD(SmOps, fetch),
      DMX_FIELD(SmOps, open_scan), DMX_FIELD(SmOps, cost),
      DMX_FIELD(SmOps, undo),     DMX_FIELD(SmOps, redo),
      DMX_FIELD(SmOps, count),    DMX_FIELD(SmOps, verify)};
  for (SmId id = 0; id < builtin_sms_; ++id) {
    const std::string copy_name = std::string("copy_of_") +
                                  registry_.sm_ops(id).name;
    for (const Field<SmOps>& field : required) {
      SCOPED_TRACE(copy_name + " without " + field.name);
      SmOps copy = registry_.sm_ops(id);
      copy.name = copy_name.c_str();
      field.clear(&copy);
      ExpectRefused(registry_.RegisterStorageMethod(copy), copy_name,
                    field.name);
    }
  }
}

TEST_F(RegistryTest, RefusesAttachmentTypeMissingAnyRequiredEntryPoint) {
  const std::vector<Field<AtOps>> required = {
      DMX_FIELD(AtOps, create_instance), DMX_FIELD(AtOps, drop_instance),
      DMX_FIELD(AtOps, open),            DMX_FIELD(AtOps, instance_count),
      DMX_FIELD(AtOps, on_insert),       DMX_FIELD(AtOps, on_update)};
  for (AtId id = 0; id < builtin_ats_; ++id) {
    const std::string copy_name = std::string("copy_of_") +
                                  registry_.at_ops(id).name;
    for (const Field<AtOps>& field : required) {
      SCOPED_TRACE(copy_name + " without " + field.name);
      AtOps copy = registry_.at_ops(id);
      copy.name = copy_name.c_str();
      field.clear(&copy);
      ExpectRefused(registry_.RegisterAttachmentType(copy), copy_name,
                    field.name);
    }
  }
}

TEST_F(RegistryTest, RefusesAttachmentTypeBreakingAConditionalPair) {
  struct Case {
    const char* rule;
    const char* missing;  // the entry point the message must name
    std::function<void(AtOps*)> mutate;
  };
  const std::vector<Case> cases = {
      {"undo needs redo", "redo", [](AtOps* o) { o->redo = nullptr; }},
      {"redo needs undo", "undo", [](AtOps* o) { o->undo = nullptr; }},
      {"lookup needs list_instances", "list_instances",
       [](AtOps* o) {
         o->open_scan = nullptr;
         o->list_instances = nullptr;
       }},
      {"open_scan needs list_instances", "list_instances",
       [](AtOps* o) {
         o->lookup = nullptr;
         o->list_instances = nullptr;
       }},
      {"repair_instance needs release_instance", "release_instance",
       [](AtOps* o) { o->release_instance = nullptr; }},
      {"guards_integrity needs verify", "verify",
       [](AtOps* o) { o->verify = nullptr; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rule);
    AtOps ops = FullAttachmentOps("conditional");
    c.mutate(&ops);
    ExpectRefused(registry_.RegisterAttachmentType(ops), "conditional",
                  c.missing);
  }
}

TEST_F(RegistryTest, RefusesDuplicateAndEmptyNames) {
  // A second "heap", and a second "btree_index" copied whole.
  ExpectRefused(registry_.RegisterStorageMethod(registry_.sm_ops(0)), "heap",
                "name is already registered");
  const std::string at0 = registry_.at_ops(0).name;
  ExpectRefused(registry_.RegisterAttachmentType(registry_.at_ops(0)), at0,
                "name is already registered");

  SmOps sm = registry_.sm_ops(0);
  sm.name = "";
  ExpectRefused(registry_.RegisterStorageMethod(sm), "", "name is empty");
  AtOps at = FullAttachmentOps("");
  ExpectRefused(registry_.RegisterAttachmentType(at), "", "name is empty");

  sm.name = nullptr;
  Status s = registry_.RegisterStorageMethod(sm);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("name is null"), std::string::npos);
  at.name = nullptr;
  s = registry_.RegisterAttachmentType(at);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("name is null"), std::string::npos);
  EXPECT_EQ(registry_.num_storage_methods(), builtin_sms_);
  EXPECT_EQ(registry_.num_attachment_types(), builtin_ats_);
}

TEST_F(RegistryTest, RefusesAttachmentTypePastTheDescriptorFieldBudget) {
  std::vector<std::string> names;
  for (size_t i = builtin_ats_; i <= kMaxAttachmentTypes; ++i) {
    names.push_back("extra_" + std::to_string(i));
  }
  for (size_t i = 0; i + 1 < names.size(); ++i) {
    AtId id = 0;
    ASSERT_TRUE(registry_
                    .RegisterAttachmentType(
                        FullAttachmentOps(names[i].c_str()), &id)
                    .ok());
    EXPECT_EQ(id, builtin_ats_ + i);
  }
  ASSERT_EQ(registry_.num_attachment_types(), kMaxAttachmentTypes);
  Status s = registry_.RegisterAttachmentType(
      FullAttachmentOps(names.back().c_str()));
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("'" + names.back() + "'"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find(std::to_string(kMaxAttachmentTypes)),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(registry_.num_attachment_types(), kMaxAttachmentTypes);
}

TEST_F(RegistryTest, OpenFailsCleanlyWhenAnExtensionIsRefused) {
  testing::TempDir tmp("registry");
  DatabaseOptions options;
  options.dir = tmp.path() + "/db";
  options.register_extensions = [](ExtensionRegistry* registry) {
    SmOps incomplete = registry->sm_ops(0);
    incomplete.name = "no_redo";
    incomplete.redo = nullptr;
    return registry->RegisterStorageMethod(incomplete);
  };
  std::unique_ptr<Database> db;
  Status s = Database::Open(options, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("'no_redo'"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("redo"), std::string::npos) << s.ToString();
  EXPECT_EQ(db, nullptr);
  // Registration runs before any I/O: nothing was created.
  EXPECT_FALSE(std::filesystem::exists(options.dir));
}

TEST_F(RegistryTest, IdentifiersFollowRegistrationOrder) {
  // The paper's worked example: temp is storage method 1.
  EXPECT_EQ(registry_.FindStorageMethod("heap"), 0);
  EXPECT_EQ(registry_.FindStorageMethod("temp"), 1);
  EXPECT_EQ(registry_.FindStorageMethod("nonexistent"), -1);
  EXPECT_EQ(registry_.FindAttachmentType("nonexistent"), -1);
  // Ids round-trip through the vectors.
  for (SmId id = 0; id < registry_.num_storage_methods(); ++id) {
    EXPECT_EQ(registry_.FindStorageMethod(registry_.sm_ops(id).name), id);
  }
  for (AtId id = 0; id < registry_.num_attachment_types(); ++id) {
    EXPECT_EQ(registry_.FindAttachmentType(registry_.at_ops(id).name), id);
  }
}

TEST_F(RegistryTest, WithinDescriptorFieldBudget) {
  // "This method for representing relation descriptions effectively limits
  // the number of different attachment types to a few dozen."
  EXPECT_LE(registry_.num_attachment_types(), kMaxAttachmentTypes);
}

TEST_F(RegistryTest, EveryStorageMethodProvidesMandatoryOperations) {
  for (SmId id = 0; id < registry_.num_storage_methods(); ++id) {
    const SmOps& ops = registry_.sm_ops(id);
    SCOPED_TRACE(ops.name);
    EXPECT_NE(ops.validate, nullptr);
    EXPECT_NE(ops.create, nullptr);
    EXPECT_NE(ops.drop, nullptr);
    EXPECT_NE(ops.open, nullptr);
    EXPECT_NE(ops.insert, nullptr);
    EXPECT_NE(ops.update, nullptr);
    EXPECT_NE(ops.erase, nullptr);
    EXPECT_NE(ops.fetch, nullptr);
    EXPECT_NE(ops.open_scan, nullptr);
    EXPECT_NE(ops.cost, nullptr);
    EXPECT_NE(ops.undo, nullptr);
    EXPECT_NE(ops.redo, nullptr);
  }
}

TEST_F(RegistryTest, EveryAttachmentProvidesDdlAndAtLeastOneHook) {
  for (AtId id = 0; id < registry_.num_attachment_types(); ++id) {
    const AtOps& ops = registry_.at_ops(id);
    SCOPED_TRACE(ops.name);
    EXPECT_NE(ops.create_instance, nullptr);
    EXPECT_NE(ops.drop_instance, nullptr);
    // Every attachment type reacts to at least one modification kind (an
    // attachment with no hooks could never do anything).
    EXPECT_TRUE(ops.on_insert != nullptr || ops.on_update != nullptr ||
                ops.on_delete != nullptr);
  }
}

TEST_F(RegistryTest, AccessPathsProvideTheAccessSurfaceTogether) {
  for (AtId id = 0; id < registry_.num_attachment_types(); ++id) {
    const AtOps& ops = registry_.at_ops(id);
    SCOPED_TRACE(ops.name);
    // A costed path must be usable: lookup or scan must exist.
    if (ops.cost != nullptr) {
      EXPECT_TRUE(ops.lookup != nullptr || ops.open_scan != nullptr);
      EXPECT_NE(ops.list_instances, nullptr);
    }
  }
}

TEST_F(RegistryTest, UserRegistrationExtendsTheVectors) {
  size_t sms = registry_.num_storage_methods();
  SmOps custom = registry_.sm_ops(0);  // a complete vector, renamed
  custom.name = "custom_sm";
  SmId id = 0;
  ASSERT_TRUE(registry_.RegisterStorageMethod(custom, &id).ok());
  EXPECT_EQ(id, sms);
  EXPECT_EQ(registry_.FindStorageMethod("custom_sm"),
            static_cast<int>(sms));

  size_t ats = registry_.num_attachment_types();
  AtId at = 0;
  ASSERT_TRUE(registry_
                  .RegisterAttachmentType(FullAttachmentOps("custom_at"), &at)
                  .ok());
  EXPECT_EQ(at, ats);
  EXPECT_EQ(registry_.FindAttachmentType("custom_at"), static_cast<int>(ats));
}

}  // namespace
}  // namespace dmx
