// Tests for the open runtime registry: built-in coverage, alias lookup,
// capability flags, duplicate rejection, unknown-name diagnostics, and
// the single-call extension contract.

#include <gtest/gtest.h>

#include <stdexcept>

#include "driver/runtime_registry.hpp"

namespace coupon::driver {
namespace {

TEST(RuntimeRegistry, BuiltinsRegisteredInPresentationOrder) {
  const auto names = RuntimeRegistry::instance().names();
  const std::vector<std::string> expected = {"sim", "threaded", "process"};
  ASSERT_GE(names.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(names[i], expected[i]);
  }
  EXPECT_EQ(RuntimeRegistry::instance().choices().substr(0, 12),
            "sim|threaded");
}

TEST(RuntimeRegistry, EveryBuiltinIsConstructibleAndSelfNamed) {
  for (const auto& name : RuntimeRegistry::instance().names()) {
    auto runtime = RuntimeRegistry::instance().create(name);
    ASSERT_NE(runtime, nullptr) << name;
    EXPECT_EQ(runtime->name(), name);
  }
}

TEST(RuntimeRegistry, AliasLookupFindsCanonicalEntry) {
  const auto& registry = RuntimeRegistry::instance();
  const RuntimeEntry* by_alias = registry.find("simulated");
  ASSERT_NE(by_alias, nullptr);
  EXPECT_EQ(by_alias->name, "sim");
  EXPECT_EQ(registry.find("simulate"), registry.find("sim"));
  EXPECT_EQ(registry.find("thread"), registry.find("threaded"));
  EXPECT_EQ(registry.find("threads"), registry.find("threaded"));
  EXPECT_EQ(registry.find("processes"), registry.find("process"));
  EXPECT_EQ(registry.find("proc"), registry.find("process"));
  // Lookups are case-sensitive and exact.
  EXPECT_EQ(registry.find("SIM"), nullptr);
  EXPECT_EQ(registry.find(""), nullptr);
  EXPECT_EQ(registry.find("mpi"), nullptr);
}

TEST(RuntimeRegistry, CreateReturnsNullptrOnUnknownName) {
  // No throw: callers print unknown_message themselves.
  EXPECT_EQ(RuntimeRegistry::instance().create("mpi"), nullptr);
}

TEST(RuntimeRegistry, UnknownNameDiagnosticSuggestsNearestRuntime) {
  const std::string message =
      RuntimeRegistry::instance().unknown_message("proces");
  EXPECT_NE(message.find("did you mean 'process'?"), std::string::npos)
      << message;
  EXPECT_NE(message.find("choices"), std::string::npos);
  EXPECT_NE(message.find("sim|threaded|process"), std::string::npos);
  // A name far from every registered runtime gets no suggestion.
  const std::string far =
      RuntimeRegistry::instance().unknown_message("zzzzz");
  EXPECT_EQ(far.find("did you mean"), std::string::npos) << far;
}

TEST(RuntimeRegistry, CapabilityFlagsMatchTheRuntimes) {
  const auto& registry = RuntimeRegistry::instance();
  const auto& sim = registry.find("sim")->caps;
  EXPECT_FALSE(sim.computes_gradients);
  EXPECT_TRUE(sim.simulated_clock);
  EXPECT_TRUE(sim.honours_cluster_override);
  EXPECT_TRUE(sim.honours_sim_only_scenarios);
  EXPECT_FALSE(sim.honours_elasticity);
  EXPECT_FALSE(sim.spawns_processes);

  const auto& threaded = registry.find("threaded")->caps;
  EXPECT_TRUE(threaded.computes_gradients);
  EXPECT_FALSE(threaded.simulated_clock);
  EXPECT_FALSE(threaded.honours_sim_only_scenarios);
  EXPECT_TRUE(threaded.honours_elasticity);
  EXPECT_FALSE(threaded.spawns_processes);

  const auto& process = registry.find("process")->caps;
  EXPECT_TRUE(process.computes_gradients);
  EXPECT_FALSE(process.simulated_clock);
  EXPECT_FALSE(process.honours_sim_only_scenarios);
  EXPECT_TRUE(process.honours_elasticity);
  EXPECT_TRUE(process.spawns_processes);
}

TEST(RuntimeRegistry, DuplicateNamesAndAliasesRejected) {
  auto& registry = RuntimeRegistry::instance();
  RuntimeEntry entry;
  entry.factory = [] { return std::make_unique<SimulatedRuntime>(); };

  entry.name = "sim";  // canonical-name collision
  EXPECT_THROW(registry.add(entry), std::invalid_argument);

  entry.name = "threads";  // collides with an existing alias
  EXPECT_THROW(registry.add(entry), std::invalid_argument);

  entry.name = "fresh_runtime";
  entry.aliases = {"process"};  // alias collides with a canonical name
  EXPECT_THROW(registry.add(entry), std::invalid_argument);

  entry.aliases = {};
  entry.name = "";  // unnamed
  EXPECT_THROW(registry.add(entry), std::invalid_argument);

  entry.name = "fresh_runtime";
  entry.factory = nullptr;  // no factory
  EXPECT_THROW(registry.add(entry), std::invalid_argument);
}

TEST(RuntimeRegistry, SingleRegistrationCallAddsASelectableRuntime) {
  // The extension contract: one registration call (no if/else ladder or
  // name-table edits) and the runtime is selectable by name or alias
  // like any built-in.
  auto& registry = RuntimeRegistry::instance();
  if (registry.find("test_sim_clone") == nullptr) {
    RuntimeRegistration registration(
        {.name = "test_sim_clone",
         .aliases = {"test_sc"},
         .description = "the simulator under a new name (test runtime)",
         .caps = {.simulated_clock = true},
         .factory = [] { return std::make_unique<SimulatedRuntime>(); }});
  }
  auto runtime = registry.create("test_sc");
  ASSERT_NE(runtime, nullptr);
  EXPECT_EQ(runtime->name(), "sim");
  ASSERT_NE(registry.create("test_sim_clone"), nullptr);
}

}  // namespace
}  // namespace coupon::driver
