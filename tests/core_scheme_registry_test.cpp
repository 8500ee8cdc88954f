// Tests for the open scheme registry: built-in coverage, alias lookup,
// duplicate rejection, unknown-name diagnostics, and the single-call
// extension contract.

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/partition_scheme.hpp"
#include "core/scheme_registry.hpp"
#include "stats/rng.hpp"

namespace coupon::core {
namespace {

SchemeConfig small_config(std::size_t n = 8, std::size_t m = 8,
                          std::size_t r = 2) {
  SchemeConfig config;
  config.num_workers = n;
  config.num_units = m;
  config.load = r;
  return config;
}

TEST(SchemeRegistry, BuiltinsRegisteredInPresentationOrder) {
  const auto names = SchemeRegistry::instance().names();
  const std::vector<std::string> expected = {"uncoded", "fr", "cr", "bcc",
                                             "simple_random"};
  ASSERT_GE(names.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(names[i], expected[i]);
  }
  EXPECT_EQ(SchemeRegistry::instance().choices().substr(0, 13), "uncoded|fr|cr");
}

TEST(SchemeRegistry, EveryBuiltinIsConstructible) {
  for (const auto& name : {"uncoded", "fr", "cr", "bcc", "simple_random"}) {
    stats::Rng rng(7);
    auto scheme =
        SchemeRegistry::instance().create(name, small_config(), rng);
    ASSERT_NE(scheme, nullptr) << name;
    EXPECT_EQ(scheme->num_workers(), 8u);
  }
}

TEST(SchemeRegistry, AliasLookupFindsCanonicalEntry) {
  const auto& registry = SchemeRegistry::instance();
  const SchemeEntry* by_alias = registry.find("batched_coupon_collection");
  ASSERT_NE(by_alias, nullptr);
  EXPECT_EQ(by_alias->name, "bcc");
  EXPECT_EQ(registry.find("srs"), registry.find("simple_random"));
  EXPECT_EQ(registry.find("cyclic_repetition"), registry.find("cr"));
  EXPECT_EQ(registry.find("fractional_repetition"), registry.find("fr"));
  // Lookups are case-sensitive and exact.
  EXPECT_EQ(registry.find("BCC"), nullptr);
  EXPECT_EQ(registry.find(""), nullptr);
  EXPECT_EQ(registry.find("bogus"), nullptr);
}

TEST(SchemeRegistry, UnknownNameDiagnosticListsValidChoices) {
  stats::Rng rng(1);
  try {
    SchemeRegistry::instance().create("bogus", small_config(), rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("bogus"), std::string::npos);
    EXPECT_NE(message.find("choices"), std::string::npos);
    EXPECT_NE(message.find("uncoded"), std::string::npos);
    EXPECT_NE(message.find("bcc"), std::string::npos);
  }
}

TEST(SchemeRegistry, UnknownNameDiagnosticSuggestsNearestScheme) {
  const std::string message =
      SchemeRegistry::instance().unknown_message("bfc");
  EXPECT_NE(message.find("did you mean 'bcc'?"), std::string::npos)
      << message;
  // A name far from every registered scheme gets no suggestion.
  const std::string far = SchemeRegistry::instance().unknown_message("zzzzz");
  EXPECT_EQ(far.find("did you mean"), std::string::npos) << far;
}

TEST(SchemeRegistry, DuplicateNamesAndAliasesRejected) {
  auto& registry = SchemeRegistry::instance();
  SchemeEntry entry;
  entry.factory = [](const SchemeConfig& c, stats::Rng&) {
    return make_uncoded(c.num_workers, c.num_units);
  };

  entry.name = "bcc";  // canonical-name collision
  EXPECT_THROW(registry.add(entry), std::invalid_argument);

  entry.name = "srs";  // collides with an existing alias
  EXPECT_THROW(registry.add(entry), std::invalid_argument);

  entry.name = "fresh_name";
  entry.aliases = {"uncoded"};  // alias collides with a canonical name
  EXPECT_THROW(registry.add(entry), std::invalid_argument);

  entry.aliases = {};
  entry.name = "";  // unnamed
  EXPECT_THROW(registry.add(entry), std::invalid_argument);

  entry.name = "fresh_name";
  entry.factory = nullptr;  // no factory
  EXPECT_THROW(registry.add(entry), std::invalid_argument);
}

TEST(SchemeRegistry, CapabilityFlagsMatchTheSchemes) {
  const auto& registry = SchemeRegistry::instance();
  EXPECT_TRUE(registry.find("bcc")->caps.supports_partial_decode);
  EXPECT_TRUE(registry.find("uncoded")->caps.supports_partial_decode);
  EXPECT_TRUE(registry.find("fr")->caps.supports_partial_decode);
  EXPECT_FALSE(registry.find("cr")->caps.supports_partial_decode);
  EXPECT_TRUE(registry.find("cr")->caps.requires_units_equal_workers);
  EXPECT_TRUE(registry.find("fr")->caps.requires_load_divides_workers);
  EXPECT_FALSE(registry.find("bcc")->caps.requires_units_equal_workers);

  // The capability flag agrees with what the collectors actually do.
  for (const auto& name : registry.names()) {
    const SchemeEntry* entry = registry.find(name);
    stats::Rng rng(3);
    auto scheme = registry.create(name, small_config(), rng);
    EXPECT_EQ(scheme->make_collector()->supports_partial_decode(),
              entry->caps.supports_partial_decode)
        << name;
  }
}

TEST(SchemeRegistry, SingleRegistrationCallAddsARunnableScheme) {
  // The extension contract: one registration call (no enum/switch/name
  // table edits) and the scheme is creatable by name like any built-in.
  auto& registry = SchemeRegistry::instance();
  if (registry.find("test_uncoded_clone") == nullptr) {
    SchemeRegistration registration(
        {.name = "test_uncoded_clone",
         .aliases = {"test_uc"},
         .description = "uncoded under a new name (test scheme)",
         .caps = {.supports_partial_decode = true},
         .factory = [](const SchemeConfig& c, stats::Rng&) {
           return make_uncoded(c.num_workers, c.num_units);
         }});
  }
  stats::Rng rng(5);
  auto scheme = registry.create("test_uc", small_config(4, 6, 1), rng);
  ASSERT_NE(scheme, nullptr);
  EXPECT_EQ(scheme->registry_name(), "uncoded");
  EXPECT_EQ(scheme->num_units(), 6u);
}

TEST(SchemeRegistry, RegistryNamesRoundTripThroughTheSchemes) {
  // Every built-in instance reports the canonical name it was created
  // under, so records and diagnostics can always map back to the entry.
  for (const auto& name : SchemeRegistry::instance().names()) {
    stats::Rng rng(11);
    auto scheme = SchemeRegistry::instance().create(name, small_config(), rng);
    EXPECT_EQ(scheme->registry_name(), name);
    const SchemeEntry* entry =
        SchemeRegistry::instance().find(scheme->registry_name());
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->name, name);
  }
}

TEST(SchemeRegistry, SameSeedSameDraws) {
  // Creating the same scheme twice from the same seed builds the same
  // placement (the factory draws all randomness from the passed rng).
  stats::Rng rng_a(11);
  stats::Rng rng_b(11);
  const auto config = small_config(10, 10, 3);
  auto first = SchemeRegistry::instance().create("bcc", config, rng_a);
  auto second = SchemeRegistry::instance().create("bcc", config, rng_b);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->registry_name(), second->registry_name());
  for (std::size_t w = 0; w < 10; ++w) {
    EXPECT_EQ(first->message_meta(w), second->message_meta(w)) << w;
  }
}

}  // namespace
}  // namespace coupon::core
