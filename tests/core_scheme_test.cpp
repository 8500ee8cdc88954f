// Scheme-interface conformance tests, parameterized over all five built-in
// schemes: placement validity, encode/meta consistency, collector
// semantics, and exact end-to-end decode against the serial gradient.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <numeric>
#include <set>

#include "core/core.hpp"
#include "data/synthetic.hpp"
#include "linalg/vector_ops.hpp"
#include "opt/logistic.hpp"
#include "stats/rng.hpp"

namespace coupon::core {
namespace {

constexpr std::size_t kWorkers = 12;
constexpr std::size_t kUnits = 12;
constexpr std::size_t kLoad = 3;  // divides kWorkers (FR needs r | n)
constexpr std::size_t kFeatures = 7;

struct Fixture {
  data::SyntheticProblem problem;
  std::unique_ptr<PerExampleSource> source;
  std::unique_ptr<Scheme> scheme;
  std::vector<double> w;
  std::vector<double> serial_sum;  // sum of all unit gradients at w
};

Fixture make_fixture(const std::string& kind, std::uint64_t seed = 17) {
  Fixture f;
  stats::Rng rng(seed);
  data::SyntheticConfig dconf;
  dconf.num_features = kFeatures;
  f.problem = data::generate_logreg(kUnits, dconf, rng);
  f.source = std::make_unique<PerExampleSource>(f.problem.dataset);

  SchemeConfig config;
  config.num_workers = kWorkers;
  config.num_units = kUnits;
  config.load = kLoad;
  // Guarantees per-iteration BCC coverage so the conformance tests are
  // deterministic; the randomized default is exercised in core_bcc_test.
  config.bcc_seed_first_batches = true;
  f.scheme = SchemeRegistry::instance().create(kind, config, rng);

  f.w.resize(kFeatures);
  for (auto& v : f.w) {
    v = rng.normal();
  }
  f.serial_sum.assign(kFeatures, 0.0);
  std::vector<double> full(kFeatures);
  opt::logistic_gradient(f.problem.dataset, f.w, full);
  for (std::size_t c = 0; c < kFeatures; ++c) {
    f.serial_sum[c] = full[c] * static_cast<double>(kUnits);
  }
  return f;
}

class SchemeConformanceTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(SchemeConformanceTest, PlacementCoversAllUnits) {
  const auto f = make_fixture(GetParam());
  EXPECT_TRUE(f.scheme->placement().covers_all_examples());
  EXPECT_EQ(f.scheme->num_workers(), kWorkers);
  EXPECT_EQ(f.scheme->num_units(), kUnits);
}

TEST_P(SchemeConformanceTest, ComputationalLoadRespectsConfig) {
  const auto f = make_fixture(GetParam());
  // Uncoded ignores `load` (disjoint split, load = ceil(m/n) = 1 here);
  // all other schemes must realize exactly r.
  if (std::string_view(GetParam()) == "uncoded") {
    EXPECT_EQ(f.scheme->computational_load(), kUnits / kWorkers);
  } else {
    EXPECT_EQ(f.scheme->computational_load(), kLoad);
  }
}

TEST_P(SchemeConformanceTest, EncodeMetaMatchesMessageMeta) {
  const auto f = make_fixture(GetParam());
  for (std::size_t i = 0; i < kWorkers; ++i) {
    const auto msg = f.scheme->encode(i, *f.source, f.w);
    EXPECT_EQ(msg.meta, f.scheme->message_meta(i)) << "worker " << i;
    EXPECT_FALSE(msg.payload.empty());
    EXPECT_NEAR(static_cast<double>(msg.payload.size()) / kFeatures,
                f.scheme->message_units(i), 1e-12);
  }
}

TEST_P(SchemeConformanceTest, DecodedGradientEqualsSerialSum) {
  const auto f = make_fixture(GetParam());
  auto collector = f.scheme->make_collector();

  // Deliver in a shuffled order, as a real master would observe.
  stats::Rng rng(23);
  std::vector<std::size_t> order(kWorkers);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  for (std::size_t i : order) {
    if (collector->ready()) {
      break;
    }
    const auto msg = f.scheme->encode(i, *f.source, f.w);
    collector->offer(i, msg.meta, msg.payload);
  }
  ASSERT_TRUE(collector->ready());
  std::vector<double> decoded(kFeatures);
  collector->decode_sum(decoded);
  EXPECT_LT(linalg::max_abs_diff(decoded, f.serial_sum), 1e-7)
      << "scheme " << f.scheme->name();
}

TEST_P(SchemeConformanceTest, OfferAfterReadyIsIgnored) {
  const auto f = make_fixture(GetParam());
  auto collector = f.scheme->make_collector();
  for (std::size_t i = 0; i < kWorkers && !collector->ready(); ++i) {
    const auto msg = f.scheme->encode(i, *f.source, f.w);
    collector->offer(i, msg.meta, msg.payload);
  }
  ASSERT_TRUE(collector->ready());
  const std::size_t heard = collector->workers_heard();
  const double units = collector->units_received();
  const auto msg = f.scheme->encode(kWorkers - 1, *f.source, f.w);
  EXPECT_FALSE(collector->offer(kWorkers - 1, msg.meta, msg.payload));
  EXPECT_EQ(collector->workers_heard(), heard);
  EXPECT_DOUBLE_EQ(collector->units_received(), units);
}

TEST_P(SchemeConformanceTest, RecoveryThresholdNeverExceedsWorkerCount) {
  const auto f = make_fixture(GetParam());
  auto collector = f.scheme->make_collector();
  for (std::size_t i = 0; i < kWorkers && !collector->ready(); ++i) {
    collector->offer(i, f.scheme->message_meta(i), {});
  }
  EXPECT_TRUE(collector->ready());
  EXPECT_LE(collector->workers_heard(), kWorkers);
  EXPECT_GE(collector->workers_heard(), 1u);
}

TEST_P(SchemeConformanceTest, MetadataOnlyCollectionWorksWithoutPayloads) {
  // The discrete-event simulator drives collectors with empty payloads;
  // readiness must be reachable and decode must then refuse.
  const auto f = make_fixture(GetParam());
  auto collector = f.scheme->make_collector();
  for (std::size_t i = 0; i < kWorkers && !collector->ready(); ++i) {
    collector->offer(i, f.scheme->message_meta(i), {});
  }
  ASSERT_TRUE(collector->ready());
  std::vector<double> out(kFeatures);
  EXPECT_THROW(collector->decode_sum(out), AssertionError);
}

TEST_P(SchemeConformanceTest, ExpectedRecoveryThresholdIsSane) {
  const auto f = make_fixture(GetParam());
  const auto k = f.scheme->expected_recovery_threshold();
  if (k.has_value()) {
    EXPECT_GT(*k, 0.0);
    // The closed forms can exceed n (BCC's B*H_B assumes unbounded
    // draws) but never by more than the coupon-collector log factor.
    EXPECT_LE(*k, static_cast<double>(kWorkers) *
                      (1.0 + std::log(static_cast<double>(kUnits))));
  }
}

TEST_P(SchemeConformanceTest, SchemeNamesAreStable) {
  const auto f = make_fixture(GetParam());
  EXPECT_EQ(f.scheme->registry_name(), GetParam());
  EXPECT_FALSE(f.scheme->name().empty());
  // The canonical name round-trips through the registry.
  const auto* entry =
      SchemeRegistry::instance().find(f.scheme->registry_name());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, f.scheme->registry_name());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeConformanceTest,
    ::testing::Values("uncoded", "bcc", "simple_random", "cr", "fr"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      std::string name = param_info.param;
      name[0] = static_cast<char>(std::toupper(name[0]));
      const auto underscore = name.find('_');
      if (underscore != std::string::npos) {
        name.erase(underscore, 1);
        name[underscore] = static_cast<char>(std::toupper(name[underscore]));
      }
      return name;
    });

TEST(SchemeRegistryCreate, RejectsDegenerateConfigs) {
  stats::Rng rng(1);
  SchemeConfig config;  // zeros
  EXPECT_THROW(SchemeRegistry::instance().create("uncoded", config, rng),
               AssertionError);
}

TEST(SchemeRegistryCreate, CrAndFrRequireSquareSetting) {
  stats::Rng rng(1);
  SchemeConfig config;
  config.num_workers = 10;
  config.num_units = 20;  // != n
  config.load = 2;
  EXPECT_THROW(SchemeRegistry::instance().create("cr", config, rng),
               AssertionError);
  EXPECT_THROW(SchemeRegistry::instance().create("fr", config, rng),
               AssertionError);
}

TEST(SchemeRegistryCreate, GcNestedRejectsZeroLoad) {
  // r = 0 must fail the r | n check, not divide by zero inside it.
  stats::Rng rng(1);
  SchemeConfig config;
  config.num_workers = 4;
  config.num_units = 4;
  config.load = 0;
  EXPECT_THROW(SchemeRegistry::instance().create("gc_nested", config, rng),
               AssertionError);
}

TEST(Uncoded, OneSetPerWorkerAndNoEncodeGroups) {
  // Uncoded is the partition with one set per worker, tagged with the
  // worker's own index; no set is shared, so no encode group is offered.
  const auto scheme = make_uncoded(5, 7);
  EXPECT_EQ(scheme->num_sets(), 5u);
  EXPECT_EQ(scheme->num_encode_groups(), 0u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(scheme->placement().set_of_worker(i), i);
    EXPECT_EQ(scheme->message_meta(i),
              std::vector<std::int64_t>{static_cast<std::int64_t>(i)});
    EXPECT_FALSE(scheme->encode_group(i).has_value());
  }
}

TEST(SchemeNames, DisplayAndRegistryNamesDistinctAcrossBuiltins) {
  std::set<std::string> display_names, registry_names;
  stats::Rng rng(1);
  SchemeConfig config{12, 12, 3, true};
  for (const auto& name : SchemeRegistry::instance().names()) {
    auto scheme = SchemeRegistry::instance().create(name, config, rng);
    display_names.emplace(scheme->name());
    registry_names.emplace(scheme->registry_name());
  }
  EXPECT_EQ(display_names.size(), SchemeRegistry::instance().names().size());
  EXPECT_EQ(registry_names.size(), SchemeRegistry::instance().names().size());
}

}  // namespace
}  // namespace coupon::core
