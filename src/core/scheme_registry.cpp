#include "core/scheme_registry.hpp"

#include <stdexcept>
#include <utility>

#include "core/cyclic_repetition.hpp"
#include "core/gc_cyclic.hpp"
#include "core/gc_nested.hpp"
#include "core/partition_scheme.hpp"
#include "core/sgc.hpp"
#include "core/simple_random.hpp"
#include "util/assert.hpp"
#include "util/names.hpp"

namespace coupon::core {

SchemeRegistry& SchemeRegistry::instance() {
  static SchemeRegistry registry;
  return registry;
}

SchemeRegistry::SchemeRegistry() {
  // Built-ins, in the presentation order the CLI help has always used.
  add({.name = "uncoded",
       .aliases = {},
       .description =
           "every worker computes all m units; master waits for anyone "
           "(wait-for-all baseline, K = n)",
       .caps = {.supports_partial_decode = true},
       .factory = [](const SchemeConfig& c, stats::Rng&) {
         return make_uncoded(c.num_workers, c.num_units);
       }});
  add({.name = "fr",
       .aliases = {"fractional_repetition"},
       .description =
           "fractional repetition (Tandon et al.): n/r disjoint blocks of "
           "r workers each; requires m == n and r | n",
       .caps = {.supports_partial_decode = true,
                .requires_units_equal_workers = true,
                .requires_load_divides_workers = true},
       .factory = [](const SchemeConfig& c, stats::Rng&) {
         COUPON_ASSERT_MSG(c.num_units == c.num_workers,
                           "FR requires m == n (use super-examples)");
         return make_fractional_repetition(c.num_workers, c.load);
       }});
  add({.name = "cr",
       .aliases = {"cyclic_repetition"},
       .description =
           "cyclic repetition (Tandon et al.): MDS-coded cyclic placement, "
           "tolerates any r-1 stragglers; requires m == n, no partial decode",
       .caps = {.requires_units_equal_workers = true},
       .factory = [](const SchemeConfig& c, stats::Rng& rng) {
         COUPON_ASSERT_MSG(c.num_units == c.num_workers,
                           "CR requires m == n (use super-examples)");
         return std::make_unique<CyclicRepetitionScheme>(c.num_workers, c.load,
                                                         rng);
       }});
  add({.name = "bcc",
       .aliases = {"batched_coupon_collection"},
       .description =
           "batched coupon collection (this paper): random batch per "
           "worker, near-optimal K ~ (m/r) log(m/r)",
       .caps = {.supports_partial_decode = true},
       .factory = [](const SchemeConfig& c, stats::Rng& rng) {
         return make_bcc(c.num_workers, c.num_units, c.load,
                         c.bcc_seed_first_batches, rng);
       }});
  add({.name = "simple_random",
       .aliases = {"srs"},
       .description =
           "simple randomized: r units drawn uniformly per worker, "
           "near-optimal K but r-unit messages",
       .caps = {.supports_partial_decode = true},
       .factory = [](const SchemeConfig& c, stats::Rng& rng) {
         return std::make_unique<SimpleRandomScheme>(c.num_workers,
                                                     c.num_units, c.load, rng);
       }});
  add({.name = "gc_cyclic",
       .aliases = {"gradient_coding", "gc"},
       .description =
           "exact gradient coding (Tandon et al. 1612.03301): systematic "
           "cyclic placement, any r-1 stragglers, bitwise-exact decode; "
           "requires m == n, r-unit messages",
       .caps = {.supports_partial_decode = true,
                .requires_units_equal_workers = true},
       .factory = [](const SchemeConfig& c, stats::Rng&) {
         COUPON_ASSERT_MSG(c.num_units == c.num_workers,
                           "gc_cyclic requires m == n (use super-examples)");
         return std::make_unique<GcCyclicScheme>(c.num_workers, c.load);
       }});
  add({.name = "sgc",
       .aliases = {"stochastic_gradient_coding"},
       .description =
           "stochastic gradient coding (Bitar et al. 1905.05383): balanced "
           "random r-redundancy, unbiased approximate decode from the first "
           "n-r+1 workers; requires m == n",
       .caps = {.supports_partial_decode = true,
                .requires_units_equal_workers = true,
                .approximate_recovery = true},
       .factory = [](const SchemeConfig& c, stats::Rng& rng) {
         COUPON_ASSERT_MSG(c.num_units == c.num_workers,
                           "sgc requires m == n (use super-examples)");
         return std::make_unique<SgcScheme>(c.num_workers, c.load, rng);
       }});
  add({.name = "gc_nested",
       .aliases = {"nested_gradient_coding"},
       .description =
           "nested gradient codes (2212.08580): divisor ladder of window "
           "sums, decodes at the cheapest level the realized stragglers "
           "allow; requires m == n and r | n",
       .caps = {.requires_units_equal_workers = true,
                .requires_load_divides_workers = true},
       .factory = [](const SchemeConfig& c, stats::Rng&) {
         COUPON_ASSERT_MSG(c.num_units == c.num_workers,
                           "gc_nested requires m == n (use super-examples)");
         COUPON_ASSERT_MSG(c.load >= 1 && c.num_workers % c.load == 0,
                           "gc_nested requires r >= 1 and r | n");
         return std::make_unique<GcNestedScheme>(c.num_workers, c.load);
       }});
}

void SchemeRegistry::add(SchemeEntry entry) {
  if (entry.name.empty()) {
    throw std::invalid_argument("scheme registration requires a name");
  }
  if (!entry.factory) {
    throw std::invalid_argument("scheme '" + entry.name +
                                "' registered without a factory");
  }
  auto taken = [this](const std::string& spelling) {
    if (find(spelling) != nullptr) {
      throw std::invalid_argument("scheme name '" + spelling +
                                  "' is already registered");
    }
  };
  taken(entry.name);
  for (const auto& alias : entry.aliases) {
    taken(alias);
  }
  entries_.push_back(std::move(entry));
}

const SchemeEntry* SchemeRegistry::find(
    std::string_view name_or_alias) const {
  for (const auto& entry : entries_) {
    if (entry.name == name_or_alias) {
      return &entry;
    }
    for (const auto& alias : entry.aliases) {
      if (alias == name_or_alias) {
        return &entry;
      }
    }
  }
  return nullptr;
}

std::unique_ptr<Scheme> SchemeRegistry::create(std::string_view name_or_alias,
                                               const SchemeConfig& config,
                                               stats::Rng& rng) const {
  const SchemeEntry* entry = find(name_or_alias);
  if (entry == nullptr) {
    throw std::invalid_argument(unknown_message(name_or_alias));
  }
  COUPON_ASSERT_MSG(config.num_workers > 0 && config.num_units > 0,
                    "n=" << config.num_workers << " m=" << config.num_units);
  return entry->factory(config, rng);
}

std::vector<std::string> SchemeRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    out.push_back(entry.name);
  }
  return out;
}

std::string SchemeRegistry::choices() const { return join_names(names()); }

std::string SchemeRegistry::unknown_message(std::string_view name) const {
  return unknown_name_message("scheme", name, names());
}

}  // namespace coupon::core
