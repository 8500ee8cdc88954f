#include "data/placement.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/assert.hpp"

namespace coupon::data {

Placement::Placement(std::size_t num_examples,
                     std::vector<std::vector<std::size_t>> sets,
                     std::vector<std::size_t> set_of_worker)
    : num_examples_(num_examples),
      sets_(std::move(sets)),
      set_of_worker_(std::move(set_of_worker)) {
  for (std::size_t s : set_of_worker_) {
    COUPON_ASSERT_MSG(s < sets_.size(), "set " << s << " of " << sets_.size());
  }
}

Placement::Placement(std::size_t num_examples,
                     std::vector<std::vector<std::size_t>> per_worker)
    : num_examples_(num_examples),
      sets_(std::move(per_worker)),
      set_of_worker_(sets_.size()) {
  std::iota(set_of_worker_.begin(), set_of_worker_.end(), std::size_t{0});
}

std::size_t Placement::computational_load() const {
  std::size_t r = 0;
  for (std::size_t s : set_of_worker_) {
    r = std::max(r, sets_[s].size());
  }
  return r;
}

std::size_t Placement::total_assigned() const {
  std::size_t total = 0;
  for (std::size_t s : set_of_worker_) {
    total += sets_[s].size();
  }
  return total;
}

bool Placement::covers_all_examples() const {
  const auto mult = example_multiplicities();
  return std::all_of(mult.begin(), mult.end(),
                     [](std::size_t k) { return k > 0; });
}

std::vector<std::size_t> Placement::example_multiplicities() const {
  std::vector<std::size_t> holders(sets_.size(), 0);
  for (std::size_t s : set_of_worker_) {
    ++holders[s];
  }
  std::vector<std::size_t> mult(num_examples_, 0);
  for (std::size_t s = 0; s < sets_.size(); ++s) {
    for (std::size_t j : sets_[s]) {
      COUPON_ASSERT(j < num_examples_);
      mult[j] += holders[s];
    }
  }
  return mult;
}

}  // namespace coupon::data
