#include "driver/sweep.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

#include "driver/driver.hpp"
#include "driver/runtime_registry.hpp"
#include "util/thread_pool.hpp"

namespace coupon::driver {

namespace {

template <typename T>
std::vector<T> axis_or(const std::vector<T>& axis, T base_value) {
  return axis.empty() ? std::vector<T>{base_value} : axis;
}

}  // namespace

std::vector<SweepCell> expand_plan(const SweepPlan& plan) {
  const auto schemes = axis_or(plan.schemes, plan.base.scheme);
  const auto scenarios = axis_or(plan.scenarios, plan.base.scenario);
  const auto workers = axis_or(plan.workers, plan.base.num_workers);
  const auto loads = axis_or(plan.loads, plan.base.load);
  const auto iterations = axis_or(plan.iterations, plan.base.iterations);
  const auto seeds = axis_or(plan.seeds, plan.base.seed);

  // Every cell passes check_scheme_shape (unknown scheme names
  // included) and check_runnable before a single cell runs, so a sweep
  // cannot burn half its cells before discovering a bad combination.
  std::vector<SweepCell> cells;
  for (const auto& scheme : schemes) {
    for (const auto& scenario : scenarios) {
      for (std::size_t n : workers) {
        // Empty units axis: m tracks n (the m == n shape every paper
        // scenario and the CR/FR placement constraint use).
        const auto units = axis_or(plan.units, n);
        for (std::size_t m : units) {
          for (std::size_t r : loads) {
            for (std::size_t iters : iterations) {
              for (std::uint64_t seed : seeds) {
                SweepCell cell;
                cell.index = cells.size();
                cell.config = plan.base;
                cell.config.scheme = scheme;
                cell.config.scenario = scenario;
                cell.config.num_workers = n;
                cell.config.num_units = m;
                cell.config.load = r;
                cell.config.iterations = iters;
                cell.config.seed = seed;
                check_scheme_shape(cell.config);
                check_runnable(cell.config);
                cells.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

std::vector<RunRecord> run_sweep(const SweepPlan& plan,
                                 const SweepOptions& options) {
  const std::vector<SweepCell> cells = expand_plan(plan);

  // One slot per cell, filled by exactly one task; a failing cell marks
  // only its own slot, so every other cell still finishes and streams.
  std::vector<std::optional<RunRecord>> slots(cells.size());
  std::vector<std::exception_ptr> errors(cells.size());

  // A runtime that forks workers runs serially on this thread, whatever
  // options.threads says (SweepOptions::threads gives the reason).
  // expand_plan has checked the runtime name, which is not an axis, so
  // the lookup cannot fail.
  const bool forks = RuntimeRegistry::instance()
                         .find(plan.base.runtime)
                         ->caps.spawns_processes;

  // Serial path: run in cell order, stream as we go. This is also the
  // reference the parallel path's output must be bit-identical to.
  if (options.threads == 1 || forks) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      try {
        slots[i] = run_experiment(cells[i].config);
        if (options.sink != nullptr) {
          options.sink->write(*slots[i]);
        }
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  } else {
    std::size_t threads = options.threads != 0
                              ? options.threads
                              : std::max(1u, std::thread::hardware_concurrency());
    threads = std::min(threads, std::max<std::size_t>(1, cells.size()));
    ThreadPool pool(threads);

    // Finished records are published under the mutex; the emission cursor
    // advances through the slots in cell order, so the sink sees exactly
    // the serial order no matter which worker finishes first.
    std::mutex mutex;
    std::size_t cursor = 0;
    std::vector<std::future<void>> futures;
    futures.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      futures.push_back(pool.submit([&, i] {
        std::optional<RunRecord> record;
        std::exception_ptr error;
        try {
          record = run_experiment(cells[i].config);
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mutex);
        slots[i] = std::move(record);
        errors[i] = error;
        while (cursor < slots.size() &&
               (slots[cursor].has_value() || errors[cursor] != nullptr)) {
          if (options.sink != nullptr && slots[cursor].has_value()) {
            options.sink->write(*slots[cursor]);
          }
          ++cursor;
        }
      }));
    }
    for (auto& future : futures) {
      future.get();
    }
  }

  // Rethrow the first failure by cell order (after every cell finished,
  // so a long sweep is never half-torn-down under the caller).
  for (const auto& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }

  std::vector<RunRecord> records;
  records.reserve(cells.size());
  for (auto& slot : slots) {
    records.push_back(std::move(*slot));
  }
  return records;
}

}  // namespace coupon::driver
