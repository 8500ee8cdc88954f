#include "driver/sweep.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "driver/driver.hpp"
#include "driver/runtime_registry.hpp"
#include "driver/workload.hpp"
#include "util/thread_pool.hpp"

namespace coupon::driver {

namespace {

template <typename T>
std::vector<T> axis_or(const std::vector<T>& axis, T base_value) {
  return axis.empty() ? std::vector<T>{base_value} : axis;
}

/// The sweep's tasks, in the order they are run or submitted. Training
/// cells with one `workload_key` form a group; groups follow their first
/// cells (problem-major order), and each is dealt round-robin into the
/// fewest runs of at most `max_run` cells (R runs: run j takes the
/// group's cells j, j + R, ...), so a sweep in which many cells name one
/// problem still spreads over the pool. Neighbouring cells are usually
/// one scheme's and cost alike; blocks of them left one run with all of
/// the dearest scheme's cells (DESIGN.md §7.5). Cells that train nothing
/// stay one per task.
std::vector<std::vector<std::size_t>> plan_tasks(
    const std::vector<SweepCell>& cells, const RuntimeCapabilities& caps,
    std::size_t max_run) {
  std::vector<std::vector<std::size_t>> groups;
  std::map<WorkloadKey, std::size_t> group_of_key;
  for (const SweepCell& cell : cells) {
    if (!trains(cell.config, caps)) {
      groups.push_back({cell.index});
      continue;
    }
    const auto [slot, fresh] =
        group_of_key.try_emplace(workload_key(cell.config), groups.size());
    if (fresh) {
      groups.emplace_back();
    }
    groups[slot->second].push_back(cell.index);
  }
  std::vector<std::vector<std::size_t>> tasks;
  for (const auto& group : groups) {
    const std::size_t runs = (group.size() + max_run - 1) / max_run;
    for (std::size_t first = 0; first < runs; ++first) {
      std::vector<std::size_t>& task = tasks.emplace_back();
      for (std::size_t k = first; k < group.size(); k += runs) {
        task.push_back(group[k]);
      }
    }
  }
  return tasks;
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

  // expand_plan has checked the runtime name, which is not an axis, so
  // the lookup cannot fail. A runtime that forks workers runs serially on
  // this thread, whatever options.threads says (SweepOptions::threads
  // gives the reason).
  const RuntimeEntry& runtime =
      *RuntimeRegistry::instance().find(plan.base.runtime);
  std::size_t threads = options.threads != 0
                            ? options.threads
                            : std::max(1u, std::thread::hardware_concurrency());
  if (runtime.caps.spawns_processes) {
    threads = 1;
  }
  threads = std::min(threads, std::max<std::size_t>(1, cells.size()));
  const std::vector<std::vector<std::size_t>> tasks =
      plan_tasks(cells, runtime.caps, (cells.size() + threads - 1) / threads);

  // Finished records are published under the mutex; the emission cursor
  // advances through the slots in cell order, so the sink sees exactly
  // the cell order whichever task finishes first and in whatever order
  // the tasks visit the cells.
  std::mutex mutex;
  std::size_t cursor = 0;
  const auto publish = [&](std::size_t i, std::optional<RunRecord> record,
                           std::exception_ptr error) {
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
  };

  // One task: the first cell that trains draws the task's workload, and
  // every cell runs on it; each cell is caught and published on its own.
  // (A draw that throws fails its cell only, and the next cell draws
  // again, as a standalone run would.)
  const auto run_task = [&](const std::vector<std::size_t>& task) {
    std::unique_ptr<const TrainingWorkload> workload;
    for (const std::size_t i : task) {
      const ExperimentConfig& config = cells[i].config;
      std::optional<RunRecord> record;
      std::exception_ptr error;
      try {
        if (workload == nullptr && trains(config, runtime.caps)) {
          workload = draw_workload(config);
        }
        record = runtime.factory()->run(config, workload.get());
      } catch (...) {
        error = std::current_exception();
      }
      publish(i, std::move(record), error);
    }
  };

  // The serial path runs the same tasks in the same order on this
  // thread; it is the reference the pool's output must be bit-identical
  // to.
  if (threads == 1) {
    for (const auto& task : tasks) {
      run_task(task);
    }
  } else {
    ThreadPool pool(std::min(threads, tasks.size()));
    std::vector<std::future<void>> futures;
    futures.reserve(tasks.size());
    for (const auto& task : tasks) {
      futures.push_back(pool.submit([&run_task, &task] { run_task(task); }));
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
