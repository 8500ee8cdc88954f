#pragma once

/// \file record.hpp
/// The typed result of one experiment run (`RunRecord`) and the sink
/// layer that renders records to CSV / JSONL (DESIGN.md §4).
///
/// Every `Runtime` implementation returns the same record type: run
/// identity, per-iteration traces (simulated runtime), a Table I/II-style
/// summary, and optional model-quality fields (threaded runtime). Output
/// formatting lives entirely in `RecordSink` implementations, so new
/// formats plug in without touching the runtimes, and `SweepPlan` can
/// stream results to several sinks at once in deterministic cell order.

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "engine/types.hpp"
#include "simulate/iteration_report.hpp"

namespace coupon::driver {

/// One finished (scheme, scenario, runtime) run.
struct RunRecord {
  // Identity: the fully-resolved cell this record came from.
  std::string scheme;    ///< registry name, e.g. "bcc"
  std::string scenario;  ///< scenario name, e.g. "shifted_exp"
  std::string runtime;   ///< runtime name, e.g. "sim"
  std::size_t num_workers = 0;
  std::size_t num_units = 0;
  std::size_t load = 0;
  std::size_t iterations = 0;
  std::uint64_t seed = 0;

  /// Human-readable scheme name ("BCC") for table rendering.
  std::string scheme_display;

  /// Per-iteration latency trace. Populated by the simulated runtime;
  /// empty for the threaded runtime (wall-clock phases per iteration are
  /// not separable there).
  std::vector<simulate::IterationReport> trace;

  // Summary (Table I/II breakdown).
  double recovery_threshold = 0.0;  ///< mean workers heard per iteration
  double comm_time = 0.0;           ///< total over the run, seconds
  double compute_time = 0.0;        ///< total over the run, seconds
  double total_time = 0.0;          ///< total running time, seconds
  double mean_units = 0.0;          ///< mean communication load L
  std::size_t failures = 0;         ///< unrecovered iterations
  std::size_t partial_iterations = 0;  ///< partial-decode updates applied

  // Model quality — training runs only (threaded runtime, or the
  // simulated runtime with `ExperimentConfig::train`).
  std::optional<double> final_loss;
  std::optional<double> train_accuracy;

  // Convergence — training runs only. Rendered by the sinks only when
  // present, so timing-only output (and the pinned golden traces) is
  // byte-identical to the pre-engine schema.
  std::optional<double> time_to_target;  ///< seconds to reach target_loss
  std::size_t iterations_run = 0;        ///< < iterations on stop_at_target
  std::vector<engine::LossPoint> loss_history;  ///< opt-in (seconds, loss)

  /// Workers that died mid-run (socket EOF / broken pipe) — process
  /// runtime only. JSONL-only field: emitted when > 0, so timing-only
  /// output and the pinned golden traces stay byte-identical.
  std::size_t workers_lost = 0;

  /// The scheme's decode is a stochastic estimate (SchemeCapabilities::
  /// approximate_recovery — SGC). JSONL-only field, emitted when true:
  /// analysis code must not expect bitwise reproducibility of losses
  /// against exact-recovery baselines, and existing goldens (all exact
  /// schemes) stay byte-identical.
  bool approximate_recovery = false;
  /// Training iterations whose applied update came from an approximate
  /// decode; emitted alongside approximate_recovery for training runs.
  std::size_t approximate_iterations = 0;
};

/// Consumes finished records in deterministic order. `write` is always
/// called from one thread at a time (run_sweep serializes emission), in
/// sweep-cell order regardless of which worker finished first.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void write(const RunRecord& record) = 0;
};

/// Column names of the per-iteration trace CSV: scheme,scenario,runtime,
/// iteration,total_time,compute_time,comm_time,workers_heard,
/// units_received,recovered.
const std::vector<std::string>& trace_csv_header();

/// Column names of the one-row-per-record summary CSV.
const std::vector<std::string>& summary_csv_header();

/// Per-iteration CSV rows (header emitted once, on the first record).
/// Records without a trace (threaded runtime) contribute no rows.
class CsvTraceSink final : public RecordSink {
 public:
  explicit CsvTraceSink(std::ostream& os) : os_(os) {}
  void write(const RunRecord& record) override;

 private:
  std::ostream& os_;
  bool header_written_ = false;
};

/// One summary CSV row per record (final_loss/train_accuracy blank for
/// runs without model quality).
class CsvSummarySink final : public RecordSink {
 public:
  explicit CsvSummarySink(std::ostream& os) : os_(os) {}
  void write(const RunRecord& record) override;

 private:
  std::ostream& os_;
  bool header_written_ = false;
};

/// One JSON object per line per record. With `include_trace`, the object
/// carries the full per-iteration trace as a nested array.
class JsonlSink final : public RecordSink {
 public:
  explicit JsonlSink(std::ostream& os, bool include_trace = false)
      : os_(os), include_trace_(include_trace) {}
  void write(const RunRecord& record) override;

 private:
  std::ostream& os_;
  bool include_trace_;
};

/// Fans one record stream out to several sinks (e.g. CSV + JSONL).
class TeeSink final : public RecordSink {
 public:
  explicit TeeSink(std::vector<RecordSink*> sinks)
      : sinks_(std::move(sinks)) {}
  void write(const RunRecord& record) override {
    for (RecordSink* sink : sinks_) {
      sink->write(record);
    }
  }

 private:
  std::vector<RecordSink*> sinks_;
};

/// Opens `path` ("-" = stdout), runs `body(os)`, and flushes; returns
/// false with a diagnostic on stderr when the file cannot be opened or a
/// write fails (e.g. full disk). The shared open-or-diagnose contract of
/// every CSV/JSONL-emitting tool and bench.
bool with_output_stream(const std::string& path,
                        const std::function<void(std::ostream&)>& body);

/// Convenience: renders all `records` through a fresh sink of the given
/// kind at `path` via `with_output_stream`.
enum class RecordFormat { kTraceCsv, kSummaryCsv, kJsonl };
bool write_records_to_path(const std::string& path,
                           const std::vector<RunRecord>& records,
                           RecordFormat format);

}  // namespace coupon::driver
