#include "driver/record.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace coupon::driver {

namespace {

/// Shortest round-trippable decimal rendering for JSON numbers.
std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string optional_field(const std::optional<double>& value, int digits) {
  return value ? format_double(*value, digits) : std::string();
}

}  // namespace

const std::vector<std::string>& trace_csv_header() {
  static const std::vector<std::string> header = {
      "scheme",        "scenario",       "runtime",
      "iteration",     "total_time",     "compute_time",
      "comm_time",     "workers_heard",  "units_received",
      "recovered"};
  return header;
}

const std::vector<std::string>& summary_csv_header() {
  static const std::vector<std::string> header = {
      "scheme",        "scenario",
      "runtime",       "workers",
      "units",         "load",
      "iterations",    "seed",
      "recovery_threshold", "comm_time",
      "compute_time",  "total_time",
      "mean_units",    "failures",
      "partial_iterations", "final_loss",
      "train_accuracy", "time_to_target"};
  return header;
}

void CsvTraceSink::write(const RunRecord& record) {
  CsvWriter csv(os_);
  if (!header_written_) {
    csv.row(trace_csv_header());
    header_written_ = true;
  }
  for (std::size_t t = 0; t < record.trace.size(); ++t) {
    const auto& it = record.trace[t];
    csv.row({record.scheme, record.scenario, record.runtime,
             std::to_string(t), format_double(it.total_time, 9),
             format_double(it.compute_time, 9),
             format_double(it.comm_time, 9),
             std::to_string(it.workers_heard),
             format_double(it.units_received, 3), it.recovered ? "1" : "0"});
  }
}

void CsvSummarySink::write(const RunRecord& record) {
  CsvWriter csv(os_);
  if (!header_written_) {
    csv.row(summary_csv_header());
    header_written_ = true;
  }
  csv.row({record.scheme, record.scenario, record.runtime,
           std::to_string(record.num_workers),
           std::to_string(record.num_units), std::to_string(record.load),
           std::to_string(record.iterations), std::to_string(record.seed),
           format_double(record.recovery_threshold, 3),
           format_double(record.comm_time, 6),
           format_double(record.compute_time, 6),
           format_double(record.total_time, 6),
           format_double(record.mean_units, 3),
           std::to_string(record.failures),
           std::to_string(record.partial_iterations),
           optional_field(record.final_loss, 6),
           optional_field(record.train_accuracy, 4),
           optional_field(record.time_to_target, 6)});
}

void JsonlSink::write(const RunRecord& record) {
  os_ << "{\"scheme\":\"" << json_escape(record.scheme) << "\""
      << ",\"scenario\":\"" << json_escape(record.scenario) << "\""
      << ",\"runtime\":\"" << json_escape(record.runtime) << "\""
      << ",\"workers\":" << record.num_workers
      << ",\"units\":" << record.num_units << ",\"load\":" << record.load
      << ",\"iterations\":" << record.iterations
      << ",\"seed\":" << record.seed
      << ",\"recovery_threshold\":" << json_number(record.recovery_threshold)
      << ",\"comm_time\":" << json_number(record.comm_time)
      << ",\"compute_time\":" << json_number(record.compute_time)
      << ",\"total_time\":" << json_number(record.total_time)
      << ",\"mean_units\":" << json_number(record.mean_units)
      << ",\"failures\":" << record.failures
      << ",\"partial_iterations\":" << record.partial_iterations
      << ",\"final_loss\":"
      << (record.final_loss ? json_number(*record.final_loss) : "null")
      << ",\"train_accuracy\":"
      << (record.train_accuracy ? json_number(*record.train_accuracy)
                                : "null");
  // Convergence fields are emitted only for training records, keeping
  // timing-only JSONL (and the pinned golden traces) byte-identical to
  // the pre-engine schema.
  if (record.final_loss) {
    os_ << ",\"iterations_run\":" << record.iterations_run;
  }
  if (record.time_to_target) {
    os_ << ",\"time_to_target\":" << json_number(*record.time_to_target);
  }
  if (record.workers_lost > 0) {
    os_ << ",\"workers_lost\":" << record.workers_lost;
  }
  if (record.approximate_recovery) {
    os_ << ",\"approximate_recovery\":true"
        << ",\"approximate_iterations\":" << record.approximate_iterations;
  }
  if (!record.loss_history.empty()) {
    os_ << ",\"loss_history\":[";
    for (std::size_t i = 0; i < record.loss_history.size(); ++i) {
      const auto& point = record.loss_history[i];
      os_ << (i == 0 ? "" : ",") << "{\"seconds\":"
          << json_number(point.seconds)
          << ",\"loss\":" << json_number(point.loss) << "}";
    }
    os_ << "]";
  }
  if (include_trace_) {
    os_ << ",\"trace\":[";
    for (std::size_t t = 0; t < record.trace.size(); ++t) {
      const auto& it = record.trace[t];
      os_ << (t == 0 ? "" : ",") << "{\"iteration\":" << t
          << ",\"total_time\":" << json_number(it.total_time)
          << ",\"compute_time\":" << json_number(it.compute_time)
          << ",\"comm_time\":" << json_number(it.comm_time)
          << ",\"workers_heard\":" << it.workers_heard
          << ",\"units_received\":" << json_number(it.units_received)
          << ",\"recovered\":" << (it.recovered ? "true" : "false") << "}";
    }
    os_ << "]";
  }
  os_ << "}\n";
}

bool with_output_stream(const std::string& path,
                        const std::function<void(std::ostream&)>& body) {
  if (path == "-") {
    body(std::cout);
    std::cout.flush();
    if (!std::cout) {
      std::fprintf(stderr, "error writing to stdout\n");
      return false;
    }
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  body(out);
  out.close();  // flush and surface truncated writes (e.g. full disk)
  if (!out) {
    std::fprintf(stderr, "error writing '%s'\n", path.c_str());
    return false;
  }
  return true;
}

bool write_records_to_path(const std::string& path,
                           const std::vector<RunRecord>& records,
                           RecordFormat format) {
  return with_output_stream(path, [&](std::ostream& os) {
    std::unique_ptr<RecordSink> sink;
    switch (format) {
      case RecordFormat::kTraceCsv:
        sink = std::make_unique<CsvTraceSink>(os);
        break;
      case RecordFormat::kSummaryCsv:
        sink = std::make_unique<CsvSummarySink>(os);
        break;
      case RecordFormat::kJsonl:
        sink = std::make_unique<JsonlSink>(os);
        break;
    }
    for (const auto& record : records) {
      sink->write(record);
    }
  });
}

}  // namespace coupon::driver
