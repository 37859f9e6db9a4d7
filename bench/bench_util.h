// Shared helpers for the figure-reproduction benchmarks.
#ifndef SQUEEZY_BENCH_BENCH_UTIL_H_
#define SQUEEZY_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace squeezy {

// THE one sanctioned wall-clock in the tree (tools/determinism_lint.py
// allowlists exactly this file): benches time their own execution to
// report events/sec.  Wall time is reported, never fed back into the
// simulation — sim results stay a pure function of (config, seed).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()), lap_(start_) {}

  // Seconds since construction (monotonic; immune to NTP steps).
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

  // Seconds since the last Lap() (or construction), then starts a new
  // lap.  Phase timing: lap once after setup (cluster build, trace
  // generation, SubmitTrace) and once after the run, so events/sec is
  // computed over the run phase alone — setup and teardown excluded.
  double Lap() {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - lap_).count();
    lap_ = now;
    return s;
  }

 private:
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point lap_;
};

// Banner printed by every bench binary: which paper artifact it
// regenerates and what to look for.
inline void PrintBanner(const std::string& figure, const std::string& claim) {
  std::cout << "==============================================================\n"
            << "Reproduces: " << figure << "\n"
            << "Paper claim: " << claim << "\n"
            << "==============================================================\n";
}

inline std::string Pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * fraction);
  return buf;
}

inline std::string Ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", r);
  return buf;
}

// Machine-readable bench output: headline metrics plus the result table,
// written to bench_results/BENCH_<name>.json alongside the existing CSV so
// the perf trajectory across PRs can be diffed/plotted by tooling instead
// of scraped from stdout.  Degrades to a no-op on unwritable filesystems,
// like CsvWriter.
class BenchJson {
 public:
  // `file_prefix` selects the artifact family: "BENCH" (default) holds
  // ONLY deterministic metrics — CI reruns fig12 and byte-diffs the two
  // BENCH_*.json, so anything wall-clock-derived (events/sec, speedups)
  // must go into a separate "TIMING" file that the determinism diff
  // never sees.
  explicit BenchJson(const std::string& bench_name,
                     const std::string& file_prefix = "BENCH")
      : name_(bench_name), prefix_(file_prefix) {}

  // Headline scalars ("admitted", "speedup_vs_virtio", ...).  JSON has no
  // NaN/Infinity literals, so non-finite values (a speedup ratio dividing
  // by zero on an empty sweep) become null instead of invalid output.
  void Metric(const std::string& key, double value) {
    if (!std::isfinite(value)) {
      metrics_.emplace_back(key, "null");
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    metrics_.emplace_back(key, buf);
  }
  void Metric(const std::string& key, int64_t value) {
    metrics_.emplace_back(key, std::to_string(value));
  }
  void Metric(const std::string& key, uint64_t value) {
    metrics_.emplace_back(key, std::to_string(value));
  }
  void Text(const std::string& key, const std::string& value) {
    metrics_.emplace_back(key, Quote(value));
  }

  // Tabular results (mirrors the CSV: one columns list, then rows).
  void SetColumns(std::vector<std::string> columns) { columns_ = std::move(columns); }
  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  // Writes bench_results/<prefix>_<name>.json; returns the path ("" on error).
  std::string Write() const {
    const std::string path = "bench_results/" + prefix_ + "_" + name_ + ".json";
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    std::ofstream out(path);
    if (!out.good()) {
      return "";
    }
    out << "{\n  \"bench\": " << Quote(name_) << ",\n  \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out << (i ? "," : "") << "\n    " << Quote(metrics_[i].first) << ": "
          << metrics_[i].second;
    }
    out << "\n  },\n  \"columns\": " << CellArray(columns_) << ",\n  \"rows\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out << (i ? "," : "") << "\n    " << CellArray(rows_[i]);
    }
    out << "\n  ]\n}\n";
    return out.good() ? path : "";
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
        q += c;
      } else if (c == '\n') {
        q += "\\n";
      } else {
        q += c;
      }
    }
    return q + "\"";
  }

  // Cells that parse as finite numbers are emitted bare, the rest quoted.
  // The finiteness check matters: istream happily parses "nan"/"inf",
  // which are not JSON number tokens and must stay quoted.
  static std::string CellArray(const std::vector<std::string>& cells) {
    std::string out = "[";
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i) {
        out += ", ";
      }
      double v;
      std::istringstream in(cells[i]);
      if (in >> v && in.eof() && std::isfinite(v)) {
        out += cells[i];
      } else {
        out += Quote(cells[i]);
      }
    }
    return out + "]";
  }

  std::string name_;
  std::string prefix_;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace squeezy

#endif  // SQUEEZY_BENCH_BENCH_UTIL_H_
