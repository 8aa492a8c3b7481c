#pragma once
// Shared types of the workload runners (solve_workloads.cpp,
// serve_workload.cpp) and the command line (main.cpp).

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path data;  ///< prepared input directory
};

/// Name and unit of one reported metric; the lists below are the ones
/// BENCHMARK.json declares, in its order.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

struct RunResult {
  ErrorTally errors;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run)
  /// by name. A per-layer metric of a layer the workload does not drive
  /// is left out and reported as 0.
  std::map<std::string, double> metrics;
  /// Human-readable lines printed ahead of the JSON result (the metrics
  /// themselves are printed from `metrics`): per-analogue solve times,
  /// reload_diameter_s, sample counts, and the reason for every failure.
  std::vector<std::string> report;
};

RunResult run_solve_workload(const RunArgs& args, const WorkloadSpec& spec);
RunResult run_serve_workload(const RunArgs& args, const WorkloadSpec& spec);

/// Peak resident set of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// "name value unit" formatted for the report lines.
std::string format_metric(const std::string& name, double value,
                          const std::string& unit);

/// One-line JSON object with the run's provenance: git sha, compiler,
/// nproc, CPU model, OpenMP thread count, workload and seed.
std::string provenance_json(const RunArgs& args);

}  // namespace perfbench
