// perfbench: the repository benchmark's measuring program.
//
//   perfbench prepare --workload W --seed S --data DIR
//       generate W's inputs for seed S into DIR and pin their reference
//       answers (separate process: the measured run never holds the
//       generator's memory).
//   perfbench run --workload W --seed S --seconds T --trace 0|1 --data DIR
//       measure one run; the last stdout line is the JSON result.
//
// perfbench/run.py builds this program and drives both steps; see
// perfbench/README.md for the workloads and metrics.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"solve_s", "s"},        {"setup_s", "s"},     {"peak_rss_mb", "MiB"},
      {"qps", "1/s"},          {"lat_p50_ms", "ms"}, {"lat_p99_ms", "ms"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"io.read_s", "s"},
      {"io.map_s", "s"},
      {"io.bytes_in", "B"},
      {"graph.stream_build_s", "s"},
      {"graph.spill_bytes", "B"},
      {"graph.chunks_spilled", "count"},
      {"graph.build_peak_rss_mb", "MiB"},
      {"core.init_s", "s"},
      {"core.winnow_s", "s"},
      {"core.chain_s", "s"},
      {"core.eliminate_s", "s"},
      {"core.ecc_s", "s"},
      {"core.other_s", "s"},
      {"core.stage_cover_frac", "fraction"},
      {"core.bfs_calls", "count"},
      {"core.eliminate_calls", "count"},
      {"core.extension_calls", "count"},
      {"core.chain_removed_per_anchor", "ratio"},
      {"core.elim_removed_per_call", "ratio"},
      {"bfs.levels", "count"},
      {"bfs.bottomup_levels", "count"},
      {"bfs.edges_examined", "count"},
      {"bfs.vertices_visited", "count"},
      {"bfs.edges_per_s", "1/s"},
      {"bfs.us_per_level", "us"},
      {"bfs.barrier_wait_s", "s"},
      {"bfs.idle_frac", "fraction"},
      {"serve.sweeps", "count"},
      {"serve.batch_occupancy", "ratio"},
      {"serve.sweep_p50_ms", "ms"},
      {"serve.request_p50_ms", "ms"},
      {"serve.batch_wait_mean_ms", "ms"},
      {"serve.transport_mean_ms", "ms"},
      {"serve.reload_s", "s"},
      {"serve.errors", "count"},
      {"obs.trace_overhead_frac", "fraction"},
  };
  return defs;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench prepare|run --workload W --seed S "
               "--data DIR [--seconds T] [--trace 0|1]\n";
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--data") {
      a.data = val;
    } else {
      usage("unknown option " + key);
    }
  }
  if (a.workload.empty() || a.data.empty()) usage("--workload and --data are required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

int run(const RunArgs& args) {
  const WorkloadSpec& spec = workload_spec(args.workload);
  const RunResult r = spec.format == InputFormat::kCsrbin
                          ? run_serve_workload(args, spec)
                          : run_solve_workload(args, spec);

  const auto& defs = args.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, value] : r.metrics) {
    bool known = false;
    for (const MetricDef& d : defs) known = known || name == d.name;
    if (!known) throw std::logic_error("undeclared metric " + name);
  }
  for (const std::string& line : r.report) std::cout << "# " << line << "\n";
  for (const MetricDef& d : defs) {
    const auto it = r.metrics.find(d.name);
    std::cout << "# " << format_metric(d.name, it == r.metrics.end() ? 0.0 : it->second, d.unit)
              << "\n";
  }
  std::cout << "# " << format_metric("error_rate", r.errors.rate(), "fraction")
            << " (attempted " << r.errors.attempted << ", failed "
            << r.errors.failed << ": " << r.errors.describe() << ")\n";
  std::cout << provenance_json(args) << "\n";

  std::ostringstream os;
  fdiam::obs::JsonWriter w(os, 0);
  w.begin_object();
  w.field("correct", r.errors.failed == 0 && r.errors.attempted > 0);
  w.field("attempted", r.errors.attempted);
  w.field("failed", r.errors.failed);
  w.key("metrics").begin_object();
  for (const MetricDef& d : defs) {
    const auto it = r.metrics.find(d.name);
    w.key(d.name).begin_object();
    w.field("value", it == r.metrics.end() ? 0.0 : it->second);
    w.field("unit", d.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage("missing command");
  const std::string cmd = argv[1];
  try {
    const RunArgs args = parse(argc, argv);
    if (cmd == "prepare") {
      prepare_inputs(workload_spec(args.workload), args.seed, args.data);
      return 0;
    }
    if (cmd == "run") return run(args);
    usage("unknown command " + cmd);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
