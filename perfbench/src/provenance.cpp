#include <omp.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "obs/json.hpp"
#include "util/memory.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

}  // namespace

double peak_rss_mb() {
  return static_cast<double>(fdiam::util::read_rss().peak) / (1024.0 * 1024.0);
}

std::string format_metric(const std::string& name, double value,
                          const std::string& unit) {
  std::ostringstream os;
  os.precision(6);
  os << name << ' ' << value << ' ' << unit;
  return os.str();
}

std::string provenance_json(const RunArgs& args) {
  std::ostringstream os;
  fdiam::obs::JsonWriter w(os, 0);
  w.begin_object();
  w.key("provenance").begin_object();
  w.field("git_sha", PERFBENCH_GIT_SHA);
  w.field("compiler", PERFBENCH_COMPILER);
  w.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.field("cpu_model", cpu_model());
  w.field("omp_threads", static_cast<std::uint64_t>(omp_get_max_threads()));
  w.field("workload", args.workload);
  w.field("seed", args.seed);
  w.field("seconds", args.seconds);
  w.field("trace", args.trace);
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace perfbench
