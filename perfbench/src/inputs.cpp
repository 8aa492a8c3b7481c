#include "inputs.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "baselines/baselines.hpp"
#include "gen/suite.hpp"
#include "io/io.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// `copies` independently seeded instances of one suite analogue.
std::vector<GraphSpec> instances(const char* name, double scale, int copies,
                                 const char* ext) {
  std::vector<GraphSpec> out;
  for (int k = 0; k < copies; ++k) {
    out.push_back({name, scale, std::string(name) + "." + std::to_string(k) + ext});
  }
  return out;
}

std::vector<GraphSpec> concat(std::vector<GraphSpec> a,
                              const std::vector<GraphSpec>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

}  // namespace

const WorkloadSpec& workload_spec(std::string_view name) {
  // F-Diam's work on one generated graph varies with its seed by 15-30 %
  // (the number of eccentricity BFS it needs), so each solve workload
  // solves several independently seeded, smaller instances per pass: the
  // pass time then varies far less between seeds than one big graph's.
  static const std::vector<WorkloadSpec> specs = {
      {"solve_smallworld", InputFormat::kSnapText,
       concat(instances("uk-2002", 0.5, 2, ".txt"),
              instances("kron_g500-logn21", 0.5, 4, ".txt"))},
      {"solve_road_mesh", InputFormat::kDimacs,
       concat(instances("USA-road-d.USA", 0.5, 8, ".gr"),
              instances("delaunay_n24", 0.25, 8, ".gr"))},
      {"serve_mixed", InputFormat::kCsrbin,
       instances("kron_g500-logn21", 1.0, 1, ".csrbin")},
  };
  for (const WorkloadSpec& s : specs) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown workload \"" + std::string(name) +
                              "\" (solve_smallworld, solve_road_mesh, "
                              "serve_mixed)");
}

std::uint64_t graph_seed(std::uint64_t seed, std::size_t index) {
  fdiam::SplitMix64 sm(seed * 0x100000001b3ull + index);
  return sm.next();
}

namespace {

// The name records the analogue, scale and generator seed, so a pinned
// reference is never read for another graph.
fs::path reference_path(const fs::path& dir, const WorkloadSpec& spec,
                        std::size_t index, std::uint64_t seed) {
  const GraphSpec& g = spec.graphs[index];
  std::ostringstream name;
  name << g.file << ".scale" << g.scale << ".seed" << graph_seed(seed, index)
       << ".ref";
  return dir / name.str();
}

bool high_diameter(const GraphSpec& g) {
  return g.suite_name.rfind("USA-road", 0) == 0 ||
         g.suite_name.rfind("delaunay", 0) == 0;
}

}  // namespace

void prepare_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                    const fs::path& dir) {
  fs::create_directories(dir);
  for (std::size_t i = 0; i < spec.graphs.size(); ++i) {
    const GraphSpec& g = spec.graphs[i];
    const fs::path file = dir / g.file;
    const fs::path ref = reference_path(dir, spec, i, seed);
    if (fs::exists(file) && fs::exists(ref)) continue;

    const fdiam::Csr csr =
        fdiam::build_suite_input(g.suite_name, g.scale, graph_seed(seed, i));
    switch (spec.format) {
      case InputFormat::kSnapText:
        fdiam::io::write_snap(csr, file);
        break;
      case InputFormat::kDimacs:
        fdiam::io::write_dimacs(csr, file);
        break;
      case InputFormat::kCsrbin:
        fdiam::io::write_binary(csr, file);
        break;
    }
    if (fs::exists(ref)) continue;

    // The reference is computed on the graph as read back from the file
    // (a SNAP edge list, for one, drops trailing isolated vertices).
    const fdiam::Csr read_back = fdiam::io::load_graph(file);
    fdiam::BaselineOptions opt;
    opt.parallel = true;
    const fdiam::BaselineResult r = high_diameter(g)
                                        ? fdiam::graph_diameter(read_back, opt)
                                        : fdiam::ifub_diameter(read_back, opt);
    if (r.timed_out) throw std::runtime_error("reference solver timed out");
    const fs::path tmp = ref.string() + ".tmp";
    {
      std::ofstream out(tmp);
      out << r.diameter << ' ' << (r.connected ? 1 : 0) << ' '
          << read_back.num_vertices() << ' ' << read_back.num_edges() << '\n';
      if (!out) throw std::runtime_error("cannot write " + tmp.string());
    }
    fs::rename(tmp, ref);
  }
}

Reference read_reference(const fs::path& dir, const WorkloadSpec& spec,
                         std::size_t index, std::uint64_t seed) {
  std::ifstream in(reference_path(dir, spec, index, seed));
  Reference r;
  int connected = 0;
  if (!(in >> r.diameter >> connected >> r.vertices >> r.edges)) {
    throw std::runtime_error("missing or malformed reference for " +
                             spec.graphs[index].file);
  }
  r.connected = connected != 0;
  return r;
}

void check_reference(const Reference& ref, const fdiam::Csr& g,
                     const std::string& what) {
  if (ref.vertices != g.num_vertices() || ref.edges != g.num_edges()) {
    throw std::runtime_error("reference for " + what +
                             " was pinned for another graph");
  }
}

}  // namespace perfbench
