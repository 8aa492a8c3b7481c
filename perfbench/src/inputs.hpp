#pragma once
// Workload inputs: which suite analogues each workload runs, how they are
// written to disk, and the pinned reference answers they are checked
// against.
//
// Inputs are generated from the benchmark seed by `perfbench prepare`, a
// separate process, so the measured run never holds the generator's
// memory and sees nothing but the files. The reference diameter comes
// from a solver independent of F-Diam (src/baselines: iFUB for the
// small-world graphs, the eccentricity-bounding Graph-Diameter code for
// the high-diameter ones, each picked for being fast in that regime) and
// is computed once per seed, outside any timed window.

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr.hpp"
#include "util/types.hpp"

namespace perfbench {

enum class InputFormat { kSnapText, kDimacs, kCsrbin };

struct GraphSpec {
  std::string suite_name;  ///< gen/suite.hpp analogue name
  double scale = 1.0;
  std::string file;        ///< file name inside the data directory
};

struct WorkloadSpec {
  std::string name;
  InputFormat format = InputFormat::kSnapText;
  std::vector<GraphSpec> graphs;
};

/// The three workloads; throws std::invalid_argument on an unknown name.
const WorkloadSpec& workload_spec(std::string_view name);

/// Generator seed of graph `index` for benchmark seed `seed`.
std::uint64_t graph_seed(std::uint64_t seed, std::size_t index);

struct Reference {
  fdiam::dist_t diameter = 0;
  bool connected = false;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
};

/// Write every input file of `spec` for `seed` into `dir`, and the
/// reference answers next to them unless already pinned there.
void prepare_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                    const std::filesystem::path& dir);

/// Reference answers pinned for graph `index` of `spec` and `seed`.
Reference read_reference(const std::filesystem::path& dir,
                         const WorkloadSpec& spec, std::size_t index,
                         std::uint64_t seed);

/// Throws unless `ref` was computed for a graph of `g`'s size.
void check_reference(const Reference& ref, const fdiam::Csr& g,
                     const std::string& what);

}  // namespace perfbench
