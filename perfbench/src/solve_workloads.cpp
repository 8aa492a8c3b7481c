// solve_smallworld and solve_road_mesh: ingest a set of suite analogues
// through the library's public readers (set-up), then certify each one's
// exact diameter with fdiam_diameter, pass after pass, for the run's
// window. One pass, the diameter of every graph of the set, is the
// workload's request; solve_s is the median pass.

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "core/fdiam.hpp"
#include "graph/stream_builder.hpp"
#include "io/io.hpp"
#include "spans.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// Repetitions of the ingest per run; setup_s is their median.
constexpr int kSetupReps = 3;

/// Set-up measurements summed over the graphs of one repetition.
struct SetupRep {
  double total_s = 0.0;
  double read_s = 0.0;          ///< io::read_dimacs
  double map_s = 0.0;           ///< io::map_binary
  double stream_build_s = 0.0;  ///< stream_build_snap
  fdiam::StreamBuildStats build;
  double build_peak_rss_mb = 0.0;
};

/// Per-pass totals of the traced solves (summed over the graph set).
struct TracedPass {
  double seconds = 0.0;
  fdiam::FDiamStats stats;  ///< counts summed; times unused (spans used)
  fdiam::BfsStats bfs;
  fdiam::UtilAgg util;
  std::uint64_t chain_anchors = 0;
};

void add_counts(fdiam::FDiamStats& into, const fdiam::FDiamStats& s) {
  into.bfs_calls += s.bfs_calls;
  into.ecc_computations += s.ecc_computations;
  into.winnow_calls += s.winnow_calls;
  into.eliminate_calls += s.eliminate_calls;
  into.extension_calls += s.extension_calls;
  into.removed_by_winnow += s.removed_by_winnow;
  into.removed_by_eliminate += s.removed_by_eliminate;
  into.removed_by_chain += s.removed_by_chain;
  into.evaluated += s.evaluated;
}

const char* stage_span(fdiam::FDiamEvent::Kind k) {
  using K = fdiam::FDiamEvent::Kind;
  switch (k) {
    case K::kInitialBound:
      return "core.init";
    case K::kWinnow:
      return "core.winnow";
    case K::kChainsProcessed:
      return "core.chain";
    case K::kEccentricity:
      return "core.ecc";
    case K::kEliminate:
    case K::kExtendRegions:
      return "core.eliminate";
    default:
      return nullptr;
  }
}

}  // namespace

RunResult run_solve_workload(const RunArgs& args, const WorkloadSpec& spec) {
  RunResult out;
  std::vector<Reference> refs;
  std::uint64_t bytes_in = 0;
  for (std::size_t i = 0; i < spec.graphs.size(); ++i) {
    refs.push_back(read_reference(args.data, spec, i, args.seed));
    bytes_in += fs::file_size(args.data / spec.graphs[i].file);
  }

  std::unique_ptr<SpanRecorder> rec;
  if (args.trace) rec = std::make_unique<SpanRecorder>();

  // --- Set-up: ingest every graph, kSetupReps times -----------------------
  std::vector<fdiam::Csr> graphs;
  std::vector<SetupRep> reps;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    graphs.clear();  // unmap before the .csrbin files are rebuilt
    SetupRep s;
    const std::uint64_t trace_id = rec ? rec->new_trace() : 0;
    if (args.trace) fdiam::util::reset_peak_rss();
    fdiam::Timer total;
    for (const GraphSpec& g : spec.graphs) {
      const fs::path in = args.data / g.file;
      if (spec.format == InputFormat::kDimacs) {
        ScopedSpan span(rec.get(), "io.read", 0, trace_id);
        fdiam::Timer t;
        graphs.push_back(fdiam::io::read_dimacs(in));
        s.read_s += t.seconds();
        continue;
      }
      const fs::path bin = in.string() + ".csrbin";
      {
        ScopedSpan span(rec.get(), "graph.stream_build", 0, trace_id);
        fdiam::Timer t;
        const fdiam::StreamBuildStats b = fdiam::stream_build_snap(in, bin);
        s.stream_build_s += t.seconds();
        s.build.spill_bytes += b.spill_bytes;
        s.build.chunks_spilled += b.chunks_spilled;
      }
      if (args.trace) s.build_peak_rss_mb = std::max(s.build_peak_rss_mb, peak_rss_mb());
      ScopedSpan span(rec.get(), "io.map", 0, trace_id);
      fdiam::Timer t;
      graphs.push_back(fdiam::io::map_binary(bin));
      s.map_s += t.seconds();
    }
    s.total_s = total.seconds();
    reps.push_back(s);
  }
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    check_reference(refs[i], graphs[i], spec.graphs[i].file);
  }

  // --- Timed window: solve passes -----------------------------------------
  std::vector<double> passes;  // untraced pass latencies
  std::vector<TracedPass> traced;
  std::vector<std::vector<double>> per_graph(graphs.size());  // untraced
  fdiam::UtilCollector util;
  fdiam::Timer window;
  const std::size_t min_passes = args.trace ? 2 : 1;
  for (std::size_t p = 0; p < min_passes || window.seconds() < args.seconds; ++p) {
    // The traced run alternates untraced and traced passes, so the
    // tracing overhead is measured on the same graphs in the same run.
    const bool traced_pass = args.trace && p % 2 == 1;
    TracedPass tp;
    double pass_s = 0.0;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      fdiam::FDiamOptions opt;
      std::uint64_t solve_span = 0;
      std::uint64_t trace_id = 0;
      if (traced_pass) {
        trace_id = rec->new_trace();
        opt.utilization = &util;
        opt.trace = [&](const fdiam::FDiamEvent& e) {
          if (e.kind == fdiam::FDiamEvent::Kind::kChainsProcessed) {
            tp.chain_anchors += static_cast<std::uint64_t>(e.extra);
          }
          const char* name = stage_span(e.kind);
          if (name == nullptr || e.seconds <= 0.0) return;
          const double end = rec->now();
          rec->add(name, solve_span, trace_id, end - e.seconds, end);
        };
        solve_span = rec->open("core.solve", 0, trace_id);
      }
      fdiam::Timer t;
      const fdiam::DiameterResult r = fdiam::fdiam_diameter(graphs[i], opt);
      const double dt = t.seconds();
      if (traced_pass) rec->close(solve_span);
      pass_s += dt;
      if (!traced_pass) per_graph[i].push_back(dt);

      const Reference& ref = refs[i];
      const bool ok = !r.timed_out && r.diameter == ref.diameter &&
                      r.connected == ref.connected;
      out.errors.record(ok ? Outcome::kOk : Outcome::kWrong);
      if (!ok) {
        std::ostringstream os;
        os << "wrong answer on " << spec.graphs[i].suite_name << ": diameter "
           << r.diameter << " connected " << r.connected << " timed_out "
           << r.timed_out << ", reference " << ref.diameter << " connected "
           << ref.connected;
        out.report.push_back(os.str());
      }
      if (traced_pass) {
        add_counts(tp.stats, r.stats);
        tp.bfs += r.bfs;
        tp.util += r.stats.util.total;
      }
    }
    if (traced_pass) {
      tp.seconds = pass_s;
      traced.push_back(tp);
    } else {
      passes.push_back(pass_s);
    }
  }
  const double window_s = window.seconds();
  const double peak_mb = peak_rss_mb();

  std::vector<double> setup_totals;
  for (const SetupRep& s : reps) setup_totals.push_back(s.total_s);
  // Per analogue: the median over passes of its instances' summed time.
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    std::map<std::string, double> sums;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      sums[spec.graphs[i].suite_name] += per_graph[i][p];
    }
    for (const auto& [name, v] : sums) by_name[name].push_back(v);
  }
  for (const auto& [name, v] : by_name) {
    out.report.push_back(format_metric(name + " solve_s", median(v), "s"));
  }

  if (!args.trace) {
    // A batch solve has no request stream of its own: qps and lat_* restate
    // the median pass (a handful of passes supports no tail percentile
    // with 10 samples beyond it, and a mean would follow the one slow
    // pass a run sometimes has).
    const double pass_s = median(passes);
    out.metrics = {
        {"solve_s", pass_s},
        {"setup_s", median(setup_totals)},
        {"peak_rss_mb", peak_mb},
        {"qps", 1.0 / pass_s},
        {"lat_p50_ms", pass_s * 1e3},
        {"lat_p99_ms", pass_s * 1e3},
    };
    std::ostringstream os;
    os << "passes " << passes.size() << " over " << window_s
       << " s, slowest " << quantile(passes, 1.0) * 1e3
       << " ms";
    out.report.push_back(os.str());
    return out;
  }

  // --- Traced run: per-layer metrics --------------------------------------
  std::ostringstream trace_file;
  trace_file << "trace-" << args.workload << "-" << args.seed << ".json";
  {
    std::ofstream f(args.data / trace_file.str());
    rec->write_chrome_json(f);
  }
  const std::vector<Span> spans = rec->spans();
  const auto self = self_time_by_name(spans);
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };

  const double np = static_cast<double>(traced.size());
  TracedPass sum;
  std::vector<double> traced_passes;
  for (const TracedPass& tp : traced) {
    traced_passes.push_back(tp.seconds);
    sum.seconds += tp.seconds;
    add_counts(sum.stats, tp.stats);
    sum.bfs += tp.bfs;
    sum.util += tp.util;
    sum.chain_anchors += tp.chain_anchors;
  }
  const double init_s = self_of("core.init") / np;
  const double winnow_s = self_of("core.winnow") / np;
  const double chain_s = self_of("core.chain") / np;
  const double elim_s = self_of("core.eliminate") / np;
  const double ecc_s = self_of("core.ecc") / np;
  const double other_s = self_of("core.solve") / np;
  const double traced_solve_s = sum.seconds / np;
  const double stage_sum = init_s + winnow_s + chain_s + elim_s + ecc_s + other_s;
  const double bfs_s = init_s + ecc_s;
  const auto per_pass = [&](double v) { return v / np; };
  const fdiam::FDiamStats& st = sum.stats;
  const double main_elim_calls =
      static_cast<double>(st.eliminate_calls) - static_cast<double>(sum.chain_anchors);

  std::vector<double> read_s, map_s, build_s, spill, chunks, build_rss;
  for (const SetupRep& s : reps) {
    read_s.push_back(s.read_s);
    map_s.push_back(s.map_s);
    build_s.push_back(s.stream_build_s);
    spill.push_back(static_cast<double>(s.build.spill_bytes));
    chunks.push_back(static_cast<double>(s.build.chunks_spilled));
    build_rss.push_back(s.build_peak_rss_mb);
  }

  out.metrics = {
      {"io.read_s", median(read_s)},
      {"io.map_s", median(map_s)},
      {"io.bytes_in", static_cast<double>(bytes_in)},
      {"graph.stream_build_s", median(build_s)},
      {"graph.spill_bytes", median(spill)},
      {"graph.chunks_spilled", median(chunks)},
      {"graph.build_peak_rss_mb", median(build_rss)},
      {"core.init_s", init_s},
      {"core.winnow_s", winnow_s},
      {"core.chain_s", chain_s},
      {"core.eliminate_s", elim_s},
      {"core.ecc_s", ecc_s},
      {"core.other_s", other_s},
      {"core.stage_cover_frac", ratio(stage_sum, traced_solve_s)},
      {"core.bfs_calls", per_pass(static_cast<double>(st.bfs_calls))},
      {"core.eliminate_calls", per_pass(static_cast<double>(st.eliminate_calls))},
      {"core.extension_calls", per_pass(static_cast<double>(st.extension_calls))},
      {"core.chain_removed_per_anchor",
       ratio(static_cast<double>(st.removed_by_chain),
             static_cast<double>(sum.chain_anchors))},
      {"core.elim_removed_per_call",
       ratio(static_cast<double>(st.removed_by_eliminate), main_elim_calls)},
      {"bfs.levels", per_pass(static_cast<double>(sum.bfs.levels))},
      {"bfs.bottomup_levels", per_pass(static_cast<double>(sum.bfs.bottomup_levels))},
      {"bfs.edges_examined", per_pass(static_cast<double>(sum.bfs.edges_examined))},
      {"bfs.vertices_visited", per_pass(static_cast<double>(sum.bfs.vertices_visited))},
      {"bfs.edges_per_s",
       ratio(per_pass(static_cast<double>(sum.bfs.edges_examined)), bfs_s)},
      {"bfs.us_per_level",
       ratio(bfs_s * 1e6, per_pass(static_cast<double>(sum.bfs.levels)))},
      {"bfs.barrier_wait_s", per_pass(sum.util.barrier_wait_s())},
      {"bfs.idle_frac", sum.util.idle_fraction()},
      {"obs.trace_overhead_frac", ratio(median(traced_passes), median(passes)) - 1.0},
  };
  std::ostringstream os;
  os << "traced passes " << traced.size() << ", untraced passes "
     << passes.size() << "; spans written to " << trace_file.str();
  out.report.push_back(os.str());
  return out;
}

}  // namespace perfbench
