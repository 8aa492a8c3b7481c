// serve_mixed: an in-process Server maps a power-law .csrbin; three
// closed-loop Client connections send a seeded 3:1 distance:eccentricity
// mix over uniform random vertices while a fourth repeats
// reload -> diameter -> diametral_path a fixed number of times. Each
// reload starts a new graph generation, so the following `diameter` pays
// a cold F-Diam solve inside the server while the point queries go on.
//
// End-to-end: qps and lat_* are the point queries; solve_s is the median
// client-side time of the cold `diameter` after each reload.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "bfs/bfs.hpp"
#include "io/io.hpp"
#include "obs/json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using fdiam::dist_t;
using fdiam::vid_t;

namespace {

constexpr int kPointClients = 3;
/// Reload cycles per run, started at evenly spaced offsets of --seconds
/// (a slow cycle delays the next), so the share of the window that the
/// point queries spend beside a cold solve does not depend on how fast
/// the solve is.
constexpr int kReloadCycles = 3;
/// Server start + map takes milliseconds, so it is repeated more often
/// than the solve workloads' ingest to steady its median.
constexpr int kServeSetupReps = 25;
/// Answers re-checked against a serial BFS after the window.
constexpr int kVerifySample = 32;
/// The window stretches until p99 has 10 samples beyond it, or this many
/// seconds past --seconds; past that, a watchdog stops the server and
/// whatever is still outstanding counts as timed out.
constexpr double kGraceSeconds = 60.0;
const char* const kGraph = "g";

struct Answer {
  bool distance = false;
  vid_t u = 0;
  vid_t v = 0;
  std::int64_t value = 0;
  Outcome outcome = Outcome::kOk;
  double latency_s = 0.0;
  bool traced = false;
};

struct Cycle {
  double reload_s = 0.0;
  double diameter_s = 0.0;
  std::vector<vid_t> path;
  fdiam::DiameterResult solve;  ///< the server's cold solve (traced run)
};

bool reply_ok(const std::string& resp) {
  return fdiam::obs::json_valid(resp) &&
         fdiam::obs::json_lookup(resp, "ok").value_or("") == "true";
}

std::vector<vid_t> parse_path(const std::string& resp) {
  std::vector<vid_t> out;
  const auto raw = fdiam::obs::json_lookup(resp, "path");
  if (!raw) return out;
  std::string body(raw->substr(1, raw->size() >= 2 ? raw->size() - 2 : 0));
  std::replace(body.begin(), body.end(), ',', ' ');
  std::istringstream in(body);
  std::uint64_t v = 0;
  while (in >> v) out.push_back(static_cast<vid_t>(v));
  return out;
}

/// Everything shared by the client threads of one window.
struct Window {
  const RunArgs* args = nullptr;
  const Reference* ref = nullptr;
  fs::path socket;
  vid_t n = 0;
  SpanRecorder* rec = nullptr;
  std::atomic<bool> stop{false};
  std::atomic<bool> watchdog_fired{false};
  std::atomic<std::uint64_t> answered{0};
  std::mutex mu;
  std::vector<Answer> answers;  // guarded by mu
  ErrorTally admin_errors;      // written by the admin thread only
  std::vector<std::string> problems;  // guarded by mu
  std::vector<Cycle> cycles;    // written by the admin thread only
  fdiam::serve::Server* server = nullptr;
  fdiam::Timer clock;  ///< reset when the window opens

  void problem(std::string what) {
    std::lock_guard<std::mutex> lock(mu);
    if (problems.size() < 20) problems.push_back(std::move(what));
  }
  Outcome failure() const {
    return watchdog_fired.load() ? Outcome::kTimeout : Outcome::kTransport;
  }
};

void point_client(Window& w, int idx) {
  fdiam::Rng rng(graph_seed(w.args->seed, 1000 + static_cast<std::size_t>(idx)));
  fdiam::serve::Client c;
  std::vector<Answer> mine;
  bool connected = c.connect(w.socket.string());
  for (std::uint64_t k = 0; !w.stop.load(std::memory_order_relaxed); ++k) {
    Answer a;
    a.distance = rng.below(4) < 3;
    a.u = static_cast<vid_t>(rng.below(w.n));
    a.v = static_cast<vid_t>(rng.below(w.n));
    // The traced run traces every other request, so traced and untraced
    // latencies come from the same traffic.
    a.traced = w.rec != nullptr && k % 2 == 1;
    if (!connected) {
      a.outcome = w.failure();
      mine.push_back(a);
      w.problem("point client " + std::to_string(idx) + ": " + c.error());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      connected = c.connect(w.socket.string());
      continue;
    }
    const char* op = a.distance ? "serve.distance" : "serve.eccentricity";
    const std::uint64_t trace_id = a.traced ? w.rec->new_trace() : 0;
    std::string resp;
    {
      ScopedSpan span(a.traced ? w.rec : nullptr, op, 0, trace_id);
      fdiam::Timer t;
      resp = a.distance ? c.distance(a.u, a.v, {}, k) : c.eccentricity(a.u, {}, k);
      a.latency_s = t.seconds();
    }
    if (resp.empty()) {
      a.outcome = w.failure();
      w.problem("point client " + std::to_string(idx) + ": " + c.error());
      connected = c.connect(w.socket.string());
    } else if (!reply_ok(resp)) {
      a.outcome = Outcome::kRefused;
      w.problem("refused: " + resp);
    } else {
      const auto value =
          fdiam::obs::json_number(resp, a.distance ? "distance" : "eccentricity");
      a.value = value ? static_cast<std::int64_t>(*value) : -2;
      const bool plausible = value.has_value() && a.value <= w.ref->diameter &&
                             (a.distance ? a.value >= -1 : a.value >= 0);
      if (!plausible) {
        a.outcome = Outcome::kWrong;
        w.problem("implausible answer: " + resp);
      }
    }
    mine.push_back(a);
    w.answered.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(w.mu);
  w.answers.insert(w.answers.end(), mine.begin(), mine.end());
}

/// One admin call: returns the reply, or "" after tallying the failure.
std::string admin_call(Window& w, fdiam::serve::Client& c, const char* op,
                       const std::function<std::string()>& call,
                       double& seconds) {
  const std::uint64_t trace_id = w.rec != nullptr ? w.rec->new_trace() : 0;
  std::string resp;
  {
    ScopedSpan span(w.rec, op, 0, trace_id);
    fdiam::Timer t;
    resp = call();
    seconds = t.seconds();
  }
  if (resp.empty()) {
    w.admin_errors.record(w.failure());
    w.problem(std::string(op) + ": " + c.error());
    (void)c.connect(w.socket.string());
    return resp;
  }
  if (!reply_ok(resp)) {
    w.admin_errors.record(Outcome::kRefused);
    w.problem(std::string(op) + " refused: " + resp);
    return "";
  }
  return resp;
}

void admin_client(Window& w) {
  fdiam::serve::Client c;
  if (!c.connect(w.socket.string())) w.problem("admin: " + c.error());
  for (int i = 0; i < kReloadCycles; ++i) {
    const double start = w.args->seconds * i / kReloadCycles;
    while (w.clock.seconds() < start && !w.stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Cycle cy;
    if (admin_call(w, c, "serve.reload", [&] { return c.reload(kGraph); }, cy.reload_s)
            .empty()) {
      continue;
    }
    w.admin_errors.record(Outcome::kOk);

    const std::string d =
        admin_call(w, c, "serve.diameter", [&] { return c.diameter(kGraph); }, cy.diameter_s);
    if (d.empty()) continue;
    const bool cold = fdiam::obs::json_lookup(d, "cached").value_or("") == "false";
    const bool right =
        fdiam::obs::json_number(d, "diameter").value_or(-1) == w.ref->diameter &&
        fdiam::obs::json_lookup(d, "connected").value_or("") ==
            (w.ref->connected ? "true" : "false");
    w.admin_errors.record(cold && right ? Outcome::kOk : Outcome::kWrong);
    if (!(cold && right)) w.problem("diameter after reload: " + d);
    if (w.rec != nullptr) {
      // The cached result of the solve this request just paid for.
      cy.solve = w.server->store().get(kGraph)->diameter();
    }

    double path_s = 0.0;
    const std::string p = admin_call(
        w, c, "serve.diametral_path", [&] { return c.diametral_path(kGraph); }, path_s);
    if (p.empty()) continue;
    cy.path = parse_path(p);
    // Checked against the graph after the window (adjacency, length).
    w.cycles.push_back(std::move(cy));
  }
}

/// Re-check paths and a seeded sample of answers against serial BFS.
void verify(Window& w, const fs::path& graph_file, std::vector<std::string>& report) {
  const fdiam::Csr g = fdiam::io::map_binary(graph_file);
  for (const Cycle& cy : w.cycles) {
    bool ok = cy.path.size() == static_cast<std::size_t>(w.ref->diameter) + 1;
    for (std::size_t i = 1; ok && i < cy.path.size(); ++i) {
      const auto adj = g.neighbors(cy.path[i - 1]);
      ok = cy.path[i] < g.num_vertices() &&
           std::binary_search(adj.begin(), adj.end(), cy.path[i]);
    }
    w.admin_errors.record(ok ? Outcome::kOk : Outcome::kWrong);
    if (!ok) report.push_back("diametral path is not a shortest diametral path");
  }

  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < w.answers.size(); ++i) {
    if (w.answers[i].outcome == Outcome::kOk) candidates.push_back(i);
  }
  fdiam::Rng rng(graph_seed(w.args->seed, 2000));
  std::vector<dist_t> dist;
  for (int s = 0; s < kVerifySample && !candidates.empty(); ++s) {
    const std::size_t pick = rng.below(candidates.size());
    Answer& a = w.answers[candidates[pick]];
    candidates[pick] = candidates.back();
    candidates.pop_back();
    const dist_t ecc = fdiam::bfs_distances_serial(g, a.u, dist);
    const std::int64_t want = a.distance ? dist[a.v] : ecc;
    if (a.value != want) {
      a.outcome = Outcome::kWrong;
      std::ostringstream os;
      os << (a.distance ? "distance(" : "eccentricity(") << a.u;
      if (a.distance) os << "," << a.v;
      os << ") served " << a.value << ", serial BFS gives " << want;
      report.push_back(os.str());
    }
  }
}

double hist_p50_ms(const fdiam::HistogramSnapshot& h) { return h.quantile(0.5) * 1e3; }

/// Merge two histogram snapshots (identical bucket boundaries).
fdiam::HistogramSnapshot merge(fdiam::HistogramSnapshot a,
                               const fdiam::HistogramSnapshot& b) {
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  a.min = std::min(a.min, b.min);
  a.max = std::max(a.max, b.max);
  a.count += b.count;
  a.sum += b.sum;
  for (const auto& bk : b.buckets) {
    auto it = std::find_if(a.buckets.begin(), a.buckets.end(),
                           [&](const auto& x) { return x.le == bk.le; });
    if (it != a.buckets.end()) {
      it->count += bk.count;
    } else {
      a.buckets.push_back(bk);
    }
  }
  std::sort(a.buckets.begin(), a.buckets.end(),
            [](const auto& x, const auto& y) { return x.le < y.le; });
  return a;
}

}  // namespace

RunResult run_serve_workload(const RunArgs& args, const WorkloadSpec& spec) {
  RunResult out;
  const GraphSpec& gs = spec.graphs.front();
  const Reference ref = read_reference(args.data, spec, 0, args.seed);
  const fs::path graph_file = args.data / gs.file;
  std::unique_ptr<SpanRecorder> rec;
  if (args.trace) rec = std::make_unique<SpanRecorder>();

  fdiam::serve::ServerOptions sopt;
  sopt.socket_path = args.data / "serve.sock";

  // --- Set-up: server start + map, up to the first answered point query --
  // (which also pays the first touch of the lazily mapped graph).
  std::unique_ptr<fdiam::serve::Server> server;
  std::vector<double> setup_s, map_s;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    if (server) server->stop();
    server.reset();
    const std::uint64_t trace_id = rec ? rec->new_trace() : 0;
    fdiam::Timer total;
    server = std::make_unique<fdiam::serve::Server>(sopt);
    {
      ScopedSpan span(rec.get(), "io.map", 0, trace_id);
      fdiam::Timer t;
      server->add_graph(kGraph, graph_file);
      map_s.push_back(t.seconds());
    }
    {
      ScopedSpan span(rec.get(), "serve.start", 0, trace_id);
      server->start();
      fdiam::serve::Client probe;
      if (!probe.connect(sopt.socket_path.string()) ||
          !reply_ok(probe.eccentricity(0))) {
        throw std::runtime_error("server did not answer its first query");
      }
    }
    setup_s.push_back(total.seconds());
  }

  // --- Timed window --------------------------------------------------------
  Window w;
  w.args = &args;
  w.ref = &ref;
  w.socket = sopt.socket_path;
  {
    // Pins generation 1 only for the check; the reloads replace it.
    const auto served = server->store().get(kGraph);
    check_reference(ref, served->graph(), gs.file);
    w.n = served->graph().num_vertices();
  }
  w.rec = rec.get();
  w.server = server.get();
  const std::uint64_t min_answers = min_samples_for_tail(0.99);

  fdiam::Timer window;
  w.clock.reset();
  std::vector<std::thread> clients;
  for (int i = 0; i < kPointClients; ++i) clients.emplace_back(point_client, std::ref(w), i);
  std::thread admin(admin_client, std::ref(w));
  std::atomic<bool> admin_done{false};
  std::thread admin_waiter([&] {
    admin.join();
    admin_done.store(true);
  });
  while (!(admin_done.load() && window.seconds() >= args.seconds &&
           w.answered.load() >= min_answers)) {
    if (window.seconds() > args.seconds + kGraceSeconds) {
      w.watchdog_fired.store(true);
      server->stop();  // unblocks every client call
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  w.stop.store(true);
  for (std::thread& t : clients) t.join();
  admin_waiter.join();
  const double window_s = window.seconds();
  const double peak_mb = peak_rss_mb();
  server->stop();

  // --- Checks outside the timed window -------------------------------------
  verify(w, graph_file, out.report);
  out.errors = w.admin_errors;
  std::vector<double> lat_ms, lat_traced_ms, lat_untraced_ms;
  std::uint64_t ok_answers = 0;
  for (const Answer& a : w.answers) {
    out.errors.record(a.outcome);
    if (a.outcome != Outcome::kOk) continue;
    ++ok_answers;
    lat_ms.push_back(a.latency_s * 1e3);
    (a.traced ? lat_traced_ms : lat_untraced_ms).push_back(a.latency_s * 1e3);
  }
  for (const std::string& p : w.problems) out.report.push_back(p);
  if (w.watchdog_fired.load()) out.report.push_back("watchdog stopped the server");

  std::vector<double> diam_s, reload_s;
  for (const Cycle& cy : w.cycles) {
    diam_s.push_back(cy.diameter_s);
    reload_s.push_back(cy.reload_s);
  }
  const TailStat p99 = tail_stat(lat_ms, 0.99);
  {
    std::ostringstream os;
    os << "point queries " << ok_answers << " answered over " << window_s
       << " s; lat_p99_ms from " << p99.samples << " samples, " << p99.beyond
       << " beyond it" << (p99.supported ? "" : " (fewer than 10: not a p99)");
    out.report.push_back(os.str());
    std::ostringstream cycles;
    cycles << format_metric("reload_diameter_s", median(diam_s), "s") << " over "
           << diam_s.size() << " reloads:";
    for (double d : diam_s) cycles << ' ' << d;
    out.report.push_back(cycles.str());
  }

  if (!args.trace) {
    out.metrics = {
        {"solve_s", median(diam_s)},
        {"setup_s", median(setup_s)},
        {"peak_rss_mb", peak_mb},
        {"qps", static_cast<double>(ok_answers) / window_s},
        {"lat_p50_ms", median(lat_ms)},
        {"lat_p99_ms", p99.value},
    };
    return out;
  }

  // --- Traced run: per-layer metrics ---------------------------------------
  {
    std::ofstream f(args.data / ("trace-serve_mixed-" + std::to_string(args.seed) + ".json"));
    rec->write_chrome_json(f);
  }
  fdiam::obs::MetricRegistry& reg = server->registry();
  fdiam::HistogramSnapshot sweep, request;
  std::uint64_t server_errors = 0;
  for (const auto& [name, snap] : reg.snapshot_histograms()) {
    if (name == "serve.sweep.seconds") sweep = snap;
    if (name == "serve.request.seconds.distance" ||
        name == "serve.request.seconds.eccentricity") {
      request = merge(request, snap);
    }
  }
  for (const auto& [name, value] : reg.snapshot_counters()) {
    if (name.rfind("serve.errors.", 0) == 0) server_errors += static_cast<std::uint64_t>(value);
  }
  const double sweeps = static_cast<double>(reg.counter("serve.sweeps").get());
  const double batched = static_cast<double>(reg.counter("serve.batched_queries").get());

  const double nc = static_cast<double>(std::max<std::size_t>(1, w.cycles.size()));
  double init_s = 0, winnow_s = 0, chain_s = 0, elim_s = 0, ecc_s = 0, other_s = 0;
  double bfs_calls = 0, elim_calls = 0, ext_calls = 0, elim_removed = 0;
  fdiam::BfsStats bfs;
  for (const Cycle& cy : w.cycles) {
    const fdiam::FDiamStats& st = cy.solve.stats;
    init_s += st.time_init;
    winnow_s += st.time_winnow;
    chain_s += st.time_chain;
    elim_s += st.time_eliminate;
    ecc_s += st.time_ecc;
    other_s += st.time_other();
    bfs_calls += static_cast<double>(st.bfs_calls);
    elim_calls += static_cast<double>(st.eliminate_calls);
    ext_calls += static_cast<double>(st.extension_calls);
    elim_removed += static_cast<double>(st.removed_by_eliminate);
    bfs += cy.solve.bfs;
  }
  const double bfs_s = (init_s + ecc_s) / nc;
  // The server's histograms have 6.25 % wide buckets, coarser than the
  // transport time itself, so the latency split uses exact means.
  const auto mean_ms = [](const fdiam::HistogramSnapshot& h) {
    return h.count > 0 ? h.sum / static_cast<double>(h.count) * 1e3 : 0.0;
  };
  const double client_mean_ms =
      std::accumulate(lat_ms.begin(), lat_ms.end(), 0.0) /
      static_cast<double>(std::max<std::size_t>(1, lat_ms.size()));
  out.metrics = {
      {"io.map_s", median(map_s)},
      {"io.bytes_in", static_cast<double>(fs::file_size(graph_file))},
      {"core.init_s", init_s / nc},
      {"core.winnow_s", winnow_s / nc},
      {"core.chain_s", chain_s / nc},
      {"core.eliminate_s", elim_s / nc},
      {"core.ecc_s", ecc_s / nc},
      {"core.other_s", other_s / nc},
      // Share of the client-side cold `diameter` time spent in the solver.
      {"core.stage_cover_frac",
       ratio(init_s + winnow_s + chain_s + elim_s + ecc_s + other_s,
             std::accumulate(diam_s.begin(), diam_s.end(), 0.0))},
      {"core.bfs_calls", bfs_calls / nc},
      {"core.eliminate_calls", elim_calls / nc},
      {"core.extension_calls", ext_calls / nc},
      {"core.elim_removed_per_call", ratio(elim_removed, elim_calls)},
      {"bfs.levels", static_cast<double>(bfs.levels) / nc},
      {"bfs.bottomup_levels", static_cast<double>(bfs.bottomup_levels) / nc},
      {"bfs.edges_examined", static_cast<double>(bfs.edges_examined) / nc},
      {"bfs.vertices_visited", static_cast<double>(bfs.vertices_visited) / nc},
      {"bfs.edges_per_s", ratio(static_cast<double>(bfs.edges_examined) / nc, bfs_s)},
      {"bfs.us_per_level", ratio(bfs_s * 1e6, static_cast<double>(bfs.levels) / nc)},
      {"serve.sweeps", sweeps},
      {"serve.batch_occupancy", ratio(batched, sweeps)},
      {"serve.sweep_p50_ms", hist_p50_ms(sweep)},
      {"serve.request_p50_ms", hist_p50_ms(request)},
      {"serve.batch_wait_mean_ms", mean_ms(request) - mean_ms(sweep)},
      {"serve.transport_mean_ms", client_mean_ms - mean_ms(request)},
      {"serve.reload_s", median(reload_s)},
      {"serve.errors", static_cast<double>(server_errors)},
      {"obs.trace_overhead_frac", ratio(median(lat_traced_ms), median(lat_untraced_ms)) - 1.0},
  };
  return out;
}

}  // namespace perfbench
