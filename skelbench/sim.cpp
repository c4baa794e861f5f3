// sim_window: stages 1-2 as real messages on the round-synchronous
// engine (core::run_distributed_stages) over the Window at n ~ 5e4,
// degree 8, counter-sampled from the seed, with 4 engine threads.
//
// Every cell must reproduce the centralized stage-1/2 outputs exactly and
// repeat the first cell's transmission, reception and round counts. The
// traced run drives the four protocols through sim::Engine::run itself,
// timing each, and repeats the cell on one engine thread: the counts must
// be identical, and the wall-time ratio is the parallel speedup.
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/config.h"
#include "core/protocols.h"
#include "core/stage_cmd.h"
#include "deploy/scenario.h"
#include "geometry/shapes.h"
#include "sim/engine.h"

namespace skelbench {
namespace {

using namespace skelex;

constexpr int kEngineThreads = 4;

// The centralized stage-1/2 outputs every distributed cell must match.
struct Reference {
  std::vector<int> khop_size;
  std::vector<double> index;
  std::vector<int> critical;
  core::VoronoiResult voronoi;
};

Reference centralized(const net::Graph& g, const core::Params& p) {
  net::Workspace ws;
  Reference ref;
  core::IndexCmd index_cmd;
  index_cmd.params = p.index_params();
  const core::IndexData idx = index_cmd.run(g.csr(), ws);
  ref.khop_size = idx.khop_size;
  ref.index = idx.index;
  core::IdentifyCmd identify_cmd;
  identify_cmd.params = p.identify_params();
  identify_cmd.index = &idx;
  ref.critical = identify_cmd.run(g.csr(), ws);
  core::VoronoiCmd voronoi_cmd;
  voronoi_cmd.params = p.voronoi_params();
  voronoi_cmd.sites = &ref.critical;
  ref.voronoi = voronoi_cmd.run(g.csr(), ws);
  return ref;
}

bool matches(const Reference& ref, const core::IndexData& idx,
             const std::vector<int>& critical, const core::VoronoiResult& vor) {
  return idx.khop_size == ref.khop_size && idx.index == ref.index &&
         critical == ref.critical && vor.site_of == ref.voronoi.site_of &&
         vor.dist == ref.voronoi.dist &&
         vor.is_segment == ref.voronoi.is_segment;
}

// The Theorem-5 quantities of one cell.
struct Counts {
  long long transmissions = 0;
  long long receptions = 0;
  int rounds = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const sim::RunStats& s) {
  return {s.transmissions, s.receptions, s.rounds};
}

struct Cell {
  double ms = 0;
  Counts counts;
};

// One untraced cell: run_distributed_stages on `engine`, then its checks.
Cell run_cell(Report& rep, const net::Graph& g, const Reference& ref,
              sim::Engine& engine, const Counts* expect) {
  const Clock::time_point t0 = Clock::now();
  const core::DistributedRun run =
      core::run_distributed_stages(g, core::Params{}, engine);
  Cell c;
  c.ms = ms_since(t0);
  const sim::RunStats total = run.total();
  c.counts = counts_of(total);
  std::string why;
  if (!matches(ref, run.index, run.critical_nodes, run.voronoi)) {
    why += " differs-from-centralized";
  }
  if (total.hit_round_cap) why += " round-cap";
  if (expect != nullptr && !(c.counts == *expect)) why += " counts-changed";
  rep.check(why.empty(), "sim cell (" + std::to_string(engine.threads()) +
                             " threads):" + why);
  return c;
}

// The traced cell: the four protocols of run_distributed_stages, each
// sim::Engine::run timed from here.
struct TracedCell {
  std::array<double, 4> ms{};  // khop, centrality, localmax, voronoi
  Counts counts;
};

constexpr std::array<const char*, 4> kProtocols = {"khop", "centrality",
                                                   "localmax", "voronoi"};

TracedCell traced_cell(Report& rep, const net::Graph& g, const Reference& ref,
                       sim::Engine& engine, const Counts& expect) {
  const core::Params p;
  TracedCell c;
  sim::RunStats total;
  std::size_t at = 0;
  const auto timed = [&](sim::Protocol& protocol) {
    const Clock::time_point t0 = Clock::now();
    total = total + engine.run(protocol);
    c.ms[at++] = ms_since(t0);
  };

  core::IndexData idx;
  core::KhopSizeProtocol khop(g.n(), p.k);
  timed(khop);
  idx.khop_size = khop.sizes();
  core::CentralityProtocol cent(idx.khop_size, p.l, p.centrality_includes_self);
  timed(cent);
  idx.centrality = cent.centrality();
  idx.index.resize(static_cast<std::size_t>(g.n()));
  for (std::size_t v = 0; v < idx.index.size(); ++v) {
    idx.index[v] =
        0.5 * (static_cast<double>(idx.khop_size[v]) + idx.centrality[v]);
  }
  core::LocalMaxProtocol lmax(idx.index, p.effective_local_max_radius());
  timed(lmax);
  const std::vector<char> crit = lmax.critical();
  std::vector<int> critical;
  for (int v = 0; v < g.n(); ++v) {
    if (crit[static_cast<std::size_t>(v)]) critical.push_back(v);
  }
  core::VoronoiProtocol vor(g.n(), critical, p.alpha);
  timed(vor);

  c.counts = counts_of(total);
  rep.check(matches(ref, idx, critical, vor.result()) &&
                !total.hit_round_cap && c.counts == expect,
            "traced sim cell differs from the untraced cells");
  return c;
}

}  // namespace

Report run_sim_window(const Options& opt) {
  Report rep;
  deploy::ScenarioSpec spec;
  spec.target_nodes = opt.smoke ? 2000 : 50000;
  spec.target_avg_deg = 8.0;
  spec.seed = opt.seed;
  spec.counter_sampling = true;
  const geom::Region region = geom::shapes::window();

  // Setup: deployment, CSR build and engine construction, repeated.
  std::vector<double> total_s, deploy_ms, csr_ms;
  deploy::Scenario sc;
  std::unique_ptr<sim::Engine> engine;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    sc = deploy::make_udg_scenario(region, spec);
    deploy_ms.push_back(ms_since(t0));
    const Clock::time_point t1 = Clock::now();
    sc.graph.csr();
    csr_ms.push_back(ms_since(t1));
    engine = std::make_unique<sim::Engine>(sc.graph);
    engine->set_threads(kEngineThreads);
    total_s.push_back(ms_since(t0) / 1000.0);
  }
  rep.set("setup_s", warm_median(total_s));
  rep.set("deploy.scenario_ms", warm_median(deploy_ms));
  rep.set("net.csr_build_ms", warm_median(csr_ms));
  const net::Graph& g = sc.graph;
  const Reference ref = centralized(g, core::Params{});

  // Warm-up cell: starts the engine's pool and sizes its arenas.
  const Counts first = run_cell(rep, g, ref, *engine, nullptr).counts;

  // The traced run splits its window: untraced cells first (the overhead
  // baseline), then traced cells.
  const double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::size_t min_cells = opt.trace ? 3 : kMinOps;
  std::vector<double> cell_ms;
  Clock::time_point t0 = Clock::now();
  do {
    cell_ms.push_back(run_cell(rep, g, ref, *engine, &first).ms);
  } while (keep_going(t0, window_s, cell_ms.size(), min_cells));
  report_ops(rep, cell_ms);
  if (!opt.trace) return rep;

  // Means per cell, so the protocol times add up to the traced cell.
  std::array<double, 4> sum{};
  int cells = 0;
  t0 = Clock::now();
  do {
    const TracedCell c = traced_cell(rep, g, ref, *engine, first);
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += c.ms[i];
    ++cells;
  } while (ms_since(t0) < window_s * 1000);
  double traced_ms = 0;
  for (std::size_t i = 0; i < sum.size(); ++i) {
    rep.set(std::string("sim.") + kProtocols[i] + "_ms", sum[i] / cells);
    traced_ms += sum[i] / cells;
  }
  rep.set("bench.trace_overhead_frac", traced_ms / mean(cell_ms) - 1.0);
  rep.set("sim.transmissions", static_cast<double>(first.transmissions));
  rep.set("sim.receptions", static_cast<double>(first.receptions));
  rep.set("sim.rounds", first.rounds);
  rep.set("sim.tx_per_node",
          static_cast<double>(first.transmissions) / static_cast<double>(g.n()));
  rep.set("sim.receptions_per_s",
          static_cast<double>(first.receptions) / (traced_ms / 1000.0));

  // The same cell on one engine thread: identical counts are checked in
  // run_cell against the 4-thread cells.
  engine->set_threads(1);
  const Cell serial = run_cell(rep, g, ref, *engine, &first);
  rep.set("sim.parallel_speedup", serial.ms / median(cell_ms));
  return rep;
}

}  // namespace skelbench
