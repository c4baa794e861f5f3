// The two centralized-extraction workloads.
//
//   extract_paper — one thread extracts the eleven paper networks (Fig. 1's
//     golden Window and Fig. 4's ten scenarios at paper n and degree) in a
//     loop. The networks are fixed; the seed orders each loop's visits.
//   extract_xl    — one thread extracts the Window at n ~ 7e4, degree 8,
//     counter-sampled with the window_xl cell's fixed deployment seed.
//
// The end-to-end run times core::extract_skeleton alone. The traced run
// drives the eight stage commands (core/stage_cmd.h) itself, timing each,
// and checks that the chain reproduces extract_skeleton's fingerprint.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "core/fingerprint.h"
#include "core/maintain.h"
#include "core/pipeline.h"
#include "core/stage_cmd.h"
#include "deploy/scenario.h"
#include "geometry/shapes.h"

namespace skelbench {
namespace {

using namespace skelex;

constexpr std::array<const char*, 8> kStages = {
    "index", "identify", "voronoi", "assess",
    "coarse", "cleanup", "prune", "byproducts"};

struct NetSpec {
  std::string name;
  geom::Region region;
  deploy::ScenarioSpec spec;
  bool golden = false;  // must hash to Options::golden
};

struct Network {
  std::string name;
  int holes = 0;
  bool golden = false;
  deploy::Scenario scenario;
  std::uint64_t first_fp = 0;  // fingerprint of the first extraction
  bool seen = false;
};

struct Deployed {
  std::vector<Network> nets;
  double deploy_ms = 0;  // make_udg_scenario, summed over the networks
  double csr_ms = 0;     // first Graph::csr() build, summed
};

Deployed deploy_all(const std::vector<NetSpec>& specs) {
  Deployed d;
  for (const NetSpec& s : specs) {
    Network net;
    net.name = s.name;
    net.holes = static_cast<int>(s.region.hole_count());
    net.golden = s.golden;
    Clock::time_point t0 = Clock::now();
    net.scenario = deploy::make_udg_scenario(s.region, s.spec);
    d.deploy_ms += ms_since(t0);
    t0 = Clock::now();
    net.scenario.graph.csr();
    d.csr_ms += ms_since(t0);
    d.nets.push_back(std::move(net));
  }
  return d;
}

// Deploys the specs kSetupRepeats times and keeps the last set; the
// setup metrics are medians over the repeats after the cold first one.
Deployed setup(const std::vector<NetSpec>& specs, Report& rep) {
  std::vector<double> total_s, deploy_ms, csr_ms;
  Deployed d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    d = deploy_all(specs);
    total_s.push_back(ms_since(t0) / 1000.0);
    deploy_ms.push_back(d.deploy_ms);
    csr_ms.push_back(d.csr_ms);
  }
  rep.set("setup_s", warm_median(total_s));
  rep.set("deploy.scenario_ms", warm_median(deploy_ms));
  rep.set("net.csr_build_ms", warm_median(csr_ms));
  return d;
}

// The checks every extraction passes: golden fingerprint, repeatability,
// structural invariants, and cycle rank == holes.
void check_extraction(Report& rep, const Options& opt, Network& net,
                      const core::SkeletonResult& r, std::uint64_t fp) {
  const net::Graph& g = net.scenario.graph;
  const std::vector<char> active(static_cast<std::size_t>(g.n()), 1);
  const core::InvariantReport inv =
      core::check_skeleton_invariants(g.csr(), active, r);
  std::string why;
  if (net.golden && fp != opt.golden) why += " golden-fingerprint";
  if (net.seen && fp != net.first_fp) why += " not-repeatable";
  if (!inv.ok()) why += " invariants";
  if (r.skeleton_cycle_rank() != net.holes) why += " cycle-rank";
  if (!net.seen) {
    net.first_fp = fp;
    net.seen = true;
  }
  rep.check(why.empty(), net.name + ":" + why);
}

// One extract_skeleton call plus its checks; returns the call's wall time
// in ms.
double extract_and_check(Report& rep, const Options& opt, Network& net) {
  const Clock::time_point t0 = Clock::now();
  const core::SkeletonResult r =
      core::extract_skeleton(net.scenario.graph, core::Params{});
  const double ms = ms_since(t0);
  check_extraction(rep, opt, net, r, core::result_fingerprint(r));
  return ms;
}

// Per-stage accounting of one chained extraction.
struct ChainTimes {
  std::array<double, kStages.size()> stage_ms{};
  double wall_ms = 0;
  long long edge_scans = 0;
  long long bytes_touched = 0;
  long long critical_nodes = 0;
  long long pockets = 0;
  long long skeleton_nodes = 0;

  void add(const ChainTimes& o) {
    for (std::size_t i = 0; i < stage_ms.size(); ++i) stage_ms[i] += o.stage_ms[i];
    wall_ms += o.wall_ms;
    edge_scans += o.edge_scans;
    bytes_touched += o.bytes_touched;
    critical_nodes += o.critical_nodes;
    pockets += o.pockets;
    skeleton_nodes += o.skeleton_nodes;
  }

  // The mean of `runs` accumulated chains: means add up, so the stages
  // plus the unattributed rest still equal the wall time.
  ChainTimes mean_of(int runs) const {
    ChainTimes m;
    for (std::size_t i = 0; i < stage_ms.size(); ++i) m.stage_ms[i] = stage_ms[i] / runs;
    m.wall_ms = wall_ms / runs;
    m.edge_scans = edge_scans / runs;
    m.bytes_touched = bytes_touched / runs;
    m.critical_nodes = critical_nodes / runs;
    m.pockets = pockets / runs;
    m.skeleton_nodes = skeleton_nodes / runs;
    return m;
  }
};

// Runs the eight stage commands in pipeline order, assembling the same
// SkeletonResult extract_skeleton does (core/pipeline.cpp, no cache).
core::SkeletonResult run_chain(const net::Graph& g, ChainTimes& t) {
  const core::Params p;
  std::size_t stage = 0;
  Clock::time_point t0;
  const auto start = [&] { t0 = Clock::now(); };
  const auto stop = [&] { t.stage_ms[stage++] = ms_since(t0); };

  const Clock::time_point wall0 = Clock::now();
  core::SkeletonResult r;
  r.params = p;
  const net::CsrGraph& csr = g.csr();
  net::Workspace ws;
  ws.reserve(g.n());

  core::IndexCmd index_cmd;
  index_cmd.params = p.index_params();
  start();
  r.index_out = std::make_shared<const core::IndexData>(index_cmd.run(csr, ws));
  stop();

  core::IdentifyCmd identify_cmd;
  identify_cmd.params = p.identify_params();
  identify_cmd.index = r.index_out.get();
  start();
  r.critical_nodes = identify_cmd.run(csr, ws);
  stop();

  core::VoronoiCmd voronoi_cmd;
  voronoi_cmd.params = p.voronoi_params();
  voronoi_cmd.sites = &r.critical_nodes;
  start();
  r.voronoi_out =
      std::make_shared<const core::VoronoiResult>(voronoi_cmd.run(csr, ws));
  stop();

  core::AssessCmd assess_cmd;
  assess_cmd.params = p.voronoi_params();
  assess_cmd.index = &r.index();
  assess_cmd.critical = &r.critical_nodes;
  assess_cmd.voronoi = &r.voronoi();
  start();
  const core::AssessOutput assess = assess_cmd.run(csr, ws);
  stop();
  if (assess.patched) {
    r.critical_nodes = assess.critical;
    r.voronoi_out = assess.voronoi;
  }

  core::CoarseCmd coarse_cmd;
  coarse_cmd.params = p.coarse_params();
  coarse_cmd.g = &g;
  coarse_cmd.index = &r.index();
  coarse_cmd.voronoi = &r.voronoi();
  start();
  r.coarse_out = std::make_shared<const core::SkeletonGraph>(coarse_cmd.run());
  stop();

  core::CleanupCmd cleanup_cmd;
  cleanup_cmd.params = p.cleanup_params();
  cleanup_cmd.g = &g;
  cleanup_cmd.index = &r.index();
  cleanup_cmd.voronoi = &r.voronoi();
  cleanup_cmd.coarse = &r.coarse();
  start();
  core::CleanupResult cleaned = cleanup_cmd.run();
  stop();
  r.fake_loops_removed = cleaned.fake_loops_removed;
  r.merge_rounds = cleaned.merge_rounds;
  r.thin_loops_collapsed = cleaned.thin_loops_collapsed;
  r.pockets = std::move(cleaned.pockets);

  core::PruneCmd prune_cmd;
  prune_cmd.params = p.prune_params();
  prune_cmd.skeleton = &cleaned.graph;
  prune_cmd.comps = &assess.comps;
  start();
  core::PruneOutput pruned = prune_cmd.run();
  stop();
  r.skeleton = std::move(pruned.skeleton);
  r.pruned_nodes = pruned.pruned_nodes;

  core::ByproductsCmd byp_cmd;
  byp_cmd.g = &g;
  byp_cmd.index = &r.index();
  byp_cmd.voronoi = &r.voronoi();
  byp_cmd.skeleton = &r.skeleton;
  start();
  core::ByproductsOutput byp = byp_cmd.run();
  stop();
  r.segmentation = std::move(byp.segmentation);
  r.boundary = std::move(byp.boundary);

  t.wall_ms = ms_since(wall0);
  t.edge_scans = ws.edge_scans;
  t.bytes_touched = ws.bytes_touched;
  t.critical_nodes = static_cast<long long>(r.critical_nodes.size());
  t.pockets = static_cast<long long>(r.pockets.size());
  t.skeleton_nodes = r.skeleton.node_count();
  return r;
}

// Chained extraction plus its checks: the chain must reproduce the
// network's extract_skeleton fingerprint (recorded on its first run).
ChainTimes chain_and_check(Report& rep, const Options& opt, Network& net,
                           core::SkeletonResult* keep = nullptr) {
  ChainTimes t;
  core::SkeletonResult r = run_chain(net.scenario.graph, t);
  const std::uint64_t fp = core::result_fingerprint(r);
  if (!net.seen) {
    // No extract_skeleton reference yet: take one (untimed) first.
    extract_and_check(rep, opt, net);
  }
  rep.check(fp == net.first_fp, net.name + ": chained stages differ from "
                                           "extract_skeleton");
  if (keep != nullptr) *keep = std::move(r);
  return t;
}

// core::build_coarse_skeleton on the network's stage-1/2 outputs: the
// coarse sub-call's time and its nerve counts. Its graph must equal the
// coarse stage's.
struct CoarseFacts {
  double ms = 0;
  long long bands = 0, triangles = 0, realized = 0;

  void add(const CoarseFacts& o) {
    ms += o.ms;
    bands += o.bands;
    triangles += o.triangles;
    realized += o.realized;
  }
};

CoarseFacts coarse_facts(Report& rep, const Network& net,
                         const core::SkeletonResult& r) {
  const net::Graph& g = net.scenario.graph;
  const core::Params p;
  const Clock::time_point t0 = Clock::now();
  const core::CoarseSkeleton c =
      core::build_coarse_skeleton(g, r.index(), r.voronoi(), p.coarse_params());
  CoarseFacts f;
  f.ms = ms_since(t0);
  f.bands = static_cast<long long>(c.bands.size());
  f.triangles = static_cast<long long>(c.triangles.size());
  f.realized = static_cast<long long>(c.realized_bands.size());
  rep.check(core::skeleton_fingerprint(c.graph) ==
                core::skeleton_fingerprint(r.coarse()),
            net.name + ": build_coarse_skeleton differs from the coarse stage");
  return f;
}

// Per-layer metrics of a chained extraction (totals over one loop).
void report_chain(Report& rep, const ChainTimes& t, double untraced_ms) {
  double sum = 0;
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    rep.set(std::string("core.") + kStages[i] + "_ms", t.stage_ms[i]);
    sum += t.stage_ms[i];
  }
  rep.set("core.extract_wall_ms", t.wall_ms);
  rep.set("core.unattributed_ms", t.wall_ms - sum);
  rep.set("net.edge_scans", static_cast<double>(t.edge_scans));
  rep.set("net.bytes_touched", static_cast<double>(t.bytes_touched));
  // The flood kernels run in the stages that use the Workspace.
  const double flood_ms = t.stage_ms[0] + t.stage_ms[1] + t.stage_ms[2] +
                          t.stage_ms[3];
  rep.set("net.gb_per_s",
          flood_ms > 0 ? static_cast<double>(t.bytes_touched) / 1e6 / flood_ms
                       : 0.0);
  rep.set("core.critical_nodes", static_cast<double>(t.critical_nodes));
  rep.set("core.pockets", static_cast<double>(t.pockets));
  rep.set("core.skeleton_nodes", static_cast<double>(t.skeleton_nodes));
  rep.set("bench.trace_overhead_frac",
          untraced_ms > 0 ? t.wall_ms / untraced_ms - 1.0 : 0.0);
}

void report_coarse(Report& rep, const CoarseFacts& f) {
  rep.set("core.coarse_build_ms", f.ms);
  rep.set("core.coarse_bands", static_cast<double>(f.bands));
  rep.set("core.coarse_triangles", static_cast<double>(f.triangles));
  rep.set("core.coarse_realized_bands", static_cast<double>(f.realized));
}

// --- extract_paper -----------------------------------------------------------

std::vector<NetSpec> paper_specs() {
  std::vector<NetSpec> specs;
  NetSpec window;
  window.name = "window";
  window.region = geom::shapes::window();
  window.spec.target_nodes = 2592;  // the golden scenario: n = 2600
  window.spec.target_avg_deg = 5.96;
  window.spec.seed = 7;
  window.golden = true;
  specs.push_back(window);
  for (const geom::shapes::NamedShape& s : geom::shapes::paper_scenarios()) {
    NetSpec ns;
    ns.name = s.name;
    ns.region = s.region;
    ns.spec.target_nodes = s.paper_nodes;
    ns.spec.target_avg_deg = s.paper_avg_deg;
    ns.spec.seed = 20260704;  // bench_fig4_scenarios' deployment
    specs.push_back(ns);
  }
  return specs;
}

// One loop over the networks in a seeded order; returns the loop's
// extraction time (checks excluded).
double paper_loop(Report& rep, const Options& opt, std::vector<Network>& nets,
                  std::vector<std::size_t>& order, std::mt19937_64& rng) {
  std::shuffle(order.begin(), order.end(), rng);
  double ms = 0;
  for (std::size_t i : order) ms += extract_and_check(rep, opt, nets[i]);
  return ms;
}

}  // namespace

Report run_extract_paper(const Options& opt) {
  Report rep;
  std::vector<NetSpec> specs = paper_specs();
  if (opt.smoke) specs.resize(3);
  Deployed d = setup(specs, rep);
  std::vector<std::size_t> order(d.nets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(opt.seed);
  // Warm-up: one checked loop, untimed.
  paper_loop(rep, opt, d.nets, order, rng);

  // The traced run splits its window: untraced loops first (the overhead
  // baseline), then chained loops.
  const double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> loop_ms;
  Clock::time_point t0 = Clock::now();
  do {
    loop_ms.push_back(paper_loop(rep, opt, d.nets, order, rng));
  } while (keep_going(t0, window_s, loop_ms.size()));
  report_ops(rep, loop_ms);
  if (!opt.trace) return rep;

  ChainTimes total;
  CoarseFacts coarse;
  int loops = 0;
  t0 = Clock::now();
  do {
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i : order) {
      core::SkeletonResult r;
      total.add(chain_and_check(rep, opt, d.nets[i], &r));
      if (loops == 0) coarse.add(coarse_facts(rep, d.nets[i], r));
    }
    ++loops;
  } while (ms_since(t0) < window_s * 1000);
  report_chain(rep, total.mean_of(loops), mean(loop_ms));
  report_coarse(rep, coarse);
  return rep;
}

// --- extract_xl --------------------------------------------------------------

namespace {

// ROADMAP's window_xl cell: the Window at degree 8, counter-sampled with
// bench_fig4_scenarios' deployment seed. The coarse stage's cost swings by
// about 15% between deployments of the same size, so the workload keeps
// this one deployment instead of drawing it from --seed.
constexpr std::uint64_t kXlSeed = 20260704;
// Large enough that coarse takes over 80% of the extraction (at 60k-70k
// this deployment gives 77-79%), small enough that a 25 s window holds
// about 7 extractions.
constexpr int kXlNodes = 80000;
// The traced run's n ladder, one chained extraction per rung.
constexpr std::array<int, 3> kXlLadder = {25000, 50000, 100000};

NetSpec xl_spec(int nodes) {
  NetSpec s;
  s.name = "window_xl_" + std::to_string(nodes);
  s.region = geom::shapes::window();
  s.spec.target_nodes = nodes;
  s.spec.target_avg_deg = 8.0;
  s.spec.seed = kXlSeed;
  s.spec.counter_sampling = true;
  return s;
}

// Least-squares slope of log(ms) over log(n).
double loglog_slope(const std::vector<double>& n, const std::vector<double>& ms) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double k = static_cast<double>(n.size());
  for (std::size_t i = 0; i < n.size(); ++i) {
    const double x = std::log(n[i]);
    const double y = std::log(std::max(ms[i], 1e-6));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double den = k * sxx - sx * sx;
  return den != 0 ? (k * sxy - sx * sy) / den : 0.0;
}

}  // namespace

Report run_extract_xl(const Options& opt) {
  Report rep;
  const int shrink = opt.smoke ? 25 : 1;
  Deployed d = setup({xl_spec(kXlNodes / shrink)}, rep);
  Network& net = d.nets.front();
  // Warm-up: one checked extraction, untimed.
  extract_and_check(rep, opt, net);

  std::vector<double> op_ms;
  const Clock::time_point t0 = Clock::now();
  if (!opt.trace) {
    do {
      op_ms.push_back(extract_and_check(rep, opt, net));
    } while (keep_going(t0, opt.seconds, op_ms.size()));
    report_ops(rep, op_ms);
    return rep;
  }

  // Traced: untraced and chained extractions alternate over the window.
  ChainTimes total;
  int chains = 0;
  core::SkeletonResult top_result;
  do {
    op_ms.push_back(extract_and_check(rep, opt, net));
    total.add(chain_and_check(rep, opt, net, &top_result));
    ++chains;
  } while (keep_going(t0, opt.seconds, op_ms.size(), 3));
  report_chain(rep, total.mean_of(chains), mean(op_ms));
  report_coarse(rep, coarse_facts(rep, net, top_result));

  // Slopes over the n ladder are reported, not gated.
  std::vector<double> ns;
  std::vector<std::array<double, kStages.size()>> stage_ms;
  for (int nodes : kXlLadder) {
    Deployed rung = deploy_all({xl_spec(nodes / shrink)});
    const ChainTimes t = chain_and_check(rep, opt, rung.nets.front());
    ns.push_back(rung.nets.front().scenario.graph.n());
    stage_ms.push_back(t.stage_ms);
  }
  for (std::size_t s = 0; s < kStages.size(); ++s) {
    std::vector<double> ms;
    for (const auto& rung : stage_ms) ms.push_back(rung[s]);
    rep.set(std::string("core.") + kStages[s] + "_slope", loglog_slope(ns, ms));
  }
  return rep;
}

}  // namespace skelbench
