// skelbench: the repository benchmark.
//
//   skelbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--golden HEX]
//
// Runs one workload (extract_paper, extract_xl, sim_window, serve_mixed)
// on inputs made from the seed, checks its outputs, and prints the
// metrics: the end-to-end set with --trace 0, the per-layer set with
// --trace 1. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --smoke shrinks the inputs (the self-test in run.py); --golden replaces
// the expected golden Window fingerprint.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using namespace skelbench;

struct Metric {
  const char* name;
  const char* unit;
};

// Reported by every workload with --trace 0 (BENCHMARK.json end_to_end).
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

// Reported by every workload with --trace 1 (BENCHMARK.json per_layer);
// a layer the workload does not exercise reads 0.
const std::vector<Metric> kPerLayer = {
    {"bench.trace_overhead_frac", "ratio"},
    {"deploy.scenario_ms", "ms"},
    {"net.csr_build_ms", "ms"},
    {"net.edge_scans", "count"},
    {"net.bytes_touched", "bytes"},
    {"net.gb_per_s", "GB/s"},
    {"core.extract_wall_ms", "ms"},
    {"core.index_ms", "ms"},
    {"core.identify_ms", "ms"},
    {"core.voronoi_ms", "ms"},
    {"core.assess_ms", "ms"},
    {"core.coarse_ms", "ms"},
    {"core.cleanup_ms", "ms"},
    {"core.prune_ms", "ms"},
    {"core.byproducts_ms", "ms"},
    {"core.unattributed_ms", "ms"},
    {"core.coarse_build_ms", "ms"},
    {"core.critical_nodes", "count"},
    {"core.coarse_bands", "count"},
    {"core.coarse_triangles", "count"},
    {"core.coarse_realized_bands", "count"},
    {"core.pockets", "count"},
    {"core.skeleton_nodes", "count"},
    {"core.index_slope", "ratio"},
    {"core.identify_slope", "ratio"},
    {"core.voronoi_slope", "ratio"},
    {"core.assess_slope", "ratio"},
    {"core.coarse_slope", "ratio"},
    {"core.cleanup_slope", "ratio"},
    {"core.prune_slope", "ratio"},
    {"core.byproducts_slope", "ratio"},
    {"sim.khop_ms", "ms"},
    {"sim.centrality_ms", "ms"},
    {"sim.localmax_ms", "ms"},
    {"sim.voronoi_ms", "ms"},
    {"sim.transmissions", "count"},
    {"sim.receptions", "count"},
    {"sim.tx_per_node", "msgs/node"},
    {"sim.rounds", "count"},
    {"sim.receptions_per_s", "1/s"},
    {"sim.parallel_speedup", "ratio"},
    {"memo.hits", "count"},
    {"memo.misses", "count"},
    {"memo.hit_ratio", "ratio"},
    {"memo.evictions", "count"},
    {"memo.bytes", "bytes"},
    {"svc.cold_ms", "ms"},
    {"svc.warm_ms", "ms"},
    {"svc.tail_ms", "ms"},
    {"svc.session_extract_ms", "ms"},
    {"svc.churn_p50_ms", "ms"},
    {"svc.req_p50_ms", "ms"},
    {"svc.req_p99_ms", "ms"},
    {"svc.queue_wait_p50_ms", "ms"},
    {"svc.queue_wait_p99_ms", "ms"},
    {"svc.read_share", "ratio"},
    {"svc.tail_share", "ratio"},
    {"svc.cold_write_share", "ratio"},
    {"maintain.repairs_local", "count"},
    {"maintain.repairs_regional", "count"},
    {"maintain.repairs_full", "count"},
    {"maintain.escalations", "count"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "skelbench: %s\nusage: skelbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--golden HEX]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--golden") {
      opt.golden = std::strtoull(argv[++i], nullptr, 16);
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }

  Report rep;
  try {
    if (opt.workload == "extract_paper") {
      rep = run_extract_paper(opt);
    } else if (opt.workload == "extract_xl") {
      rep = run_extract_xl(opt);
    } else if (opt.workload == "sim_window") {
      rep = run_sim_window(opt);
    } else if (opt.workload == "serve_mixed") {
      rep = run_serve_mixed(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skelbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  const std::vector<Metric>& catalog = opt.trace ? kPerLayer : kEndToEnd;
  std::string json = "{\"correct\": ";
  json += rep.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  const double error_rate =
      rep.attempted > 0 ? static_cast<double>(rep.failed) / rep.attempted : 1.0;
  std::printf("%-28s %18.6g %s\n", "error_rate", error_rate, "ratio");
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const Metric& m = catalog[i];
    const auto it = rep.values.find(m.name);
    if (!opt.trace && it == rep.values.end()) {
      std::fprintf(stderr, "skelbench: %s did not measure %s\n",
                   opt.workload.c_str(), m.name);
      return 1;
    }
    double v = it == rep.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%-28s %18.6g %s\n", m.name, v, m.unit);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += i == 0 ? "\"" : ", \"";
    json += m.name;
    json += "\": {\"value\": ";
    json += buf;
    json += ", \"unit\": \"";
    json += m.unit;
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
