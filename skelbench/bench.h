// skelbench/bench.h
//
// Shared pieces of the repository benchmark: options, the per-run
// report (checked operations plus named metric values), and the small
// statistics and timing helpers every workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace skelbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// The golden Window fingerprint (core/fingerprint.h): Fig. 1's network,
// n=2600, seed 7, default parameters.
inline constexpr std::uint64_t kGoldenWindow = 0x75302e0b3de2a7f4ull;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measuring window of the untraced loop
  bool trace = false;   // per-layer run instead of the end-to-end run
  bool smoke = false;   // tiny inputs: the self-test's quick pass
  std::uint64_t golden = kGoldenWindow;  // the self-test overrides it
};

// One workload run's outcome: every checked operation counts into
// attempted, every failed check into failed (error_rate = failed /
// attempted), and metric values are stored by their catalog name.
struct Report {
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> values;

  // Counts one checked operation; a false `ok` is a failure, reported on
  // stderr (the first few only, so a systematic failure stays readable).
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { values[name] = value; }
};

// Median and linearly interpolated percentile (p in [0, 1]) of a sample;
// 0 for an empty sample.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// The end-to-end metrics of an operation loop: median operation latency
// and peak RSS.
void report_ops(Report& rep, const std::vector<double>& op_ms);

// Setup is repeated this many times per run. The first repeat is a cold
// warm-up; setup_s is the median of the others (warm_median).
inline constexpr int kSetupRepeats = 11;

// Median of a set-up sample without its first, cold repeat.
double warm_median(std::vector<double> v);

// Every measuring loop runs at least this many operations, however long
// they take, so that the median rests on enough samples. Only the
// extract_xl loop (2.5-3.5 s per extraction) can reach the floor before
// its window ends.
inline constexpr int kMinOps = 8;

// Whether a measuring loop started at t0 goes on: until `seconds` have
// passed and at least `min_ops` operations are done.
inline bool keep_going(Clock::time_point t0, double seconds, std::size_t done,
                       std::size_t min_ops = kMinOps) {
  return done < min_ops || ms_since(t0) < seconds * 1000;
}

// The four workloads (extract.cpp, sim.cpp, serve.cpp).
Report run_extract_paper(const Options& opt);
Report run_extract_xl(const Options& opt);
Report run_sim_window(const Options& opt);
Report run_serve_mixed(const Options& opt);

}  // namespace skelbench
