#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace skelbench {

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  if (++failed <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

double warm_median(std::vector<double> v) {
  if (v.size() > 1) v.erase(v.begin());
  return median(std::move(v));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void report_ops(Report& rep, const std::vector<double>& op_ms) {
  rep.set("op_p50_ms", median(op_ms));
  rep.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace skelbench
