// serve_mixed: one load process, three closed-loop client connections to
// an in-process svc::Server (2-worker pool, default options) in front of
// an ExtractionService. Each client sends rounds of requests; one round,
// from its first request to its last reply, is the workload's operation.
// A round holds, in a seeded order:
//
//   read     — warm extract over 3 shapes x 4 seeds (first responses taken
//              during setup; every later fingerprint must equal them);
//   tail     — a read with a never-seen cleanup value (thin_cycle_ratio),
//              so stages 1-3 replay from cache and the tail reruns;
//   cold     — extract of a fresh deployment seed;
//   churn    — cmd=churn rounds=1 on the client's own live session;
//   session  — extract of that session with canonical=1, which must
//              report matches_canonical and invariants_ok.
//
// A non-ok or busy reply is a failed operation. The traced run scrapes
// cmd=stats and cmd=metrics around its window for the memo cache and
// queue-wait numbers, and sums the churn replies' repair tiers.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "deploy/scenario.h"
#include "exec/thread_pool.h"
#include "geometry/shapes.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/service.h"

namespace skelbench {
namespace {

using namespace skelex;

constexpr int kClients = 3;
constexpr int kWorkers = 2;
constexpr int kReadSeeds = 4;
const char* const kShapes[] = {"window", "smile", "annulus"};

enum Kind { kRead, kTail, kCold, kChurn, kSession, kKinds };
const char* const kKindName[kKinds] = {"read", "tail", "cold", "churn",
                                       "session"};

// --- response scraping (no JSON parser in the library) ----------------------

bool has(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

// The integer after `"key": `, or `fallback` when absent.
long long int_field(const std::string& s, const std::string& key,
                    long long fallback = -1) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = s.find(tag);
  if (at == std::string::npos) return fallback;
  return std::strtoll(s.c_str() + at + tag.size(), nullptr, 10);
}

// The string after `"key": "`, up to the closing quote.
std::string str_field(const std::string& s, const std::string& key) {
  const std::string tag = "\"" + key + "\": \"";
  const std::size_t at = s.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t from = at + tag.size();
  return s.substr(from, s.find('"', from) - from);
}

// Cumulative svc_queue_wait_ms bucket counts from a cmd=metrics reply's
// Prometheus exposition (a JSON-escaped string): upper bound -> count.
std::map<double, double> queue_wait_buckets(const std::string& reply) {
  const std::string tag = "\"exposition\": \"";
  std::size_t i = reply.find(tag);
  std::string text;
  if (i != std::string::npos) {
    for (i += tag.size(); i < reply.size() && reply[i] != '"'; ++i) {
      if (reply[i] == '\\' && i + 1 < reply.size()) {
        ++i;
        text += reply[i] == 'n' ? '\n' : reply[i];
      } else {
        text += reply[i];
      }
    }
  }
  std::map<double, double> buckets;
  const std::string prefix = "svc_queue_wait_ms_bucket{le=\"";
  for (std::size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    const char* le = text.c_str() + at + prefix.size();
    const double bound = std::strncmp(le, "+Inf", 4) == 0
                             ? 1e300
                             : std::strtod(le, nullptr);
    const std::size_t space = text.find(' ', at);
    buckets[bound] = std::strtod(text.c_str() + space + 1, nullptr);
  }
  return buckets;
}

// Quantile of the histogram difference after - before, interpolated
// linearly inside the bucket (the Prometheus histogram_quantile rule).
double bucket_quantile(const std::map<double, double>& before,
                       const std::map<double, double>& after, double q) {
  if (after.empty()) return 0;
  const double total = after.rbegin()->second -
                       (before.empty() ? 0 : before.rbegin()->second);
  if (total <= 0) return 0;
  const double target = q * total;
  double lower = 0, prev = 0, last_finite = 0;
  for (const auto& [bound, cum_after] : after) {
    const auto b = before.find(bound);
    const double cum = cum_after - (b == before.end() ? 0 : b->second);
    if (bound >= 1e300) return last_finite;  // beyond the last bound
    if (cum >= target) {
      return cum > prev ? lower + (bound - lower) * (target - prev) / (cum - prev)
                        : bound;
    }
    lower = last_finite = bound;
    prev = cum;
  }
  return last_finite;
}

// --- the rig ------------------------------------------------------------------

struct Rig {
  // Declaration order is teardown order reversed: clients hang up first,
  // then the server drains and stops, then the pool and service go.
  std::unique_ptr<svc::ExtractionService> service;
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<svc::Server> server;
  std::vector<std::unique_ptr<svc::Client>> clients;
  std::vector<long long> sessions;  // one per client

  // Explicit teardown, in that order (move-assigning a Rig would destroy
  // the service before the server that uses it).
  void shutdown() {
    clients.clear();
    server.reset();
    pool.reset();
    service.reset();
  }
};

struct Shared {
  int nodes = 2000;
  std::uint64_t seed = 1;
  std::mutex mu;  // guards first_fp
  std::map<std::string, std::string> first_fp;  // read key -> fingerprint
};

svc::Request read_request(const Shared& sh, int shape, int seed_slot) {
  svc::Request r;
  r.shape = kShapes[shape];
  r.nodes = sh.nodes;
  r.seed = sh.seed * kReadSeeds + static_cast<std::uint64_t>(seed_slot);
  r.with_trace = false;
  return r;
}

std::string read_key(const svc::Request& r) {
  return r.shape + "/" + std::to_string(r.seed);
}

// How many requests of each kind one round holds. No production trace
// exists to take a mix from, so this one is an assumption, sized by time
// rather than by count: with the per-kind latencies of the traced run
// (skelbench/README.md), the reads, the tail variants, and the cold
// request plus the session's two writes each take about a third of a
// round. A 2x slowdown of any one group moves op_p50_ms by about a third.
constexpr int kRoundMix[kKinds] = {14, 12, 1, 1, 1};

struct Planned {
  Kind kind;
  svc::Request req;
};

// One client's seeded rounds.
class Planner {
 public:
  Planner(const Shared& sh, int client, long long session)
      : sh_(sh), client_(client), session_(session),
        rng_(sh.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(client)) {}

  std::vector<Planned> next_round() {
    std::vector<Kind> kinds;
    for (int k = 0; k < kKinds; ++k) kinds.insert(kinds.end(), kRoundMix[k], Kind(k));
    std::shuffle(kinds.begin(), kinds.end(), rng_);
    std::vector<Planned> round;
    for (Kind kind : kinds) round.push_back({kind, make(kind)});
    return round;
  }

  // Whether the session's served skeleton must equal the canonical
  // extraction. Tier >= 1 repairs rebuild stages 3+ and are bit-identical
  // to it; a tier-0 local patch keeps the served stages 3+ by design
  // (core/maintain.h), so identity is owed again only after the next
  // tier >= 1 repair.
  bool served_exact = true;

 private:
  svc::Request make(Kind kind) {
    svc::Request r =
        read_request(sh_, static_cast<int>(rng_() % 3),
                     static_cast<int>(rng_() % kReadSeeds));
    ++count_;
    const std::uint64_t unique =
        static_cast<std::uint64_t>(count_) * kClients + client_;
    switch (kind) {
      case kTail:
        // 6 significant digits survive the text protocol; values stay
        // distinct below 1e5 tail requests per run.
        r.params.thin_cycle_ratio =
            0.2 + 1e-6 * static_cast<double>(unique % 100000);
        break;
      case kCold:
        r.seed = (sh_.seed << 32) + 0x40000000ull + unique;
        break;
      case kChurn:
        r = svc::Request{};
        r.cmd = "churn";
        r.session_id = session_;
        r.churn_rounds = 1;
        r.churn_seed = unique;
        break;
      case kSession:
        r = svc::Request{};
        r.cmd = "extract";
        r.session_id = session_;
        r.canonical = true;
        break;
      default:
        break;
    }
    return r;
  }

  const Shared& sh_;
  int client_;
  long long session_;
  std::mt19937_64 rng_;
  long long count_ = 0;
};

// What one client measured in one phase.
struct ClientLog {
  std::vector<double> round_ms;
  std::vector<double> lat[kKinds];
  long long attempted = 0, failed = 0;
  std::vector<std::string> failures;
  long long repairs[4] = {0, 0, 0, 0};  // local, regional, full, escalations
};

// Checks a reply; returns an empty string when it passes.
std::string check_reply(Shared& sh, Kind kind, const svc::Request& req,
                        const std::string& resp, ClientLog& log,
                        bool* served_exact) {
  if (!has(resp, "\"ok\": true")) {
    return has(resp, "\"busy\"") ? "busy" : "not ok: " + resp.substr(0, 200);
  }
  if (kind == kRead) {
    const std::string fp = str_field(resp, "fingerprint");
    std::lock_guard<std::mutex> lk(sh.mu);
    const auto [it, fresh] = sh.first_fp.emplace(read_key(req), fp);
    if (!fresh && it->second != fp) return "fingerprint changed";
  }
  if (kind == kSession) {
    if (!has(resp, "\"invariants_ok\": true")) return "invariants fail";
    if (*served_exact && !has(resp, "\"matches_canonical\": true")) {
      return "matches_canonical false";
    }
  }
  if (kind == kChurn) {
    const long long local = int_field(resp, "repairs_local", 0);
    const long long regional = int_field(resp, "repairs_regional", 0);
    const long long full = int_field(resp, "repairs_full", 0);
    log.repairs[0] += local;
    log.repairs[1] += regional;
    log.repairs[2] += full;
    log.repairs[3] += int_field(resp, "escalations", 0);
    // rounds=1: at most one repair per churn request.
    if (local > 0) *served_exact = false;
    if (regional + full > 0) *served_exact = true;
  }
  return {};
}

std::string send(svc::Client& client, svc::Request req, long long* id) {
  req.id = ++*id;
  return client.request(req);
}

Rig make_rig(Shared& sh, Report& rep) {
  Rig rig;
  rig.service = std::make_unique<svc::ExtractionService>();
  rig.pool = std::make_unique<exec::ThreadPool>(kWorkers);
  rig.server = std::make_unique<svc::Server>(*rig.service, *rig.pool);
  long long id = 0;
  for (int c = 0; c < kClients; ++c) {
    rig.clients.push_back(std::make_unique<svc::Client>(rig.server->port()));
    svc::Request open = read_request(sh, c, 0);
    open.cmd = "session";
    const std::string resp = send(*rig.clients.back(), open, &id);
    rep.check(has(resp, "\"ok\": true"), "session open: " + resp);
    rig.sessions.push_back(int_field(resp, "session"));
  }
  // Warm the read set; the first responses are the reference fingerprints.
  ClientLog log;
  for (int shape = 0; shape < 3; ++shape) {
    for (int s = 0; s < kReadSeeds; ++s) {
      const svc::Request req = read_request(sh, shape, s);
      bool exact = true;
      const std::string why = check_reply(
          sh, kRead, req, send(*rig.clients[0], req, &id), log, &exact);
      rep.check(why.empty(), "warm read: " + why);
    }
  }
  return rig;
}

// Runs the three clients for `seconds`, each for at least its share of
// kMinOps rounds; returns their logs.
std::vector<ClientLog> run_phase(Shared& sh, Rig& rig,
                                 std::vector<Planner>& planners,
                                 double seconds) {
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  const std::size_t min_rounds = (kMinOps + kClients - 1) / kClients;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      svc::Client& client = *rig.clients[static_cast<std::size_t>(c)];
      Planner& planner = planners[static_cast<std::size_t>(c)];
      long long id = 1'000'000;
      do {
        const std::vector<Planned> round = planner.next_round();
        const Clock::time_point round0 = Clock::now();
        for (const Planned& p : round) {
          const Clock::time_point r0 = Clock::now();
          const std::string resp = send(client, p.req, &id);
          log.lat[p.kind].push_back(ms_since(r0));
          const std::string why = check_reply(sh, p.kind, p.req, resp, log,
                                              &planner.served_exact);
          ++log.attempted;
          if (!why.empty()) {
            ++log.failed;
            log.failures.push_back(std::string(kKindName[p.kind]) + ": " + why);
          }
        }
        log.round_ms.push_back(ms_since(round0));
      } while (keep_going(t0, seconds, log.round_ms.size(), min_rounds));
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

// Folds the logs into the report; returns every round's latency.
std::vector<double> merge(Report& rep, const std::vector<ClientLog>& logs) {
  std::vector<double> rounds;
  for (const ClientLog& log : logs) {
    rounds.insert(rounds.end(), log.round_ms.begin(), log.round_ms.end());
    // The passes count here; each failure counts through check().
    rep.attempted += log.attempted - log.failed;
    for (const std::string& f : log.failures) rep.check(false, f);
  }
  return rounds;
}

struct CacheCounts {
  long long hits = 0, misses = 0, evictions = 0, bytes = 0;
};

CacheCounts cache_counts(svc::Client& client, long long* id) {
  svc::Request req;
  req.cmd = "stats";
  const std::string s = send(client, req, id);
  return {int_field(s, "hits", 0), int_field(s, "misses", 0),
          int_field(s, "evictions", 0), int_field(s, "bytes", 0)};
}

std::string metrics_reply(svc::Client& client, long long* id) {
  svc::Request req;
  req.cmd = "metrics";
  return send(client, req, id);
}

}  // namespace

Report run_serve_mixed(const Options& opt) {
  Report rep;
  Shared sh;
  sh.nodes = opt.smoke ? 300 : 2000;
  sh.seed = opt.seed;

  // Setup: service + server + clients + sessions + warm reads, repeated;
  // the last rig serves the run.
  std::vector<double> setup_s;
  Rig rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.shutdown();
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      sh.first_fp.clear();
    }
    const Clock::time_point t0 = Clock::now();
    rig = make_rig(sh, rep);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  rep.set("setup_s", warm_median(setup_s));

  std::vector<Planner> planners;
  for (int c = 0; c < kClients; ++c) {
    planners.emplace_back(sh, c, rig.sessions[static_cast<std::size_t>(c)]);
  }

  if (!opt.trace) {
    report_ops(rep, merge(rep, run_phase(sh, rig, planners, opt.seconds)));
    return rep;
  }

  // Traced: scrape the service around the window.
  long long id = 5'000'000;
  svc::Client& probe = *rig.clients[0];
  const CacheCounts c0 = cache_counts(probe, &id);
  const auto q0 = queue_wait_buckets(metrics_reply(probe, &id));
  const std::vector<ClientLog> logs = run_phase(sh, rig, planners, opt.seconds);
  const CacheCounts c1 = cache_counts(probe, &id);
  const auto q1 = queue_wait_buckets(metrics_reply(probe, &id));
  const std::vector<double> rounds = merge(rep, logs);

  std::vector<double> lat[kKinds];
  std::vector<double> all;
  long long repairs[4] = {0, 0, 0, 0};
  for (const ClientLog& log : logs) {
    for (int k = 0; k < kKinds; ++k) {
      lat[k].insert(lat[k].end(), log.lat[k].begin(), log.lat[k].end());
      all.insert(all.end(), log.lat[k].begin(), log.lat[k].end());
    }
    for (int i = 0; i < 4; ++i) repairs[i] += log.repairs[i];
  }
  rep.set("svc.warm_ms", median(lat[kRead]));
  rep.set("svc.tail_ms", median(lat[kTail]));
  rep.set("svc.cold_ms", median(lat[kCold]));
  rep.set("svc.session_extract_ms", median(lat[kSession]));
  rep.set("svc.churn_p50_ms", median(lat[kChurn]));
  rep.set("svc.req_p50_ms", median(all));
  rep.set("svc.req_p99_ms", percentile(all, 0.99));
  rep.set("svc.queue_wait_p50_ms", bucket_quantile(q0, q1, 0.5));
  rep.set("svc.queue_wait_p99_ms", bucket_quantile(q0, q1, 0.99));
  // The share of the rounds' time each group of kRoundMix takes.
  const double round_total = mean(rounds) * static_cast<double>(rounds.size());
  const auto share = [&](std::initializer_list<Kind> kinds) {
    double sum = 0;
    for (Kind k : kinds) sum += mean(lat[k]) * static_cast<double>(lat[k].size());
    return round_total > 0 ? sum / round_total : 0.0;
  };
  rep.set("svc.read_share", share({kRead}));
  rep.set("svc.tail_share", share({kTail}));
  rep.set("svc.cold_write_share", share({kCold, kChurn, kSession}));
  // The traced run adds no timers to the requests, only the stats and
  // metrics scrapes before and after the window: nothing to measure.
  rep.set("bench.trace_overhead_frac", 0.0);

  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double misses = static_cast<double>(c1.misses - c0.misses);
  rep.set("memo.hits", hits);
  rep.set("memo.misses", misses);
  rep.set("memo.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  rep.set("memo.evictions", static_cast<double>(c1.evictions - c0.evictions));
  rep.set("memo.bytes", static_cast<double>(c1.bytes));
  rep.set("maintain.repairs_local", static_cast<double>(repairs[0]));
  rep.set("maintain.repairs_regional", static_cast<double>(repairs[1]));
  rep.set("maintain.repairs_full", static_cast<double>(repairs[2]));
  rep.set("maintain.escalations", static_cast<double>(repairs[3]));

  // Deployment and CSR build of one cold request's scenario, in-process:
  // the layers a cold request pays before its extraction.
  std::vector<double> deploy_ms, csr_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    deploy::ScenarioSpec spec;
    spec.target_nodes = sh.nodes;
    spec.target_avg_deg = svc::Request{}.avg_deg;
    spec.seed = (sh.seed << 32) + static_cast<std::uint64_t>(i);
    Clock::time_point t0 = Clock::now();
    deploy::Scenario sc = deploy::make_udg_scenario(geom::shapes::window(), spec);
    deploy_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    sc.graph.csr();
    csr_ms.push_back(ms_since(t0));
  }
  rep.set("deploy.scenario_ms", median(deploy_ms));
  rep.set("net.csr_build_ms", median(csr_ms));
  return rep;
}

}  // namespace skelbench
