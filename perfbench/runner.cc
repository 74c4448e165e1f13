// One run of one benchmark workload, in its own process.
//
//   perfbench_runner <workload> <seed> <trace 0|1> <seconds>
//
// Workloads (see perfbench/README.md for why each exists):
//   slp-grid-100k    RunSlp on a 100k-subscriber grid, 100-broker
//                    multi-level tree (out-degree 15).
//   route-grid-100k  Closest deployment over 100k grid subscribers and 1000
//                    brokers, then a uniform event stream routed in equal
//                    batches, one sim::Simulate call per batch.
//   churn-grid-20k   20k closed-loop DynamicAssigner::Add arrivals, then
//                    ReplayWithFaults in staleness mode under 10% churn.
//   agg-gg-100k      agg::AggregateSolve on a 100k coverable Google-Groups
//                    workload over a one-level 64-broker tree.
//
// A workload is a sequence of equal rounds (set-up copies, a solve, an
// event batch, ...), repeated while another round still fits in `seconds`,
// so the short samples are spread over the whole run; every end-to-end
// metric is the median of its samples. Every timing is taken from outside
// the library, around calls to its public functions. With trace=1 the
// runner makes exactly one round, keeps those intervals as spans (name,
// parent, start, end), re-issues single layers' public calls on the
// workload's real inputs ("probes"), and reports per-layer metrics.
//
// Prints one JSON object on the last line of stdout; perfbench/run.py
// judges correctness from it. Exit code 0 means the run went to the end
// (its correctness checks may still have failed and are reported in the
// JSON); anything else is a crash.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/agg/aggregation.h"
#include "src/common/invariant.h"
#include "src/common/parallel.h"
#include "src/common/random.h"
#include "src/core/assignment.h"
#include "src/core/audit.h"
#include "src/core/candidates.h"
#include "src/core/closest.h"
#include "src/core/dynamic.h"
#include "src/core/filter_adjust.h"
#include "src/core/filter_assign.h"
#include "src/core/metrics.h"
#include "src/core/problem.h"
#include "src/core/slp.h"
#include "src/core/subscription_assign.h"
#include "src/geometry/volume_memo.h"
#include "src/match/match_index.h"
#include "src/network/broker_tree.h"
#include "src/network/tree_builder.h"
#include "src/sim/churn_scenarios.h"
#include "src/sim/dissemination.h"
#include "src/sim/fault_plan.h"
#include "src/workload/coverable.h"
#include "src/workload/googlegroups.h"
#include "src/workload/grid.h"

namespace perfbench {
namespace {

using slp::Rng;
namespace core = slp::core;
namespace geo = slp::geo;
namespace net = slp::net;
namespace sim = slp::sim;
namespace wl = slp::wl;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- trace --

// Spans recorded around calls into the library. Single-threaded: every
// call is issued from the main thread (the library's own pool threads are
// inside the spans, not recorded separately).
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    const Clock::time_point entry = Clock::now();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), Now(), 0});
    open_.push_back(id);
    overhead_s_ += SecondsSince(entry);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    const Clock::time_point entry = Clock::now();
    spans_[id].end = Now();
    open_.pop_back();
    overhead_s_ += SecondsSince(entry);
  }

  // Time spent recording spans: what a traced run does that an untraced
  // one does not, measured directly rather than as the difference of two
  // runs, which the machine's noise would swamp.
  double overhead_s() const { return overhead_s_; }

  // Median duration of the spans called `name` (0 if none ran).
  double MedianSeconds(const std::string& name) const {
    std::vector<double> d;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) d.push_back(s.end - s.start);
    }
    return Median(std::move(d));
  }

  struct SpanRecord {
    std::string name;
    int parent = -1;
    double start = 0;  // seconds since the runner started
    double end = 0;
  };
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  double Now() const { return SecondsSince(t0_); }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  double overhead_s_ = 0;
};

// Times its scope; also records it as a span when tracing is on.
class Span {
 public:
  Span(Trace& trace, const std::string& name)
      : trace_(trace), id_(trace.Begin(name)), start_(Clock::now()) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span early; returns its duration in seconds.
  double Stop() {
    if (!stopped_) {
      seconds_ = SecondsSince(start_);
      trace_.End(id_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Trace& trace_;
  int id_;
  Clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0;
};

// --------------------------------------------------------------- report --

struct Report {
  // Samples of each end-to-end metric; the run reports their median.
  std::map<std::string, std::vector<double>> e2e;
  // Per-layer metrics (trace=1 only).
  std::vector<std::pair<std::string, double>> layer;
  // Deterministic work counters, one entry per occurrence: every
  // occurrence of a name, in this run or an earlier run of the same code
  // and seed, must be equal.
  std::vector<std::pair<std::string, double>> counters;
  // Named correctness checks; a check fails if it failed in any round.
  std::map<std::string, bool> checks;
  int64_t attempted = 0;
  int64_t failed = 0;
  int rounds = 0;
  // Wall time of the end-to-end chain: set-up through the correctness
  // checks, before any probe.
  Clock::time_point start = Clock::now();
  double chain_s = 0;

  void EndChain() { chain_s = SecondsSince(start); }

  void Sample(const std::string& name, double value) {
    e2e[name].push_back(value);
  }

  void Counter(const std::string& name, double value) {
    counters.push_back({name, value});
  }

  void Check(const std::string& name, bool ok) {
    bool& all = checks.emplace(name, true).first->second;
    all = all && ok;
    if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", name.c_str());
  }
};

// What a workload function gets: where to record, its seed, and its time.
struct Run {
  Trace& trace;
  Report& report;
  uint64_t seed;
  double seconds;
  Clock::time_point start = Clock::now();

  double Left() const { return seconds - SecondsSince(start); }
};

// Runs `round(i)` for i = 0, 1, ... while another round as long as the
// last one still ends within the run's time, less `reserve_s` kept for the
// work after the rounds. At least one round runs; a traced run makes
// exactly one.
void Rounds(Run& run, const std::function<void(int)>& round,
            double reserve_s = 0) {
  double last = 0;
  do {
    const Clock::time_point t = Clock::now();
    round(run.report.rounds++);
    last = SecondsSince(t);
  } while (!run.trace.enabled() && run.Left() - reserve_s >= last);
}

// Set-up time spent per round. Copies are made until this much is spent,
// so cheap set-ups give many samples and dear ones at least one.
constexpr double kSetupRoundS = 0.5;

// Makes set-up copies into `*out` until kSetupRoundS is spent (at least
// one), recording each copy's time as a setup_s sample. The previous copy
// is dropped before the next is made, so peak RSS holds one.
template <typename T, typename Make>
void SetupCopies(Run& run, std::optional<T>* out, const Make& make) {
  double spent = 0;
  do {
    out->reset();
    Span span(run.trace, "setup");
    out->emplace(make());
    const double s = span.Stop();
    run.report.Sample("setup_s", s);
    spent += s;
  } while (spent < kSetupRoundS);
}

// Audit trips are counted instead of aborting, so a failed audit shows up
// as a failed check in the result.
long g_audit_trips = 0;

void RecordAuditTrip(const slp::audit::Violation& v) {
  ++g_audit_trips;
  std::fprintf(stderr, "audit %s: %s at %s:%d %s\n",
               slp::audit::ToString(v.category), v.expression, v.file,
               v.line, v.context.c_str());
}

// Runs `audit` and reports whether it tripped nothing.
bool AuditClean(const std::function<void()>& audit) {
  const long before = g_audit_trips;
  audit();
  return g_audit_trips == before;
}

// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// `n` uniform events of batch `batch` of a seed's stream `stream`: every
// batch is distinct, and each repeats for its seed.
std::vector<geo::Point> UniformEvents(int n, uint64_t seed, uint64_t stream,
                                      int batch) {
  Rng rng = Rng(seed).Fork(stream * 100000 + batch);
  std::vector<geo::Point> events;
  events.reserve(n);
  for (int i = 0; i < n; ++i) {
    events.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  return events;
}

// Shards for the library's parallel candidate builds: one per pool thread
// plus the caller, as RunSlp derives them.
int PoolShards() { return slp::ThreadPool::Global().num_workers() + 1; }

// Each round starts from an empty volume memo, as a fresh process would,
// so later rounds do not run on the cache of earlier ones.
void ColdMemo() { geo::VolumeMemo::Global().Clear(); }

// ------------------------------------------------------------ workloads --

// How --seed enters each workload.
//
// route-grid-100k and churn-grid-20k: the scenario -- broker locations,
// publisher, network locations, interest hot spots -- comes from one
// generator call with the fixed kScenarioSeed over a pool of kPoolFactor
// times the subscribers needed, and --seed draws the subscribers from that
// pool (and seeds the events and the fault plan). A uniform subset of an
// i.i.d. pool is itself an i.i.d. sample of the same scenario, so every
// seed poses the same problem family at the same size. A fresh generator
// call per seed would redraw the whole network instead, which moves the
// churn replay's Q(T) by about 20% from seed to seed. The pool is made
// once per run, outside the timed set-up; set-up draws the sample.
//
// slp-grid-100k and agg-gg-100k solve one fixed instance (generator and
// solver seeded with kScenarioSeed), and --seed varies only the event
// stream that verifies delivery. SLP's randomized LP sampling alone moved
// Q(T) from 23.2 to 33.7 across three solver seeds on one instance, so a
// seed-varied solve would spread wider than any bound the benchmark may
// set.
constexpr uint64_t kScenarioSeed = 1;
constexpr int kPoolFactor = 2;

// The scenario pool for `subscribers` x `brokers`.
wl::Workload GridPool(Trace& trace, int subscribers, int brokers) {
  Span span(trace, "workload.pool");
  wl::GridParams params;
  params.num_subscribers = kPoolFactor * subscribers;
  params.num_brokers = brokers;
  params.seed = kScenarioSeed;
  return wl::GenerateGrid(params);
}

// Draws `n` subscribers of `pool` uniformly without replacement, keeping
// pool order.
std::vector<wl::Subscriber> Sample(const std::vector<wl::Subscriber>& pool,
                                   int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> index(pool.size());
  for (size_t i = 0; i < index.size(); ++i) index[i] = static_cast<int>(i);
  for (int i = 0; i < n; ++i) {
    const int k = static_cast<int>(
        rng.UniformInt(i, static_cast<int64_t>(index.size()) - 1));
    std::swap(index[i], index[k]);
  }
  index.resize(n);
  std::sort(index.begin(), index.end());
  std::vector<wl::Subscriber> out;
  out.reserve(n);
  for (int i : index) out.push_back(pool[i]);
  return out;
}

// Multi-level broker tree of out-degree 15 over the workload's brokers.
net::BrokerTree GridTree(Trace& trace, const wl::Workload& w) {
  Span span(trace, "network.tree");
  Rng rng(kScenarioSeed);
  return net::BuildMultiLevelTree(w.publisher, w.broker_locations, 15, rng);
}

core::SaConfig BenchConfig() {
  core::SaConfig config;
  config.max_delay = 1.0;
  return config;
}

// The grid problem: the fixed instance (no pool), or the sample of `pool`
// drawn by `seed`. Records the set-up layers as spans.
core::SaProblem GridProblem(Trace& trace, int subscribers, int brokers,
                            const wl::Workload* pool, uint64_t seed) {
  wl::Workload w;
  {
    Span span(trace, "workload.gen");
    if (pool == nullptr) {
      wl::GridParams params;
      params.num_subscribers = subscribers;
      params.num_brokers = brokers;
      params.seed = kScenarioSeed;
      w = wl::GenerateGrid(params);
    } else {
      w.publisher = pool->publisher;
      w.broker_locations = pool->broker_locations;
      w.subscribers = Sample(pool->subscribers, subscribers, seed);
    }
  }
  net::BrokerTree tree = GridTree(trace, w);
  Span span(trace, "core.problem");
  return core::SaProblem(std::move(tree), std::move(w.subscribers),
                         BenchConfig());
}

struct Batch {
  std::vector<geo::Point> events;
  sim::DisseminationStats stats;
};

// Routes batch `b` of the seed's event stream through a solved deployment
// with one sim::Simulate call -- and so one index build. Every event
// matching a subscription must reach it.
Batch RouteBatch(Run& run, const core::SaProblem& problem,
                 const core::SaSolution& solution, int batch_events, int b) {
  Batch out;
  out.events = UniformEvents(batch_events, run.seed, 1, b);
  Span span(run.trace, "sim.batch");
  out.stats = sim::Simulate(problem, solution, out.events);
  run.report.Sample("events_per_s", batch_events / span.Stop());
  run.report.Check("stream.missed_deliveries == 0",
                   out.stats.missed_deliveries == 0);
  run.report.Check("stream.invariants",
                   AuditClean([&] { out.stats.CheckInvariants(); }));
  run.report.Counter("deliveries.batch" + std::to_string(b),
                     static_cast<double>(out.stats.deliveries));
  return out;
}

// Quality metrics and the static correctness gate of a solved deployment.
void ReportSolution(Report& report, const core::SaProblem& problem,
                    const core::SaSolution& solution) {
  const core::SolutionMetrics m = core::ComputeMetrics(problem, solution);
  report.Sample("qt", m.total_bandwidth);
  report.Sample("lbf", m.lbf);
  report.Counter("qt", m.total_bandwidth);
  report.Counter("lbf", m.lbf);
  report.Check("latency_feasible", solution.latency_feasible);
  report.Check("audit_nesting_clean",
               AuditClean([&] { core::AuditNesting(problem, solution); }));
}

// Re-issues the SLP layers' public calls on a solved problem, one layer at
// a time. These are probes, not a decomposition of the solve: RunSlp makes
// the same kinds of calls on different (recursive) inputs.
//
// The root-level probe draws from the same stream RunSlp's root stage does
// (`solve_seed` forked by the publisher id), so it repeats that stage's
// FilterAssign and max-flow exactly.
void SolverProbes(Trace& trace, Report& report, const core::SaProblem& problem,
                  const core::SaSolution& solution,
                  const core::SlpOptions& options, uint64_t solve_seed) {
  const std::vector<int> all = core::AllSubscribers(problem);

  Span leaf_span(trace, "candidates.leaf_build");
  const core::Targets leaf = core::BuildLeafTargets(problem, all, PoolShards());
  report.layer.push_back({"candidates.leaf_build_s", leaf_span.Stop()});
  const double edges = static_cast<double>(leaf.cand_targets.size());
  report.layer.push_back({"candidates.edges", edges});
  report.Counter("candidates.edges", edges);

  // Root level: the first FilterAssign + max-flow RunSlp performs.
  Span root_span(trace, "candidates.root_build");
  const core::Targets root = core::BuildChildTargets(
      problem, all, net::BrokerTree::kPublisher, PoolShards());
  root_span.Stop();
  Rng rng = Rng(solve_seed).Fork(net::BrokerTree::kPublisher);
  std::vector<geo::Filter> root_filters;
  {
    Span span(trace, "filter_assign.root");
    auto fa = core::FilterAssign(problem, root, options.slp1.filter_assign,
                                 rng);
    report.layer.push_back({"filter_assign.root_s", span.Stop()});
    report.Check("probe.filter_assign.ok", fa.ok());
    if (fa.ok()) {
      report.layer.push_back({"filter_assign.root_lp_calls",
                              static_cast<double>(fa.value().lp_calls)});
      report.layer.push_back({"filter_assign.root_dual_pivots",
                              static_cast<double>(fa.value().dual_pivots)});
      report.layer.push_back({"filter_assign.root_final_g",
                              static_cast<double>(fa.value().final_g)});
      root_filters = fa.value().filters;
    }
  }
  if (!root_filters.empty()) {
    Span span(trace, "flow.root");
    auto flow = core::AssignByMaxFlow(problem, root, &root_filters, rng,
                                      options.slp1.subscription_assign);
    report.layer.push_back({"flow.root_s", span.Stop()});
    report.Check("probe.flow_root.ok", flow.ok());
  }

  // Leaf level over all rows, the shape GlobalRepair solves: each leaf's
  // filter is the final solution's, so the solved assignment is one of the
  // flow's options.
  {
    std::vector<geo::Filter> filters(leaf.count);
    for (int t = 0; t < leaf.count; ++t) {
      filters[t] = solution.filters[problem.leaf_node(t)];
    }
    Span span(trace, "flow.repair");
    auto flow = core::AssignByMaxFlow(problem, leaf, &filters, rng,
                                      options.slp1.subscription_assign);
    report.layer.push_back({"flow.repair_s", span.Stop()});
    report.Check("probe.flow_repair.ok", flow.ok());
    report.layer.push_back(
        {"flow.repair_rows", static_cast<double>(leaf.num_rows())});
    if (flow.ok()) {
      report.layer.push_back({"flow.repair_beta", flow.value().achieved_beta});
      report.layer.push_back({"flow.repair_load_feasible",
                              flow.value().load_feasible ? 1.0 : 0.0});
    }
  }

  // Filter adjustment on a copy of the solved deployment.
  {
    core::SaSolution copy = solution;
    Span span(trace, "adjust");
    core::AdjustLeafFilters(problem, &copy, rng);
    core::BuildInternalFilters(problem, &copy, rng);
    report.layer.push_back({"adjust_s", span.Stop()});
  }
}

// The stream that verifies a solved deployment delivers.
constexpr int kVerifyBatchEvents = 1000;

// RunSlp takes most of a run, so it is solved once; each round then routes
// one verification batch and makes set-up copies. Set-up is deterministic,
// so every copy is the problem that was solved.
void RunSlpGrid(Run& run) {
  Report& report = run.report;
  std::optional<core::SaProblem> problem;
  const auto setup = [&] {
    SetupCopies(run, &problem, [&] {
      return GridProblem(run.trace, 100000, 100, nullptr, 0);
    });
  };
  setup();

  core::SlpStats stats;
  Rng rng(kScenarioSeed);
  Span span(run.trace, "slp.solve");
  auto result = core::RunSlp(*problem, core::SlpOptions{}, rng, &stats);
  const double solve_s = span.Stop();
  report.attempted += 1;
  report.Check("slp.result_ok", result.ok());
  if (!result.ok()) {
    report.failed += 1;
    return;
  }
  const core::SaSolution& solution = result.value();
  report.Sample("solve_s", solve_s);
  ReportSolution(report, *problem, solution);
  report.Counter("slp.lp_calls", static_cast<double>(stats.lp_calls));
  Rounds(run, [&](int round) {
    if (round > 0) setup();
    RouteBatch(run, *problem, solution, kVerifyBatchEvents, round);
  });

  report.EndChain();
  if (!run.trace.enabled()) return;
  report.layer.push_back({"slp.lp_calls", static_cast<double>(stats.lp_calls)});
  report.layer.push_back(
      {"slp.slp1_invocations", static_cast<double>(stats.slp1_invocations)});
  report.layer.push_back(
      {"slp.budget_exhausted", stats.any_budget_exhausted ? 1.0 : 0.0});
  SolverProbes(run.trace, report, *problem, solution, core::SlpOptions{},
               kScenarioSeed);
}

constexpr int kRouteBatchEvents = 2000;
// Time kept back for the ground-truth count after the rounds (about 2.5 s).
constexpr double kRouteTruthS = 3;

// Each round: set-up copies, the Closest deployment solve (deterministic,
// so every round routes through the same deployment), and one batch
// checked against an independent match count.
void RunRouteGrid(Run& run) {
  Report& report = run.report;
  const wl::Workload pool = GridPool(run.trace, 100000, 1000);
  std::optional<core::SaProblem> problem;
  core::SaSolution solution;
  std::vector<Batch> batches;
  int64_t messages = 0;
  int64_t wasted_leaf_hits = 0;
  Rounds(run, [&](int round) {
    ColdMemo();
    SetupCopies(run, &problem, [&] {
      return GridProblem(run.trace, 100000, 1000, &pool, run.seed);
    });
    {
      Rng rng(run.seed);
      Span span(run.trace, "core.closest");
      solution = core::RunClosest(*problem, rng);
      report.Sample("solve_s", span.Stop());
    }
    const core::SolutionMetrics m = core::ComputeMetrics(*problem, solution);
    report.Sample("qt", m.total_bandwidth);
    report.Sample("lbf", m.lbf);
    report.Counter("qt", m.total_bandwidth);
    report.Counter("lbf", m.lbf);
    report.Check("audit_nesting_clean",
                 AuditClean([&] { core::AuditNesting(*problem, solution); }));

    batches.push_back(
        RouteBatch(run, *problem, solution, kRouteBatchEvents, round));
    messages += batches.back().stats.total_messages;
    wasted_leaf_hits += batches.back().stats.wasted_leaf_hits;
  }, kRouteTruthS);

  // Independent ground truth: how many (subscriber, event) pairs match, from
  // an index over the sampled subscriptions built apart from the problem and
  // the deployment. It is built after the rounds, so that it never shares
  // memory with Simulate's own indexes.
  Span index_span(run.trace, "match.sub_index_build");
  const slp::match::MatchIndex subs = [&] {
    std::vector<slp::match::OwnedRect> truth;
    for (const wl::Subscriber& s :
         Sample(pool.subscribers, 100000, run.seed)) {
      truth.push_back({static_cast<int>(truth.size()), s.subscription});
    }
    return slp::match::BuildIndex(truth, static_cast<int>(truth.size()));
  }();
  const double sub_index_build_s = index_span.Stop();
  Span probe_span(run.trace, "match.probe");
  int64_t expected = 0;
  for (const Batch& batch : batches) {
    int64_t count = 0;
    for (const geo::Point& e : batch.events) {
      count += subs.CountContaining(e[0], e[1]);
    }
    report.Check("stream.deliveries == independent count",
                 batch.stats.deliveries == count);
    expected += count;
    report.attempted += count;
    report.failed += std::max<int64_t>(batch.stats.missed_deliveries,
                                       count - batch.stats.deliveries);
  }
  const double probe_s = probe_span.Stop();

  report.EndChain();
  if (!run.trace.enabled()) return;
  const int total = report.rounds * kRouteBatchEvents;
  report.layer.push_back({"match.sub_index_build_s", sub_index_build_s});
  report.layer.push_back({"match.probe_s", probe_s});
  {
    Span span(run.trace, "match.broker_index_build");
    std::vector<slp::match::OwnedRect> rects;
    const int n = problem->tree().num_nodes();
    for (int v = 1; v < n; ++v) {
      for (const geo::Rectangle& r : solution.filters[v].rects()) {
        rects.push_back({v, r});
      }
    }
    (void)slp::match::BuildIndex(rects, n);
    report.layer.push_back({"match.broker_index_build_s", span.Stop()});
  }
  report.layer.push_back({"match.matches", static_cast<double>(expected)});
  report.layer.push_back(
      {"sim.batch_s", run.trace.MedianSeconds("sim.batch")});
  report.layer.push_back(
      {"sim.messages_per_event", static_cast<double>(messages) / total});
  report.layer.push_back(
      {"sim.wasted_leaf_hits", static_cast<double>(wasted_leaf_hits)});
}

constexpr int kChurnSubscribers = 20000;
constexpr int kChurnEvents = 2000;
// Closed-loop admission passes per round, each into a fresh assigner: half
// before the replay (the last of those assigners is the one replayed) and
// half after, so the short passes are spread over the round.
constexpr int kAdmitPasses = 4;

struct ChurnSetup {
  std::vector<wl::Subscriber> arrivals;
  net::BrokerTree tree;
};

// Each round: set-up copies, admission passes around one staleness-mode
// replay of the same fault plan and events, which must repeat exactly.
void RunChurnGrid(Run& run) {
  Report& report = run.report;
  const wl::Workload pool = GridPool(run.trace, kChurnSubscribers, 100);
  std::optional<ChurnSetup> setup;
  std::optional<core::DynamicAssigner> dyn;
  std::optional<sim::FaultReplayResult> last;
  std::vector<double> admit_us;
  std::vector<double> pass_s;
  int64_t rejected = 0;

  // Closed loop: each arrival is admitted only after the previous one.
  const auto admit_pass = [&] {
    ColdMemo();
    core::DynamicAssigner assigner(setup->tree, BenchConfig(),
                                   kChurnSubscribers);
    Span span(run.trace, "dynamic.add_all");
    for (const wl::Subscriber& s : setup->arrivals) {
      const Clock::time_point t = Clock::now();
      const slp::Result<int> r = assigner.Add(s);
      admit_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t).count());
      if (!r.ok()) ++rejected;
    }
    const double s = span.Stop();
    pass_s.push_back(s);
    report.Sample("solve_s", s);
    report.attempted += static_cast<int64_t>(setup->arrivals.size());
    return assigner;
  };

  const std::vector<geo::Point> events =
      UniformEvents(kChurnEvents, run.seed, 2, 0);
  Rounds(run, [&](int) {
    dyn.reset();
    SetupCopies(run, &setup, [&] {
      wl::Workload w;
      {
        Span span(run.trace, "workload.gen");
        w.publisher = pool.publisher;
        w.broker_locations = pool.broker_locations;
        w.subscribers = Sample(pool.subscribers, kChurnSubscribers, run.seed);
      }
      net::BrokerTree tree = GridTree(run.trace, w);
      return ChurnSetup{std::move(w.subscribers), std::move(tree)};
    });
    for (int pass = 0; pass < kAdmitPasses / 2; ++pass) {
      dyn.reset();
      dyn.emplace(admit_pass());
    }

    // Staleness-mode replay under 10% sustained crash/recover churn.
    Rng plan_rng(run.seed + 29);
    const sim::FaultPlan plan = sim::SustainedChurn(
        dyn->tree(), kChurnEvents, 0.10, kChurnEvents / 8, 2, plan_rng);
    sim::FaultReplayOptions options;
    options.epoch_length = kChurnEvents / 10;
    slp::liveness::LeaseConfig lease;
    lease.heartbeat_interval = 2;
    lease.miss_suspect = 2;
    lease.miss_dead = 4;
    lease.subscriber_interval = 4;
    lease.subscriber_miss_dead = 4;
    options.lease = lease;
    Rng replay_rng(run.seed + 37);
    Span replay_span(run.trace, "sim.replay");
    auto replay = sim::ReplayWithFaults(*dyn, plan, events, options,
                                        replay_rng);
    const double replay_s = replay_span.Stop();
    for (int pass = kAdmitPasses / 2; pass < kAdmitPasses; ++pass) {
      (void)admit_pass();
    }
    report.Check("churn.replay_ok", replay.ok());
    if (!replay.ok()) {
      report.failed += 1;
      return;
    }
    const sim::FaultReplayResult& r = replay.value();
    report.Sample("events_per_s", kChurnEvents / replay_s);
    report.Sample("qt", r.qt_final);
    const auto [snap_problem, snap_solution] = dyn->Snapshot();
    const double lbf = core::LoadBalanceFactor(snap_problem, snap_solution);
    report.Sample("lbf", lbf);
    report.Check("churn.missed_live == 0", r.missed_live == 0);
    report.Check("churn.audit_live_filters_clean",
                 AuditClean([&] { core::AuditLiveFilters(*dyn); }));
    report.attempted += r.stats.deliveries + r.missed_live;
    report.failed += r.missed_live;
    report.Counter("qt", r.qt_final);
    report.Counter("lbf", lbf);
    report.Counter("deliveries", static_cast<double>(r.stats.deliveries));
    report.Counter("repair.repaired", static_cast<double>(r.total_repaired));
    last = r;
  });
  report.failed += rejected;
  report.Check("churn.no_rejected_add", rejected == 0);

  report.EndChain();
  if (!run.trace.enabled() || !last) return;
  const sim::FaultReplayResult& r = *last;
  const core::AddStats& add = dyn->add_stats();
  report.layer.push_back({"dynamic.add_total_s", Median(pass_s)});
  report.layer.push_back({"dynamic.admit_p50_us", Percentile(admit_us, 50)});
  report.layer.push_back({"dynamic.admit_p99_us", Percentile(admit_us, 99)});
  report.layer.push_back(
      {"dynamic.escalation_scans", static_cast<double>(add.escalation_scans)});
  report.layer.push_back(
      {"dynamic.cost_evals", static_cast<double>(add.cost_evals)});
  report.layer.push_back(
      {"repair.orphaned", static_cast<double>(r.total_orphaned)});
  report.layer.push_back(
      {"repair.repaired", static_cast<double>(r.total_repaired)});
  report.layer.push_back(
      {"repair.degraded_placed", static_cast<double>(r.total_degraded_placed)});
  report.layer.push_back(
      {"liveness.heartbeats_sent", static_cast<double>(r.heartbeats_sent)});
  report.layer.push_back(
      {"liveness.false_suspicions", static_cast<double>(r.false_suspicions)});
  report.layer.push_back({"liveness.lease_expirations",
                          static_cast<double>(r.lease_expirations)});
  report.layer.push_back(
      {"liveness.reconnects", static_cast<double>(r.reconnects)});
  report.layer.push_back({"replay.missed_undetected",
                          static_cast<double>(r.missed_undetected)});

  // One rebuild of the live match index over the placed subscriptions, as
  // the replay performs after every mutation.
  {
    Span span(run.trace, "match.live_index_build");
    std::vector<slp::match::OwnedRect> rects;
    for (int h = 0; h < dyn->slot_count(); ++h) {
      if (dyn->is_occupied(h) && dyn->leaf_of(h) >= 0) {
        rects.push_back({h, dyn->subscriber(h).subscription});
      }
    }
    (void)slp::match::BuildIndex(rects, dyn->slot_count());
    report.layer.push_back({"match.live_index_build_s", span.Stop()});
  }
}

// Each round: set-up copies, one AggregateSolve (deterministic, so its
// figures must repeat every round) and one verification batch.
void RunAggGg(Run& run) {
  Report& report = run.report;
  std::optional<core::SaProblem> problem;
  std::optional<core::SaSolution> solution;
  slp::agg::AggregateSolveOptions options;
  options.agg.compat = slp::agg::CompatRule::kTriangle;
  slp::agg::AggregateSolveStats stats;
  Rounds(run, [&](int round) {
    ColdMemo();
    solution.reset();
    SetupCopies(run, &problem, [&] {
      wl::Workload w;
      {
        Span span(run.trace, "workload.gen");
        w = wl::GenerateGoogleGroupsVariant(wl::Level::kHigh, wl::Level::kLow,
                                            100000, 64, kScenarioSeed);
        wl::CoverableOptions cover;
        cover.fraction = 0.6;
        cover.dup_fraction = 0.6;
        Rng rng(kScenarioSeed * 7919 + 2);
        wl::MakeCoverable(&w, cover, rng);
      }
      Span tree_span(run.trace, "network.tree");
      net::BrokerTree tree =
          net::BuildOneLevelTree(w.publisher, w.broker_locations);
      tree_span.Stop();
      Span span(run.trace, "core.problem");
      return core::SaProblem(std::move(tree), std::move(w.subscribers),
                             BenchConfig());
    });

    stats = {};
    Rng rng(kScenarioSeed);
    Span span(run.trace, "agg.solve");
    auto result = slp::agg::AggregateSolve(*problem, options, rng, &stats);
    const double solve_s = span.Stop();
    report.attempted += 1;
    report.Check("agg.result_ok", result.ok());
    if (!result.ok()) {
      report.failed += 1;
      return;
    }
    solution.emplace(std::move(result.value()));
    report.Sample("solve_s", solve_s);
    ReportSolution(report, *problem, *solution);
    report.Counter("agg.aggregates", static_cast<double>(stats.aggregates));
    report.Counter("slp.lp_calls", static_cast<double>(stats.slp.lp_calls));
    RouteBatch(run, *problem, *solution, kVerifyBatchEvents, round);
  });

  report.EndChain();
  if (!run.trace.enabled() || !solution) return;
  report.layer.push_back({"agg.aggregates", static_cast<double>(stats.aggregates)});
  report.layer.push_back({"agg.compression_ratio", stats.compression_ratio});
  report.layer.push_back({"agg.repair_moves", static_cast<double>(stats.repair_moves)});
  report.layer.push_back(
      {"agg.cert_infeasible", stats.compressed_load_infeasible ? 1.0 : 0.0});
  report.layer.push_back({"agg.load_feasible", solution->load_feasible ? 1.0 : 0.0});
  report.layer.push_back({"slp.lp_calls", static_cast<double>(stats.slp.lp_calls)});
  report.layer.push_back(
      {"slp.slp1_invocations", static_cast<double>(stats.slp.slp1_invocations)});
  report.layer.push_back(
      {"slp.budget_exhausted", stats.slp.any_budget_exhausted ? 1.0 : 0.0});

  // Probes on the compressed (multiplicity-weighted) problem the solve
  // hands to RunSlp.
  Span build_span(run.trace, "agg.build");
  const slp::agg::Aggregation aggregation = slp::agg::BuildAggregation(
      *problem, slp::agg::EffectiveAggregationOptions(*problem, options.agg));
  report.layer.push_back({"agg.build_s", build_span.Stop()});
  const core::SaProblem compressed =
      slp::agg::BuildCompressedProblem(*problem, aggregation);
  // The options AggregateSolve hands RunSlp: a failed load certificate
  // switches the LP to coverage only.
  core::SlpOptions slp_options = options.slp;
  slp_options.slp1.filter_assign.lp.enforce_load =
      !stats.compressed_load_infeasible;
  core::SlpStats compressed_stats;
  Rng probe_rng(kScenarioSeed);
  Span solve_span(run.trace, "slp.solve_compressed");
  auto compressed_solution =
      core::RunSlp(compressed, slp_options, probe_rng, &compressed_stats);
  solve_span.Stop();
  report.Check("probe.compressed_slp.ok", compressed_solution.ok());
  report.Check("probe.compressed_slp.lp_calls repeat",
               compressed_stats.lp_calls == stats.slp.lp_calls);
  if (compressed_solution.ok()) {
    SolverProbes(run.trace, report, compressed, compressed_solution.value(),
                 slp_options, kScenarioSeed);
  }
}

struct WorkloadEntry {
  const char* name;
  void (*fn)(Run&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"slp-grid-100k", &RunSlpGrid},
    {"route-grid-100k", &RunRouteGrid},
    {"churn-grid-20k", &RunChurnGrid},
    {"agg-gg-100k", &RunAggGg},
};

void PrintPairs(const std::vector<std::pair<std::string, double>>& pairs) {
  std::printf("{");
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i > 0 ? ", " : "", pairs[i].first.c_str(),
                pairs[i].second);
  }
  std::printf("}");
}

void PrintReport(const std::string& workload, uint64_t seed,
                 const Trace& trace, const Report& report) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"pool_threads\": %d, \"rounds\": %d, ",
              workload.c_str(), static_cast<unsigned long long>(seed),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PoolShards(),
              report.rounds);
  std::vector<std::pair<std::string, double>> medians;
  for (const auto& [name, values] : report.e2e) {
    medians.push_back({name, Median(values)});
  }
  std::printf("\"e2e\": ");
  PrintPairs(medians);
  std::printf(", \"samples\": {");
  const char* sep = "";
  for (const auto& [name, values] : report.e2e) {
    std::printf("%s\"%s\": [", sep, name.c_str());
    for (size_t i = 0; i < values.size(); ++i) {
      std::printf("%s%.17g", i > 0 ? ", " : "", values[i]);
    }
    std::printf("]");
    sep = ", ";
  }
  std::printf("}");
  std::printf(", \"layer\": ");
  PrintPairs(report.layer);
  std::printf(", \"counters\": [");
  for (size_t i = 0; i < report.counters.size(); ++i) {
    std::printf("%s[\"%s\", %.17g]", i > 0 ? ", " : "",
                report.counters[i].first.c_str(), report.counters[i].second);
  }
  std::printf("], \"checks\": {");
  sep = "";
  for (const auto& [name, ok] : report.checks) {
    std::printf("%s\"%s\": %s", sep, name.c_str(), ok ? "true" : "false");
    sep = ", ";
  }
  std::printf("}, \"attempted\": %lld, \"failed\": %lld, \"spans\": [",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  const auto& spans = trace.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    std::printf("%s[\"%s\", %d, %.9f, %.9f]", i > 0 ? ", " : "",
                spans[i].name.c_str(), spans[i].parent, spans[i].start,
                spans[i].end);
  }
  std::printf("]}\n");
}

int Main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr, "usage: %s <workload> <seed> <trace 0|1> <seconds>\n",
                 argv[0]);
    return 2;
  }
  const std::string workload = argv[1];
  const uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const bool traced = std::atoi(argv[3]) != 0;
  const double seconds = std::atof(argv[4]);

  void (*fn)(Run&) = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (workload == w.name) fn = w.fn;
  }
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 2;
  }

  slp::audit::SetFailureHandler(&RecordAuditTrip);
  Trace trace(traced);
  Report report;
  Run run{trace, report, seed, seconds};
  fn(run);
  if (report.chain_s == 0) report.EndChain();  // the chain stopped early
  if (trace.enabled()) {
    report.layer.push_back(
        {"workload.gen_s", trace.MedianSeconds("workload.gen")});
    report.layer.push_back(
        {"network.tree_s", trace.MedianSeconds("network.tree")});
    report.layer.push_back(
        {"trace.overhead_pct", 100 * trace.overhead_s() / report.chain_s});
  }
  report.Sample("peak_rss_mb", PeakRssMb());
  PrintReport(workload, seed, trace, report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
