// Matching-engine benchmark (DESIGN.md §11): events/sec of the legacy
// linear-scan dissemination engine vs the grid-indexed engine, single
// thread and sharded over the shared thread pool, on a large grid
// workload (defaults: 1000 brokers, 100k subscribers, multi-level tree
// with the paper's out-degree 15).
//
// The solution is a fast hand-rolled nearest-leaf assignment with exact
// MEB path filters — coverage and nesting hold by construction, so the
// stream routes with zero missed deliveries and the two engines must
// produce bit-identical stats (checked here on a common event prefix
// before timing; the full differential lives in tests/match_test).
//
// The legacy engine is timed on a short event prefix (its ground-truth
// walk is O(m) per event — 100k subscriptions per event makes long
// streams pointless); the indexed engine routes the full stream. Events
// come from deterministic per-shard Rng::Fork substreams, so the stream
// is identical regardless of how it is later sharded.
//
// The indexed engine's per-call index build is timed apart from routing
// by a zero-event Simulate call. Prints a table and writes
// BENCH_match.json with the machine's core count, compiler and build type
// (path from argv[1] or SLP_BENCH_MATCH_JSON; default ./BENCH_match.json).

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/parallel.h"
#include "src/geometry/rectangle.h"
#include "src/sim/dissemination.h"

namespace slp::bench {
namespace {

// Nearest-live-leaf assignment + exact MEB filters, bottom-up. Much
// faster than the paper's algorithms at 100k subscribers, and produces a
// covering + nested deployment, which is all the matching benchmark
// needs.
core::SaSolution NearestLeafSolution(const core::SaProblem& problem) {
  const net::BrokerTree& tree = problem.tree();
  const int m = problem.num_subscribers();
  core::SaSolution s;
  s.algorithm = "nearest-leaf";
  s.assignment.assign(m, -1);

  const std::vector<int>& leaves = tree.leaf_brokers();
  for (int j = 0; j < m; ++j) {
    const geo::Point& loc = problem.subscriber(j).location;
    double best = 0;
    int best_leaf = -1;
    for (int leaf : leaves) {
      const double d = geo::DistanceSquared(loc, tree.location(leaf));
      if (best_leaf < 0 || d < best) {
        best = d;
        best_leaf = leaf;
      }
    }
    s.assignment[j] = best_leaf;
  }

  // Leaf filters: MEB of the leaf's subscriptions. Internal filters: MEB
  // of the children's filters (nesting by construction). Nodes are
  // processed children-before-parent via reverse BFS order.
  const int n = tree.num_nodes();
  std::vector<bool> has_rect(n, false);
  std::vector<geo::Rectangle> rect(n);
  for (int j = 0; j < m; ++j) {
    const int leaf = s.assignment[j];
    const geo::Rectangle& sub = problem.subscriber(j).subscription;
    if (!has_rect[leaf]) {
      rect[leaf] = sub;
      has_rect[leaf] = true;
    } else {
      rect[leaf].Enclose(sub);
    }
  }
  std::vector<int> order;
  order.reserve(n);
  order.push_back(net::BrokerTree::kPublisher);
  for (size_t i = 0; i < order.size(); ++i) {
    for (int c : tree.children(order[i])) order.push_back(c);
  }
  for (size_t i = order.size(); i-- > 0;) {
    const int v = order[i];
    for (int c : tree.children(v)) {
      if (!has_rect[c]) continue;
      if (!has_rect[v]) {
        rect[v] = rect[c];
        has_rect[v] = true;
      } else {
        rect[v].Enclose(rect[c]);
      }
    }
  }
  s.filters.assign(n, geo::Filter());
  for (int v = 0; v < n; ++v) {
    if (v != net::BrokerTree::kPublisher && has_rect[v]) {
      s.filters[v] = geo::Filter({rect[v]});
    }
  }
  return s;
}

#ifdef NDEBUG
constexpr const char* kBuildType = "Release";
#else
constexpr const char* kBuildType = "Debug";
#endif

const char* CompilerName() {
#if defined(__clang__)
  return "Clang " __clang_version__;
#elif defined(__GNUC__)
  return "GCC " __VERSION__;
#else
  return "unknown";
#endif
}

bool StatsEqual(const sim::DisseminationStats& a,
                const sim::DisseminationStats& b) {
  return a.events == b.events && a.total_messages == b.total_messages &&
         a.deliveries == b.deliveries &&
         a.wasted_leaf_hits == b.wasted_leaf_hits &&
         a.missed_deliveries == b.missed_deliveries &&
         a.unplaced_subscribers == b.unplaced_subscribers &&
         a.broker_hits == b.broker_hits;
}

int Main(int argc, char** argv) {
  const char* env = std::getenv("SLP_BENCH_MATCH_JSON");
  const std::string json_path =
      argc > 1 ? argv[1] : (env != nullptr ? env : "BENCH_match.json");

  const int subs = EnvInt("SLP_SUBS", 100000);
  const int brokers = EnvInt("SLP_BROKERS", 1000);
  const int num_events = EnvInt("SLP_EVENTS", 20000);
  const int linear_events = std::min(EnvInt("SLP_LINEAR_EVENTS", 2000),
                                     num_events);
  // Default shard count: the machine's cores, capped at 8 (on a 1-core
  // box the sharded row then honestly shows pool overhead, not parallel
  // gain).
  const int default_shards = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 2, 8);
  const int num_shards = EnvInt("SLP_SHARDS", default_shards);
  const uint64_t seed = EnvSeed();

  wl::GridParams params;
  params.num_subscribers = subs;
  params.num_brokers = brokers;
  params.seed = seed;
  wl::Workload w = wl::GenerateGrid(params);
  core::SaConfig config;
  config.max_delay = 1.0;
  core::SaProblem problem =
      MakeMultiLevelProblem(std::move(w), config, 15, seed);

  WallTimer solve_timer;
  const core::SaSolution solution = NearestLeafSolution(problem);
  const double solve_seconds = solve_timer.Seconds();

  // Deterministic per-shard event substreams: shard i draws its chunk
  // from rng.Fork(i), so the concatenated stream does not depend on how
  // the simulator later shards it.
  std::vector<geo::Point> events;
  events.reserve(num_events);
  {
    Rng rng(seed + 7);
    for (int s = 0; s < num_shards; ++s) {
      Rng sub = rng.Fork(static_cast<uint64_t>(s));
      const int begin = static_cast<int>(
          static_cast<int64_t>(num_events) * s / num_shards);
      const int end = static_cast<int>(
          static_cast<int64_t>(num_events) * (s + 1) / num_shards);
      for (int i = begin; i < end; ++i) {
        events.push_back({sub.Uniform(0, 1), sub.Uniform(0, 1)});
      }
    }
  }
  const std::vector<geo::Point> prefix(events.begin(),
                                       events.begin() + linear_events);

  PrintHeader("Matching engines (grid workload, " + std::to_string(subs) +
              " subscribers, " + std::to_string(brokers) + " brokers)");
  std::printf("nearest-leaf solve: %.2fs; stream: %d events "
              "(linear prefix %d)\n\n",
              solve_seconds, num_events, linear_events);

  // Differential on the common prefix before timing anything.
  const sim::DisseminationStats lin_stats =
      sim::Simulate(problem, solution, prefix, {sim::MatchEngine::kLinear, 1});
  const sim::DisseminationStats idx_stats =
      sim::Simulate(problem, solution, prefix, {sim::MatchEngine::kIndexed, 1});
  const bool differential_ok = StatsEqual(lin_stats, idx_stats);
  if (!differential_ok) {
    std::fprintf(stderr, "ENGINE MISMATCH on %d-event prefix\n",
                 linear_events);
  }
  if (lin_stats.missed_deliveries != 0) {
    std::fprintf(stderr, "nearest-leaf solution missed deliveries\n");
    return 1;
  }

  // Timed runs. The indexed timings include the per-call index build;
  // a zero-event Simulate call builds the same indexes and routes
  // nothing, which splits build from routing (the subscriber probe that
  // counts deliveries is also the ground-truth check, so routing and
  // verification are one phase).
  WallTimer build_timer;
  sim::Simulate(problem, solution, {}, {sim::MatchEngine::kIndexed, 1});
  const double build_seconds = build_timer.Seconds();

  WallTimer lin_timer;
  sim::Simulate(problem, solution, prefix, {sim::MatchEngine::kLinear, 1});
  const double lin_seconds = lin_timer.Seconds();
  const double lin_eps = linear_events / lin_seconds;

  WallTimer idx_timer;
  const sim::DisseminationStats full_idx =
      sim::Simulate(problem, solution, events, {sim::MatchEngine::kIndexed, 1});
  const double idx_seconds = idx_timer.Seconds();
  const double idx_eps = num_events / idx_seconds;

  WallTimer shard_timer;
  const sim::DisseminationStats full_sharded = sim::Simulate(
      problem, solution, events, {sim::MatchEngine::kIndexed, num_shards});
  const double shard_seconds = shard_timer.Seconds();
  const double shard_eps = num_events / shard_seconds;

  const double route_seconds = std::max(idx_seconds - build_seconds, 1e-9);
  const double route_eps = num_events / route_seconds;

  const bool sharded_ok = StatsEqual(full_idx, full_sharded);
  if (!sharded_ok) {
    std::fprintf(stderr, "SHARDED MISMATCH (%d shards)\n", num_shards);
  }

  std::printf("%-22s %10s %14s %9s\n", "engine", "events", "events/sec",
              "speedup");
  std::printf("%-22s %10d %14.0f %9s\n", "linear (legacy)", linear_events,
              lin_eps, "1.0x");
  std::printf("%-22s %10d %14.0f %8.1fx\n", "indexed", num_events, idx_eps,
              idx_eps / lin_eps);
  std::printf("%-22s %10d %14.0f %8.1fx\n",
              ("indexed x" + std::to_string(num_shards)).c_str(), num_events,
              shard_eps, shard_eps / lin_eps);
  std::printf("\nindexed split: index build %.3fs, route + verify %.3fs "
              "(%.0f events/sec)\n",
              build_seconds, route_seconds, route_eps);
  std::printf("differential (prefix): %s; sharded == serial: %s\n",
              differential_ok ? "identical" : "MISMATCH",
              sharded_ok ? "identical" : "MISMATCH");

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"machine\": {\"cores\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\"},\n",
               std::thread::hardware_concurrency(), CompilerName(), kBuildType);
  std::fprintf(f, "  \"workload\": \"grid\",\n");
  std::fprintf(f, "  \"subscribers\": %d,\n  \"brokers\": %d,\n", subs,
               brokers);
  std::fprintf(f, "  \"events\": %d,\n  \"linear_events\": %d,\n",
               num_events, linear_events);
  std::fprintf(f, "  \"num_shards\": %d,\n", num_shards);
  std::fprintf(f, "  \"linear_events_per_sec\": %.1f,\n", lin_eps);
  std::fprintf(f, "  \"indexed_events_per_sec\": %.1f,\n", idx_eps);
  std::fprintf(f, "  \"sharded_events_per_sec\": %.1f,\n", shard_eps);
  std::fprintf(f, "  \"index_build_s\": %.4f,\n", build_seconds);
  std::fprintf(f, "  \"indexed_route_s\": %.4f,\n", route_seconds);
  std::fprintf(f, "  \"route_events_per_sec\": %.1f,\n", route_eps);
  std::fprintf(f, "  \"speedup_indexed\": %.2f,\n", idx_eps / lin_eps);
  std::fprintf(f, "  \"speedup_sharded\": %.2f,\n", shard_eps / lin_eps);
  std::fprintf(f, "  \"differential_identical\": %s,\n",
               differential_ok ? "true" : "false");
  std::fprintf(f, "  \"sharded_identical\": %s\n",
               sharded_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return differential_ok && sharded_ok ? 0 : 1;
}

}  // namespace
}  // namespace slp::bench

int main(int argc, char** argv) { return slp::bench::Main(argc, argv); }
