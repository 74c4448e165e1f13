#include "src/sim/dissemination.h"

#include <algorithm>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/parallel.h"
#include "src/common/status.h"
#include "src/match/audit.h"
#include "src/match/match_index.h"

namespace slp::sim {

namespace {

// Assigned subscribers grouped by leaf node id. Subscribers with
// assignment[j] < 0 (parked/orphaned in a dynamic snapshot) are skipped
// and counted in *unplaced — indexing subs_of_leaf by a negative id was
// undefined behavior before this guard existed.
std::vector<std::vector<int>> GroupSubsByLeaf(const core::SaProblem& problem,
                                              const core::SaSolution& solution,
                                              int* unplaced) {
  std::vector<std::vector<int>> subs_of_leaf(problem.tree().num_nodes());
  *unplaced = 0;
  for (int j = 0; j < problem.num_subscribers(); ++j) {
    const int leaf = solution.assignment[j];
    if (leaf < 0) {
      ++*unplaced;
      continue;
    }
    SLP_DCHECK(leaf < problem.tree().num_nodes());
    subs_of_leaf[leaf].push_back(j);
  }
  return subs_of_leaf;
}

// ---- Legacy linear engine (differential baseline) ----

// Routes one event from the publisher down the tree. Returns via `stats`.
void RouteEventLinear(const core::SaProblem& problem,
                      const core::SaSolution& solution,
                      const geo::Point& event,
                      const std::vector<std::vector<int>>& subs_of_leaf,
                      DisseminationStats* stats) {
  const auto& tree = problem.tree();
  // DFS from the publisher; enter a broker iff its filter contains the
  // event (the paper's forwarding condition e ∈ f_i).
  std::vector<int> stack(tree.children(net::BrokerTree::kPublisher).begin(),
                         tree.children(net::BrokerTree::kPublisher).end());
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (!solution.filters[v].ContainsPoint(event)) continue;
    ++stats->broker_hits[v];
    ++stats->total_messages;
    if (tree.is_leaf(v)) {
      bool delivered_any = false;
      for (int j : subs_of_leaf[v]) {
        if (problem.subscriber(j).subscription.ContainsPoint(event)) {
          ++stats->deliveries;
          delivered_any = true;
        }
      }
      if (!delivered_any) ++stats->wasted_leaf_hits;
    } else {
      for (int c : tree.children(v)) stack.push_back(c);
    }
  }
  // Ground truth: every *placed* subscriber whose subscription matches must
  // have been reachable (its leaf's filter chain must contain the event).
  for (int j = 0; j < problem.num_subscribers(); ++j) {
    if (solution.assignment[j] < 0) continue;  // unplaced: no leaf to reach
    if (!problem.subscriber(j).subscription.ContainsPoint(event)) continue;
    // Walk up from the assigned leaf: all filters on the path must contain
    // the event for delivery to have happened.
    bool reached = true;
    for (int v = solution.assignment[j]; v != net::BrokerTree::kPublisher;
         v = problem.tree().parent(v)) {
      if (!solution.filters[v].ContainsPoint(event)) {
        reached = false;
        break;
      }
    }
    if (!reached) ++stats->missed_deliveries;
  }
}

// ---- Indexed engine (DESIGN.md §11) ----

// The per-deployment indexes, built once per Simulate call:
//  * brokers     — every filter rectangle, owner = tree node id; one probe
//                  yields the set of brokers whose filters contain e;
//  * subscribers — all placed subscriptions, owner = subscriber index; one
//                  probe yields every matching subscriber, which settles
//                  deliveries, wasted leaf hits and misses in O(matches).
struct DeploymentIndex {
  match::MatchIndex brokers;
  match::MatchIndex subscribers;
};

DeploymentIndex BuildDeploymentIndex(const core::SaProblem& problem,
                                     const core::SaSolution& solution) {
  const auto& tree = problem.tree();
  DeploymentIndex dx;

  std::vector<match::OwnedRect> broker_rects;
  for (int v = 1; v < tree.num_nodes(); ++v) {
    for (const geo::Rectangle& r : solution.filters[v].rects()) {
      broker_rects.push_back({v, r});
    }
  }
  dx.brokers = match::BuildIndex(broker_rects, tree.num_nodes());

  std::vector<match::OwnedRect> sub_rects;
  for (int j = 0; j < problem.num_subscribers(); ++j) {
    if (solution.assignment[j] < 0) continue;
    sub_rects.push_back({j, problem.subscriber(j).subscription});
  }
  dx.subscribers =
      match::BuildIndex(sub_rects, problem.num_subscribers());
#if SLP_AUDITS_ENABLED
  match::AuditIndex(dx.brokers, broker_rects, "dissemination broker index");
  match::AuditIndex(dx.subscribers, sub_rects,
                    "dissemination subscriber index");
#endif
  return dx;
}

// Per-shard probe workspace: the probe contexts and scratch bitsets one
// routing thread reuses across events (no allocation per event).
struct IndexedRouter {
  explicit IndexedRouter(const DeploymentIndex& dx, int num_nodes)
      : broker_probe(&dx.brokers), reached(num_nodes), served(num_nodes) {}

  match::MatchBatch broker_probe;
  match::BitSet reached;  // leaves this event's DFS entered
  match::BitSet served;   // reached leaves with a matching subscriber
  std::vector<int> reached_leaves;
  std::vector<int> stack;
  std::vector<int32_t> sub_matched;
};

void RouteEventIndexed(const core::SaProblem& problem,
                       const core::SaSolution& solution,
                       const geo::Point& event, const DeploymentIndex& dx,
                       IndexedRouter* router, DisseminationStats* stats) {
  const auto& tree = problem.tree();
  const double x = event[0], y = event[1];

  // One probe answers e ∈ f_v for every broker v; the DFS then costs one
  // bit test per hop instead of a rectangle scan.
  router->broker_probe.Probe(x, y);
  const match::BitSet& contains = router->broker_probe.owners();

  router->stack.assign(tree.children(net::BrokerTree::kPublisher).begin(),
                       tree.children(net::BrokerTree::kPublisher).end());
  while (!router->stack.empty()) {
    const int v = router->stack.back();
    router->stack.pop_back();
    if (!contains.Test(v)) continue;
    ++stats->broker_hits[v];
    ++stats->total_messages;
    if (tree.is_leaf(v)) {
      router->reached.Set(v);
      router->reached_leaves.push_back(v);
    } else {
      for (int c : tree.children(v)) router->stack.push_back(c);
    }
  }

  // One subscriber probe settles every leaf: a matching placed subscriber
  // j is a delivery iff the DFS entered j's leaf (the filter chain
  // containing e is exactly the DFS entry condition), else a miss; a
  // reached leaf that no matching subscriber sits on is a wasted hit.
  router->sub_matched.clear();
  dx.subscribers.AppendContaining(x, y, &router->sub_matched);
  int served_leaves = 0;
  for (const int32_t j : router->sub_matched) {
    const int leaf = solution.assignment[j];
    if (!router->reached.Test(leaf)) {
      ++stats->missed_deliveries;
      continue;
    }
    ++stats->deliveries;
    if (!router->served.Test(leaf)) {
      router->served.Set(leaf);
      ++served_leaves;
    }
  }
  stats->wasted_leaf_hits +=
      static_cast<int64_t>(router->reached_leaves.size()) - served_leaves;

  for (const int v : router->reached_leaves) {
    router->reached.Reset(v);
    router->served.Reset(v);
  }
  router->reached_leaves.clear();
}

}  // namespace

void DisseminationStats::CheckInvariants() const {
  using audit::Category;
  SLP_AUDIT_CHECK(Category::kDissemination,
                  events >= 0 && total_messages >= 0 && deliveries >= 0 &&
                      wasted_leaf_hits >= 0 && missed_deliveries >= 0 &&
                      unplaced_subscribers >= 0,
                  "negative dissemination counter");
  int64_t hit_sum = 0;
  for (int64_t h : broker_hits) {
    SLP_AUDIT_CHECK(Category::kDissemination, h >= 0,
                    "negative broker hit counter");
    hit_sum += h;
  }
  SLP_AUDIT_CHECK(Category::kDissemination, hit_sum == total_messages,
                  "sum(broker_hits) != total_messages");
  SLP_AUDIT_CHECK(Category::kDissemination,
                  wasted_leaf_hits <= total_messages,
                  "wasted_leaf_hits > total_messages");
}

DisseminationStats Simulate(const core::SaProblem& problem,
                            const core::SaSolution& solution,
                            const std::vector<geo::Point>& events,
                            const SimulateOptions& options) {
  SLP_DCHECK(static_cast<int>(solution.filters.size()) ==
             problem.tree().num_nodes());
  const int num_nodes = problem.tree().num_nodes();
  int unplaced = 0;
  const std::vector<std::vector<int>> subs_of_leaf =
      GroupSubsByLeaf(problem, solution, &unplaced);

  // The index is d=2-only; other event dimensions (and the trivial empty
  // deployment) take the linear scan.
  const bool indexed =
      options.engine == MatchEngine::kIndexed &&
      problem.num_subscribers() > 0 &&
      problem.subscriber(0).subscription.dim() == 2;
  DeploymentIndex dx;
  if (indexed) dx = BuildDeploymentIndex(problem, solution);

  const int num_events = static_cast<int>(events.size());
  const int shards =
      std::clamp(options.num_shards, 1, std::max(1, num_events));

  auto route_range = [&](int begin, int end, DisseminationStats* stats) {
    stats->broker_hits.assign(num_nodes, 0);
    if (indexed) {
      IndexedRouter router(dx, num_nodes);
      for (int i = begin; i < end; ++i) {
        ++stats->events;
        RouteEventIndexed(problem, solution, events[i], dx, &router, stats);
      }
    } else {
      for (int i = begin; i < end; ++i) {
        ++stats->events;
        RouteEventLinear(problem, solution, events[i], subs_of_leaf, stats);
      }
    }
  };

  DisseminationStats stats;
  if (shards == 1) {
    route_range(0, num_events, &stats);
  } else {
    // Contiguous shards over the shared pool. Every counter is a sum of
    // independent per-event contributions, so the merged stats are
    // bit-identical to serial for any shard count.
    std::vector<DisseminationStats> parts(shards);
    ThreadPool::Global().ParallelFor(shards, [&](int s) {
      const int begin = static_cast<int>(
          static_cast<int64_t>(num_events) * s / shards);
      const int end = static_cast<int>(
          static_cast<int64_t>(num_events) * (s + 1) / shards);
      route_range(begin, end, &parts[s]);
    });
    stats.broker_hits.assign(num_nodes, 0);
    for (const DisseminationStats& p : parts) {
      stats.events += p.events;
      stats.total_messages += p.total_messages;
      stats.deliveries += p.deliveries;
      stats.wasted_leaf_hits += p.wasted_leaf_hits;
      stats.missed_deliveries += p.missed_deliveries;
      for (int v = 0; v < num_nodes; ++v) {
        stats.broker_hits[v] += p.broker_hits[v];
      }
    }
  }
  stats.unplaced_subscribers = unplaced;
  stats.CheckInvariants();
  return stats;
}

DisseminationStats SimulateUniform(const core::SaProblem& problem,
                                   const core::SaSolution& solution,
                                   const geo::Rectangle& event_box,
                                   int num_events, Rng& rng,
                                   const SimulateOptions& options) {
  std::vector<geo::Point> events;
  events.reserve(num_events);
  for (int e = 0; e < num_events; ++e) {
    geo::Point p(event_box.dim());
    for (int d = 0; d < event_box.dim(); ++d) {
      p[d] = rng.Uniform(event_box.lo(d), event_box.hi(d));
    }
    events.push_back(std::move(p));
  }
  return Simulate(problem, solution, events, options);
}

}  // namespace slp::sim
