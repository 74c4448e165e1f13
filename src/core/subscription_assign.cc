#include "src/core/subscription_assign.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/parallel.h"
#include "src/common/status.h"
#include "src/core/filter_adjust.h"
#include "src/flow/max_flow.h"

namespace slp::core {

namespace {

// A (row, target) covering edge. `rank` is the target's position in the
// row's candidate list (nearest first); ties between covers go to the
// nearer target. `cost` orders covers by cohesion: the rank, among the
// distinct volumes of all filter rectangles, of the smallest rectangle at
// the target containing the row's subscription. Routing subscribers toward
// their most specific filters keeps topically similar subscriptions
// together, which the final filter adjustment rewards with tight MEBs.
struct CoverEdge {
  int32_t target;
  int32_t rank;
  int32_t cost;
};

// Integral multiplicity of row r (1 for an unweighted problem): the number
// of member-subscribers an aggregate row stands for, which is the row's
// flow supply and its load contribution.
int64_t RowUnits(const Targets& targets, int r) {
  return static_cast<int64_t>(std::llround(targets.row_weight(r)));
}

// Every row's covering edges, CSR. Each row is sorted by target id, so rows
// covered by the same target set have identical target slices, and `key[r]`
// hashes that slice together with the row's units (the class key).
struct Covers {
  std::vector<int64_t> offsets;  // rows + 1
  std::vector<CoverEdge> edges;
  std::vector<uint64_t> key;
  int num_costs = 0;  // costs are 0 .. num_costs - 1

  int64_t begin(int r) const { return offsets[r]; }
  int size(int r) const {
    return static_cast<int>(offsets[r + 1] - offsets[r]);
  }
  const CoverEdge* row(int r) const { return edges.data() + offsets[r]; }
};

struct CoverShard {
  std::vector<int64_t> row_end;  // cumulative edge count within the shard
  std::vector<CoverEdge> edges;
  std::vector<uint64_t> key;
};

// The filters' rectangles laid out flat for the containment scan: target
// t's rectangles are [first[t], first[t + 1]), rectangle i's bounds are
// bounds[2 * dim * i ..] (dim lows, then dim highs), and cost[i] is the
// rank of its volume among the distinct volumes (equal volumes share one).
struct FlatFilters {
  int dim = 0;
  std::vector<int> first;
  std::vector<double> bounds;
  std::vector<int32_t> cost;
  int num_costs = 0;
};

FlatFilters Flatten(const std::vector<geo::Filter>& filters, int dim) {
  FlatFilters flat;
  flat.dim = dim;
  flat.first.push_back(0);
  std::vector<double> volume;
  for (const geo::Filter& f : filters) {
    for (const geo::Rectangle& rect : f.rects()) {
      SLP_DCHECK(rect.dim() == dim);
      flat.bounds.insert(flat.bounds.end(), rect.lo().begin(), rect.lo().end());
      flat.bounds.insert(flat.bounds.end(), rect.hi().begin(), rect.hi().end());
      volume.push_back(rect.Volume());
    }
    flat.first.push_back(static_cast<int>(volume.size()));
  }
  std::vector<double> distinct = volume;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  flat.num_costs = static_cast<int>(distinct.size());
  for (const double v : volume) {
    flat.cost.push_back(static_cast<int32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), v) -
        distinct.begin()));
  }
  return flat;
}

void BuildCoverShard(const SaProblem& problem, const Targets& targets,
                     const FlatFilters& flat, int row_begin, int row_end,
                     CoverShard* out) {
  const int dim = flat.dim;
  out->row_end.reserve(row_end - row_begin);
  out->key.reserve(row_end - row_begin);
  // Covers are a subset of the candidates: reserving for all of them keeps
  // the edge array from regrowing, which would copy and touch it anew.
  out->edges.reserve(targets.cand_offsets[row_end] -
                     targets.cand_offsets[row_begin]);
  for (int r = row_begin; r < row_end; ++r) {
    const auto& sub = problem.subscriber(targets.subscribers[r]).subscription;
    const double* lo = sub.lo().data();
    const double* hi = sub.hi().data();
    const CandidateRow cand = targets.candidates(r);
    const size_t first = out->edges.size();
    for (int k = 0; k < cand.size(); ++k) {
      const int t = cand[k];
      // Cheapest of the target's rectangles containing the subscription
      // (closed bounds, as geo::Rectangle::Contains). Branch-free: the
      // containment outcome is unpredictable.
      int32_t best = std::numeric_limits<int32_t>::max();
      for (int i = flat.first[t]; i < flat.first[t + 1]; ++i) {
        const double* b = flat.bounds.data() + 2 * dim * i;
        bool contains = true;
        for (int d = 0; d < dim; ++d) {
          contains &= (lo[d] >= b[d]) & (hi[d] <= b[dim + d]);
        }
        best = contains ? std::min(best, flat.cost[i]) : best;
      }
      if (best != std::numeric_limits<int32_t>::max()) {
        out->edges.push_back({t, k, best});
      }
    }
    std::sort(out->edges.begin() + first, out->edges.end(),
              [](const CoverEdge& a, const CoverEdge& b) {
                return a.target < b.target;
              });
    // FNV-1a over the row's units and its sorted covering targets.
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t h = (0xcbf29ce484222325ull ^
                  static_cast<uint64_t>(RowUnits(targets, r))) *
                 kPrime;
    for (size_t e = first; e < out->edges.size(); ++e) {
      h = (h ^ static_cast<uint64_t>(out->edges[e].target)) * kPrime;
    }
    out->key.push_back(h);
    out->row_end.push_back(static_cast<int64_t>(out->edges.size()));
  }
}

// Rows are independent, so the row range is split into `num_shards`
// contiguous shards built on the shared pool and concatenated in row order:
// any shard count gives byte-identical covers.
Covers ComputeCovers(const SaProblem& problem, const Targets& targets,
                     const std::vector<geo::Filter>& filters, int num_shards) {
  const int rows = targets.num_rows();
  const int shards = std::clamp(num_shards, 1, std::max(rows, 1));
  const FlatFilters flat = Flatten(
      filters, problem.num_subscribers() > 0
                   ? problem.subscriber(0).subscription.dim()
                   : 0);
  std::vector<CoverShard> pieces(shards);
  const auto build = [&](int s) {
    const int begin =
        static_cast<int>(static_cast<int64_t>(rows) * s / shards);
    const int end =
        static_cast<int>(static_cast<int64_t>(rows) * (s + 1) / shards);
    BuildCoverShard(problem, targets, flat, begin, end, &pieces[s]);
  };
  if (shards == 1) {
    build(0);
  } else {
    ThreadPool::Global().ParallelFor(shards, build);
  }
  Covers covers;
  covers.num_costs = flat.num_costs;
  covers.offsets.reserve(rows + 1);
  covers.offsets.push_back(0);
  for (CoverShard& p : pieces) {
    const int64_t base = static_cast<int64_t>(covers.edges.size());
    for (int64_t e : p.row_end) covers.offsets.push_back(base + e);
    if (&p == &pieces[0]) {
      covers.edges = std::move(p.edges);
      covers.key = std::move(p.key);
    } else {
      covers.edges.insert(covers.edges.end(), p.edges.begin(), p.edges.end());
      covers.key.insert(covers.key.end(), p.key.begin(), p.key.end());
    }
    p = CoverShard();  // release each piece once it is copied out
  }
  return covers;
}

// Rows with the same covering-target set and the same units, numbered in
// order of first appearance. Class c's members are
// members[member_offsets[c] .. member_offsets[c+1]) in row order; its first
// member rep[c] carries the target slice every member shares.
struct Classes {
  std::vector<int> rep;
  std::vector<int> member_offsets;
  std::vector<int> members;

  int count() const { return static_cast<int>(rep.size()); }
  std::span<const int> members_of(int c) const {
    return {members.data() + member_offsets[c],
            members.data() + member_offsets[c + 1]};
  }
};

Classes GroupIntoClasses(const Targets& targets, const Covers& covers) {
  const int rows = targets.num_rows();
  // Rows are looked up by their key hash and compared by their target
  // slices and units, so colliding hashes still make separate classes.
  const auto key = [&](int r) { return static_cast<size_t>(covers.key[r]); };
  const auto same_class = [&](int a, int b) {
    return RowUnits(targets, a) == RowUnits(targets, b) &&
           std::equal(covers.row(a), covers.row(a) + covers.size(a),
                      covers.row(b), covers.row(b) + covers.size(b),
                      [](const CoverEdge& x, const CoverEdge& y) {
                        return x.target == y.target;
                      });
  };
  std::unordered_map<int, int, decltype(key), decltype(same_class)>
      class_of_rep(/*bucket_count=*/64, key, same_class);
  Classes classes;
  std::vector<int> class_of(rows);
  for (int r = 0; r < rows; ++r) {
    const auto [it, inserted] = class_of_rep.try_emplace(r, classes.count());
    if (inserted) classes.rep.push_back(r);
    class_of[r] = it->second;
  }
  classes.member_offsets.assign(classes.count() + 1, 0);
  for (int r = 0; r < rows; ++r) ++classes.member_offsets[class_of[r] + 1];
  for (int c = 0; c < classes.count(); ++c) {
    classes.member_offsets[c + 1] += classes.member_offsets[c];
  }
  classes.members.resize(rows);
  std::vector<int> fill(classes.member_offsets.begin(),
                        classes.member_offsets.end() - 1);
  for (int r = 0; r < rows; ++r) classes.members[fill[class_of[r]]++] = r;
  return classes;
}

// The cost-ordered greedy pre-assignment: walks (row, cover) pairs in
// ascending (cost, row, rank) order and seeds a row at its first pair whose
// target still has room for it at the desired β. Returns each row's seed
// as an index into covers.edges (-1 when unseeded).
//
// Target loads only grow, so a pair whose target has no room for its row
// never will again. Each unseeded row therefore waits in the bucket of its
// cheapest pair that still fits; buckets are drained in cost order, rows
// within one in row order, and a row whose pair stopped fitting moves on
// to the bucket of its next fitting pair. This accepts exactly the pairs a
// sort of all pairs would.
std::vector<int64_t> SeedByCost(const Targets& targets, const Covers& covers,
                                const std::vector<int64_t>& cap) {
  const int rows = targets.num_rows();
  std::vector<int64_t> used(targets.count, 0);
  const auto cheapest_fitting = [&](int r) {
    const int64_t units = RowUnits(targets, r);
    int64_t best = -1;
    for (int64_t e = covers.begin(r); e < covers.begin(r) + covers.size(r);
         ++e) {
      const CoverEdge& c = covers.edges[e];
      if (used[c.target] + units > cap[c.target]) continue;
      if (best < 0 || std::tie(c.cost, c.rank) <
                          std::tie(covers.edges[best].cost,
                                   covers.edges[best].rank)) {
        best = e;
      }
    }
    return best;
  };
  std::vector<std::vector<int>> waiting(covers.num_costs);
  for (int r = 0; r < rows; ++r) {
    const int64_t e = cheapest_fitting(r);
    if (e >= 0) waiting[covers.edges[e].cost].push_back(r);
  }
  std::vector<int64_t> seed(rows, -1);
  for (int cost = 0; cost < covers.num_costs; ++cost) {
    std::vector<int>& bucket = waiting[cost];
    std::sort(bucket.begin(), bucket.end());
    for (const int r : bucket) {
      const int64_t e = cheapest_fitting(r);
      if (e < 0) continue;
      const CoverEdge& c = covers.edges[e];
      if (c.cost > cost) {
        waiting[c.cost].push_back(r);
        continue;
      }
      used[c.target] += RowUnits(targets, r);
      seed[r] = e;
    }
    std::vector<int>().swap(bucket);
  }
  return seed;
}

// Resolves each class's flow to its member rows. The k-th edge of class c
// is the k-th target of every member's (target-sorted) cover slice.
//  1. Seeded members, cheapest seed first, keep their seed while that
//     class edge still carries a whole row's worth of flow.
//  2. The remaining members fill the remaining class-edge flow, cheapest
//     (member, target) pair first; ties by row, then candidate rank.
//  3. Flow left in pieces smaller than a row (weighted rows only): each
//     remaining member collects up to its units, largest piece first, and
//     lands on the target most of it came from, as a split aggregate row
//     resolves to its majority target.
// Members that receive no flow stay at -1.
std::vector<int> SplitClassFlow(const flow::MaxFlow& mf, const Targets& targets,
                                const Covers& covers, const Classes& classes,
                                const std::vector<int>& first_edge,
                                const std::vector<int64_t>& seed) {
  std::vector<int> target_of(targets.num_rows(), -1);
  std::vector<int64_t> left;
  using Pick = std::tuple<int32_t, int, int32_t, int>;  // cost, row, rank, k
  std::vector<Pick> picks;
  const auto place = [&](int64_t units) {
    std::sort(picks.begin(), picks.end());
    for (const auto& [cost, r, rank, k] : picks) {
      if (target_of[r] >= 0 || left[k] < units) continue;
      target_of[r] = covers.row(r)[k].target;
      left[k] -= units;
    }
  };
  for (int c = 0; c < classes.count(); ++c) {
    const int rep = classes.rep[c];
    const int m = covers.size(rep);
    const int64_t units = RowUnits(targets, rep);
    left.resize(m);
    int64_t total = 0;
    for (int k = 0; k < m; ++k) {
      left[k] = mf.flow(first_edge[c] + k);
      total += left[k];
    }
    if (total == 0) continue;
    const std::span<const int> members = classes.members_of(c);

    picks.clear();
    for (const int r : members) {
      if (seed[r] < 0) continue;
      const CoverEdge& e = covers.edges[seed[r]];
      picks.emplace_back(e.cost, r, e.rank,
                         static_cast<int>(seed[r] - covers.begin(r)));
    }
    place(units);

    picks.clear();
    for (const int r : members) {
      if (target_of[r] >= 0) continue;
      for (int k = 0; k < m; ++k) {
        if (left[k] < units) continue;
        const CoverEdge& e = covers.row(r)[k];
        picks.emplace_back(e.cost, r, e.rank, k);
      }
    }
    place(units);

    total = 0;
    for (int k = 0; k < m; ++k) total += left[k];
    for (const int r : members) {
      if (total == 0) break;
      if (target_of[r] >= 0) continue;
      int64_t need = units;
      int best = -1;
      int64_t best_take = 0;
      while (need > 0 && total > 0) {
        const int k = static_cast<int>(
            std::max_element(left.begin(), left.end()) - left.begin());
        const int64_t take = std::min(need, left[k]);
        left[k] -= take;
        total -= take;
        need -= take;
        if (take > best_take) {
          best_take = take;
          best = k;
        }
      }
      target_of[r] = covers.row(r)[best].target;
    }
  }
  return target_of;
}

// One max-flow attempt with β escalation. `target_of` is -1 for rows the
// flow could not route.
struct FlowAttempt {
  std::vector<int> target_of;
  double achieved_beta = 0;
  int64_t flow = 0;
};

// The flow runs over classes, not rows: one node per class with supply
// equal to its members' units, and one edge per covering target with the
// class supply as capacity. Members of a class are interchangeable, so
// every β has the same max-flow value as the row-level graph (DESIGN.md
// §12, "Class-collapsed subscription flow").
FlowAttempt RunFlow(const SaProblem& problem, const Targets& targets,
                    const Covers& covers, const Classes& classes,
                    const SubscriptionAssignOptions& options) {
  const int nt = targets.count;
  const int nc = classes.count();
  flow::MaxFlow mf(2 + nt + nc);
  const int s = 0, t_node = 1;
  const auto cap_at = [&](int t, double beta) {
    return static_cast<int64_t>(std::floor(targets.AbsCap(t, beta) + 1e-9));
  };
  double beta = problem.config().beta;
  std::vector<int> target_edge(nt);
  std::vector<int64_t> cap(nt);
  for (int t = 0; t < nt; ++t) {
    cap[t] = cap_at(t, beta);
    target_edge[t] = mf.AddEdge(s, 2 + t, cap[t]);
  }
  int64_t supply = 0;
  std::vector<int> sink_edge(nc);
  std::vector<int> first_edge(nc);
  for (int c = 0; c < nc; ++c) {
    const int rep = classes.rep[c];
    const int64_t class_supply =
        RowUnits(targets, rep) *
        (classes.member_offsets[c + 1] - classes.member_offsets[c]);
    supply += class_supply;
    sink_edge[c] = mf.AddEdge(2 + nt + c, t_node, class_supply);
    // Class c's edge to its k-th target gets id first_edge[c] + k.
    first_edge[c] = mf.num_edges();
    for (int k = 0; k < covers.size(rep); ++k) {
      const int id =
          mf.AddEdge(2 + covers.row(rep)[k].target, 2 + nt + c, class_supply);
      SLP_DCHECK(id == first_edge[c] + k);
      (void)id;
    }
  }

  // Cohesion seeding: the cost-ordered greedy pre-assignment, pushed as
  // class flow; Solve() then only reroutes where load balance demands.
  std::vector<int64_t> seed(targets.num_rows(), -1);
  if (options.cohesion_seeding) {
    seed = SeedByCost(targets, covers, cap);
    std::vector<int64_t> amount;
    for (int c = 0; c < nc; ++c) {
      const int rep = classes.rep[c];
      amount.assign(covers.size(rep), 0);
      for (const int r : classes.members_of(c)) {
        if (seed[r] >= 0) {
          amount[seed[r] - covers.begin(r)] += RowUnits(targets, r);
        }
      }
      for (int k = 0; k < covers.size(rep); ++k) {
        if (amount[k] == 0) continue;
        const int t = covers.row(rep)[k].target;
        mf.PushPath({target_edge[t], first_edge[c] + k, sink_edge[c]},
                    amount[k]);
      }
    }
  }

  int64_t flow = mf.Solve(s, t_node);
  while (flow < supply && beta < problem.config().beta_max - 1e-12) {
    beta = std::min(beta * options.escalation, problem.config().beta_max);
    for (int t = 0; t < nt; ++t) {
      mf.SetCapacity(target_edge[t], cap_at(t, beta));
    }
    flow = mf.Solve(s, t_node);  // resumes from the current flow
  }
  FlowAttempt out;
  out.achieved_beta = beta;
  out.flow = flow;
  out.target_of =
      SplitClassFlow(mf, targets, covers, classes, first_edge, seed);
  return out;
}

bool Covering(const Covers& covers, int r, int t) {
  const CoverEdge* row = covers.row(r);
  return std::binary_search(row, row + covers.size(r), CoverEdge{t, 0, 0},
                            [](const CoverEdge& a, const CoverEdge& b) {
                              return a.target < b.target;
                            });
}

}  // namespace

Result<SubscriptionAssignResult> AssignByMaxFlow(
    const SaProblem& problem, const Targets& targets,
    std::vector<geo::Filter>* filters, Rng& rng,
    const SubscriptionAssignOptions& options, int num_shards) {
  SLP_DCHECK(filters != nullptr);
  SLP_DCHECK(static_cast<int>(filters->size()) == targets.count);
  const int rows = static_cast<int>(targets.subscribers.size());
  const int nt = targets.count;

  Covers covers = ComputeCovers(problem, targets, *filters, num_shards);
  for (int r = 0; r < rows; ++r) {
    if (covers.size(r) == 0) {
      return Status::Infeasible("subscriber covered by no target filter");
    }
  }

  int64_t supply = 0;
  for (int r = 0; r < rows; ++r) supply += RowUnits(targets, r);

  FlowAttempt attempt = RunFlow(problem, targets, covers,
                                GroupIntoClasses(targets, covers), options);

  // Enrichment: unroutable rows see only saturated targets; open up their
  // nearest feasible target that still has headroom at β_max.
  for (int round = 0;
       attempt.flow < supply && round < options.enrichment_rounds; ++round) {
    std::vector<double> load(nt, 0);
    for (int r = 0; r < rows; ++r) {
      if (attempt.target_of[r] >= 0) {
        load[attempt.target_of[r]] += targets.row_weight(r);
      }
    }
    std::vector<std::vector<geo::Rectangle>> pending(nt);
    std::vector<double> pending_count(nt, 0);
    bool any = false;
    for (int r = 0; r < rows; ++r) {
      if (attempt.target_of[r] >= 0) continue;
      const double w = targets.row_weight(r);
      // Nearest latency-feasible target with spare β_max capacity that does
      // not already cover this row.
      for (int t : targets.candidates(r)) {
        const double cap = targets.AbsCap(t, problem.config().beta_max);
        if (load[t] + pending_count[t] + w > cap + 1e-9) continue;
        if (Covering(covers, r, t)) continue;  // the flow just could not use it
        pending[t].push_back(
            problem.subscriber(targets.subscribers[r]).subscription);
        pending_count[t] += w;
        any = true;
        break;
      }
    }
    if (!any) break;
    for (int t = 0; t < nt; ++t) {
      if (pending[t].empty()) continue;
      const geo::Filter extra =
          CoverWithAlphaMebs(pending[t], problem.config().alpha, rng);
      for (const auto& rect : extra.rects()) (*filters)[t].Add(rect);
    }
    covers = ComputeCovers(problem, targets, *filters, num_shards);
    attempt = RunFlow(problem, targets, covers,
                      GroupIntoClasses(targets, covers), options);
  }

  SubscriptionAssignResult result;
  result.achieved_beta = attempt.achieved_beta;
  result.flow_value = attempt.flow;
  result.target_of = attempt.target_of;

  if (attempt.flow < supply) {
    // A weighted row may have routed part of its supply and still been
    // resolved whole to its majority target; only rows with no flow at all
    // remain unassigned here.
    bool any_unassigned = false;
    for (int r = 0; r < rows; ++r) any_unassigned |= result.target_of[r] < 0;
    if (any_unassigned && !options.best_effort_overflow) {
      return Status::Infeasible(
          "load-balance constraint too tight: max flow < |S| at beta_max");
    }
    // Route leftovers to their least-loaded covering target (the nearest
    // on a tie).
    std::vector<double> load(nt, 0);
    for (int r = 0; r < rows; ++r) {
      if (result.target_of[r] >= 0) {
        load[result.target_of[r]] += targets.row_weight(r);
      }
    }
    for (int r = 0; r < rows; ++r) {
      if (result.target_of[r] >= 0) continue;
      const CoverEdge* best = nullptr;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (const CoverEdge* e = covers.row(r); e != covers.row(r + 1); ++e) {
        const double denom =
            std::max(1e-12, targets.kappa[e->target] * targets.total_weight);
        const double ratio = load[e->target] / denom;
        if (best == nullptr || ratio < best_ratio ||
            (ratio == best_ratio && e->rank < best->rank)) {
          best_ratio = ratio;
          best = e;
        }
      }
      result.target_of[r] = best->target;
      load[best->target] += targets.row_weight(r);
    }
  }
  if (targets.weight.empty()) {
    // Unweighted: unit rows never split, so routed == within-cap and the
    // historical flag semantics hold exactly.
    result.load_feasible = attempt.flow >= supply;
  } else {
    // Weighted: atomically resolving a split aggregate can push a target
    // past its cap even at full flow. Repair deterministically — shed the
    // lightest rows of each overloaded target onto covering targets that
    // still have β_max slack (coverage-safe: covers only lists targets
    // whose filter contains the row; the most slack wins, the nearest on a
    // tie) — then measure the achieved loads honestly. Moves only land
    // where the cap holds, so repair never creates a new overload.
    std::vector<double> load(nt, 0);
    for (int r = 0; r < rows; ++r) {
      load[result.target_of[r]] += targets.row_weight(r);
    }
    const auto cap = [&](int t) {
      return targets.AbsCap(t, problem.config().beta_max);
    };
    std::vector<int> shed;  // rows currently on an overloaded target
    for (int r = 0; r < rows; ++r) {
      const int t = result.target_of[r];
      if (load[t] > cap(t) + 1e-9) shed.push_back(r);
    }
    std::sort(shed.begin(), shed.end(), [&](int a, int b) {
      if (result.target_of[a] != result.target_of[b]) {
        return result.target_of[a] < result.target_of[b];
      }
      const double wa = targets.row_weight(a);
      const double wb = targets.row_weight(b);
      return wa != wb ? wa < wb : a < b;
    });
    for (const int r : shed) {
      const int t = result.target_of[r];
      if (load[t] <= cap(t) + 1e-9) continue;  // repaired already
      const double w = targets.row_weight(r);
      const CoverEdge* best = nullptr;
      double best_slack = 0;
      for (const CoverEdge* e = covers.row(r); e != covers.row(r + 1); ++e) {
        if (e->target == t) continue;
        const double slack = cap(e->target) - load[e->target] - w;
        if (slack < -1e-9) continue;
        if (best == nullptr || slack > best_slack ||
            (slack == best_slack && e->rank < best->rank)) {
          best = e;
          best_slack = slack;
        }
      }
      if (best == nullptr) continue;
      result.target_of[r] = best->target;
      load[t] -= w;
      load[best->target] += w;
    }
    result.load_feasible = true;
    for (int t = 0; t < nt; ++t) {
      result.load_feasible &= load[t] <= cap(t) + 1e-9;
    }
  }
  return result;
}

}  // namespace slp::core
