// Differential gate for the class-collapsed subscription flow (DESIGN.md
// §12): AssignByMaxFlow builds its max-flow over cover-set classes, the
// oracle in tests/row_flow_oracle.h over rows. On grid, Google-Groups and
// RSS instances -- unweighted and aggregate-weighted rows, forced β
// escalation, enrichment rounds, best-effort overflow, and unseeded flows
// -- both must reach the same max-flow value, achieved β and
// load_feasible, and every row must land on a target that covers it.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/agg/aggregation.h"
#include "src/common/random.h"
#include "src/core/candidates.h"
#include "src/core/filter_assign.h"
#include "src/core/subscription_assign.h"
#include "tests/row_flow_oracle.h"
#include "tests/test_util.h"

namespace slp::core {
namespace {

using geo::Filter;
using test::Family;

// The multiplicity-weighted instance an AggregateSolve run solves: the
// family's workload made coverable, then compressed to aggregate rows.
SaProblem CompressedProblem(Family family, int subs, int brokers,
                            const SaConfig& config, uint64_t seed) {
  const SaProblem problem =
      test::CoverableProblem(family, subs, brokers, seed, config);
  return agg::BuildCompressedProblem(
      problem, agg::BuildAggregation(
                   problem, agg::EffectiveAggregationOptions(problem, {})));
}

// FilterAssign's preliminary filters over the leaf targets, as SLP1 hands
// them to the flow (the load rows are dropped if they make the LP
// infeasible, as AggregateSolve does for a load-infeasible instance).
std::vector<Filter> PreliminaryFilters(const SaProblem& p,
                                       const Targets& targets, uint64_t seed) {
  FilterAssignOptions options;
  Rng rng(seed);
  auto fa = FilterAssign(p, targets, options, rng);
  if (!fa.ok()) {
    options.lp.enforce_load = false;
    Rng retry(seed);
    fa = FilterAssign(p, targets, options, retry);
  }
  EXPECT_TRUE(fa.ok()) << fa.status().ToString();
  return fa.ok() ? fa.value().filters : std::vector<Filter>(targets.count);
}

// What the collapsed flow returned, so each case can assert that it
// reached the path it is meant to exercise.
struct Outcome {
  SubscriptionAssignResult result;
  bool filters_enriched = false;
};

// Compares the collapsed flow with the row-level oracle from identical
// inputs and returns the collapsed flow's outcome.
//
// Enrichment extends the filters with the subscriptions of the rows a flow
// left unrouted. Which rows those are is not fixed by the max-flow value
// (only their number is), so two correct flows may enrich differently.
// Each enrichment round k is therefore compared on its own inputs: the
// collapsed flow runs with k rounds, and the oracle, with no rounds of its
// own, solves the filters those k rounds produced -- the same covering
// edges the collapsed flow's last max-flow solved. Round 0 compares the
// two from the caller's filters.
Outcome ExpectMatchesOracle(const SaProblem& p, const Targets& targets,
                            const std::vector<Filter>& filters,
                            const SubscriptionAssignOptions& options,
                            const std::string& label) {
  Outcome out;
  for (int k = 0; k <= options.enrichment_rounds; ++k) {
    const std::string round = label + " round " + std::to_string(k);
    SubscriptionAssignOptions collapsed_options = options;
    collapsed_options.enrichment_rounds = k;
    std::vector<Filter> collapsed_filters = filters;
    Rng collapsed_rng(7);
    auto collapsed = AssignByMaxFlow(p, targets, &collapsed_filters,
                                     collapsed_rng, collapsed_options);
    SubscriptionAssignOptions oracle_options = options;
    oracle_options.enrichment_rounds = 0;
    std::vector<Filter> oracle_filters = collapsed_filters;
    Rng oracle_rng(7);
    auto oracle = row_oracle::RowLevelAssignByMaxFlow(
        p, targets, &oracle_filters, oracle_rng, oracle_options);
    EXPECT_EQ(collapsed.ok(), oracle.ok()) << round;
    if (!collapsed.ok() || !oracle.ok()) return out;
    const SubscriptionAssignResult& c = collapsed.value();
    const SubscriptionAssignResult& o = oracle.value();
    EXPECT_EQ(c.flow_value, o.flow_value) << round;
    EXPECT_EQ(c.achieved_beta, o.achieved_beta) << round;
    EXPECT_EQ(c.load_feasible, o.load_feasible) << round;

    // Every row lands on a latency-feasible target whose (possibly
    // enriched) filter contains its subscription.
    EXPECT_EQ(c.target_of.size(), targets.subscribers.size()) << round;
    for (int r = 0; r < targets.num_rows(); ++r) {
      const int t = c.target_of[r];
      EXPECT_GE(t, 0) << round << " row " << r;
      if (t < 0) continue;
      bool candidate = false;
      for (int cand : targets.candidates(r)) candidate |= cand == t;
      EXPECT_TRUE(candidate) << round << " row " << r;
      EXPECT_TRUE(collapsed_filters[t].CoversRect(
          p.subscriber(targets.subscribers[r]).subscription))
          << round << " row " << r << " target " << t;
    }
    // A feasible result keeps every target within its cap: at the
    // achieved β for unit rows, which the flow routes whole; at β_max for
    // weighted rows, whose split aggregates the repair pass resolves.
    if (c.load_feasible) {
      std::vector<double> load(targets.count, 0);
      for (int r = 0; r < targets.num_rows(); ++r) {
        if (c.target_of[r] >= 0) load[c.target_of[r]] += targets.row_weight(r);
      }
      const double beta = targets.weight.empty() ? c.achieved_beta
                                                 : p.config().beta_max;
      for (int t = 0; t < targets.count; ++t) {
        EXPECT_LE(load[t], targets.AbsCap(t, beta) + 1e-9)
            << round << " target " << t;
      }
    }
    out.result = c;
    out.filters_enriched = false;
    for (int t = 0; t < targets.count; ++t) {
      out.filters_enriched |= collapsed_filters[t].rects().size() !=
                              filters[t].rects().size();
    }
  }
  return out;
}

const Family kFamilies[] = {Family::kGrid, Family::kGg, Family::kRss};

std::string Name(Family f) {
  return f == Family::kGrid ? "grid" : f == Family::kGg ? "gg" : "rss";
}

TEST(FlowDifferentialTest, UnweightedPreliminaryFilters) {
  for (Family f : kFamilies) {
    const SaProblem p = test::FamilyProblem(f, 600, 8, SaConfig{}, 42);
    const Targets targets = BuildLeafTargets(p, AllSubscribers(p));
    const auto filters = PreliminaryFilters(p, targets, 3);
    for (bool seeding : {true, false}) {
      SubscriptionAssignOptions options;
      options.cohesion_seeding = seeding;
      ExpectMatchesOracle(p, targets, filters, options,
                          Name(f) + (seeding ? " seeded" : " unseeded"));
    }
  }
}

TEST(FlowDifferentialTest, ChildTargetsOfMultiLevelRoot) {
  const SaProblem p = test::SmallMultiLevelProblem(700, 25, 5);
  const Targets targets = BuildChildTargets(p, AllSubscribers(p),
                                            net::BrokerTree::kPublisher);
  const auto filters = PreliminaryFilters(p, targets, 5);
  ExpectMatchesOracle(p, targets, filters, {}, "multi-level root");
}

TEST(FlowDifferentialTest, ForcedBetaEscalation) {
  // β = 1 caps every target at exactly its share of the load, so the
  // first flow falls short wherever candidates or filters cluster and the
  // flow escalates β toward β_max in small steps.
  SaConfig config;
  config.beta = 1.0;
  config.beta_max = 3.0;
  for (Family f : kFamilies) {
    const SaProblem p = test::FamilyProblem(f, 500, 8, config, 11);
    const Targets targets = BuildLeafTargets(p, AllSubscribers(p));
    const auto filters = PreliminaryFilters(p, targets, 4);
    for (bool seeding : {true, false}) {
      SubscriptionAssignOptions options;
      options.cohesion_seeding = seeding;
      options.escalation = 1.02;
      const Outcome out =
          ExpectMatchesOracle(p, targets, filters, options,
                              Name(f) + " escalation");
      EXPECT_GT(out.result.achieved_beta, config.beta) << Name(f);
    }
  }
}

// Filters that cover every row at only two targets, so the flow strands
// rows at β_max and enrichment opens the others.
std::vector<Filter> TwoTargetFilters(const SaProblem& p,
                                     const Targets& targets) {
  std::vector<geo::Rectangle> subscriptions;
  for (const auto& s : p.subscribers()) subscriptions.push_back(s.subscription);
  const geo::Rectangle all = geo::Rectangle::Meb(subscriptions);
  std::vector<Filter> filters(targets.count);
  filters[0] = Filter({all});
  filters[1] = Filter({all});
  return filters;
}

TEST(FlowDifferentialTest, EnrichmentRounds) {
  SaConfig config;
  config.max_delay = 50;  // every target latency-feasible for every row
  for (Family f : kFamilies) {
    const SaProblem p = test::FamilyProblem(f, 400, 6, config, 19);
    const Targets targets = BuildLeafTargets(p, AllSubscribers(p));
    const Outcome out = ExpectMatchesOracle(
        p, targets, TwoTargetFilters(p, targets), {}, Name(f) + " enrichment");
    EXPECT_TRUE(out.filters_enriched) << Name(f);
  }
}

TEST(FlowDifferentialTest, BestEffortOverflow) {
  SaConfig config;
  config.max_delay = 50;
  for (Family f : kFamilies) {
    const SaProblem p = test::FamilyProblem(f, 400, 6, config, 23);
    const Targets targets = BuildLeafTargets(p, AllSubscribers(p));
    SubscriptionAssignOptions options;
    options.enrichment_rounds = 0;
    for (bool seeding : {true, false}) {
      options.cohesion_seeding = seeding;
      const Outcome out =
          ExpectMatchesOracle(p, targets, TwoTargetFilters(p, targets), options,
                              Name(f) + " overflow");
      EXPECT_FALSE(out.result.load_feasible) << Name(f);
      EXPECT_LT(out.result.flow_value, targets.num_rows()) << Name(f);
    }
  }
}

TEST(FlowDifferentialTest, WeightedAggregateRows) {
  for (Family f : kFamilies) {
    const SaProblem p = CompressedProblem(f, 900, 8, SaConfig{}, 31);
    ASSERT_TRUE(p.is_weighted());
    const Targets targets = BuildLeafTargets(p, AllSubscribers(p));
    ASSERT_LT(targets.num_rows(), 900);
    const auto filters = PreliminaryFilters(p, targets, 6);
    for (bool seeding : {true, false}) {
      SubscriptionAssignOptions options;
      options.cohesion_seeding = seeding;
      ExpectMatchesOracle(p, targets, filters, options,
                          Name(f) + " weighted");
    }
  }
}

TEST(FlowDifferentialTest, WeightedEscalationAndOverflow) {
  SaConfig config;
  config.beta = 1.0;
  config.beta_max = 1.3;
  config.max_delay = 50;
  for (Family f : kFamilies) {
    const SaProblem p = CompressedProblem(f, 900, 6, config, 37);
    const Targets targets = BuildLeafTargets(p, AllSubscribers(p));
    SubscriptionAssignOptions options;
    options.escalation = 1.03;
    ExpectMatchesOracle(p, targets, TwoTargetFilters(p, targets), options,
                        Name(f) + " weighted enrichment");
    options.enrichment_rounds = 0;
    const Outcome out =
        ExpectMatchesOracle(p, targets, TwoTargetFilters(p, targets), options,
                            Name(f) + " weighted overflow");
    EXPECT_FALSE(out.result.load_feasible) << Name(f);
  }
}

}  // namespace
}  // namespace slp::core
