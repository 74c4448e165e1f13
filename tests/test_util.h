// Shared helpers for core-module tests: small deterministic SA problem
// instances built from the workload generators.

#ifndef SLP_TESTS_TEST_UTIL_H_
#define SLP_TESTS_TEST_UTIL_H_

#include <utility>
#include <vector>

#include "src/core/problem.h"
#include "src/common/random.h"
#include "src/network/tree_builder.h"
#include "src/workload/coverable.h"
#include "src/workload/googlegroups.h"
#include "src/workload/grid.h"
#include "src/workload/rss.h"

namespace slp::test {

// A small one-level problem from the grid workload family.
inline core::SaProblem SmallGridProblem(int subs = 600, int brokers = 10,
                                        core::SaConfig config = {},
                                        uint64_t seed = 42) {
  wl::GridParams p;
  p.num_subscribers = subs;
  p.num_brokers = brokers;
  p.seed = seed;
  wl::Workload w = wl::GenerateGrid(p);
  net::BrokerTree tree = net::BuildOneLevelTree(w.publisher, w.broker_locations);
  return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
}

// A small one-level problem from the Google-Groups-like family.
inline core::SaProblem SmallGgProblem(int subs = 800, int brokers = 12,
                                      core::SaConfig config = {},
                                      uint64_t seed = 42) {
  wl::Workload w = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kLow, subs, brokers, seed);
  net::BrokerTree tree = net::BuildOneLevelTree(w.publisher, w.broker_locations);
  return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
}

// A small multi-level problem (out-degree-limited tree).
inline core::SaProblem SmallMultiLevelProblem(int subs = 800, int brokers = 30,
                                              int out_degree = 5,
                                              core::SaConfig config = {},
                                              uint64_t seed = 42) {
  wl::Workload w = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kLow, subs, brokers, seed);
  Rng rng(seed);
  net::BrokerTree tree = net::BuildMultiLevelTree(
      w.publisher, w.broker_locations, out_degree, rng);
  return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
}

// The paper's three workload families.
enum class Family { kGrid, kGg, kRss };

// One family's workload; grid and Google-Groups are the workloads of
// SmallGridProblem and SmallGgProblem.
inline wl::Workload FamilyWorkload(Family family, int subs, int brokers,
                                   uint64_t seed) {
  switch (family) {
    case Family::kGrid: {
      wl::GridParams p;
      p.num_subscribers = subs;
      p.num_brokers = brokers;
      p.seed = seed;
      return wl::GenerateGrid(p);
    }
    case Family::kGg:
      return wl::GenerateGoogleGroupsVariant(wl::Level::kHigh, wl::Level::kLow,
                                             subs, brokers, seed);
    case Family::kRss: {
      wl::RssParams p;
      p.num_subscribers = subs;
      p.num_brokers = brokers;
      p.seed = seed;
      return wl::GenerateRss(p);
    }
  }
  return {};
}

// A one-level problem over the family's workload.
inline core::SaProblem FamilyProblem(Family family, int subs, int brokers,
                                     core::SaConfig config = {},
                                     uint64_t seed = 42) {
  wl::Workload w = FamilyWorkload(family, subs, brokers, seed);
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);
  return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
}

// A one-level problem over the family's workload made coverable: 60% of
// the subscribers rewritten under untouched parents, half of them as exact
// duplicates, so the aggregation layer has something to compress.
inline core::SaProblem CoverableProblem(Family family, int subs, int brokers,
                                        uint64_t seed,
                                        core::SaConfig config = {}) {
  wl::Workload w = FamilyWorkload(family, subs, brokers, seed);
  wl::CoverableOptions cover;
  cover.fraction = 0.6;
  cover.dup_fraction = 0.5;
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  wl::MakeCoverable(&w, cover, rng);
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);
  return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
}

}  // namespace slp::test

#endif  // SLP_TESTS_TEST_UTIL_H_
