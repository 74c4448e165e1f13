#include "src/sim/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "src/common/invariant.h"
#include "src/core/greedy.h"
#include "src/core/metrics.h"
#include "src/liveness/heartbeat.h"
#include "src/match/audit.h"
#include "src/match/match_index.h"

namespace slp::sim {

namespace {

// Ground-truth view threaded through routing in staleness mode (null in
// crash-stop mode): events die at actually-down brokers even when the
// believed overlay still routes through them, and deliveries to offline
// clients are diverted into stale_deliveries.
struct GroundTruth {
  const liveness::HeartbeatChannel* channel = nullptr;
  const std::vector<int>* client_of_handle = nullptr;  // handle -> client
  int64_t* stale_deliveries = nullptr;
};

// Counts a delivery to handle h; with ground truth, one to an offline
// client is stale.
void CountDelivery(int h, const GroundTruth* truth, DisseminationStats* stats) {
  if (truth != nullptr &&
      truth->channel->client_offline((*truth->client_of_handle)[h])) {
    ++*truth->stale_deliveries;
  } else {
    ++stats->deliveries;
  }
}

// Linear engine. Routes one event over the live overlay: a broker forwards
// iff it is live and the event lies inside its current (DynamicAssigner)
// filter.
// Failed brokers never appear in live_children, which the SLP_DCHECK below
// asserts — they are excluded from total_messages by construction. With
// ground truth, an actually-down broker still *receives* the message (its
// believed parent sent it) but forwards nothing.
void RouteLiveEvent(const core::DynamicAssigner& dyn, const geo::Point& event,
                    const std::vector<std::vector<int>>& handles_of_leaf,
                    const GroundTruth* truth, DisseminationStats* stats) {
  const net::BrokerTree& tree = dyn.tree();
  std::vector<int> stack(
      tree.live_children(net::BrokerTree::kPublisher).begin(),
      tree.live_children(net::BrokerTree::kPublisher).end());
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    SLP_DCHECK(!tree.is_failed(v));
    bool inside = false;
    for (const geo::Rectangle& r : dyn.filter(v)) {
      if (r.ContainsPoint(event)) {
        inside = true;
        break;
      }
    }
    if (!inside) continue;
    ++stats->broker_hits[v];
    ++stats->total_messages;
    if (truth != nullptr && truth->channel->broker_down(v)) continue;
    if (tree.is_leaf(v)) {
      bool matched_any = false;
      for (int h : handles_of_leaf[v]) {
        if (dyn.subscriber(h).subscription.ContainsPoint(event)) {
          matched_any = true;
          CountDelivery(h, truth, stats);
        }
      }
      if (!matched_any) ++stats->wasted_leaf_hits;
    } else {
      for (int c : tree.live_children(v)) stack.push_back(c);
    }
  }
}

// True iff every filter on the live path from `leaf` to the publisher
// contains the event and (with ground truth) every hop is actually up —
// i.e., routing physically delivered it.
bool ReachedOverLivePath(const core::DynamicAssigner& dyn, int leaf,
                         const geo::Point& event, const GroundTruth* truth) {
  const net::BrokerTree& tree = dyn.tree();
  for (int v = leaf; v != net::BrokerTree::kPublisher;
       v = tree.live_parent(v)) {
    if (truth != nullptr && truth->channel->broker_down(v)) return false;
    bool inside = false;
    for (const geo::Rectangle& r : dyn.filter(v)) {
      if (r.ContainsPoint(event)) {
        inside = true;
        break;
      }
    }
    if (!inside) return false;
  }
  return true;
}

// True iff some broker on the believed live path of `leaf` is actually
// down (the event's non-arrival is the detector's lag, not a filter bug).
bool BelievedPathActuallyDown(const core::DynamicAssigner& dyn, int leaf,
                              const liveness::HeartbeatChannel& channel) {
  const net::BrokerTree& tree = dyn.tree();
  for (int v = leaf; v != net::BrokerTree::kPublisher;
       v = tree.live_parent(v)) {
    if (channel.broker_down(v)) return true;
  }
  return false;
}

std::vector<std::vector<int>> HandlesByLeaf(const core::DynamicAssigner& dyn) {
  std::vector<std::vector<int>> out(dyn.tree().num_nodes());
  for (int h = 0; h < dyn.slot_count(); ++h) {
    if (!dyn.is_occupied(h)) continue;
    const int leaf = dyn.leaf_of(h);
    if (leaf >= 0) out[leaf].push_back(h);
  }
  return out;
}

// ---- Live matching (DESIGN.md §11) ----
//
// Routes events over the live overlay with either engine and hands the
// replay the matching handles each event did not reach, for its miss
// attribution. Refresh() runs whenever placement changes (repairs,
// fail/recover, expiries, reconnects). The indexed engine then rebuilds
// two indexes:
//  * brokers — current filter rectangles of every *live* broker (failed
//    brokers are excluded at build time, so they can never be probed in);
//  * handles — every occupied handle (placed, orphaned, or parked); one
//    probe per event settles deliveries, wasted leaf hits and the
//    unreached handles in O(matches).
// The linear engine regroups handles by leaf instead and scans them all.
class LiveMatcher {
 public:
  LiveMatcher(const core::DynamicAssigner& dyn, MatchEngine engine)
      : dyn_(dyn),
        reached_(dyn.tree().num_nodes()),
        served_(dyn.tree().num_nodes()) {
    // Indexed matching is d=2-only; other dimensions (and the empty
    // population) take the linear scans.
    if (engine == MatchEngine::kIndexed) {
      for (int h = 0; h < dyn.slot_count(); ++h) {
        if (!dyn.is_occupied(h)) continue;
        indexed_ = dyn.subscriber(h).subscription.dim() == 2;
        break;
      }
    }
    Refresh();
  }
  LiveMatcher(const LiveMatcher&) = delete;
  LiveMatcher& operator=(const LiveMatcher&) = delete;

  void Refresh();

  // Routes one event, counting broker hits, deliveries (stale ones with
  // ground truth) and wasted leaf hits into `stats`. Returns the occupied
  // handles whose subscription matches but which the event did not reach:
  // unplaced, or placed on a leaf the event never physically arrived at.
  // Valid until the next call.
  const std::vector<int32_t>& Route(const geo::Point& event,
                                    const GroundTruth* truth,
                                    DisseminationStats* stats);

 private:
  const core::DynamicAssigner& dyn_;
  bool indexed_ = false;
  std::vector<std::vector<int>> handles_of_leaf_;  // linear engine
  match::MatchIndex brokers_, handles_;            // indexed engine
  std::optional<match::MatchBatch> broker_probe_;  // probes brokers_
  match::BitSet reached_;  // live leaves the event physically arrived at
  match::BitSet served_;   // reached leaves with a matching handle
  std::vector<int> reached_leaves_, stack_;
  std::vector<int32_t> matched_, unserved_;
};

void LiveMatcher::Refresh() {
  if (!indexed_) {
    handles_of_leaf_ = HandlesByLeaf(dyn_);
    return;
  }
  const net::BrokerTree& tree = dyn_.tree();
  std::vector<match::OwnedRect> broker_rects;
  for (int v = 1; v < tree.num_nodes(); ++v) {
    if (tree.is_failed(v)) continue;
    for (const geo::Rectangle& r : dyn_.filter(v)) {
      broker_rects.push_back({v, r});
    }
  }
  brokers_ = match::BuildIndex(broker_rects, tree.num_nodes());
  broker_probe_.emplace(&brokers_);

  std::vector<match::OwnedRect> handle_rects;
  for (int h = 0; h < dyn_.slot_count(); ++h) {
    if (!dyn_.is_occupied(h)) continue;
    handle_rects.push_back({h, dyn_.subscriber(h).subscription});
  }
  handles_ = match::BuildIndex(handle_rects, dyn_.slot_count());
#if SLP_AUDITS_ENABLED
  match::AuditIndex(brokers_, broker_rects, "fault-replay broker index");
  match::AuditIndex(handles_, handle_rects, "fault-replay handle index");
#endif
}

const std::vector<int32_t>& LiveMatcher::Route(const geo::Point& event,
                                               const GroundTruth* truth,
                                               DisseminationStats* stats) {
  unserved_.clear();
  if (!indexed_) {
    RouteLiveEvent(dyn_, event, handles_of_leaf_, truth, stats);
    for (int h = 0; h < dyn_.slot_count(); ++h) {
      if (!dyn_.is_occupied(h)) continue;
      if (!dyn_.subscriber(h).subscription.ContainsPoint(event)) continue;
      const int leaf = dyn_.leaf_of(h);
      if (leaf < 0 || !ReachedOverLivePath(dyn_, leaf, event, truth)) {
        unserved_.push_back(h);
      }
    }
    return unserved_;
  }

  // One probe answers e ∈ f_v for every live broker v; the DFS costs a bit
  // test per live hop. With ground truth it prunes at actually-down
  // brokers (after counting the message the believed parent sent), so a
  // reached leaf is one the event physically arrived at.
  const net::BrokerTree& tree = dyn_.tree();
  const double x = event[0], y = event[1];
  broker_probe_->Probe(x, y);
  const match::BitSet& contains = broker_probe_->owners();
  stack_.assign(tree.live_children(net::BrokerTree::kPublisher).begin(),
                tree.live_children(net::BrokerTree::kPublisher).end());
  while (!stack_.empty()) {
    const int v = stack_.back();
    stack_.pop_back();
    SLP_DCHECK(!tree.is_failed(v));
    if (!contains.Test(v)) continue;
    ++stats->broker_hits[v];
    ++stats->total_messages;
    if (truth != nullptr && truth->channel->broker_down(v)) continue;
    if (tree.is_leaf(v)) {
      reached_.Set(v);
      reached_leaves_.push_back(v);
    } else {
      for (int c : tree.live_children(v)) stack_.push_back(c);
    }
  }

  // One handle probe settles every leaf: a matching handle on a reached
  // leaf is a delivery; a reached leaf no matching handle sits on is a
  // wasted hit.
  matched_.clear();
  handles_.AppendContaining(x, y, &matched_);
  int served_leaves = 0;
  for (const int32_t h : matched_) {
    const int leaf = dyn_.leaf_of(h);
    if (leaf < 0 || !reached_.Test(leaf)) {
      unserved_.push_back(h);
      continue;
    }
    CountDelivery(h, truth, stats);
    if (!served_.Test(leaf)) {
      served_.Set(leaf);
      ++served_leaves;
    }
  }
  stats->wasted_leaf_hits +=
      static_cast<int64_t>(reached_leaves_.size()) - served_leaves;
  for (const int v : reached_leaves_) {
    reached_.Reset(v);
    served_.Reset(v);
  }
  reached_leaves_.clear();
  return unserved_;
}

// Fresh-baseline Q(T) over the surviving live topology (shared by both
// replay modes; consumes rng iff it runs).
void ComputeFreshBaseline(core::DynamicAssigner& dyn, Rng& rng,
                          FaultReplayResult* result) {
  Result<core::DynamicAssigner::LiveSnapshot> snap = dyn.SnapshotLive();
  if (snap.ok()) {
    const core::SaSolution fresh = core::RunGrStar(snap.value().problem, rng);
    result->qt_fresh =
        core::ComputeMetrics(snap.value().problem, fresh).total_bandwidth;
    if (result->qt_fresh > 0) {
      result->qt_inflation = result->qt_final / result->qt_fresh;
    }
  }
}

Result<FaultReplayResult> ReplayStaleness(core::DynamicAssigner& dyn,
                                          const FaultPlan& plan,
                                          const std::vector<geo::Point>& events,
                                          const FaultReplayOptions& options,
                                          Rng& rng);

}  // namespace

FaultPlan FaultPlan::Scripted(std::vector<FaultEvent> events,
                              std::vector<ClientEvent> client_events) {
  FaultPlan plan;
  plan.events_ = std::move(events);
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_event < b.at_event;
                   });
  plan.client_events_ = std::move(client_events);
  std::stable_sort(plan.client_events_.begin(), plan.client_events_.end(),
                   [](const ClientEvent& a, const ClientEvent& b) {
                     return a.at_event < b.at_event;
                   });
  return plan;
}

FaultPlan FaultPlan::SeededRandom(const net::BrokerTree& tree, int num_events,
                                  double fail_fraction, int outage_events,
                                  Rng& rng) {
  const int num_brokers = tree.num_nodes() - 1;  // publisher excluded
  SLP_DCHECK(num_brokers > 0 && num_events > 0);
  const int victims = std::min(
      num_brokers,
      std::max(1, static_cast<int>(std::ceil(fail_fraction * num_brokers))));
  // Sampled ids are 0-based broker offsets; +1 skips the publisher.
  const std::vector<int> picks =
      UniformSampleWithoutReplacement(num_brokers, victims, rng);
  std::vector<FaultEvent> events;
  for (int pick : picks) {
    const int node = pick + 1;
    const int start = static_cast<int>(rng.UniformInt(0, num_events - 1));
    events.push_back(FaultEvent{start, node, /*fail=*/true});
    // Contract: a recovery landing at or past the stream end is dropped —
    // the victim stays down for the rest of the replay (see header).
    const int end = start + outage_events;
    if (end < num_events) {
      events.push_back(FaultEvent{end, node, /*fail=*/false});
    }
  }
  return Scripted(std::move(events));
}

bool FaultPlan::RequiresStaleness() const {
  if (!client_events_.empty()) return true;
  for (const FaultEvent& f : events_) {
    if (f.heartbeat_only) return true;
  }
  return false;
}

Result<FaultReplayResult> ReplayWithFaults(
    core::DynamicAssigner& dyn, const FaultPlan& plan,
    const std::vector<geo::Point>& events, const FaultReplayOptions& options,
    Rng& rng) {
  SLP_DCHECK(options.epoch_length > 0);
  if (options.lease.has_value()) {
    return ReplayStaleness(dyn, plan, events, options, rng);
  }
  if (plan.RequiresStaleness()) {
    return Status::InvalidArgument(
        "plan has heartbeat_only/client events; crash-stop replay cannot "
        "apply them (set FaultReplayOptions::lease)");
  }
  FaultReplayResult result;
  result.stats.broker_hits.assign(dyn.tree().num_nodes(), 0);

  core::RepairEngine engine(&dyn, options.repair);
  LiveMatcher matcher(dyn, options.engine);
  bool placement_dirty = false;

  EpochRecoveryStats epoch;
  epoch.first_event = 0;
  int64_t epoch_delivery_base = 0;

  int outage_start = -1;  // event index at which the current backlog began
  size_t next_fault = 0;
  const std::vector<FaultEvent>& faults = plan.events();

  const int num_events = static_cast<int>(events.size());
  for (int i = 0; i < num_events; ++i) {
    // 1. Apply the faults scheduled for this tick.
    while (next_fault < faults.size() && faults[next_fault].at_event <= i) {
      const FaultEvent& f = faults[next_fault++];
      const size_t orphans_before = dyn.orphans().size();
      SLP_RETURN_IF_ERROR(f.fail ? dyn.FailBroker(f.node)
                                 : dyn.RecoverBroker(f.node));
      result.total_orphaned +=
          static_cast<int>(dyn.orphans().size() - orphans_before);
      placement_dirty = true;
    }
    if (outage_start < 0 && !dyn.orphans().empty()) outage_start = i;

    // 2. Repair tick (after the detection delay) under the per-tick budget.
    const bool orphans_due =
        outage_start >= 0 && i - outage_start >= options.detection_delay_events;
    if (orphans_due || (dyn.orphans().empty() &&
                        !dyn.degraded_handles().empty())) {
      const Deadline budget =
          options.repair_budget_seconds < 0
              ? Deadline::Infinite()
              : Deadline::After(options.repair_budget_seconds);
      const core::RepairReport report = engine.Repair(budget, i);
      result.total_repaired += report.repaired;
      result.total_degraded_placed += report.degraded;
      result.total_undegraded += report.undegraded;
      epoch.repaired += report.repaired + report.undegraded;
      epoch.degraded_placed += report.degraded;
      if (report.repaired + report.degraded + report.undegraded > 0) {
        placement_dirty = true;
      }
    }
    if (outage_start >= 0 && dyn.orphans().empty()) {
      result.time_to_repair.push_back(i - outage_start);
      outage_start = -1;
    }

    // 3. Route the event over the live overlay, then (4.) attribute every
    // matching handle it did not reach to its cause.
    if (placement_dirty) {
      matcher.Refresh();
      placement_dirty = false;
    }
    ++result.stats.events;
    ++epoch.num_events;
    for (const int32_t h :
         matcher.Route(events[i], /*truth=*/nullptr, &result.stats)) {
      if (dyn.leaf_of(h) < 0) {
        // Orphaned, or degraded and parked unplaced: the outage's price.
        ++result.missed_outage;
        ++epoch.missed_outage;
      } else if (dyn.state(h) == core::SubscriberState::kLive) {
        ++result.missed_live;
        ++epoch.missed_live;
        ++result.stats.missed_deliveries;
      } else {
        ++result.missed_degraded;
        ++epoch.missed_degraded;
      }
    }

    // 5. Epoch boundary.
    if ((i + 1) % options.epoch_length == 0 || i + 1 == num_events) {
      epoch.deliveries = result.stats.deliveries - epoch_delivery_base;
      epoch_delivery_base = result.stats.deliveries;
      epoch.orphans_end = static_cast<int>(dyn.orphans().size());
      epoch.degraded_end = static_cast<int>(dyn.degraded_handles().size());
      epoch.qt_end = dyn.CurrentBandwidth();
      result.epochs.push_back(epoch);
      epoch = EpochRecoveryStats{};
      epoch.first_event = i + 1;
    }
  }

  result.unrepaired_at_end = static_cast<int>(dyn.orphans().size());
  result.degraded_at_end = static_cast<int>(dyn.degraded_handles().size());
  result.qt_final = dyn.CurrentBandwidth();
  result.stats.CheckInvariants();

  if (options.compute_fresh_baseline) {
    ComputeFreshBaseline(dyn, rng, &result);
  }
  return result;
}

namespace {

Result<FaultReplayResult> ReplayStaleness(
    core::DynamicAssigner& dyn, const FaultPlan& plan,
    const std::vector<geo::Point>& events, const FaultReplayOptions& options,
    Rng& rng) {
  const liveness::LeaseConfig& lease = *options.lease;
  const net::BrokerTree& tree = dyn.tree();
  const int num_nodes = tree.num_nodes();
  FaultReplayResult result;
  result.stats.broker_hits.assign(num_nodes, 0);

  // Stable client ids: the assigner's initial population in handle order.
  // client_handle goes to -1 while a client's lease is expired; the
  // subscription is kept so a reconnect can re-Add it.
  std::vector<int> client_handle;
  std::vector<wl::Subscriber> client_sub;
  std::vector<int> client_of_handle(dyn.slot_count(), -1);
  for (int h = 0; h < dyn.slot_count(); ++h) {
    if (!dyn.is_occupied(h)) continue;
    client_of_handle[h] = static_cast<int>(client_handle.size());
    client_handle.push_back(h);
    client_sub.push_back(dyn.subscriber(h));
  }
  const int num_clients = static_cast<int>(client_handle.size());

  liveness::HeartbeatChannel channel(&tree, num_clients);
  // now = -1: every lease dates from "one tick before the stream", so a
  // broker down from event 0 accrues its first missed window at tick
  // interval-1 — and with hair-trigger thresholds, at tick 0 (the
  // oracle-equivalence alignment).
  liveness::LivenessTracker tracker(&dyn, lease, /*now=*/-1);
  for (int c = 0; c < num_clients; ++c) {
    tracker.TrackSubscriber(c, client_handle[c], /*now=*/-1);
  }
  core::RepairEngine engine(&dyn, options.repair);

  // Refresh phases: client c attempts a lease refresh at ticks i with
  // i % subscriber_interval == c % subscriber_interval.
  std::vector<std::vector<int>> phase_clients(lease.subscriber_interval);
  for (int c = 0; c < num_clients; ++c) {
    phase_clients[c % lease.subscriber_interval].push_back(c);
  }

  GroundTruth truth;
  truth.channel = &channel;
  truth.client_of_handle = &client_of_handle;
  truth.stale_deliveries = &result.stale_deliveries;

  LiveMatcher matcher(dyn, options.engine);
  bool placement_dirty = false;

  EpochRecoveryStats epoch;
  epoch.first_event = 0;
  int64_t epoch_delivery_base = 0;

  int outage_start = -1;
  size_t next_fault = 0;
  size_t next_client = 0;
  const std::vector<FaultEvent>& faults = plan.events();
  const std::vector<ClientEvent>& client_faults = plan.client_events();
  std::vector<int> down_since(num_nodes, -1);  // ground-truth crash tick
  // Clients whose lease expired (untracked); they reconnect at their next
  // refresh phase once online. Ordered set: iteration is deterministic.
  std::set<int> expired;

  const int num_events = static_cast<int>(events.size());
  for (int i = 0; i < num_events; ++i) {
    // 1. Ground truth moves: crashes, recoveries, mutes, client churn.
    // Nothing here touches the believed overlay.
    while (next_fault < faults.size() && faults[next_fault].at_event <= i) {
      const FaultEvent& f = faults[next_fault++];
      if (f.node <= net::BrokerTree::kPublisher || f.node >= num_nodes) {
        return Status::InvalidArgument("fault on invalid broker node");
      }
      if (f.heartbeat_only) {
        channel.SetBrokerMuted(f.node, f.fail);
        continue;
      }
      if (channel.broker_down(f.node) == f.fail) {
        return Status::InvalidArgument(f.fail ? "broker already down"
                                              : "broker not down");
      }
      channel.SetBrokerDown(f.node, f.fail);
      down_since[f.node] = f.fail ? i : -1;
    }
    while (next_client < client_faults.size() &&
           client_faults[next_client].at_event <= i) {
      const ClientEvent& c = client_faults[next_client++];
      if (c.client < 0 || c.client >= num_clients) {
        return Status::InvalidArgument("client event on invalid client id");
      }
      channel.SetClientOffline(c.client, c.offline);
    }

    // 2. Heartbeats and lease refreshes, staggered by id so a population
    // does not renew in bursts. Delivery is decided by the channel over
    // the believed overlay; a delivered heartbeat from a believed-dead
    // broker recovers it (the tracker calls RecoverBroker).
    bool overlay_changed = false;
    for (int v = 1; v < num_nodes; ++v) {
      if (i % lease.heartbeat_interval != v % lease.heartbeat_interval) {
        continue;
      }
      if (channel.broker_down(v)) continue;  // a dead broker sends nothing
      ++result.heartbeats_sent;
      if (!channel.BrokerHeartbeatDelivered(v)) continue;
      ++result.heartbeats_delivered;
      if (tracker.HeardBroker(v, i) == liveness::HeardKind::kRecovered) {
        ++result.broker_recoveries;
        overlay_changed = true;
      }
    }
    for (int c : phase_clients[i % lease.subscriber_interval]) {
      if (!tracker.IsTracked(c)) continue;
      if (channel.client_offline(c)) continue;  // offline: nothing sent
      ++result.refreshes_sent;
      const int leaf = dyn.leaf_of(tracker.handle_of(c));
      if (!channel.ClientRefreshDelivered(c, leaf)) continue;
      ++result.refreshes_delivered;
      tracker.HeardSubscriber(c, i);
    }

    // 3. Detector tick: the tracker applies the lease state machine and
    // drives FailBroker / Remove. Attribute its transitions against
    // ground truth.
    const size_t orphans_before = dyn.orphans().size();
    const liveness::TickReport tick = tracker.Tick(i);
    result.total_orphaned +=
        static_cast<int>(dyn.orphans().size() - orphans_before);
    result.deaths_deferred += tick.deaths_deferred;
    for (const int v : tick.new_suspects) {
      if (!channel.broker_down(v)) ++result.false_suspicions;
    }
    for (const int v : tick.declared_dead) {
      if (channel.broker_down(v)) {
        result.detection_latency.push_back(i - down_since[v]);
      } else {
        ++result.premature_evacuations;
      }
    }
    for (const liveness::ExpiredLease& e : tick.expired) {
      engine.Forget(e.handle);  // the handle is gone; drop its backoff
      client_handle[e.client] = -1;
      client_of_handle[e.handle] = -1;
      ++result.lease_expirations;
      if (!channel.client_offline(e.client)) {
        ++result.false_lease_expirations;
      }
      expired.insert(e.client);
    }
    if (!tick.declared_dead.empty() || !tick.expired.empty() ||
        overlay_changed) {
      placement_dirty = true;
    }

    // 4. Reconnects: an expired client that is online re-subscribes at its
    // next refresh phase (mass expiry + mass return = reconnect storm).
    // Placement goes through the normal veto-aware Add.
    for (auto it = expired.begin(); it != expired.end();) {
      const int c = *it;
      if (channel.client_offline(c) ||
          i % lease.subscriber_interval != c % lease.subscriber_interval) {
        ++it;
        continue;
      }
      const Result<int> handle = dyn.Add(client_sub[c]);
      if (!handle.ok()) {  // no live leaf at all right now; retry later
        ++it;
        continue;
      }
      client_handle[c] = handle.value();
      if (handle.value() >= static_cast<int>(client_of_handle.size())) {
        client_of_handle.resize(handle.value() + 1, -1);
      }
      client_of_handle[handle.value()] = c;
      tracker.TrackSubscriber(c, handle.value(), i);
      ++result.reconnects;
      placement_dirty = true;
      it = expired.erase(it);
    }

    // 5. Repair. No scripted detection delay here: orphans only exist
    // once the tracker declared their leaf dead, so the lease thresholds
    // *are* the detection delay.
    if (outage_start < 0 && !dyn.orphans().empty()) outage_start = i;
    if (!dyn.orphans().empty() || !dyn.degraded_handles().empty()) {
      const Deadline budget =
          options.repair_budget_seconds < 0
              ? Deadline::Infinite()
              : Deadline::After(options.repair_budget_seconds);
      const core::RepairReport report = engine.Repair(budget, i);
      result.total_repaired += report.repaired;
      result.total_degraded_placed += report.degraded;
      result.total_undegraded += report.undegraded;
      epoch.repaired += report.repaired + report.undegraded;
      epoch.degraded_placed += report.degraded;
      if (report.repaired + report.degraded + report.undegraded > 0) {
        placement_dirty = true;
      }
    }
    if (outage_start >= 0 && dyn.orphans().empty()) {
      result.time_to_repair.push_back(i - outage_start);
      outage_start = -1;
    }

    // 6. Route over the believed overlay; events die at actually-down
    // brokers and deliveries to offline clients count as stale.
    if (placement_dirty) {
      matcher.Refresh();
      placement_dirty = false;
    }
    const geo::Point& event = events[i];
    ++result.stats.events;
    ++epoch.num_events;

    // 7. Ground-truth miss attribution. Order matters: an actually-down
    // broker on the believed path explains the miss (missed_undetected)
    // before any filter reasoning — missed_live stays reserved for true
    // coverage bugs.
    for (const int32_t h : matcher.Route(event, &truth, &result.stats)) {
      const int c = client_of_handle[h];
      SLP_DCHECK(c >= 0);
      if (channel.client_offline(c)) continue;  // not listening: no miss
      const int leaf = dyn.leaf_of(h);
      if (leaf < 0) {
        ++result.missed_outage;
        ++epoch.missed_outage;
      } else if (BelievedPathActuallyDown(dyn, leaf, channel)) {
        ++result.missed_undetected;
        ++epoch.missed_undetected;
      } else if (dyn.state(h) == core::SubscriberState::kLive) {
        ++result.missed_live;
        ++epoch.missed_live;
        ++result.stats.missed_deliveries;
      } else {
        ++result.missed_degraded;
        ++epoch.missed_degraded;
      }
    }
    // An online client whose subscription was prematurely expunged misses
    // every matching event until its reconnect.
    for (const int c : expired) {
      if (channel.client_offline(c)) continue;
      if (client_sub[c].subscription.ContainsPoint(event)) {
        ++result.missed_expired;
      }
    }

    // 8. Epoch boundary.
    if ((i + 1) % options.epoch_length == 0 || i + 1 == num_events) {
      epoch.deliveries = result.stats.deliveries - epoch_delivery_base;
      epoch_delivery_base = result.stats.deliveries;
      epoch.orphans_end = static_cast<int>(dyn.orphans().size());
      epoch.degraded_end = static_cast<int>(dyn.degraded_handles().size());
      epoch.suspects_end = tracker.num_suspect();
      epoch.qt_end = dyn.CurrentBandwidth();
      result.epochs.push_back(epoch);
      epoch = EpochRecoveryStats{};
      epoch.first_event = i + 1;
    }
  }

  result.unrepaired_at_end = static_cast<int>(dyn.orphans().size());
  result.degraded_at_end = static_cast<int>(dyn.degraded_handles().size());
  result.qt_final = dyn.CurrentBandwidth();
  result.stats.CheckInvariants();

  if (options.compute_fresh_baseline) {
    ComputeFreshBaseline(dyn, rng, &result);
  }
  return result;
}

}  // namespace

}  // namespace slp::sim
