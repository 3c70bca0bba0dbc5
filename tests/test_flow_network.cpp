#include "net/flow_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "util/random.hpp"

namespace hcsim {
namespace {

struct Harness {
  Simulator sim;
  FlowNetwork net{sim};
  /// Run the events at now() and the end-of-instant solve.
  void closeInstant() { sim.runUntil(sim.now()); }
};

TEST(FlowNetwork, SingleFlowUsesFullLink) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);  // 100 B/s
  SimTime end = -1;
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 10.0);
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  std::vector<SimTime> ends;
  for (int i = 0; i < 2; ++i) {
    h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { ends.push_back(c.endTime); });
  }
  h.sim.run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_NEAR(ends[0], 20.0, 1e-9);
  EXPECT_NEAR(ends[1], 20.0, 1e-9);
}

TEST(FlowNetwork, RateCapLimitsBelowLinkShare) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime end = -1;
  FlowSpec spec{1000, {l}};
  spec.rateCap = 10.0;
  h.net.startFlow(spec, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 100.0);
}

TEST(FlowNetwork, CappedFlowLeavesHeadroomToOthers) {
  // Max-min: capped flow gets 10, the other gets 90.
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime endCapped = -1, endFree = -1;
  FlowSpec capped{1000, {l}};
  capped.rateCap = 10.0;
  h.net.startFlow(capped, [&](const FlowCompletion& c) { endCapped = c.endTime; });
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { endFree = c.endTime; });
  h.sim.run();
  // Free flow: 1000 B at 90 B/s = 11.1s. Capped: 100s.
  EXPECT_NEAR(endFree, 1000.0 / 90.0, 1e-6);
  EXPECT_NEAR(endCapped, 100.0, 1e-6);
}

TEST(FlowNetwork, BottleneckIsMinAlongRoute) {
  Harness h;
  const LinkId fast = h.net.addLink("fast", 1000.0);
  const LinkId slow = h.net.addLink("slow", 10.0);
  SimTime end = -1;
  h.net.startFlow({100, {fast, slow}}, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 10.0);
}

TEST(FlowNetwork, MaxMinClassicTriangle) {
  // Two links A(100), B(100). Flow1 uses A, Flow2 uses B, Flow3 uses A+B.
  // Max-min: all start at 50; flow1/flow2 then grab leftover: 50 each ->
  // flows on single links rise to 50 + remaining... progressive filling
  // yields rate(f3)=50, rate(f1)=rate(f2)=50. After f3 finishes f1/f2 get 100.
  Harness h;
  const LinkId a = h.net.addLink("a", 100.0);
  const LinkId b = h.net.addLink("b", 100.0);
  SimTime e1 = -1, e2 = -1, e3 = -1;
  h.net.startFlow({10000, {a}}, [&](const FlowCompletion& c) { e1 = c.endTime; });
  h.net.startFlow({10000, {b}}, [&](const FlowCompletion& c) { e2 = c.endTime; });
  h.net.startFlow({1000, {a, b}}, [&](const FlowCompletion& c) { e3 = c.endTime; });
  h.sim.run();
  EXPECT_NEAR(e3, 20.0, 1e-6);  // 1000 B at 50 B/s
  // f1: 20s at 50 B/s = 1000 B done, then 9000 B at 100 B/s = 90s more.
  EXPECT_NEAR(e1, 110.0, 1e-6);
  EXPECT_NEAR(e2, 110.0, 1e-6);
}

TEST(FlowNetwork, DepartureRerates) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime eShort = -1, eLong = -1;
  h.net.startFlow({500, {l}}, [&](const FlowCompletion& c) { eShort = c.endTime; });
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { eLong = c.endTime; });
  h.sim.run();
  // Both at 50 B/s; short ends at 10s (500B). Long has 500B left, now at
  // 100 B/s -> ends at 15s.
  EXPECT_NEAR(eShort, 10.0, 1e-9);
  EXPECT_NEAR(eLong, 15.0, 1e-9);
}

TEST(FlowNetwork, ArrivalRerates) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime e1 = -1, e2 = -1;
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { e1 = c.endTime; });
  // Second flow arrives at t=5 (after 500B of flow1 moved at 100 B/s).
  h.sim.schedule(5.0, [&] {
    h.net.startFlow({250, {l}}, [&](const FlowCompletion& c) { e2 = c.endTime; });
  });
  h.sim.run();
  // From t=5: both at 50 B/s. Flow2: 250B -> ends t=10. Flow1: 250B moved
  // by t=10 (250 left), then 100 B/s -> ends t=12.5.
  EXPECT_NEAR(e2, 10.0, 1e-9);
  EXPECT_NEAR(e1, 12.5, 1e-9);
}

TEST(FlowNetwork, StartupLatencyDelaysTransfer) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime end = -1;
  FlowSpec spec{1000, {l}};
  spec.startupLatency = 2.0;
  h.net.startFlow(spec, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 12.0);
}

TEST(FlowNetwork, ZeroByteFlowCompletesAfterLatency) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime end = -1;
  FlowSpec spec{0, {l}};
  spec.startupLatency = 3.0;
  h.net.startFlow(spec, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 3.0);
}

TEST(FlowNetwork, EmptyRouteUsesRateCap) {
  Harness h;
  SimTime end = -1;
  FlowSpec spec{1000, {}};
  spec.rateCap = 100.0;
  h.net.startFlow(spec, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 10.0);
}

TEST(FlowNetwork, CompletionReportsBytesAndStart) {
  Harness h;
  const LinkId l = h.net.addLink("l", 10.0);
  FlowCompletion got{};
  h.sim.schedule(1.0, [&] {
    h.net.startFlow({50, {l}}, [&](const FlowCompletion& c) { got = c; });
  });
  h.sim.run();
  EXPECT_EQ(got.bytes, 50u);
  EXPECT_DOUBLE_EQ(got.startTime, 1.0);
  EXPECT_DOUBLE_EQ(got.endTime, 6.0);
}

TEST(FlowNetwork, BytesCarriedConservation) {
  Harness h;
  const LinkId a = h.net.addLink("a", 100.0);
  const LinkId b = h.net.addLink("b", 40.0);
  for (int i = 0; i < 7; ++i) {
    h.net.startFlow({1000, {a, b}}, nullptr);
  }
  h.sim.run();
  EXPECT_NEAR(h.net.link(a).bytesCarried, 7000.0, 1.0);
  EXPECT_NEAR(h.net.link(b).bytesCarried, 7000.0, 1.0);
}

TEST(FlowNetwork, SetLinkCapacityReratesInFlight) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime end = -1;
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.schedule(5.0, [&] { h.net.setLinkCapacity(l, 50.0); });
  h.sim.run();
  // 500B in first 5s, remaining 500B at 50 B/s -> ends at 15s.
  EXPECT_NEAR(end, 15.0, 1e-9);
}

TEST(FlowNetwork, ZeroCapacityLinkStallsUntilRaised) {
  Harness h;
  const LinkId l = h.net.addLink("l", 0.0);
  SimTime end = -1;
  h.net.startFlow({100, {l}}, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.schedule(2.0, [&] { h.net.setLinkCapacity(l, 100.0); });
  h.sim.runUntil(100.0);
  EXPECT_NEAR(end, 3.0, 1e-9);
}

TEST(FlowNetwork, ReplaceLinkReroutesInFlight) {
  Harness h;
  const LinkId a = h.net.addLink("a", 100.0);
  const LinkId b = h.net.addLink("b", 50.0);
  SimTime end = -1;
  h.net.startFlow({1000, {a}}, [&](const FlowCompletion& c) { end = c.endTime; });
  // At t=5 (500B moved at 100 B/s), fail over a -> b.
  h.sim.schedule(5.0, [&] { EXPECT_EQ(h.net.replaceLinkInFlows(a, b), 1u); });
  h.sim.run();
  // Remaining 500B at 50 B/s: ends at 15s.
  EXPECT_NEAR(end, 15.0, 1e-9);
}

TEST(FlowNetwork, ReplaceLinkNoMatchesIsNoop) {
  Harness h;
  const LinkId a = h.net.addLink("a", 100.0);
  const LinkId b = h.net.addLink("b", 100.0);
  const LinkId c = h.net.addLink("c", 100.0);
  h.net.startFlow({1000, {a}}, nullptr);
  EXPECT_EQ(h.net.replaceLinkInFlows(b, c), 0u);
  h.sim.run();
}

TEST(FlowNetwork, StalledFlowRescuedByFailover) {
  // A flow stranded on a zero-capacity link completes once rerouted —
  // and the simulator must not livelock while it is stalled.
  Harness h;
  const LinkId dead = h.net.addLink("dead", 100.0);
  const LinkId live = h.net.addLink("live", 100.0);
  SimTime end = -1;
  h.net.startFlow({1000, {dead}}, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.schedule(1.0, [&] { h.net.setLinkCapacity(dead, 0.0); });
  h.sim.schedule(4.0, [&] { h.net.replaceLinkInFlows(dead, live); });
  h.sim.run();
  // 100B moved by t=1, stall until t=4, 900B at 100 B/s -> t=13.
  EXPECT_NEAR(end, 13.0, 1e-9);
}

TEST(FlowNetwork, PermanentlyStalledFlowDoesNotLivelock) {
  Harness h;
  const LinkId dead = h.net.addLink("dead", 0.0);
  bool completed = false;
  h.net.startFlow({1000, {dead}}, [&](const FlowCompletion&) { completed = true; });
  h.sim.run();  // must drain immediately: stalled flow holds no event
  EXPECT_FALSE(completed);
  EXPECT_EQ(h.net.activeFlows(), 1u);
  EXPECT_LT(h.sim.eventsDispatched(), 10u);
}

TEST(FlowNetwork, ActiveFlowsAndRates) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  const FlowId f1 = h.net.startFlow({1000, {l}}, nullptr);
  const FlowId f2 = h.net.startFlow({1000, {l}}, nullptr);
  EXPECT_EQ(h.net.activeFlows(), 2u);
  EXPECT_NEAR(h.net.flowRate(f1), 50.0, 1e-9);
  EXPECT_NEAR(h.net.flowRate(f2), 50.0, 1e-9);
  h.sim.run();
  EXPECT_EQ(h.net.activeFlows(), 0u);
  EXPECT_EQ(h.net.flowRate(f1), 0.0);
}

TEST(FlowNetwork, LinkStatsReportAllocation) {
  Harness h;
  const LinkId l = h.net.addLink("shared", 100.0);
  h.net.startFlow({10000, {l}}, nullptr);
  h.net.startFlow({10000, {l}}, nullptr);
  const auto stats = h.net.linkStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "shared");
  EXPECT_NEAR(stats[0].allocated, 100.0, 1e-9);
  h.sim.run();
}

TEST(FlowNetwork, RouteLatencySumsLinks) {
  Harness h;
  const LinkId a = h.net.addLink("a", 1.0, 0.25);
  const LinkId b = h.net.addLink("b", 1.0, 0.5);
  EXPECT_DOUBLE_EQ(h.net.routeLatency({a, b}), 0.75);
  EXPECT_DOUBLE_EQ(h.net.routeLatency({}), 0.0);
}

// ---- Property: max-min fairness invariants over random topologies ----

class MaxMinPropertyTest : public ::testing::TestWithParam<int> {};

TEST(FlowNetwork, HysteresisSkipsSubThresholdRerates) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  h.net.startFlow({1000, {l}}, [](const FlowCompletion&) {});
  h.closeInstant();
  const std::uint64_t scheduled = h.net.rerates();
  EXPECT_EQ(scheduled, 1u);
  // A capacity wiggle far below the hysteresis threshold is solved but
  // must not re-time the completion event.
  h.sim.runUntil(1.0);
  const std::uint64_t solves = h.net.solves();
  h.net.setLinkCapacity(l, 100.0 * (1.0 - 1e-10));
  h.closeInstant();
  EXPECT_EQ(h.net.solves(), solves + 1);
  EXPECT_EQ(h.net.rerates(), scheduled);
  h.sim.run();
}

// Regression: the eta-tolerance fast path must keep comparing against
// the *scheduled* completion (and re-anchor when the accrued error
// leaves its budget). A stale-anchor bug lets thousands of individually
// sub-threshold rate nudges compound into an unbounded completion error.
TEST(FlowNetwork, ManyTinyReratesHaveBoundedCompletionError) {
  Harness h;
  double capacity = 100.0;
  const LinkId l = h.net.addLink("l", capacity);
  SimTime end = -1.0;
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { end = c.endTime; });

  // 2000 capacity decrements of 1e-10 relative, one per millisecond —
  // each moves the 10 s eta by ~1e-9 s, well under the 1e-8 s hysteresis
  // window. Track the exact byte ledger alongside.
  double remaining = 1000.0;
  double prev = 0.0;
  for (int i = 1; i <= 2000; ++i) {
    const SimTime t = i * 0.001;
    h.sim.runUntil(t);
    remaining -= capacity * (t - prev);
    prev = t;
    capacity *= 1.0 - 1e-10;
    h.net.setLinkCapacity(l, capacity);
  }
  h.sim.run();
  const double trueEnd = prev + remaining / capacity;
  ASSERT_GT(end, 0.0);
  EXPECT_NEAR(end, trueEnd, 1e-6);
  // The drift bound forces genuine re-anchors along the way.
  EXPECT_GT(h.net.rerates(), 1u);
}

TEST(FlowNetwork, ReratesCountsEpochAdvances) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  EXPECT_EQ(h.net.rerates(), 0u);
  h.net.startFlow({500, {l}}, [](const FlowCompletion&) {});
  EXPECT_EQ(h.net.rerates(), 0u);  // nothing is solved before the instant ends
  h.closeInstant();
  EXPECT_EQ(h.net.rerates(), 1u);  // initial completion scheduling
  h.net.startFlow({1000, {l}}, [](const FlowCompletion&) {});
  h.closeInstant();
  // The arrival joins the first flow's group and halves its rate: the
  // group's one event (held by the short head) is re-timed once.
  EXPECT_EQ(h.net.rerates(), 2u);
  EXPECT_EQ(h.sim.pendingEvents(), 1u);
  h.sim.run();
  // The head's departure hands the group to the survivor: one fresh
  // schedule for the new head.
  EXPECT_EQ(h.net.rerates(), 3u);
}

TEST(FlowNetwork, SameSignatureFlowsHoldOneCompletionEvent) {
  Harness h;
  const LinkId l = h.net.addLink("l", 1000.0);
  // Distinct sizes started out of size order: id order != size order.
  std::vector<Bytes> sizes;
  for (int i = 0; i < 1000; ++i) sizes.push_back(1000 + static_cast<Bytes>((i * 379) % 1000) * 10);
  std::vector<Bytes> done;
  for (Bytes b : sizes) {
    h.net.startFlow({b, {l}}, [&](const FlowCompletion& c) { done.push_back(c.bytes); });
  }
  h.closeInstant();
  EXPECT_EQ(h.sim.pendingEvents(), 1u);
  EXPECT_NO_THROW(h.net.checkInvariants());
  const std::uint64_t before = h.net.rerates();
  h.sim.runUntil(1.0);
  h.net.setLinkCapacity(l, 500.0);
  h.closeInstant();
  EXPECT_EQ(h.net.rerates(), before + 1);
  EXPECT_EQ(h.sim.pendingEvents(), 1u);
  h.sim.run();
  ASSERT_EQ(done.size(), sizes.size());
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(done, sizes);
}

// ---- One solve per simulated instant ----

TEST(FlowNetwork, SameInstantChangesShareOneSolve) {
  // K arrivals, an abort, a health change and a completion all at t = 5.
  // With `solveEach` every change is read back through checkInvariants,
  // which solves right away, as a solve after every change would; the
  // rates after the instant must match that bit for bit.
  const auto run = [](bool solveEach) {
    Harness h;
    const LinkId a = h.net.addLink("a", 100.0);
    const LinkId b = h.net.addLink("b", 70.0 / 3.0);
    const LinkId c = h.net.addLink("c", 100.0);
    std::vector<FlowId> ids;
    SimTime doneX = -1.0;
    const FlowId x = h.net.startFlow({500, {c}}, [&](const FlowCompletion& done) {
      doneX = done.endTime;  // 500 B alone at 100 B/s: t = 5
      if (solveEach) h.net.checkInvariants();
    });
    ids.push_back(h.net.startFlow({1000000, {b}}, nullptr));
    FlowSpec heavy{1000000, {b}};
    heavy.weight = 2.0;
    const FlowId victim = h.net.startFlow(heavy, nullptr);
    ids.push_back(h.net.startFlow({1000000, {a, b}}, nullptr));
    // Scheduled before the first solve, so it runs ahead of x's completion.
    h.sim.scheduleAt(5.0, [&] {
      for (int k = 0; k < 5; ++k) {
        const Route routes[] = {{c}, {a}, {a, b}};
        FlowSpec spec{100000 + static_cast<Bytes>(k) * 777, routes[k % 3]};
        spec.weight = 0.5 + k / 3.0;
        ids.push_back(h.net.startFlow(spec, nullptr));
        if (solveEach) h.net.checkInvariants();
      }
      EXPECT_TRUE(h.net.abortFlow(victim));
      if (solveEach) h.net.checkInvariants();
      h.net.setLinkHealth(b, 0.5);
      if (solveEach) h.net.checkInvariants();
    });
    h.sim.runUntil(4.0);
    const std::uint64_t solves = h.net.solves();
    h.sim.runUntil(5.0);
    EXPECT_EQ(doneX, 5.0);
    EXPECT_EQ(h.net.activeFlows(), ids.size()) << "x done, victim aborted";
    std::vector<Bandwidth> rates;
    for (FlowId id : ids) rates.push_back(h.net.flowRate(id));
    EXPECT_EQ(h.net.flowRate(x), 0.0);
    EXPECT_NO_THROW(h.net.checkInvariants());
    return std::pair{h.net.solves() - solves, rates};
  };
  const auto [deferredSolves, deferred] = run(false);
  const auto [eachSolves, each] = run(true);
  EXPECT_EQ(deferredSolves, 1u);
  EXPECT_EQ(eachSolves, 5u + 1 + 1 + 1);
  ASSERT_EQ(deferred.size(), each.size());
  for (std::size_t i = 0; i < each.size(); ++i) {
    EXPECT_GT(deferred[i], 0.0);
    EXPECT_EQ(deferred[i], each[i]) << "flow " << i;
  }
}

TEST(FlowNetwork, DestroyedWithPendingSolveLeavesNothingBehind) {
  Simulator sim;
  {
    FlowNetwork net(sim);
    const LinkId l = net.addLink("l", 100.0);
    net.startFlow({1000, {l}}, nullptr);  // the instant's solve is pending
  }
  sim.run();  // must not call into the destroyed network
  EXPECT_EQ(sim.eventsDispatched(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(FlowNetwork, ClassAndSameInstantSingletonsSolveAlike) {
  // A class of N members and N singletons started at one instant: the
  // same completion time and the same number of solves.
  const auto run = [](bool asClass) {
    Harness h;
    const LinkId l = h.net.addLink("l", 1000.0);
    const LinkId side = h.net.addLink("side", 300.0);
    constexpr std::uint32_t kMembers = 8;
    SimTime end = -1.0;
    const auto done = [&](const FlowCompletion& c) { end = std::max(end, c.endTime); };
    FlowSpec spec{4000, {l}};
    if (asClass) {
      spec.members = kMembers;
      h.net.startFlow(spec, done);
    } else {
      for (std::uint32_t i = 0; i < kMembers; ++i) h.net.startFlow(spec, done);
    }
    h.net.startFlow({9000, {l, side}}, nullptr);
    h.sim.run();
    return std::pair{h.net.solves(), end};
  };
  const auto [classSolves, classEnd] = run(true);
  const auto [singleSolves, singleEnd] = run(false);
  EXPECT_EQ(classSolves, singleSolves);
  EXPECT_EQ(classEnd, singleEnd);
  EXPECT_GT(classEnd, 0.0);
}

// ---- Regrouping: reroutes, aborts and out-of-order activation ----

TEST(FlowNetwork, ReplaceLinkMergesIntoExistingGroup) {
  Harness h;
  const LinkId a = h.net.addLink("a", 100.0);
  const LinkId b = h.net.addLink("b", 100.0);
  std::map<FlowId, SimTime> ends;
  const auto record = [&](const FlowCompletion& c) { ends[c.id] = c.endTime; };
  const FlowId x = h.net.startFlow({1000, {a}}, record);
  const FlowId y = h.net.startFlow({900, {b}}, record);
  const FlowId z = h.net.startFlow({2000, {b}}, record);
  FlowId w = 0;
  h.sim.schedule(2.0, [&] {
    // x moved 200 B alone on a, y 100 B sharing b: both have 800 B left.
    EXPECT_EQ(h.net.replaceLinkInFlows(a, b), 1u);
    w = h.net.startFlow({1000, {b}}, record);
    EXPECT_EQ(h.net.flowRate(x), h.net.flowRate(w));
    EXPECT_EQ(h.net.flowRate(y), h.net.flowRate(w));
    EXPECT_DOUBLE_EQ(h.net.flowRate(w), 25.0);
    EXPECT_EQ(h.net.activeFlows(), 4u);
    EXPECT_EQ(h.sim.pendingEvents(), 1u);  // one group left, one event
    EXPECT_NO_THROW(h.net.checkInvariants());
  });
  h.sim.run();
  // x and y (800 B each at 25 B/s) finish together at 34 s; w then has
  // 200 B at 50 B/s (38 s); z has 900 B at 100 B/s after that (47 s).
  EXPECT_EQ(ends[x], ends[y]);
  EXPECT_NEAR(ends[x], 34.0, 1e-9);
  EXPECT_NEAR(ends[w], 38.0, 1e-9);
  EXPECT_NEAR(ends[z], 47.0, 1e-9);
  EXPECT_NEAR(h.net.link(a).bytesCarried, 200.0, 1e-6);
  EXPECT_NEAR(h.net.link(b).bytesCarried, 800.0 + 900.0 + 2000.0 + 1000.0, 1e-6);
}

TEST(FlowNetwork, AbortOfGroupHeadPromotesNextMember) {
  Harness h;
  const LinkId l = h.net.addLink("l", 90.0);
  std::map<FlowId, SimTime> ends;
  const auto record = [&](const FlowCompletion& c) { ends[c.id] = c.endTime; };
  const FlowId head = h.net.startFlow({500, {l}}, record);
  const FlowId next = h.net.startFlow({1000, {l}}, record);
  const FlowId last = h.net.startFlow({1500, {l}}, record);
  h.sim.schedule(3.0, [&] {
    // 90 B of each moved; the head (smallest) leaves with 410 B undelivered.
    EXPECT_TRUE(h.net.abortFlow(head));
    EXPECT_FALSE(h.net.abortFlow(head));
    EXPECT_EQ(h.sim.pendingEvents(), 1u);
    EXPECT_NO_THROW(h.net.checkInvariants());
  });
  h.sim.run();
  EXPECT_EQ(ends.count(head), 0u);
  // next: 910 B at 45 B/s -> 3 + 910/45; last then has 500 B at 90 B/s.
  const double nextEnd = 3.0 + 910.0 / 45.0;
  EXPECT_NEAR(ends[next], nextEnd, 1e-9);
  EXPECT_NEAR(ends[last], nextEnd + 500.0 / 90.0, 1e-9);
  EXPECT_NEAR(h.net.link(l).bytesCarried, 90.0 + 1000.0 + 1500.0, 1e-6);
}

TEST(FlowNetwork, OutOfIdOrderActivationFillsByLowestId) {
  // Groups with awkward weights on shared links: the fill order changes
  // the rounding of the solved rates. Flows activate in reverse id order
  // in one run and in id order in the other; the rates must match bit
  // for bit, because both fill in ascending lowest-member-id order.
  const auto run = [](bool reversed) {
    Harness h;
    const LinkId shared = h.net.addLink("shared", 1000.0 / 3.0);
    const LinkId side = h.net.addLink("side", 700.0 / 9.0);
    std::vector<FlowId> ids;
    const int n = 7;
    for (int i = 0; i < n; ++i) {
      FlowSpec spec{1000000, i % 2 ? Route{shared, side} : Route{shared}};
      spec.weight = 0.1 * (i + 1) + 1.0 / 3.0;
      spec.startupLatency = 1.0 + (reversed ? n - i : i) * 0.125;
      ids.push_back(h.net.startFlow(spec, nullptr));
    }
    h.sim.runUntil(3.0);
    std::vector<Bandwidth> rates;
    for (FlowId id : ids) rates.push_back(h.net.flowRate(id));
    EXPECT_NO_THROW(h.net.checkInvariants());
    return rates;
  };
  const std::vector<Bandwidth> inOrder = run(false);
  const std::vector<Bandwidth> reversed = run(true);
  ASSERT_EQ(inOrder.size(), reversed.size());
  for (std::size_t i = 0; i < inOrder.size(); ++i) {
    EXPECT_GT(inOrder[i], 0.0);
    EXPECT_EQ(inOrder[i], reversed[i]) << "flow " << i;
  }
}

TEST(FlowNetwork, EqualHistoriesFinishTogetherAcrossGroups) {
  // x joins a group that has already served an awkward amount; y starts a
  // fresh group. Both then see the same rates, so they must finish at the
  // same instant bit for bit, or same-time events reorder.
  const auto run = [](Bytes bytes) {
    Harness h;
    const LinkId a = h.net.addLink("a", 1e12);
    const LinkId b = h.net.addLink("b", 1e12);
    const LinkId c = h.net.addLink("c", 1e12);
    const LinkId shared = h.net.addLink("shared", 1000.0 / 3.0);
    h.net.startFlow({1000000000, {a, shared}}, nullptr);
    SimTime endX = -1, endY = -2;
    h.sim.schedule(0.7, [&] {
      h.net.startFlow({bytes, {a, shared}}, [&](const FlowCompletion& c) { endX = c.endTime; });
      h.net.startFlow({bytes, {b, shared}}, [&](const FlowCompletion& c) { endY = c.endTime; });
    });
    // A third group arrives early on: both completions are re-timed from
    // what each group has served so far.
    h.sim.schedule(0.7123, [&] { h.net.startFlow({1000000000, {c, shared}}, nullptr); });
    h.sim.runUntil(1e6);
    return std::pair{endX, endY};
  };
  for (Bytes bytes : {Bytes{12345}, Bytes{777777}, Bytes{1048576}, Bytes{3}}) {
    const auto [endX, endY] = run(bytes);
    EXPECT_GT(endX, 0.7) << bytes;
    EXPECT_EQ(endX, endY) << bytes;
  }
}

// ---- Property: the solver invariants hold after every step ----

class SolverInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverInvariantTest, HoldAfterEveryStep) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  Harness h;
  std::vector<LinkId> links;
  for (int i = 0; i < 6; ++i) {
    links.push_back(h.net.addLink("l" + std::to_string(i), rng.uniform(50.0, 500.0)));
  }
  // A few routes, caps and weights so that flows share signatures.
  std::vector<Route> routes;
  for (int r = 0; r < 5; ++r) {
    Route route;
    for (LinkId l : links) {
      if (rng.uniform() < 0.4) route.push_back(l);
    }
    if (route.empty()) route.push_back(links[static_cast<std::size_t>(r)]);
    routes.push_back(route);
  }
  const double caps[] = {std::numeric_limits<double>::infinity(), 40.0, 75.5};
  const double weights[] = {1.0, 0.5, 3.0, 0.3};

  std::map<FlowId, int> completions;
  std::vector<FlowId> started;
  std::vector<FlowId> aborted;
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.uniformInt(10);
    if (op < 4) {
      FlowSpec spec{1 + rng.uniformInt(20000), routes[rng.uniformInt(routes.size())]};
      spec.rateCap = caps[rng.uniformInt(3)];
      spec.weight = weights[rng.uniformInt(4)];
      spec.members = static_cast<std::uint32_t>(1 + rng.uniformInt(3));
      if (rng.uniform() < 0.5) spec.startupLatency = rng.uniform(0.0, 2.0);
      started.push_back(h.net.startFlow(spec, [&](const FlowCompletion& c) {
        ++completions[c.id];
        EXPECT_NO_THROW(h.net.checkInvariants());
      }));
    } else if (op < 6) {
      h.sim.runUntil(h.sim.now() + rng.uniform(0.0, 5.0));  // completions
    } else if (op == 6 && !started.empty()) {
      const FlowId victim = started[rng.uniformInt(started.size())];
      if (h.net.abortFlow(victim)) aborted.push_back(victim);
    } else if (op == 7) {
      h.net.setLinkCapacity(links[rng.uniformInt(links.size())], rng.uniform(0.0, 500.0));
    } else if (op == 8) {
      const double health = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.1, 1.0);
      h.net.setLinkHealth(links[rng.uniformInt(links.size())], health);
    } else {
      h.net.replaceLinkInFlows(links[rng.uniformInt(links.size())],
                               links[rng.uniformInt(links.size())]);
    }
    ASSERT_NO_THROW(h.net.checkInvariants()) << "step " << step << " op " << op;
  }
  // Heal everything so every surviving flow can finish.
  for (LinkId l : links) {
    h.net.setLinkHealth(l, 1.0);
    h.net.setLinkCapacity(l, 100.0);
    ASSERT_NO_THROW(h.net.checkInvariants());
  }
  h.sim.run();
  EXPECT_EQ(h.net.activeFlows(), 0u);
  for (const auto& [id, count] : completions) EXPECT_EQ(count, 1) << "flow " << id;
  for (FlowId id : aborted) EXPECT_EQ(completions.count(id), 0u) << "aborted flow " << id;
  EXPECT_EQ(completions.size() + aborted.size(), started.size());
}

INSTANTIATE_TEST_SUITE_P(Seeded, SolverInvariantTest, ::testing::Range(0, 16));

TEST_P(MaxMinPropertyTest, NoLinkOversubscribedAndWorkConserving) {
  const int seed = GetParam();
  Harness h;
  std::vector<LinkId> links;
  const int nLinks = 3 + seed % 4;
  for (int i = 0; i < nLinks; ++i) {
    links.push_back(h.net.addLink("l" + std::to_string(i), 50.0 + 13.0 * ((seed + i) % 7)));
  }
  std::vector<FlowId> flows;
  const int nFlows = 4 + seed % 9;
  for (int f = 0; f < nFlows; ++f) {
    Route route;
    for (int i = 0; i < nLinks; ++i) {
      if ((seed * 31 + f * 17 + i) % 3 == 0) route.push_back(links[static_cast<std::size_t>(i)]);
    }
    if (route.empty()) route.push_back(links[0]);
    FlowSpec spec{100000, route};
    if (f % 4 == 1) spec.rateCap = 20.0;
    flows.push_back(h.net.startFlow(spec, nullptr));
  }

  // Invariant 1: no link carries more than its capacity.
  for (const auto& ls : h.net.linkStats()) {
    EXPECT_LE(ls.allocated, ls.capacity * (1.0 + 1e-9)) << ls.name;
  }
  // Invariant 2: every flow has a positive rate (work conservation).
  for (FlowId f : flows) EXPECT_GT(h.net.flowRate(f), 0.0);
  // Invariant 3: some link is saturated OR every flow is at its cap.
  bool saturated = false;
  for (const auto& ls : h.net.linkStats()) {
    if (ls.allocated >= ls.capacity * (1.0 - 1e-6) && ls.allocated > 0.0) saturated = true;
  }
  bool allCapped = true;
  for (FlowId f : flows) {
    if (h.net.flowRate(f) < 20.0 * (1.0 - 1e-9)) {
      // not at the cap (only some flows are capped anyway)
    }
  }
  (void)allCapped;
  EXPECT_TRUE(saturated);
  h.sim.run();  // must drain without hanging
  EXPECT_EQ(h.net.activeFlows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, MaxMinPropertyTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace hcsim
