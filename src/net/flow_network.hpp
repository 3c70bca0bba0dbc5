#pragma once
// FlowNetwork — event-driven max-min fair bandwidth allocation.
//
// Transfers are "flows": a byte count moving along a Route of Links. At
// any instant every active flow has a rate given by progressive-filling
// max-min fairness subject to (a) each link's capacity and (b) an optional
// per-flow rate cap (used to model single-stream TCP limits, per-NFS-
// session serialization, and device ceilings). Whenever a flow starts or
// finishes, the allocation is recomputed and the completion events of
// affected signature groups are re-timed — the standard flow-level
// network simulation technique.
//
// ## Signature groups and virtual time
//
// Flows with the same route, per-member rate cap and per-member weight
// (compared by bit pattern) are interchangeable to the solver, so they
// live in one persistent *signature group*: a flow joins its group when
// it activates, leaves when it finishes or aborts, and is re-keyed
// (merging into an existing group if the new signature exists) by
// replaceLinkInFlows. Nothing is sorted per event except the groups.
//
// Each group keeps a virtual service counter `served` — bytes per
// member delivered since the group formed — advanced only as
// `served += rate * dt`, so progress and link byte accounting cost
// O(groups), not O(flows). A member joining at `served = S` with `b`
// bytes gets the finish tag `S + b` and completes when `served` reaches
// it, as in fair-queueing virtual time. `served` and the tags are kept
// as double-doubles, so a member's remaining bytes (tag - served) round
// once: members with the same size and rate history finish at the same
// instant whatever their groups carried before they joined. Members sit
// in a min-heap on (tag, flow id); the head holds the group's ONE
// completion event, and every member whose tag equals the head's
// completes in that event, in flow-id order.
//
// ## Epoch re-rating protocol
//
// A group's completion event is scheduled when the group first gets a
// positive rate and is re-timed in place (`Simulator::adjustKey`) on
// later rebalances: O(G log n) heap work for G groups, zero
// allocations, zero tombstones. `scheduledEta` always equals the
// absolute time the live event will fire. adjustKey assigns the event
// a fresh FIFO sequence number, so same-timestamp dispatch order is
// identical to what cancel + reschedule produced. Rebalances that would
// move the head's completion by less than the hysteresis tolerance skip
// the heap update but accrue the skipped correction in `etaDrift`; once
// the accrued drift exceeds its budget the completion is re-anchored,
// so error cannot accumulate across many small rebalances.
//
// ## Flow classes (hcsim::scale)
//
// A flow launched with `members = N` is a *flow class*: N statistically
// identical member flows collapsed into one entry. `bytes`, `rateCap`
// and `weight` are all PER MEMBER; the class occupies one group member
// and at most one heap event however large N is, so memory and
// rebalance cost are flat in the member count. The solver is
// hierarchical: progressive filling runs over the signature groups,
// each weighted by `weight x total members`, and the resulting
// per-unit-weight share is the analytic within-class split — every
// member of a class receives the same per-member rate a standalone flow
// with that signature would. Because explicit flows are grouped by the
// same rule, a class of N members is byte-identical to N coexisting
// singleton flows of the same signature (see docs/SCALE.md for the
// exactness contract). FlowCompletion reports aggregate bytes
// (per-member bytes x members).

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace hcsim {

using FlowId = std::uint64_t;

/// Everything needed to launch a transfer.
struct FlowSpec {
  Bytes bytes = 0;
  Route route;  ///< may be empty (purely latency-bound transfer)
  /// Per-flow ceiling, e.g. a single TCP stream over NFS cannot exceed
  /// ~1-1.5 GB/s regardless of link speed. Infinity = uncapped.
  Bandwidth rateCap = std::numeric_limits<Bandwidth>::infinity();
  /// Fixed delay before the first byte moves (route latency, protocol
  /// round trips, request setup).
  Seconds startupLatency = 0.0;
  /// QoS weight (> 0): progressive filling raises rates in proportion
  /// to weight, so two flows sharing a link split it weight-wise.
  double weight = 1.0;
  /// Flow-class member count (>= 1): this spec stands for `members`
  /// statistically identical flows. bytes/rateCap/weight are per member;
  /// the class claims `weight * members` of contended links and its
  /// completion reports `bytes * members` aggregate payload.
  std::uint32_t members = 1;
  /// Telemetry span identity — only consulted when the network's
  /// Telemetry sink is attached and enabled. Empty name = "flow".
  std::string spanName;
  std::uint32_t spanPid = 0;
  std::uint32_t spanTid = 0;
};

struct FlowCompletion {
  FlowId id = 0;
  Bytes bytes = 0;          ///< aggregate: per-member bytes x members
  std::uint32_t members = 1;
  SimTime startTime = 0.0;  ///< when startFlow() was called
  SimTime endTime = 0.0;    ///< when the last byte arrived
};

class FlowNetwork {
 public:
  explicit FlowNetwork(Simulator& sim) : sim_(sim) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Add a link; returns its id for use in routes.
  LinkId addLink(std::string name, Bandwidth capacity, Seconds latency = 0.0);

  /// Change a link's capacity at runtime (e.g. a device whose effective
  /// throughput depends on the current access pattern). In-flight flows
  /// are re-rated immediately.
  void setLinkCapacity(LinkId id, Bandwidth capacity);

  /// Fault injection: scale a link's *effective* capacity by a health
  /// factor in [0, 1] without touching the configured capacity, so model
  /// code that re-derives capacities per phase composes with chaos
  /// degradation. In-flight flows re-rate immediately; flows whose whole
  /// path loses capacity stall (rate 0) and resume when health returns.
  void setLinkHealth(LinkId id, double health);
  double linkHealth(LinkId id) const { return links_.at(id.value).health; }

  /// Fail-stop / recover a link: health 0 / 1.
  void failLink(LinkId id) { setLinkHealth(id, 0.0); }
  void restoreLink(LinkId id) { setLinkHealth(id, 1.0); }

  /// Abort an in-flight flow: progress is credited, the flow leaves its
  /// group (the next member takes over the group's completion event),
  /// the remaining bytes are dropped and survivors re-rate. The flow's
  /// onComplete never fires. Returns false when the id is unknown, still
  /// in its startup latency, or already finished.
  bool abortFlow(FlowId id);

  /// Substitute `to` for `from` in the routes of all in-flight flows and
  /// re-rate — failover semantics (e.g. NFS retrying in-flight ops
  /// against a surviving server after a node failure). Returns how many
  /// flows were rerouted.
  std::size_t replaceLinkInFlows(LinkId from, LinkId to);

  std::size_t linkCount() const { return links_.size(); }
  const Link& link(LinkId id) const { return links_.at(id.value); }

  /// Sum of link latencies along a route (helper for callers building
  /// startup latencies).
  Seconds routeLatency(const Route& route) const;

  /// Launch a flow. `onComplete` fires exactly once, at the simulated
  /// time the final byte arrives.
  FlowId startFlow(const FlowSpec& spec, std::function<void(const FlowCompletion&)> onComplete);

  /// Number of flow entries currently transferring (a class of any
  /// member count is one entry — this is the memory/rebalance footprint).
  std::size_t activeFlows() const { return slotOf_.size(); }

  /// Total member flows in flight (sum of `members` over active entries).
  std::uint64_t activeMembers() const;

  /// Current aggregate max-min rate of an active flow — per-member rate
  /// x members (0 if unknown/finished). Equals the per-member rate for
  /// singleton flows.
  Bandwidth flowRate(FlowId id) const;

  /// Completion re-timings performed since construction (fresh
  /// schedules plus in-place adjust-key updates of group-head events). A
  /// rebalance over G signature groups adds at most G, however many flows
  /// they hold; hysteresis-skipped groups add nothing.
  std::uint64_t rerates() const { return rerates_; }

  /// Verify the solver's invariants and throw std::logic_error naming the
  /// first violation: per link, sum(rate x members) <= capacity x health;
  /// every group with a positive rate is at its cap, crosses a saturated
  /// link or crosses only unbounded links; every active flow is in exactly
  /// one group; only groups with a positive rate hold a completion event.
  /// Runs after every rebalance in debug builds.
  void checkInvariants() const;

  /// Utilization snapshot of every link.
  std::vector<LinkStats> linkStats() const;

  /// Attach (or detach with nullptr) a telemetry sink. Spans are only
  /// opened while the sink is attached *and* enabled; flows launched
  /// with telemetry off carry a kNoSpan sentinel and cost nothing.
  void setTelemetry(telemetry::Telemetry* tel) { tel_ = tel; }
  telemetry::Telemetry* telemetry() const { return tel_; }

 private:
  /// `bottleneck` sentinels: frozen by the per-flow rate cap / by
  /// nothing (degenerate freeze), rather than by a link index.
  static constexpr std::uint32_t kFrozenByCap = 0xfffffffeu;
  static constexpr std::uint32_t kFrozenByNone = 0xffffffffu;
  static constexpr std::uint32_t kNoGroup = 0xffffffffu;

  /// What makes flows interchangeable to the solver. Doubles compare by
  /// bit pattern: the group key must be exact, not tolerant.
  struct Signature {
    Route route;
    Bandwidth rateCap = 0.0;  // per member
    double weight = 1.0;      // per member
    bool operator==(const Signature& o) const;
  };
  struct SignatureHash {
    std::size_t operator()(const Signature& s) const;
  };

  /// A per-member byte count kept as the unevaluated sum hi + lo, so
  /// `served` accumulates without rounding error. A member's remaining
  /// bytes (tag - served) then round once, and members with the same size
  /// and rate history finish at the same instant whatever their groups
  /// carried before they joined.
  struct ExactBytes {
    double hi = 0.0;
    double lo = 0.0;
    void add(double x);
    /// this - o, rounded once.
    double minus(const ExactBytes& o) const;
    bool operator==(const ExactBytes& o) const { return hi == o.hi && lo == o.lo; }
    bool operator<(const ExactBytes& o) const { return hi < o.hi || (hi == o.hi && lo < o.lo); }
  };

  /// A flow from activation to completion or abort (slab entry).
  struct ActiveFlow {
    FlowId id = 0;
    std::uint32_t members = 1;  // member flows this entry aggregates
    Bytes totalBytes = 0;       // per member
    SimTime startTime = 0.0;
    ExactBytes tag;             // finish tag: group `served` at join + bytes
    std::uint32_t group = kNoGroup;
    std::uint32_t tagPos = 0;   // index in the group's byTag heap
    std::uint32_t idPos = 0;    // index in the group's byId heap
    std::uint32_t spanIdx = telemetry::kNoSpan;  // open telemetry span, if any
    std::function<void(const FlowCompletion&)> onComplete;
  };

  /// The active flows sharing one signature (slab entry).
  struct Group {
    Signature sig;
    std::uint64_t members = 0;  // sum of members over its flows
    ExactBytes served;          // virtual service: bytes per member since formed
    Bandwidth rate = 0.0;       // per member
    // What froze the rate in the last progressive-filling pass: a link
    // index, kFrozenByCap, or kFrozenByNone. Read only when telemetry is on.
    std::uint32_t bottleneck = kFrozenByNone;
    std::vector<std::uint32_t> byTag;  // min-heap of flow slots on (tag, id)
    std::vector<std::uint32_t> byId;   // min-heap of flow slots on id
    EventId completionEvent{};         // owned by the byTag head
    SimTime scheduledEta = -1.0;       // absolute time of the scheduled completion
    double etaDrift = 0.0;             // accrued |skipped completion moves| since last re-anchor
    double fillWeight = 0.0;           // solve scratch: weight x members
    bool frozen = false;               // solve scratch
  };

  /// Credit `rate x dt` of virtual service to every group since the last
  /// advance (and, with telemetry on, to every member's span).
  void advanceProgress();

  /// Recompute the max-min fair allocation and (re)time group completions.
  void rebalance();

  /// Hierarchical progressive filling over the live groups in ascending
  /// lowest-member-id order, each weighted by `weight x total members`.
  /// Fills each group's per-member `rate` and `bottleneck`.
  void computeMaxMinRates();

  void activate(ActiveFlow flow, Signature sig);
  /// Completion event of group `gi`: finish its head and every member
  /// sharing the head's tag.
  void completeHead(std::uint32_t gi);

  void joinGroup(std::uint32_t slot, Signature sig);
  /// Remove a flow from its group; destroys the group when it empties.
  void leaveGroup(std::uint32_t slot);
  void destroyGroup(std::uint32_t gi);
  /// Move every member of `from` into `to`, carrying remaining bytes over.
  void mergeGroup(std::uint32_t from, std::uint32_t to);
  void releaseFlow(std::uint32_t slot);
  /// Add `perMember x members` bytes to every link on the flow's route.
  void creditLinks(const ActiveFlow& f, double perMember);
  /// Bytes per member the flow still has to receive (negative once the
  /// group's service overshot its tag).
  double remaining(const ActiveFlow& f) const { return f.tag.minus(groups_[f.group].served); }
  FlowId lowestId(const Group& g) const { return flows_[g.byId.front()].id; }

  // Orders and position fields of the two member heaps.
  auto tagLess() const {
    return [this](std::uint32_t a, std::uint32_t b) {
      const ActiveFlow& x = flows_[a];
      const ActiveFlow& y = flows_[b];
      return x.tag < y.tag || (x.tag == y.tag && x.id < y.id);
    };
  }
  auto idLess() const {
    return [this](std::uint32_t a, std::uint32_t b) { return flows_[a].id < flows_[b].id; };
  }
  auto tagPos() {
    return [this](std::uint32_t s) -> std::uint32_t& { return flows_[s].tagPos; };
  }
  auto idPos() {
    return [this](std::uint32_t s) -> std::uint32_t& { return flows_[s].idPos; };
  }

  /// Interned stage id for a bottleneck sentinel/link (only called when
  /// telemetry is enabled).
  std::uint32_t bottleneckStage(telemetry::Telemetry& tel, std::uint32_t bottleneck) const;

  Simulator& sim_;
  std::vector<Link> links_;
  FlowId nextFlowId_ = 1;
  std::uint64_t rerates_ = 0;
  SimTime lastAdvance_ = 0.0;
  telemetry::Telemetry* tel_ = nullptr;

  std::vector<ActiveFlow> flows_;
  std::vector<std::uint32_t> freeFlows_;
  std::unordered_map<FlowId, std::uint32_t> slotOf_;  // active flows only
  std::vector<Group> groups_;
  std::vector<std::uint32_t> freeGroups_;
  std::unordered_map<Signature, std::uint32_t, SignatureHash> groupOf_;
  std::vector<std::uint32_t> live_;  // live group slots, fill order after a solve

  // Solve and completion scratch, sized on first use.
  std::vector<double> headroom_;
  std::vector<double> unfrozenWeight_;
  struct Done {
    FlowCompletion completion;
    std::function<void(const FlowCompletion&)> onComplete;
  };
  std::vector<Done> done_;
};

}  // namespace hcsim
