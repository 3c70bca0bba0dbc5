#include "net/flow_network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "probe/flight_recorder.hpp"
#include "probe/self_profiler.hpp"

namespace hcsim {

namespace {
// Relative rate change below which we do not bother re-timing the
// completion event (hysteresis to avoid event churn).
constexpr double kRateHysteresis = 1e-9;
// Budget for completion-time corrections skipped under hysteresis,
// relative to max(1, eta) like the hysteresis itself. Once the accrued
// skips exceed this the completion is re-anchored, bounding cumulative
// drift across arbitrarily many small rebalances to ~100 skips' worth.
constexpr double kEtaDriftBudget = 100 * kRateHysteresis;

// Binary min-heap of flow slots under `less`. `pos(slot)` is the slot's
// index field, kept current so a member can leave from the middle.
template <class Less, class Pos>
void siftUp(std::vector<std::uint32_t>& h, std::size_t i, Less less, Pos pos) {
  const std::uint32_t s = h[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!less(s, h[parent])) break;
    h[i] = h[parent];
    pos(h[i]) = static_cast<std::uint32_t>(i);
    i = parent;
  }
  h[i] = s;
  pos(s) = static_cast<std::uint32_t>(i);
}

template <class Less, class Pos>
void siftDown(std::vector<std::uint32_t>& h, std::size_t i, Less less, Pos pos) {
  const std::uint32_t s = h[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= h.size()) break;
    if (child + 1 < h.size() && less(h[child + 1], h[child])) ++child;
    if (!less(h[child], s)) break;
    h[i] = h[child];
    pos(h[i]) = static_cast<std::uint32_t>(i);
    i = child;
  }
  h[i] = s;
  pos(s) = static_cast<std::uint32_t>(i);
}

template <class Less, class Pos>
void heapPush(std::vector<std::uint32_t>& h, std::uint32_t slot, Less less, Pos pos) {
  h.push_back(slot);
  siftUp(h, h.size() - 1, less, pos);
}

template <class Less, class Pos>
void heapErase(std::vector<std::uint32_t>& h, std::size_t i, Less less, Pos pos) {
  const std::uint32_t last = h.back();
  h.pop_back();
  if (i == h.size()) return;
  h[i] = last;
  siftUp(h, i, less, pos);
  siftDown(h, pos(last), less, pos);
}

// Knuth's two-sum: a + b == sum + err exactly.
void twoSum(double a, double b, double& sum, double& err) {
  sum = a + b;
  const double virt = sum - a;
  err = (a - (sum - virt)) + (b - virt);
}
}  // namespace

void FlowNetwork::ExactBytes::add(double x) {
  // Fold the rounding error of hi + x into lo, then renormalize so |lo|
  // stays below half an ulp of hi.
  double sum, err;
  twoSum(hi, x, sum, err);
  const double low = lo + err;
  hi = sum + low;
  lo = low - (hi - sum);
}

double FlowNetwork::ExactBytes::minus(const ExactBytes& o) const {
  double diff, err;
  twoSum(hi, -o.hi, diff, err);
  return diff + (err + (lo - o.lo));
}

bool FlowNetwork::Signature::operator==(const Signature& o) const {
  return route == o.route &&
         std::bit_cast<std::uint64_t>(rateCap) == std::bit_cast<std::uint64_t>(o.rateCap) &&
         std::bit_cast<std::uint64_t>(weight) == std::bit_cast<std::uint64_t>(o.weight);
}

std::size_t FlowNetwork::SignatureHash::operator()(const Signature& s) const {
  std::uint64_t h = std::bit_cast<std::uint64_t>(s.rateCap) * 0x9e3779b97f4a7c15ull ^
                    std::bit_cast<std::uint64_t>(s.weight);
  for (LinkId l : s.route) h = (h ^ l.value) * 0x100000001b3ull;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

LinkId FlowNetwork::addLink(std::string name, Bandwidth capacity, Seconds latency) {
  Link l;
  l.name = std::move(name);
  l.capacity = capacity;
  l.latency = latency;
  links_.push_back(std::move(l));
  return LinkId{static_cast<std::uint32_t>(links_.size() - 1)};
}

void FlowNetwork::setLinkCapacity(LinkId id, Bandwidth capacity) {
  Link& l = links_.at(id.value);
  if (l.capacity == capacity) return;
  advanceProgress();  // credit progress at the old rates first
  l.capacity = capacity;
  rebalance();
}

void FlowNetwork::setLinkHealth(LinkId id, double health) {
  Link& l = links_.at(id.value);
  const double clamped = std::min(1.0, std::max(0.0, health));
  if (l.health == clamped) return;
  advanceProgress();  // credit progress at the old rates first
  l.health = clamped;
  if (probe::FlightRecorder* rec = sim_.recorder()) {
    rec->record(sim_.now(), probe::RecordKind::LinkHealth, id.value, clamped);
  }
  rebalance();
}

bool FlowNetwork::abortFlow(FlowId id) {
  const auto it = slotOf_.find(id);
  if (it == slotOf_.end()) return false;
  advanceProgress();
  const std::uint32_t slot = it->second;
  slotOf_.erase(it);
  const ActiveFlow& f = flows_[slot];
  // Service the group carried past this member's tag was never its
  // bytes: take the overshoot back off the links.
  const double left = remaining(f);
  if (left < 0.0) creditLinks(f, left);
  if (tel_ && f.spanIdx != telemetry::kNoSpan) tel_->endSpan(f.spanIdx, sim_.now());
  leaveGroup(slot);
  releaseFlow(slot);
  rebalance();
  return true;
}

std::size_t FlowNetwork::replaceLinkInFlows(LinkId from, LinkId to) {
  advanceProgress();
  std::size_t rerouted = 0;
  // Collect first: merging groups edits live_.
  std::vector<std::uint32_t> touched;
  for (std::uint32_t gi : live_) {
    const Route& r = groups_[gi].sig.route;
    if (std::find(r.begin(), r.end(), from) != r.end()) touched.push_back(gi);
  }
  for (std::uint32_t gi : touched) {
    rerouted += groups_[gi].byTag.size();
    Signature sig = groups_[gi].sig;
    std::replace(sig.route.begin(), sig.route.end(), from, to);
    const auto it = groupOf_.find(sig);
    if (it == groupOf_.end()) {
      groupOf_.erase(groups_[gi].sig);
      groups_[gi].sig = sig;
      groupOf_.emplace(std::move(sig), gi);
    } else if (it->second != gi) {
      mergeGroup(gi, it->second);
    }
  }
  if (rerouted > 0) rebalance();
  return rerouted;
}

Seconds FlowNetwork::routeLatency(const Route& route) const {
  Seconds total = 0.0;
  for (LinkId id : route) total += links_.at(id.value).latency;
  return total;
}

FlowId FlowNetwork::startFlow(const FlowSpec& spec,
                              std::function<void(const FlowCompletion&)> onComplete) {
  if (!(spec.weight > 0.0)) {
    throw std::invalid_argument("FlowNetwork: flow weight must be > 0");
  }
  if (spec.members == 0) {
    throw std::invalid_argument("FlowNetwork: flow class must have >= 1 member");
  }
  const FlowId id = nextFlowId_++;
  ActiveFlow flow;
  flow.id = id;
  flow.members = spec.members;
  flow.totalBytes = spec.bytes;
  flow.startTime = sim_.now();
  flow.onComplete = std::move(onComplete);
  Signature sig{spec.route, spec.rateCap, spec.weight};

  if (tel_ && tel_->enabled()) {
    flow.spanIdx = tel_->beginSpan(spec.spanName.empty() ? "flow" : spec.spanName, spec.spanPid,
                                   spec.spanTid, flow.startTime,
                                   static_cast<double>(spec.bytes) * spec.members);
    if (spec.startupLatency > 0.0) {
      tel_->accrue(flow.spanIdx, tel_->stageId("startup"), spec.startupLatency, 0.0);
    }
  }

  if (spec.startupLatency > 0.0) {
    sim_.schedule(spec.startupLatency, [this, f = std::move(flow), s = std::move(sig)]() mutable {
      activate(std::move(f), std::move(s));
    });
  } else {
    activate(std::move(flow), std::move(sig));
  }
  return id;
}

void FlowNetwork::activate(ActiveFlow flow, Signature sig) {
  if (flow.totalBytes == 0) {
    // Zero-byte flow: completes as soon as its startup latency elapsed.
    if (tel_ && flow.spanIdx != telemetry::kNoSpan) tel_->endSpan(flow.spanIdx, sim_.now());
    FlowCompletion done{flow.id, flow.totalBytes * flow.members, flow.members, flow.startTime,
                        sim_.now()};
    auto cb = std::move(flow.onComplete);
    if (cb) cb(done);
    return;
  }
  // Bring `served` up to now before the tag is taken from it.
  advanceProgress();
  std::uint32_t slot;
  if (freeFlows_.empty()) {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.push_back(std::move(flow));
  } else {
    slot = freeFlows_.back();
    freeFlows_.pop_back();
    flows_[slot] = std::move(flow);
  }
  slotOf_.emplace(flows_[slot].id, slot);
  joinGroup(slot, std::move(sig));
  rebalance();
}

void FlowNetwork::joinGroup(std::uint32_t slot, Signature sig) {
  std::uint32_t gi;
  const auto it = groupOf_.find(sig);
  if (it != groupOf_.end()) {
    gi = it->second;
  } else {
    if (freeGroups_.empty()) {
      gi = static_cast<std::uint32_t>(groups_.size());
      groups_.emplace_back();
    } else {
      gi = freeGroups_.back();
      freeGroups_.pop_back();
      groups_[gi] = Group{};
    }
    groups_[gi].sig = sig;
    groupOf_.emplace(std::move(sig), gi);
    live_.push_back(gi);
  }
  Group& g = groups_[gi];
  ActiveFlow& f = flows_[slot];
  f.group = gi;
  f.tag = g.served;
  f.tag.add(static_cast<double>(f.totalBytes));
  g.members += f.members;
  heapPush(g.byTag, slot, tagLess(), tagPos());
  heapPush(g.byId, slot, idLess(), idPos());
}

void FlowNetwork::leaveGroup(std::uint32_t slot) {
  ActiveFlow& f = flows_[slot];
  const std::uint32_t gi = f.group;
  Group& g = groups_[gi];
  heapErase(g.byTag, f.tagPos, tagLess(), tagPos());
  heapErase(g.byId, f.idPos, idLess(), idPos());
  g.members -= f.members;
  f.group = kNoGroup;
  if (g.byTag.empty()) destroyGroup(gi);
}

void FlowNetwork::destroyGroup(std::uint32_t gi) {
  Group& g = groups_[gi];
  if (g.completionEvent.valid()) sim_.cancel(g.completionEvent);
  g.completionEvent = EventId{};
  groupOf_.erase(g.sig);
  live_.erase(std::find(live_.begin(), live_.end(), gi));
  freeGroups_.push_back(gi);
}

void FlowNetwork::mergeGroup(std::uint32_t from, std::uint32_t to) {
  Group& src = groups_[from];
  Group& dst = groups_[to];
  for (std::uint32_t slot : src.byTag) {
    ActiveFlow& f = flows_[slot];
    const double left = remaining(f);
    f.group = to;
    f.tag = dst.served;
    f.tag.add(left);
    dst.members += f.members;
    heapPush(dst.byTag, slot, tagLess(), tagPos());
    heapPush(dst.byId, slot, idLess(), idPos());
  }
  src.byTag.clear();
  src.byId.clear();
  src.members = 0;
  destroyGroup(from);
}

void FlowNetwork::releaseFlow(std::uint32_t slot) {
  flows_[slot].onComplete = nullptr;
  freeFlows_.push_back(slot);
}

void FlowNetwork::creditLinks(const ActiveFlow& f, double perMember) {
  const double bytes = perMember * static_cast<double>(f.members);
  for (LinkId lid : groups_[f.group].sig.route) links_[lid.value].bytesCarried += bytes;
}

std::uint32_t FlowNetwork::bottleneckStage(telemetry::Telemetry& tel,
                                           std::uint32_t bottleneck) const {
  if (bottleneck == kFrozenByCap) return tel.stageId("stream-cap");
  if (bottleneck == kFrozenByNone || bottleneck >= links_.size()) {
    return tel.stageId("unconstrained");
  }
  return tel.stageForLink(bottleneck, links_[bottleneck].name);
}

void FlowNetwork::advanceProgress() {
  const SimTime now = sim_.now();
  const SimTime dt = now - lastAdvance_;
  lastAdvance_ = now;
  if (!(dt > 0.0)) return;
  // One enabled-check per pass; `tel` stays null on the common path so
  // the loop body carries a single dead branch when telemetry is off.
  telemetry::Telemetry* tel = (tel_ && tel_->enabled()) ? tel_ : nullptr;
  for (std::uint32_t gi : live_) {
    Group& g = groups_[gi];
    if (!(g.rate > 0.0)) continue;
    const double moved = g.rate * dt;  // per member
    if (tel) {
      const std::uint32_t stage = bottleneckStage(*tel, g.bottleneck);
      for (std::uint32_t slot : g.byTag) {
        const ActiveFlow& f = flows_[slot];
        if (f.spanIdx == telemetry::kNoSpan) continue;
        const double own = std::min(std::max(0.0, remaining(f)), moved);
        tel->accrue(f.spanIdx, stage, dt, own * static_cast<double>(f.members));
      }
    }
    g.served.add(moved);
    // Links carry the aggregate (x members).
    const double carried = moved * static_cast<double>(g.members);
    for (LinkId lid : g.sig.route) links_[lid.value].bytesCarried += carried;
  }
}

void FlowNetwork::computeMaxMinRates() {
  // Hierarchical weighted progressive filling: flows sharing a signature
  // (route, per-member cap, per-member weight) are interchangeable, so
  // they fill as ONE group whose link weight is `weight x members`. This
  // is what makes a flow class of N members byte-identical to N
  // coexisting singleton flows: both present the same group to the
  // solver, the same per-unit-weight deltas come out, and the analytic
  // within-group split is "every member gets weight x delta".
  const std::size_t nLinks = links_.size();
  headroom_.resize(nLinks);
  unfrozenWeight_.assign(nLinks, 0.0);
  for (std::size_t i = 0; i < nLinks; ++i) {
    headroom_[i] = links_[i].capacity * links_[i].health;
  }
  // Fill in ascending lowest-member-id order — for all-singleton sets
  // this is exactly the per-flow id order.
  std::sort(live_.begin(), live_.end(), [this](std::uint32_t a, std::uint32_t b) {
    return lowestId(groups_[a]) < lowestId(groups_[b]);
  });
  for (std::uint32_t gi : live_) {
    Group& g = groups_[gi];
    g.rate = 0.0;
    g.bottleneck = kFrozenByNone;
    g.frozen = false;
    g.fillWeight = g.sig.weight * static_cast<double>(g.members);
    for (LinkId lid : g.sig.route) unfrozenWeight_[lid.value] += g.fillWeight;
  }
  std::size_t unfrozen = live_.size();

  // Each round freezes at least one group, so rounds are bounded; guard
  // against regressions that would otherwise spin silently.
  std::size_t rounds = 0;
  const std::size_t maxRounds = live_.size() + nLinks + 2;

  while (unfrozen > 0) {
    if (++rounds > maxRounds) {
      throw std::logic_error("FlowNetwork: progressive filling failed to converge");
    }
    // Max per-unit-weight increment permitted by links...
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < nLinks; ++i) {
      if (unfrozenWeight_[i] > 1e-12) {
        delta = std::min(delta, headroom_[i] / unfrozenWeight_[i]);
      }
    }
    // ... and by per-member caps (each member gains weight*delta per step).
    for (std::uint32_t gi : live_) {
      const Group& g = groups_[gi];
      if (!g.frozen) delta = std::min(delta, (g.sig.rateCap - g.rate) / g.sig.weight);
    }
    if (!std::isfinite(delta)) {
      // No route constraints at all: every unfrozen group is capped only
      // by its rateCap, which must be infinite here. Treat as unbounded —
      // physically this means "completes at startup latency"; give them a
      // huge but finite rate so completion times stay representable.
      delta = 1e18;
    }
    if (delta < 0.0) delta = 0.0;

    for (std::uint32_t gi : live_) {
      Group& g = groups_[gi];
      if (g.frozen) continue;
      g.rate += delta * g.sig.weight;         // per member
      const double claimed = delta * g.fillWeight;  // whole group
      for (LinkId lid : g.sig.route) headroom_[lid.value] -= claimed;
    }

    // Freeze: capped groups first, then groups crossing a saturated link.
    std::size_t newlyFrozen = 0;
    for (std::uint32_t gi : live_) {
      Group& g = groups_[gi];
      if (g.frozen) continue;
      bool freeze = g.rate >= g.sig.rateCap - 1e-12;
      if (freeze) {
        g.bottleneck = kFrozenByCap;
      } else {
        for (LinkId lid : g.sig.route) {
          if (headroom_[lid.value] <=
              1e-9 * links_[lid.value].capacity * links_[lid.value].health + 1e-12) {
            freeze = true;
            g.bottleneck = lid.value;
            break;
          }
        }
      }
      if (freeze) {
        g.frozen = true;
        ++newlyFrozen;
        for (LinkId lid : g.sig.route) unfrozenWeight_[lid.value] -= g.fillWeight;
      }
    }
    unfrozen -= newlyFrozen;
    if (newlyFrozen == 0) {
      // delta == 0 with nothing to freeze can only happen on degenerate
      // zero-capacity links; freeze everything to guarantee termination.
      for (std::uint32_t gi : live_) {
        Group& g = groups_[gi];
        if (g.frozen) continue;
        g.frozen = true;
        for (LinkId lid : g.sig.route) unfrozenWeight_[lid.value] -= g.fillWeight;
      }
      unfrozen = 0;
    }
  }
}

void FlowNetwork::rebalance() {
  {
    probe::SelfProfiler::Scope scope(sim_.profiler(), probe::SelfProfiler::Bucket::Solve);
    computeMaxMinRates();
  }
  if (probe::FlightRecorder* rec = sim_.recorder()) {
    rec->record(sim_.now(), probe::RecordKind::NetRebalance,
                static_cast<std::uint32_t>(slotOf_.size()), static_cast<double>(rerates_));
  }
  const SimTime now = sim_.now();
  for (std::uint32_t gi : live_) {
    Group& g = groups_[gi];
    if (g.rate <= 0.0) {
      // Stalled group (zero-capacity path): leave it unscheduled; a later
      // rebalance schedules the completion once capacity appears.
      if (g.completionEvent.valid()) {
        sim_.cancel(g.completionEvent);
        g.completionEvent = EventId{};
        g.scheduledEta = -1.0;
        g.etaDrift = 0.0;
      }
      continue;
    }
    // Re-time the head's completion at the new rate.
    const Seconds eta = std::max(0.0, remaining(flows_[g.byTag.front()])) / g.rate;
    const SimTime newCompletion = now + eta;
    if (g.completionEvent.valid()) {
      // Skip churn if completion time barely moved — but account the
      // skipped correction, and re-anchor once the accrued drift leaves
      // its budget, so many small rebalances cannot compound error.
      const double scale = std::max(1.0, std::fabs(eta));
      const double drift = std::fabs(eta - (g.scheduledEta - now));
      if (drift <= kRateHysteresis * scale && g.etaDrift + drift <= kEtaDriftBudget * scale) {
        g.etaDrift += drift;
        continue;
      }
      ++rerates_;
      g.scheduledEta = newCompletion;
      g.etaDrift = 0.0;
      sim_.adjustKey(g.completionEvent, newCompletion);
      continue;
    }
    ++rerates_;
    g.scheduledEta = newCompletion;
    g.etaDrift = 0.0;
    g.completionEvent = sim_.scheduleAt(newCompletion, [this, gi] { completeHead(gi); });
  }
#ifndef NDEBUG
  checkInvariants();
#endif
}

void FlowNetwork::completeHead(std::uint32_t gi) {
  advanceProgress();
  Group& g = groups_[gi];
  g.completionEvent = EventId{};
  g.scheduledEta = -1.0;
  g.etaDrift = 0.0;
  const ExactBytes tag = flows_[g.byTag.front()].tag;
  if (remaining(flows_[g.byTag.front()]) > 1.0) {
    // Defensive: floating-point drift left real bytes outstanding; let
    // rebalance() schedule a fresh event.
    rebalance();
    return;
  }
  // The heap breaks tag ties by id, so equal-tag members pop in id order.
  // The list reuses one scratch vector, held locally while the callbacks
  // run so a callback that re-enters the network never sees it.
  std::vector<Done> done;
  done.swap(done_);
  while (!groups_[gi].byTag.empty() && flows_[groups_[gi].byTag.front()].tag == tag) {
    const std::uint32_t slot = groups_[gi].byTag.front();
    ActiveFlow& f = flows_[slot];
    // Account any residue (float rounding, either sign) as carried.
    creditLinks(f, remaining(f));
    if (tel_ && f.spanIdx != telemetry::kNoSpan) tel_->endSpan(f.spanIdx, sim_.now());
    done.push_back(Done{FlowCompletion{f.id, f.totalBytes * f.members, f.members, f.startTime,
                                       sim_.now()},
                        std::move(f.onComplete)});
    slotOf_.erase(f.id);
    leaveGroup(slot);
    releaseFlow(slot);
  }
  rebalance();
  for (Done& d : done) {
    if (d.onComplete) d.onComplete(d.completion);
  }
  done.clear();
  done_.swap(done);
}

Bandwidth FlowNetwork::flowRate(FlowId id) const {
  const auto it = slotOf_.find(id);
  if (it == slotOf_.end()) return 0.0;
  const ActiveFlow& f = flows_[it->second];
  return groups_[f.group].rate * static_cast<double>(f.members);
}

std::uint64_t FlowNetwork::activeMembers() const {
  std::uint64_t total = 0;
  for (std::uint32_t gi : live_) total += groups_[gi].members;
  return total;
}

std::vector<LinkStats> FlowNetwork::linkStats() const {
  std::vector<LinkStats> out;
  out.reserve(links_.size());
  std::vector<Bandwidth> alloc(links_.size(), 0.0);
  for (std::uint32_t gi : live_) {
    const Group& g = groups_[gi];
    const double aggregate = g.rate * static_cast<double>(g.members);
    for (LinkId lid : g.sig.route) alloc[lid.value] += aggregate;
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    // Report the *effective* capacity so degraded links show up in
    // utilization snapshots; identical to the configured capacity when
    // healthy (capacity * 1.0 is exact).
    out.push_back(LinkStats{links_[i].name, links_[i].capacity * links_[i].health,
                            links_[i].latency, alloc[i], links_[i].bytesCarried});
  }
  return out;
}

void FlowNetwork::checkInvariants() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("FlowNetwork invariant: " + what);
  };
  std::vector<double> load(links_.size(), 0.0);
  std::size_t members = 0;
  for (std::uint32_t gi : live_) {
    const Group& g = groups_[gi];
    if (g.byTag.empty() || g.byTag.size() != g.byId.size()) fail("group heaps out of step");
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < g.byTag.size(); ++i) {
      const ActiveFlow& f = flows_[g.byTag[i]];
      if (f.group != gi || f.tagPos != i || g.byId[f.idPos] != g.byTag[i]) {
        fail("flow " + std::to_string(f.id) + " misfiled in its group");
      }
      const auto it = slotOf_.find(f.id);
      if (it == slotOf_.end() || it->second != g.byTag[i]) {
        fail("flow " + std::to_string(f.id) + " missing from the id map");
      }
      sum += f.members;
    }
    if (sum != g.members) fail("group member count out of step");
    members += g.byTag.size();
    if (g.completionEvent.valid() != (g.rate > 0.0)) {
      fail("group of flow " + std::to_string(lowestId(g)) + " holds an event iff rate > 0");
    }
    for (LinkId lid : g.sig.route) load[lid.value] += g.rate * static_cast<double>(g.members);
  }
  if (members != slotOf_.size()) fail("an active flow is in no group or in two");
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (load[i] > links_[i].capacity * links_[i].health * (1.0 + 1e-9)) {
      fail("link '" + links_[i].name + "' oversubscribed");
    }
  }
  for (std::uint32_t gi : live_) {
    const Group& g = groups_[gi];
    if (!(g.rate > 0.0) || g.rate >= g.sig.rateCap * (1.0 - 1e-9) - 1e-12) continue;
    bool saturated = false;
    bool unbounded = true;
    for (LinkId lid : g.sig.route) {
      const double cap = links_[lid.value].capacity * links_[lid.value].health;
      unbounded = unbounded && !std::isfinite(cap);
      saturated = saturated || load[lid.value] >= cap * (1.0 - 1e-9) - 1e-12;
    }
    if (!saturated && !unbounded) {
      fail("group of flow " + std::to_string(lowestId(g)) + " is neither capped nor bottlenecked");
    }
  }
}

}  // namespace hcsim
