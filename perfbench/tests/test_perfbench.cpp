// Tests of the benchmark's own code: the forwarding decorators, traced vs
// untraced identity of every cell kind, and the layer accounting.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cells.hpp"
#include "telemetry/metrics_registry.hpp"
#include "tracer.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;
using namespace hcsim;

/// Small instances of every cell kind, in the workloads-file grammar.
const char* kDoc = R"({
  "mix": [
    {"figure": "coalesced", "kind": "ior", "preset": "scalability", "site": "lassen",
     "storage": ["vast", "gpfs"], "access": ["rand-read"], "nodes": [2], "procsPerNode": 8,
     "repetitions": 3, "noiseStdDevFrac": 0.03},
    {"figure": "perop", "kind": "ior", "preset": "singleNodeFsync", "site": "quartz",
     "storage": ["lustre"], "access": ["seq-write"], "procs": [4], "repetitions": 2,
     "noiseStdDevFrac": 0.03},
    {"figure": "dlio", "kind": "dlio", "site": "lassen", "storage": ["vast"],
     "workload": ["cosmoflow"], "nodes": [1], "procsPerNode": 4},
    {"figure": "md", "kind": "mdtest", "targets": [["wombat", "nvme"]],
     "uniqueDirPerTask": [true], "procsPerNode": 4, "itemsPerProc": 64, "repetitions": 2,
     "noiseStdDevFrac": 0.03},
    {"figure": "open", "kind": "workload", "spec": {
      "site": "lassen", "storage": "vast",
      "workload": {"generator": "openloop", "clients": 16, "clientsPerRank": 100,
                   "clientsPerNode": 8, "ratePerClientHz": 5.0, "horizonSec": 0.5,
                   "requestBytes": 131072}}},
    {"figure": "daos", "kind": "chaos", "seedTarget": 8, "spec": {
      "site": "lassen", "storage": "daos",
      "workload": {"nodes": 2, "procsPerNode": 4, "access": "seq-write",
                   "requestBytes": 16777216},
      "horizonSec": 4.0, "intervalSec": 1.0, "retry": {"timeoutSec": 5.0},
      "events": [{"atSec": 1.0, "action": "fail", "component": "target", "index": 0},
                 {"atSec": 2.0, "action": "restore", "component": "target", "index": 0}]}},
    {"figure": "sec7", "kind": "checks"}
  ]
})";

std::vector<Cell> mixCells(unsigned slot) {
  JsonValue doc;
  EXPECT_TRUE(parseJson(kDoc, doc));
  return expandWorkload(doc, "mix", slot);
}

bool sameBits(const CellResult& a, const CellResult& b) {
  if (a.values.size() != b.values.size() || a.clientOps != b.clientOps) return false;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    if (a.values[i].first != b.values[i].first ||
        std::memcmp(&a.values[i].second, &b.values[i].second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// ---- Forwarding ----

class RecordingModel : public FileSystemModel {
 public:
  std::vector<std::string> calls;
  IoCallback lastCb;

  const std::string& name() const override { return name_; }
  void beginPhase(const PhaseSpec& p) override {
    calls.push_back("beginPhase:" + std::to_string(p.requestSize));
  }
  void endPhase() override { calls.push_back("endPhase"); }
  void submit(const IoRequest& r, IoCallback cb) override {
    calls.push_back("submit:" + std::to_string(r.bytes));
    lastCb = std::move(cb);
  }
  void submitMeta(const MetaRequest& r, IoCallback cb) override {
    calls.push_back("submitMeta:" + std::to_string(r.fileId));
    lastCb = std::move(cb);
  }
  Bytes totalCapacity() const override { return 42; }
  std::size_t clientParallelism() const override { return 7; }
  transport::TransportProfile declaredTransportProfile() const override {
    return transport::TransportProfile::rdma();
  }
  void setTransport(transport::TransportFabric* f) override {
    calls.push_back(f ? "setTransport:fabric" : "setTransport:null");
  }
  bool applyFault(const FaultSpec& f) override {
    calls.push_back("applyFault:" + f.component);
    return true;
  }
  std::size_t faultComponentCount(const std::string& c) const override {
    return c == "cnode" ? 8 : 0;
  }
  Route rebuildRoute(const FaultSpec&) override { return Route{LinkId{3}}; }
  void exportMetrics(telemetry::MetricsRegistry& reg) const override {
    reg.gauge("fake.cache.read_hit_ratio", 0.5);
  }

 private:
  std::string name_ = "fake";
};

TEST(TracedFileSystem, ForwardsEveryVirtual) {
  for (const bool traced : {false, true}) {
    Tracer tracer;
    auto owned = std::make_unique<RecordingModel>();
    RecordingModel& inner = *owned;
    TracedFileSystem fs(std::move(owned), traced ? &tracer : nullptr, 0);

    EXPECT_EQ(fs.name(), "fake");
    EXPECT_EQ(fs.totalCapacity(), 42u);
    EXPECT_EQ(fs.clientParallelism(), 7u);
    EXPECT_EQ(fs.declaredTransportProfile().kind, transport::TransportProfile::rdma().kind);
    EXPECT_EQ(fs.faultComponentCount("cnode"), 8u);
    EXPECT_EQ(fs.faultComponentCount("dbox"), 0u);

    PhaseSpec phase;
    phase.requestSize = 4096;
    fs.beginPhase(phase);
    IoRequest req;
    req.bytes = 1234;
    int fired = 0;
    fs.submit(req, [&](const IoResult& r) { fired += static_cast<int>(r.bytes); });
    inner.lastCb(IoResult{0.0, 1.0, 5, false});
    MetaRequest meta;
    meta.fileId = 99;
    fs.submitMeta(meta, [&](const IoResult&) { fired += 100; });
    inner.lastCb(IoResult{});
    fs.endPhase();
    fs.setTransport(nullptr);
    FaultSpec fault;
    fault.component = "cnode";
    EXPECT_TRUE(fs.applyFault(fault));
    ASSERT_EQ(fs.rebuildRoute(fault).size(), 1u);
    telemetry::MetricsRegistry reg;
    fs.exportMetrics(reg);
    EXPECT_EQ(reg.gaugeOr("fake.cache.read_hit_ratio", 0.0), 0.5);

    EXPECT_EQ(fired, 105);
    const std::vector<std::string> expected = {"beginPhase:4096", "submit:1234",
                                               "submitMeta:99",   "endPhase",
                                               "setTransport:null", "applyFault:cnode"};
    EXPECT_EQ(inner.calls, expected);
    EXPECT_EQ(fs.submits(), 1u);
    EXPECT_EQ(fs.metaSubmits(), 1u);
    if (traced) {
      EXPECT_EQ(tracer.spans(Layer::Fs), 6u);  // phases, submits, fault, rebuild route
      EXPECT_EQ(tracer.spans(Layer::WorkloadComplete), 2u);
    }
  }
}

class RecordingSource : public workload::WorkloadSource {
 public:
  std::vector<std::string> calls;
  const std::string& name() const override { return name_; }
  workload::WorkloadPlan load(const workload::WorkloadContext&) override {
    calls.push_back("load");
    workload::WorkloadPlan plan;
    plan.ranks = 3;
    return plan;
  }
  workload::NextStatus next(std::size_t rank, workload::WorkloadOp& out) override {
    calls.push_back("next:" + std::to_string(rank));
    out.token = 77;
    return workload::NextStatus::Wait;
  }
  void onComplete(std::size_t rank, const workload::WorkloadOp& op, const IoResult& r) override {
    calls.push_back("onComplete:" + std::to_string(rank) + ":" + std::to_string(op.token) + ":" +
                    std::to_string(r.bytes));
  }

 private:
  std::string name_ = "recording";
};

TEST(TracedSource, ForwardsEveryVirtual) {
  Tracer tracer;
  RecordingSource inner;
  TracedSource src(inner, &tracer);
  EXPECT_EQ(src.name(), "recording");
  EXPECT_EQ(src.load({}).ranks, 3u);
  workload::WorkloadOp op;
  EXPECT_EQ(src.next(2, op), workload::NextStatus::Wait);
  EXPECT_EQ(op.token, 77u);
  src.onComplete(1, op, IoResult{0.0, 0.0, 9, false});
  const std::vector<std::string> expected = {"load", "next:2", "onComplete:1:77:9"};
  EXPECT_EQ(inner.calls, expected);
  EXPECT_EQ(tracer.spans(Layer::WorkloadSource), 3u);
}

// ---- Identity and accounting ----

TEST(Cells, DecoratedRunIsByteIdenticalToUndecorated) {
  for (unsigned slot : {0u, 5u}) {
    for (const Cell& cell : mixCells(slot)) {
      Tracer tracer;
      const CellResult plain = runCell(cell, nullptr);
      const CellResult traced = runCell(cell, &tracer);
      EXPECT_FALSE(plain.values.empty()) << cell.name;
      EXPECT_TRUE(sameBits(plain, traced)) << cell.name << " (slot " << slot << ")";
    }
  }
}

TEST(Cells, SeedSlotsChangeTheStochasticInputs) {
  const std::vector<Cell> a = mixCells(0), b = mixCells(1);
  ASSERT_EQ(a.size(), b.size());
  bool anyDiffers = false;
  for (std::size_t i = 0; i < a.size(); ++i) anyDiffers |= a[i].spec != b[i].spec;
  EXPECT_TRUE(anyDiffers);
  EXPECT_TRUE(sameBits(runCell(a[0], nullptr), runCell(mixCells(0)[0], nullptr)));
}

TEST(Tracer, SelfTimesAddUpToTracedWall) {
  Tracer tracer;
  const auto start = std::chrono::steady_clock::now();
  {
    Tracer::Scope root(&tracer, Layer::Bench);
    for (const Cell& cell : mixCells(3)) runCell(cell, &tracer);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_NEAR(tracer.accountedSeconds(), wall, 0.01 * wall);
  for (std::size_t l = 0; l < kLayers; ++l) {
    EXPECT_GE(tracer.selfSeconds(static_cast<Layer>(l)), -1e-4) << layerMetric(Layer(l));
  }
  EXPECT_GE(tracer.callbackOtherSeconds(), -1e-4);
  EXPECT_GT(tracer.solveSeconds(), 0.0);
  EXPECT_GT(tracer.dispatchSeconds(), 0.0);
  EXPECT_GT(tracer.spans(Layer::WorkloadSource), 0u);
  EXPECT_GT(tracer.spans(Layer::WorkloadComplete), 0u);
  EXPECT_EQ(tracer.spans(Layer::PaperChecks), 1u);
}

TEST(Workloads, EveryBenchmarkWorkloadExpandsForEverySlot) {
  JsonValue doc;
  std::ifstream in(std::string(PERFBENCH_DIR) + "/workloads.json");
  std::stringstream ss;
  ss << in.rdbuf();
  ASSERT_TRUE(parseJson(ss.str(), doc));
  for (const char* w : {"paper_repro", "scale_1m", "fault_drills", "metadata_storm"}) {
    for (unsigned slot = 0; slot < kSeedSlots; ++slot) {
      const std::vector<Cell> cells = expandWorkload(doc, w, slot);
      EXPECT_FALSE(cells.empty()) << w;
      for (const Cell& c : cells) setUpCell(c);
    }
  }
  EXPECT_THROW(expandWorkload(doc, "no_such_workload", 0), std::invalid_argument);
}

}  // namespace
