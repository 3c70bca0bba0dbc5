#include "cells.hpp"

#include <algorithm>
#include <stdexcept>

#include "chaos/chaos_runner.hpp"
#include "config/serialize.hpp"
#include "core/experiment.hpp"
#include "core/takeaways.hpp"
#include "mdtest/mdtest.hpp"
#include "telemetry/metrics_registry.hpp"
#include "trace/overlap_analysis.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/dlio_source.hpp"
#include "workload/ior_source.hpp"
#include "workload/workload_spec.hpp"

namespace perfbench {

using namespace hcsim;

void Counters::add(const Counters& o) {
  events += o.events;
  schedules += o.schedules;
  cancels += o.cancels;
  adjusts += o.adjusts;
  peakPending = std::max(peakPending, o.peakPending);
  rerates += o.rerates;
  submits += o.submits;
  metaSubmits += o.metaSubmits;
  opsIssued += o.opsIssued;
  opsCompleted += o.opsCompleted;
  opsFailed += o.opsFailed;
  retries += o.retries;
  lateCompletions += o.lateCompletions;
  transportOps += o.transportOps;
  transportBytes += o.transportBytes;
  sqWaits += o.sqWaits;
  doorbells += o.doorbells;
  connSetups += o.connSetups;
  throttleSec += o.throttleSec;
  faults += o.faults;
  chaosRetries += o.chaosRetries;
  degradedSec += o.degradedSec;
  rebuildBytes += o.rebuildBytes;
  cacheHitRatioSum += o.cacheHitRatioSum;
  cacheHitCells += o.cacheHitCells;
  sinkBytes += o.sinkBytes;
}

namespace {

const struct {
  const char* key;
  Site site;
} kSites[] = {{"lassen", Site::Lassen}, {"ruby", Site::Ruby}, {"quartz", Site::Quartz},
              {"wombat", Site::Wombat}};

const struct {
  const char* key;
  StorageKind kind;
} kStorage[] = {{"vast", StorageKind::Vast},     {"gpfs", StorageKind::Gpfs},
                {"lustre", StorageKind::Lustre}, {"nvme", StorageKind::NvmeLocal},
                {"daos", StorageKind::Daos}};

Site siteOf(const std::string& key) {
  for (const auto& s : kSites) {
    if (key == s.key) return s.site;
  }
  throw std::invalid_argument("unknown site '" + key + "'");
}

StorageKind storageOf(const std::string& key) {
  for (const auto& s : kStorage) {
    if (key == s.key) return s.kind;
  }
  throw std::invalid_argument("unknown storage '" + key + "'");
}

JsonValue parseText(const std::string& text) {
  JsonValue v;
  if (!parseJson(text, v)) throw std::invalid_argument("cell spec is not valid JSON");
  return v;
}

/// Independent copy (JsonValue copies share their arrays and objects).
JsonValue deepCopy(const JsonValue& v) { return parseText(writeJson(v)); }

const JsonArray& arrayAt(const JsonValue& grid, const char* key) {
  const JsonValue* v = grid.find(key);
  if (v == nullptr || !v->isArray()) {
    throw std::invalid_argument(std::string("workload grid: '") + key + "' must be an array");
  }
  return *v->array();
}

std::string stringOf(const JsonValue& v) {
  if (!v.isString()) throw std::invalid_argument("workload grid: expected a string");
  return *v.str();
}

std::size_t sizeOf(const JsonValue& v) {
  if (!v.isNumber() || *v.number() < 1) {
    throw std::invalid_argument("workload grid: expected a positive integer");
  }
  return static_cast<std::size_t>(*v.number());
}

/// The spec text of a site/storage cell: {"site", "storage", <key>: config}.
std::string envSpec(const std::string& site, const std::string& storage, const char* key,
                    JsonValue config) {
  JsonObject o;
  o["site"] = site;
  o["storage"] = storage;
  o[key] = std::move(config);
  return writeJson(JsonValue(std::move(o)));
}

struct EnvSpec {
  Site site;
  StorageKind storage;
  JsonValue doc;
};

EnvSpec parseEnvSpec(const std::string& text) {
  EnvSpec s{Site::Lassen, StorageKind::Vast, parseText(text)};
  s.site = siteOf(s.doc.stringOr("site", ""));
  s.storage = storageOf(s.doc.stringOr("storage", ""));
  return s;
}

template <typename Config>
Config configAt(const EnvSpec& s, const char* key) {
  Config cfg;
  const JsonValue* section = s.doc.find(key);
  if (section == nullptr || !fromJson(*section, cfg)) {
    throw std::invalid_argument(std::string("cell spec: '") + key + "' does not parse");
  }
  cfg.validate();
  return cfg;
}

// ---- Expansion of the workloads document ----

void expandIor(const JsonValue& g, const std::string& figure, unsigned slot,
               std::vector<Cell>& out) {
  const std::string preset = g.stringOr("preset", "");
  const bool scalability = preset == "scalability";
  if (!scalability && preset != "singleNodeFsync") {
    throw std::invalid_argument(figure + ": unknown ior preset '" + preset + "'");
  }
  const std::string site = g.stringOr("site", "");
  for (const JsonValue& accessKey : arrayAt(g, "access")) {
    AccessPattern access;
    if (!fromJson(accessKey, access)) throw std::invalid_argument(figure + ": bad access");
    for (const JsonValue& storage : arrayAt(g, "storage")) {
      for (const JsonValue& x : arrayAt(g, scalability ? "nodes" : "procs")) {
        IorConfig cfg =
            scalability
                ? IorConfig::scalability(access, sizeOf(x),
                                         static_cast<std::size_t>(g.numberOr("procsPerNode", 1)))
                : IorConfig::singleNodeFsync(access, sizeOf(x));
        cfg.repetitions = static_cast<std::size_t>(g.numberOr("repetitions", 1));
        cfg.noiseStdDevFrac = g.numberOr("noiseStdDevFrac", 0.0);
        cfg.seed = slot + 1;
        out.push_back({figure + "/" + stringOf(storage) + "/" + stringOf(accessKey) +
                           (scalability ? "/nodes=" : "/procs=") + std::to_string(sizeOf(x)),
                       CellKind::Ior, envSpec(site, stringOf(storage), "ior", toJson(cfg))});
      }
    }
  }
}

void expandDlio(const JsonValue& g, const std::string& figure, unsigned slot,
                std::vector<Cell>& out) {
  const std::string site = g.stringOr("site", "");
  for (const JsonValue& w : arrayAt(g, "workload")) {
    const std::string name = stringOf(w);
    if (name != "resnet50" && name != "cosmoflow") {
      throw std::invalid_argument(figure + ": unknown DLIO workload '" + name + "'");
    }
    for (const JsonValue& nodes : arrayAt(g, "nodes")) {
      for (const JsonValue& storage : arrayAt(g, "storage")) {
        DlioConfig cfg;
        cfg.workload = name == "resnet50" ? DlioWorkload::resnet50() : DlioWorkload::cosmoflow();
        cfg.nodes = sizeOf(nodes);
        cfg.procsPerNode = static_cast<std::size_t>(g.numberOr("procsPerNode", 4));
        cfg.seed = slot + 1;
        out.push_back({figure + "/" + name + "/" + stringOf(storage) +
                           "/nodes=" + std::to_string(cfg.nodes),
                       CellKind::Dlio, envSpec(site, stringOf(storage), "dlio", toJson(cfg))});
      }
    }
  }
}

void expandMdtest(const JsonValue& g, const std::string& figure, unsigned slot,
                  std::vector<Cell>& out) {
  for (const JsonValue& target : arrayAt(g, "targets")) {
    const JsonArray* pair = target.array();
    if (pair == nullptr || pair->size() != 2) {
      throw std::invalid_argument(figure + ": targets are [site, storage] pairs");
    }
    for (const JsonValue& unique : arrayAt(g, "uniqueDirPerTask")) {
      MdtestConfig cfg;
      cfg.procsPerNode = static_cast<std::size_t>(g.numberOr("procsPerNode", 1));
      cfg.itemsPerProc = static_cast<std::size_t>(g.numberOr("itemsPerProc", 64));
      cfg.uniqueDirPerTask = unique.boolean() != nullptr && *unique.boolean();
      cfg.repetitions = static_cast<std::size_t>(g.numberOr("repetitions", 1));
      cfg.noiseStdDevFrac = g.numberOr("noiseStdDevFrac", 0.0);
      cfg.seed = slot + 1;
      const std::string site = stringOf((*pair)[0]), storage = stringOf((*pair)[1]);
      out.push_back({figure + "/" + site + "-" + storage +
                         (cfg.uniqueDirPerTask ? "/unique" : "/shared"),
                     CellKind::Mdtest, envSpec(site, storage, "mdtest", toJson(cfg))});
    }
  }
}

void expandSpec(const JsonValue& g, const std::string& figure, CellKind kind, unsigned slot,
                std::vector<Cell>& out) {
  const JsonValue* specIn = g.find("spec");
  if (specIn == nullptr || !specIn->isObject()) {
    throw std::invalid_argument(figure + ": 'spec' must be an object");
  }
  JsonValue spec = deepCopy(*specIn);
  JsonObject& root = *spec.object();
  if (kind == CellKind::Workload) {
    (*root["workload"].object())["seed"] = static_cast<double>(slot + 1);
  } else if (const double targets = g.numberOr("seedTarget", 0); targets >= 1) {
    // The seed picks which target the schedule fails and restores: a
    // different placement each slot for the same amount of work.
    JsonArray* events = root["events"].array();
    if (events == nullptr) throw std::invalid_argument(figure + ": 'events' must be an array");
    for (JsonValue& ev : *events) {
      JsonObject* o = ev.object();
      if (o != nullptr && ev.stringOr("component", "") == "target") {
        (*o)["index"] = static_cast<double>(slot % static_cast<unsigned>(targets));
      }
    }
  }
  out.push_back({figure, kind, writeJson(spec)});
}

// ---- Running ----

struct Prepared {
  Environment env;
  TracedFileSystem* traced = nullptr;
};

/// Wrap the environment's model for a traced run and start reading its
/// profiler. Must happen before the first event.
void decorate(Prepared& p, StorageKind kind, Tracer* t) {
  if (t == nullptr) return;
  auto traced =
      std::make_unique<TracedFileSystem>(std::move(p.env.fs), t, static_cast<int>(modelIndex(kind)));
  p.traced = traced.get();
  p.env.fs = std::move(traced);
  t->bind(*p.env.bench);
}

void collectCounters(Prepared& p, Tracer* t, Counters& c) {
  const Simulator& sim = p.env.bench->sim();
  c.events = static_cast<double>(sim.eventsDispatched());
  c.schedules = static_cast<double>(sim.eventsScheduled());
  c.cancels = static_cast<double>(sim.eventsCancelled());
  c.adjusts = static_cast<double>(sim.eventsAdjusted());
  c.peakPending = static_cast<double>(sim.peakPendingEvents());
  c.rerates = static_cast<double>(p.env.bench->topo().network().rerates());
  if (const auto* tf = p.env.transport.get()) {
    c.transportOps = static_cast<double>(tf->opsPosted());
    c.transportBytes = static_cast<double>(tf->bytesPosted());
    c.sqWaits = static_cast<double>(tf->sqWaits());
    c.doorbells = static_cast<double>(tf->doorbells());
    c.connSetups = static_cast<double>(tf->connectionSetups());
    c.throttleSec = tf->throttleDelay();
  }
  if (t == nullptr) return;
  t->unbind();
  c.submits = static_cast<double>(p.traced->submits());
  c.metaSubmits = static_cast<double>(p.traced->metaSubmits());
  telemetry::MetricsRegistry reg;
  p.env.fs->exportMetrics(reg);
  for (const auto& [name, value] : reg.gauges()) {
    if (name.size() > 10 && name.compare(name.size() - 10, 10, "_hit_ratio") == 0) {
      c.cacheHitRatioSum += value;
      c.cacheHitCells += 1;
    }
  }
}

void addOutcome(const workload::WorkloadOutcome& o, Counters& c) {
  c.opsIssued += static_cast<double>(o.opsIssued + o.metaOps);
  c.opsCompleted += static_cast<double>(o.opsCompleted + o.metaOps);
  c.opsFailed += static_cast<double>(o.opsFailed);
  c.retries += static_cast<double>(o.retries);
  c.lateCompletions += static_cast<double>(o.lateCompletions);
}

std::size_t render(Tracer* t, const ResultTable& table) {
  Tracer::Scope s(t, Layer::Sink);
  return table.toString().size() + table.toCsv().size();
}

/// IorRunner::run with the IorSource wrapped in a TracedSource; the traced
/// run checks that it matches IorRunner::run exactly.
IorResult runIorTraced(Prepared& p, const IorConfig& cfg, Tracer* t, Counters& c) {
  cfg.validate();
  if (cfg.nodes > p.env.bench->nodesUsed()) {
    throw std::invalid_argument("ior cell: config uses more nodes than the TestBench wired");
  }
  struct Once {
    Seconds elapsed = 0.0;
    Bytes bytes = 0;
    std::vector<double> opLatencies;
  };
  const auto runOnce = [&] {
    workload::IorSource source(cfg);
    TracedSource traced(source, t);
    workload::WorkloadRunner runner(*p.env.bench, *p.env.fs);
    workload::WorkloadOutcome out = runner.run(traced);
    addOutcome(out, c);
    return Once{out.elapsed,
                cfg.mode == IorConfig::Mode::Coalesced ? cfg.totalBytes() : out.bytesMoved,
                std::move(out.opLatencies)};
  };
  IorResult result;
  Rng noise(cfg.seed ^ 0x5eedull);
  RunningStats elapsedStats;
  const bool simulateEachRep = cfg.mode == IorConfig::Mode::PerOp;
  const Once base = simulateEachRep ? Once{} : runOnce();
  result.totalBytes = simulateEachRep ? 0 : base.bytes;
  for (std::size_t rep = 0; rep < cfg.repetitions; ++rep) {
    const Once outcome = simulateEachRep ? runOnce() : base;
    if (rep == 0) {
      result.totalBytes = outcome.bytes;
      result.opLatency = summarize(outcome.opLatencies);
    }
    Seconds elapsed = outcome.elapsed;
    if (cfg.noiseStdDevFrac > 0.0 && cfg.repetitions > 1) {
      elapsed *= noise.normalAtLeast(1.0, cfg.noiseStdDevFrac, 0.2);
    }
    elapsedStats.add(elapsed);
    result.samples.push_back(static_cast<double>(outcome.bytes) / elapsed);
  }
  result.bandwidth = summarize(result.samples);
  result.meanElapsed = elapsedStats.mean();
  return result;
}

CellResult runIor(const Cell& cell, Tracer* t) {
  CellResult r;
  Prepared p;
  IorConfig cfg;
  StorageKind kind;
  {
    Tracer::Scope s(t, Layer::ConfigParse);
    const EnvSpec spec = parseEnvSpec(cell.spec);
    cfg = configAt<IorConfig>(spec, "ior");
    kind = spec.storage;
    Tracer::Scope e(t, Layer::ClusterEnv);
    p.env = makeEnvironment(spec.site, spec.storage, cfg.nodes);
  }
  decorate(p, kind, t);
  IorResult res;
  {
    Tracer::Scope s(t, Layer::WorkloadRunner);
    if (t) {
      res = runIorTraced(p, cfg, t, r.counters);
    } else {
      IorRunner runner(*p.env.bench, *p.env.fs);
      res = runner.run(cfg);
    }
  }
  collectCounters(p, t, r.counters);
  const bool perOp = cfg.mode == IorConfig::Mode::PerOp;
  r.clientOps = static_cast<double>(res.totalBytes / cfg.transferSize) *
                static_cast<double>(perOp ? cfg.repetitions : 1);
  r.values = {{"bw.mean", res.bandwidth.mean}, {"bw.min", res.bandwidth.min},
              {"bw.max", res.bandwidth.max},   {"bytes", static_cast<double>(res.totalBytes)},
              {"elapsed.mean", res.meanElapsed}};
  if (res.opLatency.count > 0) {
    r.values.insert(r.values.end(), {{"lat.count", static_cast<double>(res.opLatency.count)},
                                     {"lat.p50", res.opLatency.p50},
                                     {"lat.p95", res.opLatency.p95},
                                     {"lat.p99", res.opLatency.p99}});
  }
  ResultTable table(cell.name);
  table.setHeader({"x", "mean GB/s", "min GB/s", "max GB/s"});
  table.addRow({static_cast<double>(perOp ? cfg.procsPerNode : cfg.nodes),
                units::toGBs(res.bandwidth.mean), units::toGBs(res.bandwidth.min),
                units::toGBs(res.bandwidth.max)});
  r.counters.sinkBytes = static_cast<double>(render(t, table));
  return r;
}

/// DlioRunner::run with the DlioSource wrapped in a TracedSource.
DlioResult runDlioTraced(Prepared& p, const DlioConfig& cfg, Tracer* t, Counters& c) {
  cfg.validate();
  if (cfg.nodes > p.env.bench->nodesUsed()) {
    throw std::invalid_argument("dlio cell: config uses more nodes than the TestBench wired");
  }
  DlioResult result;
  result.datasetBytes = cfg.datasetBytes();
  workload::DlioSource source(cfg);
  TracedSource traced(source, t);
  workload::WorkloadRunner runner(*p.env.bench, *p.env.fs);
  runner.setTraceLog(&result.trace);
  const workload::WorkloadOutcome out = runner.run(traced);
  addOutcome(out, c);
  result.trace.sortByStart();
  result.breakdown = analyzeOverlap(result.trace);
  result.throughput = computeThroughput(result.trace);
  result.runtime = out.simElapsed;
  result.bytesRead = result.trace.totalBytes(TraceEventKind::Read);
  result.bytesCheckpointed = result.trace.totalBytes(TraceEventKind::Write);
  result.batchesTrained = source.batchesTrained();
  return result;
}

CellResult runDlioCell(const Cell& cell, Tracer* t) {
  CellResult r;
  Prepared p;
  DlioConfig cfg;
  StorageKind kind;
  {
    Tracer::Scope s(t, Layer::ConfigParse);
    const EnvSpec spec = parseEnvSpec(cell.spec);
    cfg = configAt<DlioConfig>(spec, "dlio");
    kind = spec.storage;
    Tracer::Scope e(t, Layer::ClusterEnv);
    p.env = makeEnvironment(spec.site, spec.storage, cfg.nodes);
  }
  decorate(p, kind, t);
  DlioResult res;
  {
    Tracer::Scope s(t, Layer::WorkloadRunner);
    if (t) {
      res = runDlioTraced(p, cfg, t, r.counters);
    } else {
      DlioRunner runner(*p.env.bench, *p.env.fs);
      res = runner.run(cfg);
    }
  }
  collectCounters(p, t, r.counters);
  r.clientOps = static_cast<double>(res.trace.count(TraceEventKind::Read) +
                                    res.trace.count(TraceEventKind::Write));
  const IoTimeBreakdown& b = res.breakdown;
  r.values = {{"io.nonoverlap", b.nonOverlappingIo},
              {"io.overlap", b.overlappingIo},
              {"io.total", b.totalIo},
              {"compute.total", b.totalCompute},
              {"runtime", res.runtime},
              {"throughput.app", res.throughput.application},
              {"throughput.system", res.throughput.system},
              {"bytes.read", static_cast<double>(res.bytesRead)},
              {"bytes.checkpointed", static_cast<double>(res.bytesCheckpointed)},
              {"batches", static_cast<double>(res.batchesTrained)}};
  ResultTable table(cell.name);
  table.setHeader({"nodes", "non-overlap I/O s", "overlap I/O s", "runtime s", "app GB/s",
                   "system GB/s"});
  table.addRow({static_cast<double>(cfg.nodes), b.nonOverlappingIo, b.overlappingIo, res.runtime,
                units::toGBs(res.throughput.application), units::toGBs(res.throughput.system)});
  r.counters.sinkBytes = static_cast<double>(render(t, table));
  return r;
}

CellResult runMdtest(const Cell& cell, Tracer* t) {
  CellResult r;
  Prepared p;
  MdtestConfig cfg;
  StorageKind kind;
  {
    Tracer::Scope s(t, Layer::ConfigParse);
    const EnvSpec spec = parseEnvSpec(cell.spec);
    cfg = configAt<MdtestConfig>(spec, "mdtest");
    kind = spec.storage;
    Tracer::Scope e(t, Layer::ClusterEnv);
    p.env = makeEnvironment(spec.site, spec.storage, cfg.nodes);
  }
  decorate(p, kind, t);
  MdtestResult res;
  {
    Tracer::Scope s(t, Layer::WorkloadRunner);
    MdtestRunner runner(*p.env.bench, *p.env.fs);
    res = runner.run(cfg);
  }
  collectCounters(p, t, r.counters);
  const double ops = static_cast<double>(cfg.totalItems() * 3 * cfg.repetitions);
  r.clientOps = ops;
  r.counters.opsIssued = r.counters.opsCompleted = ops;
  r.values = {{"create.mean", res.createOpsPerSec.mean}, {"create.min", res.createOpsPerSec.min},
              {"create.max", res.createOpsPerSec.max},   {"stat.mean", res.statOpsPerSec.mean},
              {"stat.min", res.statOpsPerSec.min},       {"stat.max", res.statOpsPerSec.max},
              {"remove.mean", res.removeOpsPerSec.mean}, {"remove.min", res.removeOpsPerSec.min},
              {"remove.max", res.removeOpsPerSec.max}};
  ResultTable table(cell.name);
  table.setHeader({"items", "create ops/s", "stat ops/s", "remove ops/s"});
  table.addRow({static_cast<double>(res.totalItems), res.createOpsPerSec.mean,
                res.statOpsPerSec.mean, res.removeOpsPerSec.mean});
  r.counters.sinkBytes = static_cast<double>(render(t, table));
  return r;
}

struct ParsedWorkload {
  workload::WorkloadRunSpec spec;
  workload::SourceBundle bundle;
};

ParsedWorkload parseWorkloadCell(const Cell& cell) {
  ParsedWorkload w;
  std::vector<std::string> problems;
  workload::parseWorkloadSpec(parseText(cell.spec), w.spec, problems);
  if (problems.empty()) w.bundle = workload::makeSource(w.spec, problems);
  if (!problems.empty()) throw std::invalid_argument(cell.name + ": " + problems.front());
  return w;
}

Environment workloadEnvironment(const workload::WorkloadRunSpec& spec, std::size_t nodes) {
  return makeEnvironment(spec.site, spec.storage, nodes,
                         spec.storageConfig.isNull() ? nullptr : &spec.storageConfig,
                         spec.transport.isNull() ? nullptr : &spec.transport);
}

CellResult runWorkloadCell(const Cell& cell, Tracer* t) {
  CellResult r;
  Prepared p;
  ParsedWorkload w;
  workload::ChaosLandmarks landmarks;
  {
    Tracer::Scope s(t, Layer::ConfigParse);
    w = parseWorkloadCell(cell);
    Tracer::Scope e(t, Layer::ClusterEnv);
    p.env = workloadEnvironment(w.spec, w.bundle.nodes);
  }
  decorate(p, w.spec.storage, t);
  workload::WorkloadOutcome out;
  {
    Tracer::Scope s(t, Layer::WorkloadRunner);
    landmarks = workload::injectWorkloadChaos(w.spec, p.env);
    TracedSource traced(*w.bundle.source, t);
    workload::WorkloadSource& source = t ? static_cast<workload::WorkloadSource&>(traced)
                                         : *w.bundle.source;
    out = workload::runWorkload(p.env, w.spec, source, nullptr, &landmarks);
  }
  collectCounters(p, t, r.counters);
  addOutcome(out, r.counters);
  r.clientOps = static_cast<double>(out.opsCompleted + out.metaOps);
  const Summary lat = summarize(out.opLatencies);
  r.values = {{"elapsed", out.elapsed},
              {"sim.elapsed", out.simElapsed},
              {"bytes", static_cast<double>(out.bytesMoved)},
              {"goodput", out.goodputGBs()},
              {"ops.issued", static_cast<double>(out.opsIssued)},
              {"ops.completed", static_cast<double>(out.opsCompleted)},
              {"ops.failed", static_cast<double>(out.opsFailed)},
              {"ops.meta", static_cast<double>(out.metaOps)},
              {"retries", static_cast<double>(out.retries)},
              {"late", static_cast<double>(out.lateCompletions)},
              {"lat.count", static_cast<double>(lat.count)},
              {"lat.p50", lat.p50},
              {"lat.p95", lat.p95},
              {"lat.p99", lat.p99}};
  for (std::size_t i = 0; i < out.timeline.size(); ++i) {
    r.values.push_back({"slice" + std::to_string(i) + ".gbs", out.timeline[i].gbs});
  }
  {
    Tracer::Scope s(t, Layer::Sink);
    r.counters.sinkBytes =
        static_cast<double>(workload::toJsonl(out).size() + workload::toCsv(out).size());
  }
  return r;
}

CellResult runChaosCell(const Cell& cell, Tracer* t) {
  CellResult r;
  Prepared p;
  chaos::ChaosSpec spec;
  {
    Tracer::Scope s(t, Layer::ConfigParse);
    std::string error;
    if (!chaos::parseChaosSpec(parseText(cell.spec), spec, error)) {
      throw std::invalid_argument(cell.name + ": " + error);
    }
    Tracer::Scope e(t, Layer::ClusterEnv);
    p.env = makeEnvironment(spec.site, spec.storage, spec.workload.nodes,
                            spec.storageConfig.isNull() ? nullptr : &spec.storageConfig,
                            spec.transport.isNull() ? nullptr : &spec.transport);
  }
  decorate(p, spec.storage, t);
  chaos::ChaosOutcome out;
  {
    Tracer::Scope s(t, Layer::WorkloadRunner);
    out = chaos::runChaosOn(p.env, spec);
  }
  collectCounters(p, t, r.counters);
  Counters& c = r.counters;
  const double completed =
      static_cast<double>(out.foregroundBytes) / static_cast<double>(spec.workload.requestBytes);
  c.opsCompleted = completed;
  c.opsIssued = completed + static_cast<double>(out.failedOps);
  c.opsFailed = static_cast<double>(out.failedOps);
  c.retries = static_cast<double>(out.retries);
  c.lateCompletions = static_cast<double>(out.lateCompletions);
  for (const chaos::ChaosEvent& ev : spec.events) {
    if (ev.fault.action != FaultAction::Restore) c.faults += 1;
  }
  c.chaosRetries = static_cast<double>(out.retries);
  c.degradedSec = out.degradedSeconds;
  c.rebuildBytes = static_cast<double>(out.rebuildBytes);
  r.clientOps = completed;
  r.values = {{"healthy", out.healthyGBs},
              {"mean", out.meanGBs},
              {"min", out.minGBs},
              {"max", out.maxGBs},
              {"final", out.finalGBs},
              {"degraded", out.degradedSeconds},
              {"recover", out.timeToRecover},
              {"retries", static_cast<double>(out.retries)},
              {"failed", static_cast<double>(out.failedOps)},
              {"late", static_cast<double>(out.lateCompletions)},
              {"bytes.foreground", static_cast<double>(out.foregroundBytes)},
              {"bytes.rebuild", static_cast<double>(out.rebuildBytes)},
              {"rebuild.done", out.rebuildCompletedAt}};
  for (std::size_t i = 0; i < out.timeline.size(); ++i) {
    r.values.push_back({"slice" + std::to_string(i) + ".gbs", out.timeline[i].gbs});
  }
  {
    Tracer::Scope s(t, Layer::Sink);
    r.counters.sinkBytes = static_cast<double>(chaos::toJsonl(out).size() +
                                               chaos::renderTimeline(out).toString().size());
  }
  return r;
}

CellResult runChecks(Tracer* t) {
  CellResult r;
  {
    Tracer::Scope s(t, Layer::PaperChecks);
    r.checks = runAllChecks();
  }
  for (const calibration::Check& c : r.checks) r.values.push_back({c.name, c.measured});
  return r;
}

}  // namespace

std::vector<Cell> expandWorkload(const JsonValue& doc, const std::string& name, unsigned slot) {
  const JsonValue* grids = doc.find(name);
  if (grids == nullptr || !grids->isArray()) {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  std::vector<Cell> cells;
  for (const JsonValue& g : *grids->array()) {
    const std::string figure = g.stringOr("figure", "");
    const std::string kind = g.stringOr("kind", "");
    if (kind == "ior") {
      expandIor(g, figure, slot, cells);
    } else if (kind == "dlio") {
      expandDlio(g, figure, slot, cells);
    } else if (kind == "mdtest") {
      expandMdtest(g, figure, slot, cells);
    } else if (kind == "workload") {
      expandSpec(g, figure, CellKind::Workload, slot, cells);
    } else if (kind == "chaos") {
      expandSpec(g, figure, CellKind::Chaos, slot, cells);
    } else if (kind == "checks") {
      cells.push_back({figure, CellKind::Checks, "{}"});
    } else {
      throw std::invalid_argument(figure + ": unknown cell kind '" + kind + "'");
    }
  }
  return cells;
}

CellResult runCell(const Cell& cell, Tracer* t) {
  Tracer::Scope root(t, Layer::Bench);
  // A cell that throws destroys its environment before collectCounters
  // unbinds it; never leave the tracer reading a destroyed profiler.
  struct Unbind {
    Tracer* t;
    ~Unbind() {
      if (t) t->unbind();
    }
  } unbind{t};
  switch (cell.kind) {
    case CellKind::Ior: return runIor(cell, t);
    case CellKind::Dlio: return runDlioCell(cell, t);
    case CellKind::Mdtest: return runMdtest(cell, t);
    case CellKind::Workload: return runWorkloadCell(cell, t);
    case CellKind::Chaos: return runChaosCell(cell, t);
    case CellKind::Checks: return runChecks(t);
  }
  throw std::logic_error("runCell: unknown cell kind");
}

void setUpCell(const Cell& cell) {
  switch (cell.kind) {
    case CellKind::Ior: {
      const EnvSpec spec = parseEnvSpec(cell.spec);
      makeEnvironment(spec.site, spec.storage, configAt<IorConfig>(spec, "ior").nodes);
      return;
    }
    case CellKind::Dlio: {
      const EnvSpec spec = parseEnvSpec(cell.spec);
      makeEnvironment(spec.site, spec.storage, configAt<DlioConfig>(spec, "dlio").nodes);
      return;
    }
    case CellKind::Mdtest: {
      const EnvSpec spec = parseEnvSpec(cell.spec);
      makeEnvironment(spec.site, spec.storage, configAt<MdtestConfig>(spec, "mdtest").nodes);
      return;
    }
    case CellKind::Workload: {
      const ParsedWorkload w = parseWorkloadCell(cell);
      workloadEnvironment(w.spec, w.bundle.nodes);
      return;
    }
    case CellKind::Chaos: {
      chaos::ChaosSpec spec;
      std::string error;
      if (!chaos::parseChaosSpec(parseText(cell.spec), spec, error)) {
        throw std::invalid_argument(cell.name + ": " + error);
      }
      Environment env =
          makeEnvironment(spec.site, spec.storage, spec.workload.nodes,
                          spec.storageConfig.isNull() ? nullptr : &spec.storageConfig,
                          spec.transport.isNull() ? nullptr : &spec.transport);
      const auto problems = chaos::validateSchedule(spec, *env.fs, env.bench->topo());
      if (!problems.empty()) throw std::invalid_argument(cell.name + ": " + problems.front());
      return;
    }
    case CellKind::Checks: return;
  }
}

}  // namespace perfbench
