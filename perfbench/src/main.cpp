// perfbench — one benchmark for hcsim.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--workloads FILE] [--reference DIR] [--trace-out FILE]
//   perfbench --workload W --record [--workloads FILE] [--reference DIR]
//
// A closed loop: one caller runs the workload's cells one after another,
// pass after pass, for S seconds of host time. Every simulated result is
// checked against the reference recorded in DIR before anything is
// reported. The last line of standard output is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end ones (host time, untraced
// passes only); with --trace 1 untraced and traced passes alternate and
// the metrics are the per-layer ones. perfbench/NOTES.md lists them all.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// A cell beyond this relative difference from its reference fails
/// (the golden tolerance of docs/ORACLE.md).
constexpr double kDriftTolerance = 0.02;

/// Percentile reported as trial_tail_ms, fixed per workload so runs stay
/// comparable: the highest one that leaves at least ten cell samples
/// beyond it in a run of the benchmark's length. scale_1m and fault_drills
/// run too few cells for that rule (about 18 and 38) and report p75.
double tailPercentile(const std::string& workload) {
  return workload == "paper_repro" || workload == "metadata_storm" ? 95.0 : 75.0;
}

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

struct Reference {
  std::vector<std::string> keys;
  std::vector<double> values;
};
using References = std::map<std::string, Reference>;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

hcsim::JsonValue readJson(const std::string& path) {
  hcsim::JsonValue v;
  if (!hcsim::parseJson(readFile(path), v)) throw std::runtime_error(path + " is not valid JSON");
  return v;
}

std::string referencePath(const std::string& dir, const std::string& workload) {
  return dir + "/" + workload + ".json";
}

/// The reference file holds, per cell, the value keys and one row of
/// values per seed slot.
References loadReferences(const std::string& path, unsigned slot) {
  const hcsim::JsonValue doc = readJson(path);
  const hcsim::JsonValue* cells = doc.find("cells");
  if (cells == nullptr || !cells->isObject()) throw std::runtime_error(path + ": no 'cells'");
  References refs;
  for (const auto& [name, cell] : *cells->object()) {
    const hcsim::JsonValue* keys = cell.find("keys");
    const hcsim::JsonValue* slots = cell.find("slots");
    if (keys == nullptr || !keys->isArray() || slots == nullptr || !slots->isArray() ||
        slots->array()->size() != kSeedSlots) {
      throw std::runtime_error(path + ": malformed cell '" + name + "'");
    }
    Reference r;
    for (const hcsim::JsonValue& k : *keys->array()) r.keys.push_back(k.str() ? *k.str() : "");
    const hcsim::JsonValue& row = (*slots->array())[slot];
    if (!row.isArray() || row.array()->size() != r.keys.size()) {
      throw std::runtime_error(path + ": malformed row of cell '" + name + "'");
    }
    // null stands for NaN, which JSON cannot spell.
    for (const hcsim::JsonValue& v : *row.array()) {
      r.values.push_back(v.number() ? *v.number() : std::nan(""));
    }
    refs[name] = std::move(r);
  }
  return refs;
}

std::string jsonValueText(double v) { return std::isnan(v) ? "null" : hcsim::jsonNumber(v); }

double relativeDrift(double v, double ref) {
  if (v == ref || (std::isnan(v) && std::isnan(ref))) return 0.0;
  if (std::isnan(v) || std::isnan(ref)) return INFINITY;
  return std::fabs(v - ref) / (ref != 0.0 ? std::fabs(ref) : 1.0);
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

/// Outcome of checking every cell of the run.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double maxDrift = 0.0;
  double paperErrPct = 0.0;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 20) problems.push_back(why);
  }
};

/// Check one cell's results against its reference and, for the §VII
/// cell, against the paper.
void checkCell(const Cell& cell, const CellResult& r, const References& refs, Verdict& v) {
  const auto it = refs.find(cell.name);
  if (it == refs.end()) {
    v.fail(cell.name + ": no reference recorded");
    return;
  }
  const Reference& ref = it->second;
  if (ref.keys.size() != r.values.size()) {
    v.fail(cell.name + ": " + std::to_string(r.values.size()) + " results, reference has " +
           std::to_string(ref.keys.size()));
    return;
  }
  double worst = 0.0;
  std::string worstKey;
  for (std::size_t i = 0; i < ref.keys.size(); ++i) {
    if (ref.keys[i] != r.values[i].first) {
      v.fail(cell.name + ": result '" + r.values[i].first + "' where the reference has '" +
             ref.keys[i] + "'");
      return;
    }
    const double d = relativeDrift(r.values[i].second, ref.values[i]);
    if (d > worst) {
      worst = d;
      worstKey = ref.keys[i];
    }
  }
  v.maxDrift = std::max(v.maxDrift, worst);
  bool failed = false;
  std::string why;
  if (worst > kDriftTolerance) {
    failed = true;
    why = cell.name + ": '" + worstKey + "' drifted " + std::to_string(worst * 100.0) + " %";
  }
  if (!r.checks.empty()) {
    double logSum = 0.0;
    for (const hcsim::calibration::Check& c : r.checks) {
      logSum += std::fabs(std::log(c.ratio()));
      if (!c.pass() && !failed) {
        failed = true;
        why = cell.name + ": paper check '" + c.name + "' out of its band";
      }
    }
    v.paperErrPct = 100.0 * (std::exp(logSum / static_cast<double>(r.checks.size())) - 1.0);
  }
  if (failed) v.fail(why);
}

struct PassResult {
  double wall = 0.0;
  double clientOps = 0.0;
  std::vector<double> cellSeconds;
  std::vector<CellResult> results;  ///< empty result where the cell threw
  std::vector<bool> threw;
  Counters counters;
};

PassResult runPass(const std::vector<Cell>& cells, Tracer* tracer, Verdict& v) {
  PassResult p;
  const auto start = Clock::now();
  {
    Tracer::Scope root(tracer, Layer::Bench);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (tracer) tracer->setCell(static_cast<std::uint32_t>(i));
      const auto c0 = Clock::now();
      try {
        p.results.push_back(runCell(cells[i], tracer));
        p.threw.push_back(false);
      } catch (const std::exception& ex) {
        p.results.emplace_back();
        p.threw.push_back(true);
        v.fail(cells[i].name + ": threw: " + ex.what());
      }
      p.cellSeconds.push_back(seconds(c0, Clock::now()));
    }
  }
  p.wall = seconds(start, Clock::now());
  for (const CellResult& r : p.results) {
    p.clientOps += r.clientOps;
    p.counters.add(r.counters);
  }
  v.attempted += cells.size();
  return p;
}

void checkPass(const std::vector<Cell>& cells, const PassResult& p, const References& refs,
               Verdict& v) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!p.threw[i]) checkCell(cells[i], p.results[i], refs, v);
  }
}

/// Time rounds of setting every cell up (parse, validation,
/// makeEnvironment) for about 50 ms, at least 3 rounds. Called after each
/// pass, so set-up is timed on the same warm host as the passes.
void timeSetUp(const std::vector<Cell>& cells, std::vector<double>& rounds) {
  const auto start = Clock::now();
  for (int n = 0; n < 3 || (seconds(start, Clock::now()) < 0.05 && n < 500); ++n) {
    const auto r0 = Clock::now();
    for (const Cell& c : cells) setUpCell(c);
    rounds.push_back(seconds(r0, Clock::now()));
  }
}

/// Whether to start another pass: the first always runs, later ones while
/// the run would end nearer the budget with it than without it.
bool anotherPass(Clock::time_point start, double budget, std::size_t done, double lastPass) {
  return done == 0 || seconds(start, Clock::now()) + 0.5 * lastPass < budget;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(const Verdict& v, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (v.failed == 0 && v.problems.empty() ? "true" : "false")
     << ", \"attempted\": " << v.attempted << ", \"failed\": " << v.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << hcsim::jsonNumber(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void reportProblems(const Verdict& v) {
  for (const std::string& p : v.problems) std::cerr << "perfbench: FAIL " << p << "\n";
}

int runUntraced(const std::string& workload, const std::vector<Cell>& cells,
                const References& refs, double budget) {
  Verdict v;
  std::vector<double> walls, cellTimes, setupRounds;
  double ops = 0.0;
  const auto start = Clock::now();
  double last = 0.0;
  while (anotherPass(start, budget, walls.size(), last)) {
    const auto p0 = Clock::now();
    const PassResult p = runPass(cells, nullptr, v);
    checkPass(cells, p, refs, v);
    timeSetUp(cells, setupRounds);
    last = seconds(p0, Clock::now());
    walls.push_back(p.wall);
    cellTimes.insert(cellTimes.end(), p.cellSeconds.begin(), p.cellSeconds.end());
    ops = p.clientOps;
  }
  const double wall = median(walls);
  const double tail = tailPercentile(workload);
  std::cerr << "perfbench: " << workload << ": " << walls.size() << " passes of " << cells.size()
            << " cells, " << cellTimes.size() << " cell samples; trial_tail_ms is p" << tail
            << "; sim_drift_pct " << v.maxDrift * 100.0 << "; failed_frac "
            << static_cast<double>(v.failed) / static_cast<double>(v.attempted)
            << (workload == "paper_repro" ? "; paper_err_pct " + std::to_string(v.paperErrPct)
                                          : std::string())
            << "\nperfbench: pass seconds";
  for (double w : walls) std::cerr << " " << w;
  std::cerr << "\n";
  reportProblems(v);
  printResult(v, {{"wall_s", wall, "s"},
                  {"ops_per_s", ops / wall, "ops/s"},
                  {"trial_p50_ms", median(cellTimes) * 1e3, "ms"},
                  {"trial_tail_ms", percentile(cellTimes, tail) * 1e3, "ms"},
                  {"setup_s", median(setupRounds), "s"},
                  {"peak_rss_mb", peakRssMb(), "MB"}});
  return 0;
}

/// The facts each workload was chosen for; a later edit that stops
/// exercising a layer fails loudly here.
void checkPurpose(const std::string& workload, const Tracer& t, const Counters& c, Verdict& v) {
  if (workload == "scale_1m") {
    const double solve = t.solveSeconds();
    double largest = std::max(t.dispatchSeconds(), t.callbackOtherSeconds());
    for (std::size_t l = 0; l < kLayers; ++l) {
      largest = std::max(largest, t.selfSeconds(static_cast<Layer>(l)));
    }
    if (solve < largest) v.problems.push_back("scale_1m: net.solve_s is not the largest layer");
  }
  if (workload == "metadata_storm" && t.solveScopes() != 0) {
    v.problems.push_back("metadata_storm: the max-min solver ran");
  }
  if ((c.transportOps > 0) != (workload == "fault_drills")) {
    v.problems.push_back(workload + ": transport.ops > 0 must hold on fault_drills only");
  }
}

int runTraced(const std::string& workload, const std::vector<Cell>& cells,
              const References& refs, double budget, const std::string& traceOut) {
  Verdict v;
  Tracer tracer;
  std::vector<double> plainWalls, tracedWalls;
  Counters counters;
  const auto start = Clock::now();
  while (anotherPass(start, budget, tracedWalls.size(),
                     tracedWalls.empty() ? 0.0 : plainWalls.back() + tracedWalls.back())) {
    const PassResult plain = runPass(cells, nullptr, v);
    checkPass(cells, plain, refs, v);
    const PassResult traced = runPass(cells, &tracer, v);
    checkPass(cells, traced, refs, v);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!plain.threw[i] && !traced.threw[i] && !sameBits(plain.results[i], traced.results[i])) {
        v.fail(cells[i].name + ": traced results differ from the untraced run");
      }
    }
    plainWalls.push_back(plain.wall);
    tracedWalls.push_back(traced.wall);
    counters = traced.counters;
  }
  const double passes = static_cast<double>(tracedWalls.size());
  double tracedWall = 0.0;
  for (double w : tracedWalls) tracedWall += w;
  // Self times must add up to the traced wall time, or a span was missed.
  const double accounted = tracer.accountedSeconds();
  if (std::fabs(accounted - tracedWall) > 0.01 * tracedWall) {
    v.problems.push_back("layer self times add up to " + std::to_string(accounted) +
                         " s of " + std::to_string(tracedWall) + " s traced");
  }
  checkPurpose(workload, tracer, counters, v);
  if (!traceOut.empty()) {
    std::vector<std::string> names;
    for (const Cell& c : cells) names.push_back(c.name);
    std::ofstream out(traceOut, std::ios::binary | std::ios::trunc);
    out << tracer.chromeTrace(names);
    if (!out) v.problems.push_back("cannot write " + traceOut);
  }
  std::cerr << "perfbench: " << workload << ": " << tracedWalls.size()
            << " traced passes; spans recorded " << tracer.recordedSpans() << ", dropped "
            << tracer.droppedSpans() << "\n";
  reportProblems(v);

  const auto perPass = [&](double total) { return total / passes; };
  const double solveScopes = static_cast<double>(tracer.solveScopes()) / passes;
  const double fsSeconds = perPass(tracer.selfSeconds(Layer::Fs));
  const double submits = counters.submits + counters.metaSubmits;
  std::vector<Metric> m = {
      {"trace.wall_s", perPass(tracedWall), "host_s"},
      {"trace.overhead_pct", 100.0 * (median(tracedWalls) / median(plainWalls) - 1.0), "%"},
      {"net.solve_s", perPass(tracer.solveSeconds()), "host_s"},
      {"net.solves", solveScopes, "count"},
      {"net.solve_us", solveScopes > 0 ? perPass(tracer.solveSeconds()) / solveScopes * 1e6 : 0.0,
       "host_us"},
      {"net.rerates", counters.rerates, "count"},
      {"sim.dispatch_s", perPass(tracer.dispatchSeconds()), "host_s"},
      {"sim.callback_other_s", perPass(tracer.callbackOtherSeconds()), "host_s"},
      {"sim.events", counters.events, "count"},
      {"sim.schedules", counters.schedules, "count"},
      {"sim.cancels", counters.cancels, "count"},
      {"sim.adjusts", counters.adjusts, "count"},
      {"sim.peak_pending", counters.peakPending, "count"},
      {"fs.submit_s", fsSeconds, "host_s"},
      {"fs.submits", counters.submits, "count"},
      {"fs.meta_submits", counters.metaSubmits, "count"},
      {"fs.submit_us", submits > 0 ? fsSeconds / submits * 1e6 : 0.0, "host_us"},
  };
  for (std::size_t i = 0; i < kModels; ++i) {
    m.push_back({std::string("fs.") + modelName(i) + ".submit_s",
                 perPass(tracer.modelSeconds(i)), "host_s"});
  }
  m.insert(m.end(), {
      {"fs.cache_hit_ratio",
       counters.cacheHitCells > 0 ? counters.cacheHitRatioSum / counters.cacheHitCells : 0.0,
       "ratio"},
      {"workload.runner_s", perPass(tracer.selfSeconds(Layer::WorkloadRunner)), "host_s"},
      {"workload.complete_s", perPass(tracer.selfSeconds(Layer::WorkloadComplete)), "host_s"},
      {"workload.source_s", perPass(tracer.selfSeconds(Layer::WorkloadSource)), "host_s"},
      {"workload.ops_issued", counters.opsIssued, "count"},
      {"workload.ops_completed", counters.opsCompleted, "count"},
      {"workload.ops_failed", counters.opsFailed, "count"},
      {"workload.retries", counters.retries, "count"},
      {"workload.late_completions", counters.lateCompletions, "count"},
      {"transport.ops", counters.transportOps, "count"},
      {"transport.bytes", counters.transportBytes, "B"},
      {"transport.sq_waits", counters.sqWaits, "count"},
      {"transport.doorbells", counters.doorbells, "count"},
      {"transport.conn_setups", counters.connSetups, "count"},
      {"transport.throttle_s", counters.throttleSec, "sim_s"},
      {"chaos.faults", counters.faults, "count"},
      {"chaos.retries", counters.chaosRetries, "count"},
      {"chaos.degraded_s", counters.degradedSec, "sim_s"},
      {"chaos.rebuild_bytes", counters.rebuildBytes, "B"},
      {"config.parse_s", perPass(tracer.selfSeconds(Layer::ConfigParse)), "host_s"},
      {"cluster.env_s", perPass(tracer.selfSeconds(Layer::ClusterEnv)), "host_s"},
      {"sink.render_s", perPass(tracer.selfSeconds(Layer::Sink)), "host_s"},
      {"sink.bytes", counters.sinkBytes, "B"},
      {"paper.checks_s", perPass(tracer.selfSeconds(Layer::PaperChecks)), "host_s"},
      {"bench.self_s", perPass(tracer.selfSeconds(Layer::Bench)), "host_s"},
      {"check.sim_drift_pct", v.maxDrift * 100.0, "%"},
      {"check.failed_frac",
       v.attempted ? static_cast<double>(v.failed) / static_cast<double>(v.attempted) : 0.0,
       "ratio"},
      {"check.paper_err_pct", v.paperErrPct, "%"},
  });
  printResult(v, m);
  return 0;
}

/// Run every cell once per seed slot and write the reference file.
int record(const hcsim::JsonValue& doc, const std::string& workload, const std::string& path) {
  std::map<std::string, std::vector<std::string>> keys;
  std::map<std::string, std::vector<std::vector<double>>> rows;
  std::vector<std::string> order;
  for (unsigned slot = 0; slot < kSeedSlots; ++slot) {
    for (const Cell& cell : expandWorkload(doc, workload, slot)) {
      const CellResult r = runCell(cell, nullptr);
      std::vector<std::string> k;
      std::vector<double> vals;
      for (const auto& [key, value] : r.values) {
        k.push_back(key);
        vals.push_back(value);
      }
      if (slot == 0) {
        order.push_back(cell.name);
        keys[cell.name] = k;
      } else if (keys[cell.name] != k) {
        throw std::runtime_error(cell.name + ": result keys differ between seed slots");
      }
      rows[cell.name].push_back(std::move(vals));
    }
    std::cerr << "perfbench: recorded " << workload << " seed slot " << slot << "\n";
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"workload\": \"" << workload << "\", \"slots\": " << kSeedSlots << ", \"cells\": {";
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::string& name = order[i];
    out << (i ? "," : "") << "\n\"" << hcsim::jsonEscape(name) << "\": {\"keys\": [";
    for (std::size_t k = 0; k < keys[name].size(); ++k) {
      out << (k ? ", " : "") << "\"" << hcsim::jsonEscape(keys[name][k]) << "\"";
    }
    out << "], \"slots\": [";
    for (std::size_t s = 0; s < rows[name].size(); ++s) {
      out << (s ? ",\n  [" : "\n  [");
      for (std::size_t k = 0; k < rows[name][s].size(); ++k) {
        out << (k ? ", " : "") << jsonValueText(rows[name][s][k]);
      }
      out << "]";
    }
    out << "]}";
  }
  out << "\n}}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
  std::cerr << "perfbench: wrote " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--record") {
      args[key] = "1";
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      std::cerr << "perfbench: unexpected argument '" << key << "'\n";
      return 2;
    }
  }
  const auto arg = [&](const std::string& k, const std::string& fallback) {
    const auto it = args.find(k);
    return it == args.end() ? fallback : it->second;
  };
  try {
    const std::string workload = arg("--workload", "");
    const hcsim::JsonValue doc = readJson(arg("--workloads", "perfbench/workloads.json"));
    const std::string refPath = referencePath(arg("--reference", "perfbench/reference"), workload);
    if (args.count("--record")) return record(doc, workload, refPath);

    const unsigned long long seed = std::stoull(arg("--seed", "0"));
    const double budget = std::stod(arg("--seconds", "10"));
    const std::string trace = arg("--trace", "0");
    if (budget <= 0.0 || (trace != "0" && trace != "1")) {
      std::cerr << "perfbench: --seconds must be > 0 and --trace 0 or 1\n";
      return 2;
    }
    const auto slot = static_cast<unsigned>(seed % kSeedSlots);
    const std::vector<Cell> cells = expandWorkload(doc, workload, slot);
    const References refs = loadReferences(refPath, slot);
    return trace == "1" ? runTraced(workload, cells, refs, budget, arg("--trace-out", ""))
                        : runUntraced(workload, cells, refs, budget);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << ex.what() << "\n";
    return 2;
  }
}
