#pragma once
// Benchmark cells: one figure point, drill or storm each. A workload is a
// list of cells expanded from perfbench/workloads.json; every cell keeps
// its spec as JSON text, so each run parses it the way a sweep trial or
// `hcsim run` would.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "tracer.hpp"
#include "util/json.hpp"

namespace perfbench {

/// References are recorded for seed slots 0..kSeedSlots-1; `--seed n`
/// runs slot n % kSeedSlots.
inline constexpr unsigned kSeedSlots = 8;

enum class CellKind { Ior, Dlio, Mdtest, Workload, Chaos, Checks };

struct Cell {
  std::string name;  ///< unique within the workload
  CellKind kind = CellKind::Ior;
  std::string spec;  ///< JSON text the cell parses on every run
};

/// Simulated counts of one cell (none of them is checked against a
/// reference: engine-internal counts may change with a faster engine).
struct Counters {
  double events = 0, schedules = 0, cancels = 0, adjusts = 0, peakPending = 0;
  double rerates = 0;
  double submits = 0, metaSubmits = 0;
  double opsIssued = 0, opsCompleted = 0, opsFailed = 0, retries = 0, lateCompletions = 0;
  double transportOps = 0, transportBytes = 0, sqWaits = 0, doorbells = 0, connSetups = 0,
         throttleSec = 0;
  double faults = 0, chaosRetries = 0, degradedSec = 0, rebuildBytes = 0;
  double cacheHitRatioSum = 0, cacheHitCells = 0;
  double sinkBytes = 0;

  void add(const Counters& o);
};

struct CellResult {
  /// Modelled results, checked against the reference: goodput, elapsed,
  /// bytes, op-latency percentiles, timeline slices, op/retry counts.
  std::vector<std::pair<std::string, double>> values;
  double clientOps = 0;  ///< simulated client I/O or metadata ops completed
  std::vector<hcsim::calibration::Check> checks;  ///< CellKind::Checks only
  Counters counters;
};

/// Expand workload `name` of the workloads document for seed slot `slot`.
/// Throws std::invalid_argument on an unknown workload or a malformed grid.
std::vector<Cell> expandWorkload(const hcsim::JsonValue& doc, const std::string& name,
                                 unsigned slot);

/// Run one cell. With a tracer, the storage model and workload source are
/// wrapped in forwarding decorators and every layer call is spanned; the
/// simulated results are the same either way.
CellResult runCell(const Cell& cell, Tracer* tracer);

/// Parse, validate and build the environment of a cell without running it
/// (the set-up cost a user pays before the first event).
void setUpCell(const Cell& cell);

}  // namespace perfbench
