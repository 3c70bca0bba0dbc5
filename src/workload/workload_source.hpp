#pragma once
// WorkloadSource — the CODES-style workload-method interface (ROADMAP
// item 3): one pull API between workload generators and the generic
// WorkloadRunner, so a new generator multiplies scenario diversity
// without touching any storage model or runner mechanics.
//
// A source is a deterministic per-rank op-stream state machine:
//
//  * `load(ctx)` is called once before the run and returns the plan —
//    how many ranks exist, the FileSystemModel phase declaration, and
//    how the runner should drive the stream (closed chains vs open-loop
//    arrivals).
//  * `next(rank, out)` yields the rank's next typed op (read/write as a
//    full IoRequest, open/sync as a MetaRequest, compute-delay,
//    barrier), `Wait` when the rank is blocked on in-flight completions
//    (pipelines, chains), or `End` when the rank is finished.
//  * `onComplete(rank, op, result)` feeds completions back so stateful
//    sources (IOR stonewalling, the DLIO prefetch pipeline) can advance.
//
// The runner calls `next` again after every completion event of the
// rank, so anything expressible as "issue some ops, wait, issue more"
// fits — including the DLIO bounded-prefetch pipeline, whose pump/
// train/checkpoint logic lives entirely in DlioSource.

#include <cstdint>
#include <string>

#include "fs/file_system_model.hpp"
#include "util/units.hpp"

namespace hcsim::workload {

enum class OpKind {
  Io,       ///< read/write: `io` is submitted to the model
  Meta,     ///< open/sync: `meta` goes through submitMeta
  Compute,  ///< pure delay of `compute` seconds on the rank
  Barrier,  ///< park the rank until every live rank reaches a barrier
};

/// One typed operation pulled from a source.
struct WorkloadOp {
  OpKind kind = OpKind::Io;
  IoRequest io{};        ///< kind == Io (client, fileId, offset, size, pattern)
  MetaRequest meta{};    ///< kind == Meta
  Seconds compute = 0.0; ///< kind == Compute
  /// Open-loop mode only: issue this op `arrivalDelay` seconds after the
  /// rank's previous arrival, regardless of completions (Poisson clients).
  Seconds arrivalDelay = 0.0;
  /// Barrier only: when true, the runner switches the model to `phase`
  /// (endPhase + beginPhase) while every rank is parked — how io500
  /// moves from its write phases to its read phases.
  bool switchPhase = false;
  PhaseSpec phase{};
  /// Opaque token echoed back through onComplete (sources use it to
  /// identify which batch/sample/attempt finished).
  std::uint64_t token = 0;
  /// Tracing: when `traced`, the runner records the op into its TraceLog
  /// under `label` with these pid/tid coordinates (Io ops derive their
  /// event kind from io.pattern; Compute records a compute span).
  bool traced = false;
  std::string label;
  std::uint32_t tracePid = 0;
  std::uint32_t traceTid = 0;
};

enum class NextStatus {
  Op,    ///< `out` holds the next op to issue
  Wait,  ///< nothing now; ask again after a completion on this rank
  End,   ///< the rank's stream is exhausted
};

/// How the runner drives the op streams.
enum class DriveMode {
  Closed,  ///< completion-driven: next() after each completion (chains, pipelines)
  Open,    ///< arrival-driven: ops issue at arrivalDelay spacing, never waiting
};

/// What load() hands the source (the model is attached so sources can
/// size channel slots off clientParallelism, as IOR coalescing does;
/// the simulator so stonewall-style sources can pin the phase start).
struct WorkloadContext {
  FileSystemModel* fs = nullptr;
  Simulator* sim = nullptr;
};

struct WorkloadPlan {
  std::size_t ranks = 0;        ///< independent op streams (flow classes)
  DriveMode mode = DriveMode::Closed;
  PhaseSpec phase{};            ///< initial beginPhase declaration
  /// Flow-class aggregation (hcsim::scale): every Io op the runner
  /// issues carries `clientsPerRank` members — each rank stands for
  /// this many statistically identical clients issuing in lockstep.
  /// Aggregate counters (opsIssued/Completed/Failed, bytesMoved) count
  /// members; retries and op latencies are billed once per class.
  /// 1 = the legacy per-client streams, byte-identically.
  std::uint32_t clientsPerRank = 1;
  bool collectOpLatency = false;
  /// Open mode: goodput timeline sampling (0 disables) over the horizon.
  Seconds sampleIntervalSec = 0.0;
  Seconds horizonSec = 0.0;
};

/// Finest goodput timeline slice a spec or setSampleInterval may ask for.
/// Each slice is one sampler event, so a vanishing interval (1e-300 s)
/// would spin the sampler without end.
inline constexpr Seconds kMinSampleIntervalSec = 1e-3;

class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  /// Generator name ("ior", "grammar", ...) for reports and telemetry.
  virtual const std::string& name() const = 0;

  /// Called once, before beginPhase. May allocate per-rank state.
  virtual WorkloadPlan load(const WorkloadContext& ctx) = 0;

  /// Pull the rank's next op (see NextStatus).
  virtual NextStatus next(std::size_t rank, WorkloadOp& out) = 0;

  /// Completion feedback; `op` is the op as issued. Default: stateless.
  virtual void onComplete(std::size_t rank, const WorkloadOp& op, const IoResult& result) {
    (void)rank;
    (void)op;
    (void)result;
  }
};

}  // namespace hcsim::workload
