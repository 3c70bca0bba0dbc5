#pragma once
// Host-time tracing for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around calls into each
// layer's public functions; nothing is hooked inside the program. The
// program's SelfProfiler buckets (dispatch, callback, solve) are read at
// span boundaries so that every host second of a traced pass lands in
// exactly one layer:
//
//  * a span's self time is its duration minus its child spans and minus
//    the max-min solves that ran inside it;
//  * a runner span ("workload.runner") also gives up the engine's dispatch
//    and callback buckets. What the callback bucket holds beyond solves and
//    the benchmark's own spans is flow progress, completion re-timing and
//    model-internal device/queue events: sim.callback_other_s.
//
// A span opened inside an event callback is recognised by the callback
// bucket having closed one scope fewer than the engine has dispatched
// events, which holds because the profiler is enabled before the first
// event of every environment.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/deployments.hpp"
#include "core/experiment.hpp"
#include "fs/file_system_model.hpp"
#include "workload/workload_source.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  Bench,             ///< benchmark bookkeeping: pass and cell roots, result extraction
  ConfigParse,       ///< spec text -> config structs, validation
  ClusterEnv,        ///< makeEnvironment
  WorkloadRunner,    ///< runner entry, minus the engine and the spans below
  WorkloadComplete,  ///< completion callbacks handed to the storage model
  WorkloadSource,    ///< WorkloadSource::load/next/onComplete
  Fs,                ///< FileSystemModel calls (submit, submitMeta, phases, faults)
  Sink,              ///< JSONL/CSV/table rendering
  PaperChecks,       ///< runAllChecks(): builds its environments inside the program
};
inline constexpr std::size_t kLayers = 9;

/// Metric name of a layer's self time.
const char* layerMetric(Layer l);

/// Storage model index used for the per-model fs split.
std::size_t modelIndex(hcsim::StorageKind k);
inline constexpr std::size_t kModels = 5;
const char* modelName(std::size_t index);

class Tracer {
 public:
  Tracer();

  /// Read the profiler and engine of `bench` at span boundaries until
  /// unbind(). Enables the bench's profiler, so call it before the
  /// environment's first event.
  void bind(hcsim::TestBench& bench);
  void unbind();

  /// Spans opened from now on belong to cell `id`.
  void setCell(std::uint32_t id) { cell_ = id; }

  class Scope {
   public:
    /// A null tracer makes the scope a no-op (the untraced run).
    Scope(Tracer* t, Layer layer, int model = -1) : t_(t) {
      if (t_) t_->open(layer, model);
    }
    ~Scope() {
      if (t_) t_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  double selfSeconds(Layer l) const { return self_[static_cast<std::size_t>(l)]; }
  std::uint64_t spans(Layer l) const { return count_[static_cast<std::size_t>(l)]; }
  double modelSeconds(std::size_t model) const { return modelSelf_[model]; }
  double solveSeconds() const { return solve_; }
  double dispatchSeconds() const { return dispatch_; }
  double callbackOtherSeconds() const { return callbackOther_; }
  std::uint64_t solveScopes() const { return solveScopes_; }

  /// Sum of every layer's self time, the engine buckets and the solver.
  double accountedSeconds() const;

  /// Spans recorded (the first kMaxSpans) and spans past that cap.
  std::size_t recordedSpans() const { return records_.size(); }
  std::uint64_t droppedSpans() const { return dropped_; }

  /// Chrome-trace JSON of the recorded spans; `cellNames[i]` names cell i.
  std::string chromeTrace(const std::vector<std::string>& cellNames) const;

  static constexpr std::size_t kMaxSpans = 50000;

 private:
  using Clock = std::chrono::steady_clock;

  struct Frame {
    Layer layer;
    int model;
    std::uint32_t record;
    Clock::time_point start;
    double solve0, dispatch0, callback0;
    std::uint64_t solveCount0;
    double childSeconds = 0.0;
    double childSolve = 0.0;
    double childOutsideCallbacks = 0.0;  ///< runner frames only
    bool inCallback;
  };
  struct Record {
    Layer layer;
    std::int8_t model;
    std::uint32_t cell, parent;
    double startUs, endUs;
  };
  static constexpr std::uint32_t kNone = 0xffffffffu;

  void open(Layer layer, int model);
  void close();
  double bucket(hcsim::probe::SelfProfiler::Bucket b) const;
  bool insideCallback() const;

  Clock::time_point epoch_;
  hcsim::probe::SelfProfiler* prof_ = nullptr;
  const hcsim::Simulator* sim_ = nullptr;
  std::uint32_t cell_ = 0;
  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::uint64_t dropped_ = 0;
  std::array<double, kLayers> self_{};
  std::array<std::uint64_t, kLayers> count_{};
  std::array<double, kModels> modelSelf_{};
  double solve_ = 0.0, dispatch_ = 0.0, callbackOther_ = 0.0;
  std::uint64_t solveScopes_ = 0;
};

/// Forwards every FileSystemModel virtual to the wrapped model, timing
/// the calls and the completion callbacks they are handed.
class TracedFileSystem final : public hcsim::FileSystemModel {
 public:
  TracedFileSystem(std::unique_ptr<hcsim::FileSystemModel> inner, Tracer* tracer, int model)
      : inner_(std::move(inner)), t_(tracer), model_(model) {}

  const std::string& name() const override { return inner_->name(); }
  void beginPhase(const hcsim::PhaseSpec& phase) override;
  void endPhase() override;
  void submit(const hcsim::IoRequest& req, hcsim::IoCallback cb) override;
  void submitMeta(const hcsim::MetaRequest& req, hcsim::IoCallback cb) override;
  hcsim::Bytes totalCapacity() const override { return inner_->totalCapacity(); }
  std::size_t clientParallelism() const override { return inner_->clientParallelism(); }
  hcsim::transport::TransportProfile declaredTransportProfile() const override {
    return inner_->declaredTransportProfile();
  }
  void setTransport(hcsim::transport::TransportFabric* fabric) override;
  bool applyFault(const hcsim::FaultSpec& fault) override;
  std::size_t faultComponentCount(const std::string& component) const override {
    return inner_->faultComponentCount(component);
  }
  hcsim::Route rebuildRoute(const hcsim::FaultSpec& restored) override;
  void exportMetrics(hcsim::telemetry::MetricsRegistry& reg) const override {
    inner_->exportMetrics(reg);
  }

  std::uint64_t submits() const { return submits_; }
  std::uint64_t metaSubmits() const { return metaSubmits_; }

 private:
  hcsim::IoCallback wrap(hcsim::IoCallback cb);

  std::unique_ptr<hcsim::FileSystemModel> inner_;
  Tracer* t_;
  int model_;
  std::uint64_t submits_ = 0;
  std::uint64_t metaSubmits_ = 0;
};

/// Forwards every WorkloadSource virtual to the wrapped source, timing it.
class TracedSource final : public hcsim::workload::WorkloadSource {
 public:
  TracedSource(hcsim::workload::WorkloadSource& inner, Tracer* tracer)
      : inner_(inner), t_(tracer) {}

  const std::string& name() const override { return inner_.name(); }
  hcsim::workload::WorkloadPlan load(const hcsim::workload::WorkloadContext& ctx) override;
  hcsim::workload::NextStatus next(std::size_t rank, hcsim::workload::WorkloadOp& out) override;
  void onComplete(std::size_t rank, const hcsim::workload::WorkloadOp& op,
                  const hcsim::IoResult& result) override;

 private:
  hcsim::workload::WorkloadSource& inner_;
  Tracer* t_;
};

}  // namespace perfbench
