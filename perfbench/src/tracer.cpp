#include "tracer.hpp"

#include <sstream>

#include "util/json.hpp"

namespace perfbench {

using hcsim::probe::SelfProfiler;

const char* layerMetric(Layer l) {
  switch (l) {
    case Layer::Bench: return "bench.self_s";
    case Layer::ConfigParse: return "config.parse_s";
    case Layer::ClusterEnv: return "cluster.env_s";
    case Layer::WorkloadRunner: return "workload.runner_s";
    case Layer::WorkloadComplete: return "workload.complete_s";
    case Layer::WorkloadSource: return "workload.source_s";
    case Layer::Fs: return "fs.submit_s";
    case Layer::Sink: return "sink.render_s";
    case Layer::PaperChecks: return "paper.checks_s";
  }
  return "?";
}

std::size_t modelIndex(hcsim::StorageKind k) {
  switch (k) {
    case hcsim::StorageKind::Vast: return 0;
    case hcsim::StorageKind::Gpfs: return 1;
    case hcsim::StorageKind::Lustre: return 2;
    case hcsim::StorageKind::NvmeLocal: return 3;
    case hcsim::StorageKind::Daos: return 4;
  }
  return 0;
}

const char* modelName(std::size_t index) {
  static const char* const names[kModels] = {"vast", "gpfs", "lustre", "nvme", "daos"};
  return index < kModels ? names[index] : "?";
}

Tracer::Tracer() : epoch_(Clock::now()) { records_.reserve(4096); }

void Tracer::bind(hcsim::TestBench& bench) {
  prof_ = &bench.profiler();
  sim_ = &bench.sim();
  prof_->setEnabled(true);
}

void Tracer::unbind() {
  prof_ = nullptr;
  sim_ = nullptr;
}

double Tracer::bucket(SelfProfiler::Bucket b) const { return prof_ ? prof_->seconds(b) : 0.0; }

bool Tracer::insideCallback() const {
  return prof_ && sim_ && prof_->count(SelfProfiler::Bucket::Callback) < sim_->eventsDispatched();
}

void Tracer::open(Layer layer, int model) {
  std::uint32_t record = kNone;
  if (records_.size() < kMaxSpans) {
    record = static_cast<std::uint32_t>(records_.size());
    const std::uint32_t parent = stack_.empty() ? kNone : stack_.back().record;
    records_.push_back({layer, static_cast<std::int8_t>(model), cell_, parent, 0.0, 0.0});
  } else {
    ++dropped_;
  }
  Frame f{layer,
          model,
          record,
          Clock::time_point{},
          bucket(SelfProfiler::Bucket::Solve),
          bucket(SelfProfiler::Bucket::Dispatch),
          bucket(SelfProfiler::Bucket::Callback),
          prof_ ? prof_->count(SelfProfiler::Bucket::Solve) : 0,
          0.0,
          0.0,
          0.0,
          insideCallback()};
  f.start = Clock::now();
  stack_.push_back(f);
}

void Tracer::close() {
  const auto end = Clock::now();
  Frame f = stack_.back();
  stack_.pop_back();
  const double dur = std::chrono::duration<double>(end - f.start).count();
  const double solveIn = bucket(SelfProfiler::Bucket::Solve) - f.solve0;
  double self = 0.0;
  if (f.layer == Layer::WorkloadRunner) {
    // Events only run inside a runner span. Its direct children either ran
    // inside an event callback (and are part of the callback bucket) or
    // before/after the event loop; solves outside any child span ran in
    // callbacks (flow arrivals and completions re-solve from events).
    const double dispatch = bucket(SelfProfiler::Bucket::Dispatch) - f.dispatch0;
    const double callback = bucket(SelfProfiler::Bucket::Callback) - f.callback0;
    const double freeSolve = solveIn - f.childSolve;
    self = dur - dispatch - callback - f.childOutsideCallbacks;
    callbackOther_ += callback - (f.childSeconds - f.childOutsideCallbacks) - freeSolve;
    dispatch_ += dispatch;
    solve_ += solveIn;
    if (prof_) solveScopes_ += prof_->count(SelfProfiler::Bucket::Solve) - f.solveCount0;
  } else {
    self = dur - f.childSeconds - (solveIn - f.childSolve);
  }
  const auto li = static_cast<std::size_t>(f.layer);
  self_[li] += self;
  ++count_[li];
  if (f.layer == Layer::Fs && f.model >= 0) modelSelf_[static_cast<std::size_t>(f.model)] += self;
  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.childSeconds += dur;
    // Solves are read from the bound profiler, which only runner spans and
    // their descendants see; a runner span settles its own.
    if (f.layer != Layer::WorkloadRunner) parent.childSolve += solveIn;
    if (parent.layer == Layer::WorkloadRunner && !f.inCallback) parent.childOutsideCallbacks += dur;
  }
  if (f.record != kNone) {
    Record& r = records_[f.record];
    r.startUs = std::chrono::duration<double, std::micro>(f.start - epoch_).count();
    r.endUs = std::chrono::duration<double, std::micro>(end - epoch_).count();
  }
}

double Tracer::accountedSeconds() const {
  double sum = solve_ + dispatch_ + callbackOther_;
  for (double s : self_) sum += s;
  return sum;
}

std::string Tracer::chromeTrace(const std::vector<std::string>& cellNames) const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::string name = layerMetric(r.layer);
    name.resize(name.size() - 2);  // drop the "_s" metric suffix
    if (r.layer == Layer::Fs && r.model >= 0) {
      name += std::string(".") + modelName(static_cast<std::size_t>(r.model));
    }
    const std::string& cell = r.cell < cellNames.size() ? cellNames[r.cell] : std::string();
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << hcsim::jsonEscape(name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << hcsim::jsonNumber(r.startUs)
       << ",\"dur\":" << hcsim::jsonNumber(r.endUs - r.startUs) << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << (r.parent == kNone ? std::string("null") : std::to_string(r.parent))
       << ",\"cell\":" << r.cell << ",\"cellName\":\"" << hcsim::jsonEscape(cell) << "\"}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"droppedSpans\":" << dropped_ << "}\n";
  return os.str();
}

hcsim::IoCallback TracedFileSystem::wrap(hcsim::IoCallback cb) {
  return [t = t_, cb = std::move(cb)](const hcsim::IoResult& r) {
    Tracer::Scope s(t, Layer::WorkloadComplete);
    cb(r);
  };
}

void TracedFileSystem::beginPhase(const hcsim::PhaseSpec& phase) {
  Tracer::Scope s(t_, Layer::Fs, model_);
  inner_->beginPhase(phase);
}

void TracedFileSystem::endPhase() {
  Tracer::Scope s(t_, Layer::Fs, model_);
  inner_->endPhase();
}

void TracedFileSystem::submit(const hcsim::IoRequest& req, hcsim::IoCallback cb) {
  ++submits_;
  Tracer::Scope s(t_, Layer::Fs, model_);
  inner_->submit(req, wrap(std::move(cb)));
}

void TracedFileSystem::submitMeta(const hcsim::MetaRequest& req, hcsim::IoCallback cb) {
  ++metaSubmits_;
  Tracer::Scope s(t_, Layer::Fs, model_);
  inner_->submitMeta(req, wrap(std::move(cb)));
}

void TracedFileSystem::setTransport(hcsim::transport::TransportFabric* fabric) {
  inner_->setTransport(fabric);
}

bool TracedFileSystem::applyFault(const hcsim::FaultSpec& fault) {
  Tracer::Scope s(t_, Layer::Fs, model_);
  return inner_->applyFault(fault);
}

hcsim::Route TracedFileSystem::rebuildRoute(const hcsim::FaultSpec& restored) {
  Tracer::Scope s(t_, Layer::Fs, model_);
  return inner_->rebuildRoute(restored);
}

hcsim::workload::WorkloadPlan TracedSource::load(const hcsim::workload::WorkloadContext& ctx) {
  Tracer::Scope s(t_, Layer::WorkloadSource);
  return inner_.load(ctx);
}

hcsim::workload::NextStatus TracedSource::next(std::size_t rank,
                                               hcsim::workload::WorkloadOp& out) {
  Tracer::Scope s(t_, Layer::WorkloadSource);
  return inner_.next(rank, out);
}

void TracedSource::onComplete(std::size_t rank, const hcsim::workload::WorkloadOp& op,
                              const hcsim::IoResult& result) {
  Tracer::Scope s(t_, Layer::WorkloadSource);
  inner_.onComplete(rank, op, result);
}

}  // namespace perfbench
