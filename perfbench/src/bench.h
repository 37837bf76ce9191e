// perfbench: shared pieces of the end-to-end benchmark — the workload
// interface, request spans, seeded ordering, percentiles and the checks
// every workload applies to the mappings it gets back.
//
// The benchmark drives the wsflow library from outside, through the same
// public calls a user of the library makes. Spans are recorded only here,
// around those calls; nothing inside the library is instrumented.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/cost/cost_model.h"
#include "src/deploy/mapping.h"
#include "src/exp/config.h"
#include "src/network/server_mask.h"
#include "src/network/topology.h"
#include "src/workflow/probability.h"
#include "src/workflow/workflow.h"

namespace wsflow::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One named figure of a run.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// ---------------------------------------------------------------------------
// Spans

/// One timed call. `parent` indexes the span vector (-1 for a request's
/// root span); every span of one request carries the same `request` id.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span store. Spans are appended while traced slices run and
/// only read (aggregated, written out) after the timed phase ends.
class Tracer {
 public:
  Tracer();

  /// Opens a span and returns its index.
  int32_t Open(const char* name, int32_t parent, uint64_t request);
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one CSV line: request,parent,name,start_ns,end_ns.
  Status WriteCsv(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is null (untraced slices).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent,
             uint64_t request)
      : tracer_(tracer),
        index_(tracer ? tracer->Open(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Durations (seconds) of every span named `name`, and their sum.
std::vector<double> SpanSeconds(const Tracer& tracer, const char* name);
double TotalSeconds(const Tracer& tracer, const char* name);

/// Self time of every layer — a span's duration minus the spans directly
/// under it — divided by the summed duration of the root (request) spans.
/// A span's layer is its name up to the first '.'; returns one
/// "<layer>.share" metric per layer in `layers`.
std::vector<Metric> LayerShares(const Tracer& tracer,
                                const std::vector<std::string>& layers);

// ---------------------------------------------------------------------------
// Statistics and ordering

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// A seeded permutation of 0..n-1 (splitmix64-driven Fisher-Yates).
std::vector<size_t> SeededOrder(size_t n, uint64_t seed);

/// splitmix64 finalizer, for deriving per-item seeds.
uint64_t Mix(uint64_t x);

// ---------------------------------------------------------------------------
// Inputs

/// One drawn (workflow, network) pair plus its serialized XML texts.
struct Instance {
  std::string label;
  Workflow workflow;
  Network network;
  std::optional<ExecutionProfile> profile;
  std::string workflow_xml;
  std::string network_xml;

  const ExecutionProfile* profile_ptr() const {
    return profile ? &*profile : nullptr;
  }
};

/// Draws trial `trial` of the class `cls` ('a', 'b' or 'c') experiment
/// with the given workload family, topology and operation count, through
/// the experiment module's own generators.
Result<Instance> DrawInstance(char cls, WorkloadKind kind,
                              ExperimentTopology topology, size_t operations,
                              uint64_t seed, size_t trial);

// ---------------------------------------------------------------------------
// Output checks

/// Counts checked requests and keeps the first few failure messages.
class Checks {
 public:
  /// Records one request; `problem` empty means it passed.
  void Record(const std::string& problem);
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Empty when `m` is total over `w` and every server is one of `n`'s.
std::string CheckMappingShape(const Mapping& m, const Workflow& w,
                              const Network& n);

/// Empty when no operation of `m` sits on a server `mask` marks down.
std::string CheckAvoidsDown(const Mapping& m, const ServerMask& mask);

/// Round-robin reference: operation i on the i-th alive server mod N_alive.
Mapping RoundRobinMapping(const Workflow& w, const Network& n,
                          const ServerMask& mask);

/// Combined cost of `m` over the round-robin reference, both scored by a
/// fresh CostModel (against `mask`'s survivors when it is non-trivial).
Result<double> CostRatio(const Instance& inst, const Mapping& m,
                         const ServerMask& mask);
Result<double> CostRatio(const Workflow& w, const Network& n,
                         const ExecutionProfile* profile, const Mapping& m,
                         const ServerMask& mask);

// ---------------------------------------------------------------------------
// Workloads

/// Latencies and counts of one timed phase, summed over its slices.
struct Phase {
  std::vector<double> latencies_s;
  double elapsed_s = 0;
  Checks checks;

  double Throughput() const {
    return elapsed_s > 0 ? latencies_s.size() / elapsed_s : 0;
  }
};

/// Figures of the untimed verification pass that are pure functions of the
/// pool and the code: identical in every run.
struct Exact {
  double cost_ratio = 0;
  double completion_rate = 0;
  /// Counts and ratios printed every run and reported in the traced run.
  std::vector<Metric> figures;
};

/// Seed of every workload's input pool. It is fixed, so the exact figures
/// (cost_ratio, completion_rate, counts) repeat across runs; the --seed
/// argument only orders the requests drawn from the pool.
inline constexpr uint64_t kPoolSeed = 2007;

/// The timed phase runs as this many equal slices with a timed set-up after
/// each, so the set-up samples (one more than the slices; setup_s is their
/// median) spread over the run as the timed requests do, and host speed
/// drift reaches both alike. A traced run alternates untraced and traced
/// slices, so trace.overhead compares halves of the same stretch of time.
inline constexpr size_t kSlices = 8;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Loop shape and set-up size, printed with every result.
  virtual std::string Shape() const = 0;
  virtual std::string SetupSize() const = 0;

  /// Requests in one pass of the pool, when the timed phase sends the
  /// pool in one order that repeats across slices; 1 otherwise. Untraced
  /// percentiles are taken over whole passes only.
  virtual size_t PassSize() const = 0;

  /// Program set-up; timed as setup_s. Called before the verification pass
  /// and after every slice of the timed phase. It leaves the phase's
  /// request order and per-layer counts alone.
  virtual Status Setup() = 0;


  /// One full untimed pass over the pool: the reference outputs the timed
  /// phase is checked against, the cross-request checks, and the exact
  /// figures.
  virtual Status Verify(Checks* checks, Exact* exact) = 0;

  /// One closed-loop slice of `seconds`, appended to `phase`; records spans
  /// when `tracer` is set. A slice continues the previous slice's request
  /// order and per-layer counts.
  virtual void RunSlice(double seconds, Tracer* tracer, Phase* phase) = 0;

  /// Per-layer metrics of the traced slices. The caller adds the layer
  /// shares, the trace overhead and the exact figures.
  virtual std::vector<Metric> LayerMetrics(const Tracer& tracer) const = 0;
};

std::unique_ptr<Workload> MakeDeployCold(uint64_t seed);
std::unique_ptr<Workload> MakeDeploySearch(uint64_t seed);
std::unique_ptr<Workload> MakeServeChurn(uint64_t seed);
std::unique_ptr<Workload> MakeSimReplay(uint64_t seed);

}  // namespace wsflow::perfbench

#endif  // PERFBENCH_BENCH_H_
