// perfbench: sim_replay — one client replaying fault-injected and
// streamed executions of deployed Class C workflows through the simulator.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/deploy/algorithm.h"
#include "src/sim/fault_sim.h"
#include "src/sim/faults.h"
#include "src/sim/simulator.h"
#include "src/sim/stream.h"

namespace wsflow::perfbench {
namespace {

/// Work per call, in expected simulated events (operation executions plus
/// messages of one workflow execution, weighted by execution probability).
/// Each instance's run or stream-instance count is this budget divided by
/// its own events per execution, so every call of a kind does about the
/// same work whatever the instance. The repair hook costs a RepairMapping
/// per crash per run, so its calls carry far fewer runs. With these sizes
/// fault replay (both kinds) takes about 0.4 of the timed phase and streams
/// 0.6, and a stream call about three fault-replay calls: the fault-replay
/// calls, two thirds of the requests, hold p50 and the streams hold p95.
constexpr double kFaultCallEvents = 12000;
constexpr double kRepairCallEvents = 300;
constexpr double kStreamCallEvents = 36000;
/// Offered stream load as a share of the bottleneck server's capacity.
constexpr double kStreamLoad = 0.6;

enum class Call { kFault, kRepair, kStream };

const char* SpanName(Call call) {
  switch (call) {
    case Call::kFault:
      return "sim.fault";
    case Call::kRepair:
      return "sim.repair";
    case Call::kStream:
      return "sim.stream";
  }
  return "sim.other";
}

struct Deployed {
  Mapping mapping;
  double t_execute = 0;
  double arrival_rate = 0;
  FaultSchedule schedule;
};

/// Expected simulated events of one execution of the instance.
double EventsPerExecution(const Instance& inst) {
  CostModel model(inst.workflow, inst.network, inst.profile_ptr());
  double events = 0;
  for (uint32_t op = 0; op < inst.workflow.num_operations(); ++op) {
    events += model.OperationProb(OperationId(op));
  }
  for (uint32_t t = 0; t < inst.workflow.num_transitions(); ++t) {
    events += model.TransitionProb(TransitionId(t));
  }
  return events;
}

size_t CallSize(double budget, double events) {
  return std::max<size_t>(1, static_cast<size_t>(std::lround(budget / events)));
}

/// What a timed call must reproduce exactly.
struct Outcome {
  Status status;
  FaultSimResult fault;
  StreamResult stream;
};

class SimReplay : public Workload {
 public:
  explicit SimReplay(uint64_t seed) {
    // Nine instances, so a pass holds 27 calls: p50 then sits mid-way
    // through the 14th-slowest call's samples and p95 inside the 26th's,
    // never on the boundary between two calls' samples.
    const WorkloadKind kinds[] = {WorkloadKind::kLine,
                                  WorkloadKind::kHybridGraph,
                                  WorkloadKind::kBushyGraph};
    const ExperimentTopology topologies[] = {
        ExperimentTopology::kBus, ExperimentTopology::kFatTree,
        ExperimentTopology::kHierarchical};
    for (WorkloadKind kind : kinds) {
      for (ExperimentTopology topology : topologies) {
        Result<Instance> inst = DrawInstance('c', kind, topology, 32,
                                             kPoolSeed, instances_.size());
        if (!inst.ok()) {
          std::fprintf(stderr, "input generation failed: %s\n",
                       inst.status().ToString().c_str());
          std::exit(2);
        }
        instances_.push_back(std::move(*inst));
      }
    }
    for (size_t i = 0; i < instances_.size(); ++i) {
      const double events = EventsPerExecution(instances_[i]);
      pool_.push_back({i, Call::kFault, CallSize(kFaultCallEvents, events)});
      pool_.push_back({i, Call::kRepair, CallSize(kRepairCallEvents, events)});
      pool_.push_back({i, Call::kStream, CallSize(kStreamCallEvents, events)});
    }
    order_ = SeededOrder(pool_.size(), seed);
  }

  std::string Shape() const override {
    return "closed loop: 1 client, 1 outstanding call, no service, 1 thread; " +
           std::to_string(instances_.size()) +
           " deployed Class C instances (M=32) x {fault replay, fault replay "
           "+ repair hook, stream}; calls sized to ~" +
           std::to_string(static_cast<int>(kFaultCallEvents)) + " / " +
           std::to_string(static_cast<int>(kRepairCallEvents)) + " / " +
           std::to_string(static_cast<int>(kStreamCallEvents)) +
           " expected events; streams at " +
           std::to_string(static_cast<int>(kStreamLoad * 100)) +
           "% of bottleneck capacity";
  }

  size_t PassSize() const override { return pool_.size(); }

  std::string SetupSize() const override {
    return "algorithm registry + " + std::to_string(instances_.size()) +
           " portfolio deployments + fault schedules + warm-up pass of " +
           std::to_string(pool_.size()) + " calls";
  }

  Status Setup() override {
    RegisterBuiltinAlgorithms();
    deployed_.resize(instances_.size());
    for (size_t i = 0; i < instances_.size(); ++i) {
      const Instance& inst = instances_[i];
      Deployed& d = deployed_[i];
      DeployContext ctx;
      ctx.workflow = &inst.workflow;
      ctx.network = &inst.network;
      ctx.profile = inst.profile_ptr();
      ctx.seed = Mix(kPoolSeed + i);
      WSFLOW_ASSIGN_OR_RETURN(d.mapping, RunAlgorithm("portfolio", ctx));
      CostModel model(inst.workflow, inst.network, inst.profile_ptr());
      WSFLOW_ASSIGN_OR_RETURN(CostBreakdown cost, model.Evaluate(d.mapping));
      d.t_execute = cost.execution_time;
      // Inputs that depend on the deployment: a fault schedule over twice
      // the analytic makespan, and a stream rate below the bottleneck
      // server's capacity.
      FaultScheduleOptions options;
      options.seed = Mix(kPoolSeed ^ (i + 1));
      options.horizon_s = 2 * d.t_execute;
      options.crashes = 2;
      options.min_downtime_s = 0.1 * options.horizon_s;
      options.max_downtime_s = 0.3 * options.horizon_s;
      options.slowdowns = 2;
      options.max_severity = 3;
      options.min_alive = 2;
      WSFLOW_ASSIGN_OR_RETURN(d.schedule,
                              FaultSchedule::Generate(inst.network, options));
      std::vector<double> loads = model.Loads(d.mapping);
      d.arrival_rate =
          kStreamLoad / *std::max_element(loads.begin(), loads.end());
    }
    for (const Item& item : pool_) {
      WSFLOW_RETURN_IF_ERROR(Simulate(item).status);
    }
    return Status::OK();
  }

  Status Verify(Checks* checks, Exact* exact) override {
    double ratio_sum = 0;
    for (size_t i = 0; i < instances_.size(); ++i) {
      const Instance& inst = instances_[i];
      const Deployed& d = deployed_[i];
      std::string problem =
          CheckMappingShape(d.mapping, inst.workflow, inst.network);
      if (problem.empty()) {
        Result<double> ratio = CostRatio(inst, d.mapping, ServerMask());
        if (ratio.ok()) {
          ratio_sum += *ratio;
        } else {
          problem = ratio.status().ToString();
        }
      }
      if (problem.empty() && inst.workflow.IsLine()) {
        // The zero-fault, contention-free simulator reproduces the analytic
        // T_execute of a line deployment.
        Result<SimResult> plain =
            SimulateWorkflow(inst.workflow, inst.network, d.mapping);
        if (!plain.ok() ||
            std::abs(plain->mean_makespan - d.t_execute) > 1e-9) {
          problem = inst.label + ": simulated makespan != analytic T_execute";
        }
      }
      checks->Record(problem);
    }
    exact->cost_ratio = ratio_sum / instances_.size();

    reference_.assign(pool_.size(), Outcome());
    size_t runs = 0, completed = 0;
    size_t lost = 0, messages = 0, retries = 0, redispatches = 0, gave_up = 0,
           repairs = 0;
    for (size_t k = 0; k < pool_.size(); ++k) {
      Outcome out = Simulate(pool_[k]);
      checks->Record(out.status.ok() ? "" : out.status.ToString());
      if (pool_[k].call != Call::kStream) {
        const FaultSimResult& f = out.fault;
        runs += f.runs;
        completed += f.completed_runs;
        lost += f.tokens_lost;
        messages += f.messages_lost;
        retries += f.retries;
        redispatches += f.redispatches;
        gave_up += f.gave_up;
        repairs += f.repairs;
      }
      reference_[k] = std::move(out);
    }
    exact->completion_rate = runs > 0 ? static_cast<double>(completed) / runs
                                      : 0;
    exact->figures = {
        {"sim.tokens_lost", "count", static_cast<double>(lost)},
        {"sim.messages_lost", "count", static_cast<double>(messages)},
        {"sim.retries", "count", static_cast<double>(retries)},
        {"sim.redispatches", "count", static_cast<double>(redispatches)},
        {"sim.gave_up", "count", static_cast<double>(gave_up)},
        {"sim.repairs", "count", static_cast<double>(repairs)},
    };
    return Status::OK();
  }

  void RunSlice(double seconds, Tracer* tracer, Phase* phase) override {
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    while (SecondsBetween(start, now) < seconds) {
      const uint64_t n = next_++;
      const size_t k = order_[n % order_.size()];
      const Clock::time_point sent = now;
      Outcome out;
      {
        ScopedSpan root(tracer, "request", -1, n);
        ScopedSpan span(tracer, SpanName(pool_[k].call), root.index(), n);
        out = Simulate(pool_[k]);
      }
      now = Clock::now();
      phase->latencies_s.push_back(SecondsBetween(sent, now));
      phase->checks.Record(CheckAgainstReference(k, out));
      if (tracer != nullptr) {
        (pool_[k].call == Call::kStream ? traced_streamed_ : traced_runs_) +=
            pool_[k].size;
      }
    }
    phase->elapsed_s += SecondsBetween(start, now);
  }

  std::vector<Metric> LayerMetrics(const Tracer& tracer) const override {
    const double fault_s = TotalSeconds(tracer, "sim.fault") +
                           TotalSeconds(tracer, "sim.repair");
    const double stream_s = TotalSeconds(tracer, "sim.stream");
    const double total_s = TotalSeconds(tracer, "request");
    auto median_ms = [&](const char* name) {
      return Percentile(SpanSeconds(tracer, name), 0.5) * 1e3;
    };
    return {
        {"sim.fault_ms", "ms", median_ms("sim.fault")},
        {"sim.repair_ms", "ms", median_ms("sim.repair")},
        {"sim.stream_ms", "ms", median_ms("sim.stream")},
        {"sim.runs_per_s", "1/s", fault_s > 0 ? traced_runs_ / fault_s : 0},
        {"sim.instances_per_s", "1/s",
         stream_s > 0 ? traced_streamed_ / stream_s : 0},
        {"sim.fault_time_share", "ratio", total_s > 0 ? fault_s / total_s : 0},
        {"sim.stream_time_share", "ratio",
         total_s > 0 ? stream_s / total_s : 0},
    };
  }

 private:
  struct Item {
    size_t instance;
    Call call;
    size_t size;  ///< Runs (fault replay) or instances (stream) per call.
  };

  Outcome Simulate(const Item& item) const {
    const Instance& inst = instances_[item.instance];
    const Deployed& d = deployed_[item.instance];
    Outcome out;
    if (item.call == Call::kStream) {
      StreamOptions options;
      options.num_instances = item.size;
      options.arrival_rate = d.arrival_rate;
      options.seed = Mix(kPoolSeed + 31 * item.instance);
      Result<StreamResult> r =
          SimulateWorkflowStream(inst.workflow, inst.network, d.mapping,
                                 options);
      if (r.ok()) {
        out.stream = std::move(*r);
      } else {
        out.status = r.status();
      }
      return out;
    }
    FaultSimOptions options;
    options.sim.num_runs = item.size;
    options.sim.seed = Mix(kPoolSeed + 17 * item.instance);
    options.sim.server_contention = true;
    options.sim.bus_contention = true;
    options.policy = LossPolicy::kRetryRedispatch;
    // Two quick retries, so outages longer than ~30 ms fall through to
    // re-dispatch and both recovery paths run.
    options.backoff.max_retries = 2;
    options.repair = item.call == Call::kRepair;
    options.profile = inst.profile_ptr();
    Result<FaultSimResult> r = SimulateWithFaults(
        inst.workflow, inst.network, d.mapping, d.schedule, options);
    if (r.ok()) {
      out.fault = std::move(*r);
    } else {
      out.status = r.status();
    }
    return out;
  }

  /// Simulations are seeded, so a timed call repeats its verification-pass
  /// result exactly.
  std::string CheckAgainstReference(size_t k, const Outcome& out) const {
    if (!out.status.ok()) return out.status.ToString();
    const Outcome& ref = reference_[k];
    const bool same =
        pool_[k].call == Call::kStream
            ? out.stream.latencies == ref.stream.latencies &&
                  out.stream.total_time == ref.stream.total_time
            : out.fault.makespans == ref.fault.makespans &&
                  out.fault.tokens_lost == ref.fault.tokens_lost &&
                  out.fault.messages_lost == ref.fault.messages_lost &&
                  out.fault.retries == ref.fault.retries &&
                  out.fault.redispatches == ref.fault.redispatches &&
                  out.fault.gave_up == ref.fault.gave_up &&
                  out.fault.repairs == ref.fault.repairs;
    return same ? "" : instances_[pool_[k].instance].label +
                           ": simulation differs from the verification pass";
  }

  std::vector<Instance> instances_;
  std::vector<Item> pool_;
  std::vector<size_t> order_;
  std::vector<Deployed> deployed_;
  std::vector<Outcome> reference_;
  /// Calls sent in this timed phase; indexes order_ cyclically.
  uint64_t next_ = 0;
  /// Simulated runs (fault replay) and stream instances of traced calls.
  double traced_runs_ = 0;
  double traced_streamed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSimReplay(uint64_t seed) {
  return std::make_unique<SimReplay>(seed);
}

}  // namespace wsflow::perfbench
