// perfbench: deploy_cold and deploy_search — one client, one request at a
// time, no service. A request follows the `wsflow deploy` path: workflow
// and network XML text in, a costed mapping out.

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/deploy/algorithm.h"
#include "src/deploy/astar.h"
#include "src/deploy/parallel.h"
#include "src/network/serialization.h"
#include "src/workflow/serialization.h"
#include "src/workflow/validate.h"

namespace wsflow::perfbench {
namespace {

/// How a request's search step is invoked.
enum class SearchKind {
  kHeuristic,  ///< RunAlgorithm on a paper heuristic or portfolio.
  kPolish,     ///< RunAlgorithm on a "-polish" variant.
  kAnneal,     ///< ParallelAnnealingAlgorithm::RunWithStats.
  kAStar,      ///< AStarAlgorithm::RunWithStats (anytime).
};

struct Algo {
  std::string name;
  SearchKind kind;
};

/// deploy_search's search sizes: explicit, so later changes to the
/// library's defaults do not silently resize the workload. One chain per
/// annealing thread and few exchange rounds keep the threads' hand-offs,
/// whose cost swings with host load, a small part of a request.
constexpr size_t kAnnealThreads = 2;
constexpr size_t kAnnealChains = 2;
constexpr size_t kAnnealRounds = 4;
constexpr size_t kAnnealIterations = 20000;
constexpr size_t kAStarNodeBudget = 20000;

const char* SpanName(SearchKind kind) {
  switch (kind) {
    case SearchKind::kHeuristic:
      return "deploy.heuristic";
    case SearchKind::kPolish:
      return "deploy.polish";
    case SearchKind::kAnneal:
      return "deploy.anneal";
    case SearchKind::kAStar:
      return "deploy.astar";
  }
  return "deploy.other";
}

struct Outcome {
  Status status;
  Mapping mapping;
  CostBreakdown cost;
  ParallelSearchStats anneal;
  AStarStats astar;
};

/// One request: parse → validate → execution profile (graphs) → search →
/// final evaluation, with one span per layer call.
Outcome DeployFromXml(const Instance& inst, const Algo& algo, uint64_t seed,
                      Tracer* tracer, uint64_t id) {
  ScopedSpan root(tracer, "request", -1, id);
  Outcome out;
  Result<Workflow> workflow = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "workflow.parse", root.index(), id);
    workflow = WorkflowFromXmlString(inst.workflow_xml);
  }
  Result<Network> network = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "network.parse", root.index(), id);
    network = NetworkFromXmlString(inst.network_xml);
  }
  if (!workflow.ok() || !network.ok()) {
    out.status = workflow.ok() ? network.status() : workflow.status();
    return out;
  }
  std::optional<ExecutionProfile> profile;
  {
    ScopedSpan span(tracer, "workflow.check", root.index(), id);
    out.status = ValidateAll(*workflow);
    if (out.status.ok() && !workflow->IsLine()) {
      Result<ExecutionProfile> computed = ComputeExecutionProfile(*workflow);
      if (computed.ok()) {
        profile = std::move(*computed);
      } else {
        out.status = computed.status();
      }
    }
  }
  if (!out.status.ok()) return out;

  DeployContext ctx;
  ctx.workflow = &*workflow;
  ctx.network = &*network;
  ctx.profile = profile ? &*profile : nullptr;
  ctx.seed = seed;
  Result<Mapping> mapping = Status::Internal("unset");
  {
    ScopedSpan span(tracer, SpanName(algo.kind), root.index(), id);
    switch (algo.kind) {
      case SearchKind::kHeuristic:
      case SearchKind::kPolish:
        mapping = RunAlgorithm(algo.name, ctx);
        break;
      case SearchKind::kAnneal: {
        ParallelSearchOptions options;
        options.threads = kAnnealThreads;
        options.chains = kAnnealChains;
        options.total_iterations = kAnnealIterations;
        options.exchange_rounds = kAnnealRounds;
        mapping = ParallelAnnealingAlgorithm(options).RunWithStats(
            ctx, &out.anneal);
        break;
      }
      case SearchKind::kAStar: {
        AStarOptions options;
        options.anytime = true;
        options.max_nodes = kAStarNodeBudget;
        mapping = AStarAlgorithm(options).RunWithStats(ctx, &out.astar);
        break;
      }
    }
  }
  if (!mapping.ok()) {
    out.status = mapping.status().WithContext(algo.name);
    return out;
  }
  {
    ScopedSpan span(tracer, "cost.evaluate", root.index(), id);
    Result<CostBreakdown> cost =
        CostModel(*workflow, *network, ctx.profile)
            .Evaluate(*mapping, ctx.cost_options);
    if (!cost.ok()) {
      out.status = cost.status();
      return out;
    }
    out.cost = *cost;
  }
  out.mapping = std::move(*mapping);
  return out;
}

struct Item {
  size_t instance;
  size_t algo;
  uint64_t seed;
};

class DeployWorkload : public Workload {
 public:
  /// `probe` items run only in the verification pass: small instances on
  /// which A* can certify optimality, so the certified-optimum check has
  /// cases to judge.
  DeployWorkload(std::string shape, std::vector<Instance> instances,
                 std::vector<Algo> algos, std::vector<Item> pool,
                 std::vector<Item> probe, std::vector<size_t> warmup,
                 uint64_t seed)
      : shape_(std::move(shape)),
        instances_(std::move(instances)),
        algos_(std::move(algos)),
        pool_(std::move(pool)),
        probe_(std::move(probe)),
        warmup_(std::move(warmup)),
        order_(SeededOrder(pool_.size(), seed)) {}

  std::string Shape() const override { return shape_; }

  size_t PassSize() const override { return pool_.size(); }

  std::string SetupSize() const override {
    return "algorithm registry + warm-up pass of " +
           std::to_string(warmup_.size()) + " of the " +
           std::to_string(pool_.size()) + " pool requests";
  }

  Status Setup() override {
    RegisterBuiltinAlgorithms();
    for (size_t i : warmup_) {
      const Item& item = pool_[i];
      Outcome out = DeployFromXml(instances_[item.instance],
                                  algos_[item.algo], item.seed, nullptr, 0);
      WSFLOW_RETURN_IF_ERROR(out.status);
    }
    return Status::OK();
  }

  Status Verify(Checks* checks, Exact* exact) override {
    reference_.assign(pool_.size(), Outcome());
    double ratio_sum = 0;
    size_t completed = 0;
    size_t proposals = 0, accepted = 0, delta_evals = 0;
    size_t generated = 0, expanded = 0, tt_hits = 0, astar_runs = 0;
    size_t proven = 0;
    for (size_t i = 0; i < pool_.size(); ++i) {
      const Item& item = pool_[i];
      const Instance& inst = instances_[item.instance];
      Outcome out = DeployFromXml(inst, algos_[item.algo], item.seed,
                                  nullptr, 0);
      std::string problem = Judge(item, out);
      if (problem.empty()) {
        Result<double> ratio = CostRatio(inst, out.mapping, ServerMask());
        if (ratio.ok()) {
          ratio_sum += *ratio;
          ++completed;
        } else {
          problem = "cost ratio: " + ratio.status().ToString();
        }
      }
      checks->Record(problem);
      if (algos_[item.algo].kind == SearchKind::kAnneal) {
        proposals += out.anneal.proposals;
        accepted += out.anneal.accepted;
        delta_evals += out.anneal.delta_evaluations;
      }
      if (algos_[item.algo].kind == SearchKind::kAStar) {
        generated += out.astar.generated;
        expanded += out.astar.expanded;
        tt_hits += out.astar.tt_hits;
        proven += out.astar.proven_optimal ? 1 : 0;
        ++astar_runs;
      }
      reference_[i] = std::move(out);
    }
    CheckCertifiedOptima(pool_, reference_, checks);
    std::vector<Outcome> probed;
    size_t certified = 0;
    for (const Item& item : probe_) {
      probed.push_back(DeployFromXml(instances_[item.instance],
                                     algos_[item.algo], item.seed, nullptr,
                                     0));
      checks->Record(Judge(item, probed.back()));
      certified += probed.back().astar.proven_optimal ? 1 : 0;
    }
    CheckCertifiedOptima(probe_, probed, checks);
    if (!probe_.empty() && certified == 0) {
      checks->Record("no probe instance was certified optimal by A*");
    }
    exact->cost_ratio = completed > 0 ? ratio_sum / completed : 0;
    exact->completion_rate =
        pool_.empty() ? 0 : static_cast<double>(completed) / pool_.size();
    exact->figures = {
        {"deploy.anneal_accept_ratio", "ratio",
         proposals > 0 ? static_cast<double>(accepted) / proposals : 0},
        {"cost.delta_evals", "count", static_cast<double>(delta_evals)},
        {"deploy.astar_generated", "count", static_cast<double>(generated)},
        {"deploy.astar_expanded", "count", static_cast<double>(expanded)},
        {"deploy.astar_tt_hits", "count", static_cast<double>(tt_hits)},
        {"deploy.astar_proven_share", "ratio",
         astar_runs > 0 ? static_cast<double>(proven) / astar_runs : 0},
    };
    return Status::OK();
  }

  void RunSlice(double seconds, Tracer* tracer, Phase* phase) override {
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    while (SecondsBetween(start, now) < seconds) {
      const uint64_t n = next_++;
      const size_t index = order_[n % order_.size()];
      const Item& item = pool_[index];
      const Instance& inst = instances_[item.instance];
      const Clock::time_point sent = now;
      Outcome out =
          DeployFromXml(inst, algos_[item.algo], item.seed, tracer, n);
      now = Clock::now();
      phase->latencies_s.push_back(SecondsBetween(sent, now));
      phase->checks.Record(CheckAgainstReference(index, out));
      if (tracer != nullptr) Count(item, out);
    }
    phase->elapsed_s += SecondsBetween(start, now);
  }

  std::vector<Metric> LayerMetrics(const Tracer& tracer) const override {
    auto median = [&](const char* name, double scale) {
      return Percentile(SpanSeconds(tracer, name), 0.5) * scale;
    };
    const double parse_s = TotalSeconds(tracer, "workflow.parse");
    const double anneal_s = TotalSeconds(tracer, "deploy.anneal");
    const double astar_s = TotalSeconds(tracer, "deploy.astar");
    return {
        {"workflow.parse_us", "us", median("workflow.parse", 1e6)},
        {"workflow.parse_mb_s", "MB/s",
         parse_s > 0 ? traced_.workflow_bytes / 1e6 / parse_s : 0},
        {"network.parse_us", "us", median("network.parse", 1e6)},
        {"workflow.check_us", "us", median("workflow.check", 1e6)},
        {"deploy.heuristic_us", "us", median("deploy.heuristic", 1e6)},
        {"cost.evaluate_us", "us", median("cost.evaluate", 1e6)},
        {"deploy.polish_ms", "ms", median("deploy.polish", 1e3)},
        {"deploy.anneal_ms", "ms", median("deploy.anneal", 1e3)},
        {"cost.delta_evals_per_s", "1/s",
         anneal_s > 0 ? traced_.delta_evals / anneal_s : 0},
        {"deploy.astar_ms", "ms", median("deploy.astar", 1e3)},
        {"deploy.astar_nodes_per_s", "1/s",
         astar_s > 0 ? traced_.generated / astar_s : 0},
    };
  }

 private:
  struct Counters {
    double workflow_bytes = 0;
    double delta_evals = 0;
    double generated = 0;
  };

  void Count(const Item& item, const Outcome& out) {
    traced_.workflow_bytes += instances_[item.instance].workflow_xml.size();
    traced_.delta_evals += out.anneal.delta_evaluations;
    traced_.generated += out.astar.generated;
  }

  /// Empty when the request succeeded with a total, valid mapping.
  std::string Judge(const Item& item, const Outcome& out) const {
    const Instance& inst = instances_[item.instance];
    if (!out.status.ok()) {
      return inst.label + " " + algos_[item.algo].name + ": " +
             out.status.ToString();
    }
    return CheckMappingShape(out.mapping, inst.workflow, inst.network);
  }

  /// A timed answer must repeat the verification pass's answer exactly:
  /// every search here is deterministic in (instance, algorithm, seed).
  std::string CheckAgainstReference(size_t index, const Outcome& out) const {
    const Item& item = pool_[index];
    std::string problem = Judge(item, out);
    if (!problem.empty()) return problem;
    const Outcome& ref = reference_[index];
    if (!(out.mapping == ref.mapping) ||
        out.cost.combined != ref.cost.combined) {
      return instances_[item.instance].label + " " + algos_[item.algo].name +
             ": answer differs from the verification pass";
    }
    return "";
  }

  /// Whenever A* certifies optimality, no other algorithm may beat it on
  /// the same instance.
  void CheckCertifiedOptima(const std::vector<Item>& items,
                            const std::vector<Outcome>& outcomes,
                            Checks* checks) const {
    for (size_t i = 0; i < items.size(); ++i) {
      const Outcome& a = outcomes[i];
      if (algos_[items[i].algo].kind != SearchKind::kAStar ||
          !a.status.ok() || !a.astar.proven_optimal) {
        continue;
      }
      std::string problem;
      for (size_t j = 0; j < items.size(); ++j) {
        const Outcome& b = outcomes[j];
        if (items[j].instance != items[i].instance || !b.status.ok()) continue;
        if (a.cost.combined > b.cost.combined + 1e-9) {
          problem = instances_[items[i].instance].label +
                    ": certified A* optimum is beaten by " +
                    algos_[items[j].algo].name;
        }
      }
      checks->Record(problem);
    }
  }

  std::string shape_;
  std::vector<Instance> instances_;
  std::vector<Algo> algos_;
  std::vector<Item> pool_;
  std::vector<Item> probe_;
  std::vector<size_t> warmup_;
  std::vector<size_t> order_;
  std::vector<Outcome> reference_;
  /// Requests sent in this timed phase; indexes order_ cyclically.
  uint64_t next_ = 0;
  Counters traced_;
};

Instance MustDraw(char cls, WorkloadKind kind, ExperimentTopology topology,
                  size_t operations, uint64_t seed, size_t trial) {
  Result<Instance> inst =
      DrawInstance(cls, kind, topology, operations, seed, trial);
  if (!inst.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 inst.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*inst);
}

const ExperimentTopology kTopologies[] = {ExperimentTopology::kBus,
                                          ExperimentTopology::kFatTree,
                                          ExperimentTopology::kHierarchical};

}  // namespace

std::unique_ptr<Workload> MakeDeployCold(uint64_t seed) {
  // Class A/B/C x line/bushy/lengthy/hybrid x bus/fat-tree/hier, two
  // instances per cell, M drawn from 19..32.
  const WorkloadKind kinds[] = {WorkloadKind::kLine, WorkloadKind::kBushyGraph,
                                WorkloadKind::kLengthyGraph,
                                WorkloadKind::kHybridGraph};
  std::vector<Instance> instances;
  for (char cls : {'a', 'b', 'c'}) {
    for (WorkloadKind kind : kinds) {
      for (ExperimentTopology topology : kTopologies) {
        for (int rep = 0; rep < 2; ++rep) {
          const size_t trial = instances.size();
          const size_t ops = 19 + Mix(kPoolSeed ^ (trial << 20)) % 14;
          instances.push_back(
              MustDraw(cls, kind, topology, ops, kPoolSeed, trial));
        }
      }
    }
  }
  std::vector<Algo> algos = {{"heavy-ops", SearchKind::kHeuristic},
                             {"fltr", SearchKind::kHeuristic},
                             {"fltr2", SearchKind::kHeuristic},
                             {"fair-load", SearchKind::kHeuristic},
                             {"fl-merge", SearchKind::kHeuristic},
                             {"portfolio", SearchKind::kHeuristic}};
  std::vector<Item> pool;
  for (size_t i = 0; i < instances.size(); ++i) {
    for (size_t a = 0; a < algos.size(); ++a) {
      pool.push_back({i, a, Mix(kPoolSeed + pool.size())});
    }
  }
  std::vector<size_t> warmup(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) warmup[i] = i;
  std::string shape = "closed loop: 1 client, 1 outstanding request, no "
                      "service, 1 search thread; pool " +
                      std::to_string(instances.size()) + " instances x " +
                      std::to_string(algos.size()) + " algorithms";
  return std::make_unique<DeployWorkload>(
      shape, std::move(instances), std::move(algos), std::move(pool),
      std::vector<Item>(), std::move(warmup), seed);
}

std::unique_ptr<Workload> MakeDeploySearch(uint64_t seed) {
  // Class C graphs, M = 48: hybrid/lengthy/bushy x bus/fat-tree/hier.
  const WorkloadKind kinds[] = {WorkloadKind::kHybridGraph,
                                WorkloadKind::kLengthyGraph,
                                WorkloadKind::kBushyGraph};
  std::vector<Instance> instances;
  for (WorkloadKind kind : kinds) {
    for (ExperimentTopology topology : kTopologies) {
      for (int rep = 0; rep < 2; ++rep) {
        instances.push_back(
            MustDraw('c', kind, topology, 48, kPoolSeed, instances.size()));
      }
    }
  }
  std::vector<Algo> algos = {{"heavy-ops-polish", SearchKind::kPolish},
                             {"fltr2-polish", SearchKind::kPolish},
                             {"annealing-par", SearchKind::kAnneal},
                             {"astar-anytime", SearchKind::kAStar}};
  // Requests per instance for each algorithm above, with distinct seeds.
  // p50 and p95 sit inside dense single-threaded clusters. Sorted by
  // latency the pool runs: annealing (7-11 ms) with the polish requests on
  // bus networks, a sparse gap, the rest of the polish requests (17-25 ms),
  // then A* (31-56 ms). Annealing-par starts and joins a thread every
  // exchange round, and on a busy host each hand-off can wait milliseconds
  // for a vCPU, so its latency follows the host's load. With one annealing
  // request per instance p50 falls among the 17-25 ms polish requests, and
  // with two A* requests p95 falls inside A*'s cluster. With two annealing
  // requests and one A* request p50 sat in the gap, and its quartile spread
  // over 30 s windows was twice that of this mix.
  const size_t copies[] = {2, 2, 1, 2};
  std::vector<Item> pool;
  for (size_t i = 0; i < instances.size(); ++i) {
    for (size_t a = 0; a < algos.size(); ++a) {
      for (size_t c = 0; c < copies[a]; ++c) {
        pool.push_back({i, a, Mix(kPoolSeed + pool.size())});
      }
    }
  }
  std::vector<size_t> warmup;
  for (size_t i = 0; i < pool.size() && pool[i].instance == 0; ++i) {
    warmup.push_back(i);
  }
  std::string shape =
      "closed loop: 1 client, 1 outstanding request, no service, " +
      std::to_string(kAnnealThreads) +
      " annealing threads (1 otherwise); pool " +
      std::to_string(instances.size()) + " instances, " +
      std::to_string(pool.size()) +
      " requests (per instance each polish variant x2, annealing x1, A* "
      "x2); annealing " +
      std::to_string(kAnnealChains) + " chains / " +
      std::to_string(kAnnealRounds) + " exchange rounds / " +
      std::to_string(kAnnealIterations) + " proposals, A* budget " +
      std::to_string(kAStarNodeBudget) + " nodes";
  // Certification probes: small bus instances A* solves exactly.
  std::vector<Item> probe;
  for (WorkloadKind kind : {WorkloadKind::kLine, WorkloadKind::kHybridGraph,
                            WorkloadKind::kBushyGraph}) {
    instances.push_back(MustDraw('c', kind, ExperimentTopology::kBus, 8,
                                 kPoolSeed, instances.size()));
    for (size_t a = 0; a < algos.size(); ++a) {
      probe.push_back(
          {instances.size() - 1, a, Mix(kPoolSeed ^ (probe.size() + 1))});
    }
  }
  return std::make_unique<DeployWorkload>(
      shape, std::move(instances), std::move(algos), std::move(pool),
      std::move(probe), std::move(warmup), seed);
}

}  // namespace wsflow::perfbench
