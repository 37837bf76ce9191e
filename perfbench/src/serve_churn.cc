// perfbench: serve_churn — one client thread keeps four requests (two per
// worker) outstanding against a DeploymentService with two workers and a
// HealthTracker, while leaf servers crash and recover at fixed request
// indices.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/serve/fingerprint.h"
#include "src/serve/health.h"
#include "src/serve/service.h"

namespace wsflow::perfbench {
namespace {

using serve::DeployRequest;
using serve::DeployResponse;
using serve::DeploymentService;
using serve::HealthTracker;
using serve::MetricsSnapshot;

constexpr size_t kWorkers = 2;
/// Two outstanding requests per worker, so a worker that finishes one
/// usually finds the next already queued instead of going to sleep. With
/// one per worker nearly every request had to wake a sleeping worker, and
/// whenever the host was busy that wake-up (a halted vCPU waiting for the
/// hypervisor) cut throughput up to threefold between adjacent runs.
constexpr size_t kOutstanding = 4;
constexpr size_t kPoolWorkflows = 48;
/// Every kFreshEvery-th request is a first-time instance: a pool workflow
/// under a seed never sent before, so its fingerprint misses the cache and
/// runs `portfolio` cold.
constexpr uint64_t kFreshEvery = 12;
/// Churn period in requests: leaf servers crash at kCrashAt and recover at
/// kRecoverAt within every period.
constexpr uint64_t kPeriod = 24576;
constexpr uint64_t kCrashAt = 2048;
constexpr uint64_t kRecoverAt = 8192;
constexpr uint64_t kFreshSeedBase = 1'000'000;
/// Requests of the set-up's warm-up: the timed phase's closed loop and mix,
/// without churn. It makes the set-up long enough (about 60 ms on the host
/// described in the README) that a millisecond stall of the host does not
/// dominate setup_s, and it runs the same pipeline the timed phase does.
constexpr uint64_t kWarmupRequests = 4096;

enum class Kind { kHit, kMiss, kDegraded };

/// CPUs this thread may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Best effort: if the call fails the thread keeps its mask, which costs
/// only steadiness, not correctness.
void PinThisThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// One answered request, as the client saw it.
struct Answer {
  Kind kind;
  double latency_s;
  double queue_wait_s;
  double service_time_s;
};

class ServeChurn : public Workload {
 public:
  explicit ServeChurn(uint64_t seed)
      : cpus_(AllowedCpus()),
        repeat_order_(SeededOrder(kPoolWorkflows, seed)),
        fresh_order_(SeededOrder(kPoolWorkflows, Mix(seed))) {
    const WorkloadKind kinds[] = {
        WorkloadKind::kLine, WorkloadKind::kHybridGraph,
        WorkloadKind::kBushyGraph, WorkloadKind::kLengthyGraph};
    for (size_t i = 0; i < kPoolWorkflows; ++i) {
      const size_t ops = 19 + Mix(kPoolSeed ^ (i << 24)) % 6;
      Result<Instance> inst = DrawInstance('c', kinds[i % 4],
                                           ExperimentTopology::kBus, ops,
                                           kPoolSeed, i);
      if (!inst.ok()) {
        std::fprintf(stderr, "input generation failed: %s\n",
                     inst.status().ToString().c_str());
        std::exit(2);
      }
      flows_.push_back(std::make_shared<const Workflow>(inst->workflow));
      flow_digests_.push_back(serve::WorkflowDigest(*flows_.back()));
    }
    // One zoned fat-tree shared by every workflow: 2 spines, 3 racks of 4.
    FatTreeOptions tree;
    tree.spines = 2;
    tree.racks = 3;
    tree.rack_size = 4;
    const size_t servers = tree.spines + tree.racks * tree.rack_size;
    tree.powers_hz.clear();
    for (size_t s = 0; s < servers; ++s) {
      tree.powers_hz.push_back(1e9 * (1 + Mix(kPoolSeed + 7 * s) % 3));
    }
    Result<Network> net = MakeFatTreeNetwork(tree);
    if (!net.ok()) {
      std::fprintf(stderr, "network: %s\n", net.status().ToString().c_str());
      std::exit(2);
    }
    network_ = std::make_shared<const Network>(std::move(*net));
    network_digest_ = serve::NetworkDigest(*network_);
    // Crash sets: single leaves, then pairs of leaves, in a pool-seeded
    // order. A leaf carries no transit routes, so the round-robin yardstick
    // over the survivors always routes. The first set is the verification
    // pass's; the timed phase walks the rest.
    std::vector<ServerId> leaves;
    for (uint32_t s = 0; s < network_->num_servers(); ++s) {
      if (network_->incident_links(ServerId(s)).size() == 1) {
        leaves.push_back(ServerId(s));
      }
    }
    for (size_t a = 0; a < leaves.size(); ++a) {
      crash_sets_.push_back({leaves[a]});
    }
    for (size_t a = 0; a < leaves.size(); ++a) {
      for (size_t b = a + 1; b < leaves.size(); ++b) {
        crash_sets_.push_back({leaves[a], leaves[b]});
      }
    }
    std::vector<size_t> order = SeededOrder(crash_sets_.size(), kPoolSeed);
    std::vector<std::vector<ServerId>> shuffled;
    for (size_t i : order) shuffled.push_back(crash_sets_[i]);
    crash_sets_ = std::move(shuffled);
  }

  std::string Shape() const override {
    return "closed loop: 1 polling client thread, " +
           std::to_string(kOutstanding) + " outstanding requests, " +
           std::to_string(kWorkers) +
           " service workers, 1 search thread per worker; " +
           std::string(cpus_.size() > kWorkers
                           ? "client and workers pinned to CPUs of their own; "
                           : "nothing pinned (too few CPUs); ") +
           std::to_string(flows_.size()) +
           " Class C workflows on one fat-tree of " +
           std::to_string(network_->num_servers()) +
           " servers; digests precomputed by the client; every " +
           std::to_string(kFreshEvery) +
           "th request first-time (cold portfolio); leaf crash at request " +
           std::to_string(kCrashAt) + " and recovery at " +
           std::to_string(kRecoverAt) + " of every " +
           std::to_string(kPeriod);
  }

  /// Every slice starts a new churn period on a new service, and first-time
  /// requests run cold, so the requests form no repeating pass.
  size_t PassSize() const override { return 1; }

  std::string SetupSize() const override {
    return "service start (" + std::to_string(kWorkers) +
           " workers) + cache fill of " + std::to_string(flows_.size()) +
           " cold portfolio runs + warm-up of " +
           std::to_string(kWarmupRequests) +
           " requests of the timed mix, without churn";
  }

  Status Setup() override {
    health_ = std::make_shared<HealthTracker>(network_->num_servers());
    serve::ServiceOptions options;
    options.num_threads = kWorkers;
    options.queue_capacity = 2 * kPoolWorkflows;
    // Large enough that nothing is ever evicted.
    options.cache_capacity = 1 << 22;
    options.health = health_;
    service_ = std::make_unique<DeploymentService>(options);
    // The polling client gets a CPU of its own and the workers kWorkers
    // others: the workers start while this thread is confined to their
    // CPUs and inherit that mask, then the client moves to its own CPU.
    // Otherwise the scheduler may put a worker on the spinning client's
    // CPU, where the two share it. The remaining CPUs are left to the rest
    // of the system.
    const bool pin = cpus_.size() > kWorkers;
    if (pin) {
      PinThisThread(std::vector<int>(cpus_.begin() + 1,
                                     cpus_.begin() + 1 + kWorkers));
    }
    WSFLOW_RETURN_IF_ERROR(service_->Start());
    if (pin) PinThisThread({cpus_.front()});
    mask_ = ServerMask();
    mask_slot_ = 0;
    refs_.assign(crash_sets_.size() + 1,
                 std::vector<std::optional<DeployResponse>>(flows_.size()));
    // The cache fill goes out in one batch, so the workers drain a full
    // queue instead of waking once per request.
    std::vector<std::future<DeployResponse>> pending;
    for (size_t w = 0; w < flows_.size(); ++w) {
      WSFLOW_ASSIGN_OR_RETURN(std::future<DeployResponse> f,
                              service_->Submit(Request(w, 0)));
      pending.push_back(std::move(f));
    }
    cold_.clear();
    for (std::future<DeployResponse>& f : pending) {
      cold_.push_back(f.get());
      WSFLOW_RETURN_IF_ERROR(cold_.back().status);
      if (cold_.back().cache_hit) {
        return Status::Internal("cache fill answered from the cache");
      }
    }
    for (size_t w = 0; w < flows_.size(); ++w) refs_[0][w] = cold_[w];
    Phase warmup;
    Drive(std::numeric_limits<double>::infinity(), kWarmupRequests,
          /*churn=*/false, nullptr, &warmup);
    if (warmup.checks.failed() > 0) {
      return Status::Internal("warm-up: " + warmup.checks.messages().front());
    }
    return Status::OK();
  }

  Status Verify(Checks* checks, Exact* exact) override {
    double ratio_sum = 0;
    size_t ratios = 0, answered = 0, asked = 0;
    auto ask = [&](size_t w) -> DeployResponse {
      ++asked;
      Result<std::future<DeployResponse>> f = service_->Submit(Request(w, 0));
      if (!f.ok()) {
        DeployResponse refused;
        refused.status = f.status();
        return refused;
      }
      DeployResponse r = f->get();
      if (r.status.ok()) ++answered;
      return r;
    };
    // A non-degraded answer: avoids the down servers, has a finite masked
    // cost equal to a fresh evaluation, and counts toward cost_ratio.
    auto judge = [&](size_t w, const DeployResponse& r) -> std::string {
      if (!r.status.ok()) return r.status.ToString();
      std::string problem =
          CheckMappingShape(r.mapping, *flows_[w], *network_);
      if (problem.empty()) problem = CheckAvoidsDown(r.mapping, mask_);
      if (!problem.empty()) return problem;
      std::optional<ExecutionProfile> profile;
      if (!flows_[w]->IsLine()) {
        profile = ComputeExecutionProfile(*flows_[w]).value();
      }
      const ExecutionProfile* p = profile ? &*profile : nullptr;
      Result<CostBreakdown> fresh =
          CostModel(*flows_[w], *network_, p)
              .Evaluate(r.mapping, CostOptions(), mask_);
      if (!fresh.ok() || !std::isfinite(r.cost.combined) ||
          std::abs(fresh->combined - r.cost.combined) >
              1e-9 * std::max(1.0, std::abs(fresh->combined))) {
        return "answer's cost disagrees with a fresh masked evaluation";
      }
      Result<double> ratio = CostRatio(*flows_[w], *network_, p, r.mapping,
                                       mask_);
      if (!ratio.ok()) return ratio.status().ToString();
      ratio_sum += *ratio;
      ++ratios;
      return "";
    };
    auto same_payload = [](const DeployResponse& a, const DeployResponse& b) {
      return a.CanonicalPayload() == b.CanonicalPayload()
                 ? std::string()
                 : std::string("cache hit differs from the cold answer");
    };

    // Full health: every hit replays the cold answer byte for byte.
    for (size_t w = 0; w < flows_.size(); ++w) {
      DeployResponse hit = ask(w);
      std::string problem = judge(w, hit);
      if (problem.empty() && !hit.cache_hit) problem = "repeat missed";
      if (problem.empty()) problem = same_payload(hit, cold_[w]);
      checks->Record(problem);
    }
    // Churn: crash the verification set; a severed mapping is served
    // degraded once, then repaired; later hits replay the first healthy
    // answer under the same mask.
    size_t degraded = 0;
    Crash(0);
    for (size_t w = 0; w < flows_.size(); ++w) {
      DeployResponse first = ask(w);
      std::string problem;
      if (first.degraded) {
        ++degraded;
        if (!(first.mapping == cold_[w].mapping)) {
          problem = "degraded answer is not the last-good mapping";
        }
        first = ask(w);
        if (problem.empty() && (first.degraded || !first.repaired)) {
          problem = "no repaired answer after a degraded one";
        }
      }
      if (problem.empty()) problem = judge(w, first);
      if (problem.empty()) {
        DeployResponse again = ask(w);
        problem = again.cache_hit ? same_payload(again, first)
                                  : "masked repeat missed";
      }
      checks->Record(problem);
    }
    Recover(0);
    if (degraded == 0) {
      checks->Record("the verification crash severed no cached mapping");
    }
    exact->cost_ratio = ratios > 0 ? ratio_sum / ratios : 0;
    exact->completion_rate = asked > 0 ? static_cast<double>(answered) / asked
                                       : 0;
    exact->figures = {{"serve.verify_degraded", "count",
                       static_cast<double>(degraded)}};
    return Status::OK();
  }

  void RunSlice(double seconds, Tracer* tracer, Phase* phase) override {
    const MetricsSnapshot before = service_->metrics().Snapshot();
    Drive(seconds, std::numeric_limits<uint64_t>::max(), /*churn=*/true,
          tracer, phase);
    const MetricsSnapshot after = service_->metrics().Snapshot();
    delta_.degraded += after.degraded - before.degraded;
    delta_.repairs += after.repairs - before.repairs;
    delta_.repair_failures += after.repair_failures - before.repair_failures;
    delta_.rejected += after.rejected_queue_full - before.rejected_queue_full;
    // Stop the service here, untimed: the next set-up starts a new one at
    // full health, and setup_s holds no teardown.
    service_.reset();
    health_.reset();
  }

  std::vector<Metric> LayerMetrics(const Tracer& /*tracer*/) const override {
    std::vector<double> hit, miss, degraded, wait, handoff;
    for (const Answer& a : answers_) {
      (a.kind == Kind::kHit ? hit
                            : (a.kind == Kind::kMiss ? miss : degraded))
          .push_back(a.service_time_s);
      wait.push_back(a.queue_wait_s);
      handoff.push_back(a.latency_s - a.queue_wait_s - a.service_time_s);
    }
    const double n = answers_.empty() ? 1 : answers_.size();
    return {
        {"serve.hit_us", "us", Percentile(hit, 0.5) * 1e6},
        {"serve.miss_ms", "ms", Percentile(miss, 0.5) * 1e3},
        {"serve.degraded_ms", "ms", Percentile(degraded, 0.5) * 1e3},
        {"serve.queue_wait_us", "us", Percentile(wait, 0.5) * 1e6},
        {"serve.handoff_us", "us", Percentile(handoff, 0.5) * 1e6},
        {"serve.hit_rate", "ratio", (n - miss.size()) / n},
        {"serve.degraded_share", "ratio", degraded.size() / n},
        {"serve.degraded", "count", static_cast<double>(delta_.degraded)},
        {"serve.repairs", "count", static_cast<double>(delta_.repairs)},
        {"serve.repair_failures", "count",
         static_cast<double>(delta_.repair_failures)},
        {"serve.rejected", "count", static_cast<double>(delta_.rejected)},
        {"serve.crash_epochs", "count", static_cast<double>(crash_epochs_)},
        {"serve.quiet_epochs", "count", static_cast<double>(quiet_epochs_)},
    };
  }

 private:
  struct Counts {
    uint64_t degraded = 0;
    uint64_t repairs = 0;
    uint64_t repair_failures = 0;
    uint64_t rejected = 0;
  };

  /// The closed loop: sends requests for `seconds` or until `count` are
  /// sent, whichever comes first, and checks every answer into `phase`.
  /// With `churn`, leaf servers crash and recover at fixed request indices.
  void Drive(double seconds, uint64_t count, bool churn, Tracer* tracer,
             Phase* phase) {
    // The client polls every outstanding request and takes whichever
    // answer is ready first, so a hit is never observed behind a miss.
    struct Slot {
      bool busy = false;
      std::future<DeployResponse> future;
      Clock::time_point sent;
      size_t workflow = 0;
      bool fresh = false;
      int32_t root = -1;
      int32_t call = -1;
    };
    Slot slots[kOutstanding];
    size_t busy = 0;
    // Per crash epoch: degraded answers seen, and repaired answers after.
    size_t epoch_degraded = 0, epoch_repaired = 0;
    bool in_crash = false;
    auto close_epoch = [&] {
      if (!in_crash) return;
      ++crash_epochs_;
      if (epoch_degraded == 0 || epoch_repaired == 0) ++quiet_epochs_;
      in_crash = false;
    };
    auto complete = [&](Slot& s) {
      DeployResponse r = s.future.get();
      const Clock::time_point done = Clock::now();
      if (tracer != nullptr) tracer->Close(s.call);
      const double latency = SecondsBetween(s.sent, done);
      phase->latencies_s.push_back(latency);
      if (tracer != nullptr) {
        const Kind kind = r.degraded ? Kind::kDegraded
                                     : (r.cache_hit ? Kind::kHit : Kind::kMiss);
        answers_.push_back({kind, latency, r.queue_wait_s, r.service_time_s});
      }
      if (in_crash) {
        if (r.degraded) ++epoch_degraded;
        if (r.repaired && epoch_degraded > 0) ++epoch_repaired;
      }
      phase->checks.Record(CheckAnswer(s.workflow, s.fresh, r));
      if (tracer != nullptr) tracer->Close(s.root);
      s.busy = false;
      --busy;
    };
    // Completes at least one answer, or every answer when `all` is set.
    auto poll = [&](bool all) {
      while (busy > 0) {
        bool progressed = false;
        for (Slot& s : slots) {
          if (s.busy && s.future.wait_for(std::chrono::seconds(0)) ==
                            std::future_status::ready) {
            complete(s);
            progressed = true;
          }
        }
        if (progressed && !all) return;
      }
    };

    // The loop starts at full health (Setup leaves the service so) and at
    // the start of a churn period.
    uint64_t i = (next_ + kPeriod - 1) / kPeriod * kPeriod;
    const uint64_t end =
        i + std::min(count, std::numeric_limits<uint64_t>::max() - i);
    const Clock::time_point start = Clock::now();
    for (; i < end && SecondsBetween(start, Clock::now()) < seconds; ++i) {
      const uint64_t phase_pos = i % kPeriod;
      if (churn && (phase_pos == kCrashAt || phase_pos == kRecoverAt)) {
        poll(/*all=*/true);  // drain, so every request's mask is known
        const size_t set = 1 + (i / kPeriod) % (crash_sets_.size() - 1);
        if (phase_pos == kCrashAt) {
          Crash(set);
          in_crash = true;
          epoch_degraded = epoch_repaired = 0;
        } else {
          Recover(set);
          close_epoch();
        }
      }
      if (busy == kOutstanding) poll(/*all=*/false);
      Slot* slot = &slots[0];
      while (slot->busy) ++slot;
      slot->fresh = i % kFreshEvery == kFreshEvery - 1;
      slot->workflow = slot->fresh ? fresh_order_[fresh_ % flows_.size()]
                                   : repeat_order_[repeats_ % flows_.size()];
      const uint64_t req_seed = slot->fresh ? kFreshSeedBase + fresh_ : 0;
      (slot->fresh ? fresh_ : repeats_) += 1;
      if (tracer != nullptr) slot->root = tracer->Open("request", -1, i);
      DeployRequest request = Request(slot->workflow, req_seed);
      slot->sent = Clock::now();
      if (tracer != nullptr) {
        slot->call = tracer->Open("serve.call", slot->root, i);
      }
      Result<std::future<DeployResponse>> f =
          service_->Submit(std::move(request));
      if (!f.ok()) {
        if (tracer != nullptr) {
          tracer->Close(slot->call);
          tracer->Close(slot->root);
        }
        phase->checks.Record("refused: " + f.status().ToString());
        continue;
      }
      slot->future = std::move(*f);
      slot->busy = true;
      ++busy;
    }
    poll(/*all=*/true);
    phase->elapsed_s += SecondsBetween(start, Clock::now());
    next_ = i;
    // A crash epoch the loop cut short is not judged.
  }

  DeployRequest Request(size_t w, uint64_t seed) const {
    DeployRequest r;
    r.workflow = flows_[w];
    r.network = network_;
    r.algorithm = "portfolio";
    r.seed = seed;
    // A client that sends the same artifacts again and again digests them
    // once, as serve/fingerprint.h recommends.
    r.workflow_digest = flow_digests_[w];
    r.network_digest = network_digest_;
    return r;
  }

  /// Crashes (or recovers) the servers of crash set `k`.
  void Crash(size_t k) {
    for (ServerId s : crash_sets_[k]) health_->ReportCrash(s);
    mask_ = health_->AliveMask();
    mask_slot_ = k + 1;
  }

  void Recover(size_t k) {
    for (ServerId s : crash_sets_[k]) health_->ReportRecovery(s);
    mask_ = health_->AliveMask();
    mask_slot_ = 0;
  }

  std::string CheckAnswer(size_t w, bool fresh, const DeployResponse& r) {
    if (!r.status.ok()) return r.status.ToString();
    std::string problem = CheckMappingShape(r.mapping, *flows_[w], *network_);
    if (!problem.empty()) return problem;
    if (r.degraded) {
      return r.mapping == refs_[0][w]->mapping
                 ? ""
                 : "degraded answer is not the last-good mapping";
    }
    problem = CheckAvoidsDown(r.mapping, mask_);
    if (!problem.empty()) return problem;
    if (!std::isfinite(r.cost.combined)) return "non-finite masked cost";
    if (fresh) return "";
    // A repeat replays the first healthy answer under the same mask.
    std::optional<DeployResponse>& ref = refs_[mask_slot_][w];
    if (!ref) {
      ref = r;
      return "";
    }
    if (!(r.mapping == ref->mapping) || r.cost.combined != ref->cost.combined) {
      return "cache hit differs from the first answer under its mask";
    }
    return "";
  }

  std::vector<int> cpus_;
  std::vector<size_t> repeat_order_;
  std::vector<size_t> fresh_order_;
  std::vector<std::shared_ptr<const Workflow>> flows_;
  std::vector<uint64_t> flow_digests_;
  std::shared_ptr<const Network> network_;
  uint64_t network_digest_ = 0;
  std::vector<std::vector<ServerId>> crash_sets_;

  std::shared_ptr<HealthTracker> health_;
  std::unique_ptr<DeploymentService> service_;
  ServerMask mask_;
  /// Row of refs_ for the current mask: 0 at full health, else 1 + the
  /// crash set's index.
  size_t mask_slot_ = 0;
  std::vector<DeployResponse> cold_;
  std::vector<std::vector<std::optional<DeployResponse>>> refs_;

  /// Request index, and repeat and first-time requests sent, in this timed
  /// phase; they carry over from one slice to the next.
  uint64_t next_ = 0;
  uint64_t repeats_ = 0;
  uint64_t fresh_ = 0;
  std::vector<Answer> answers_;
  size_t crash_epochs_ = 0;
  size_t quiet_epochs_ = 0;
  Counts delta_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeChurn(uint64_t seed) {
  return std::make_unique<ServeChurn>(seed);
}

}  // namespace wsflow::perfbench
