#include "perfbench/src/bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string_view>
#include <utility>

#include "src/network/serialization.h"
#include "src/workflow/serialization.h"

namespace wsflow::perfbench {

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 21); }

int32_t Tracer::Open(const char* name, int32_t parent, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::Close(int32_t index) {
  spans_[index].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - origin_)
                             .count();
}

Status Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::NotFound("cannot write " + path);
  std::fprintf(f, "request,parent,name,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu,%d,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.request), s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) return Status::Internal("short write to " + path);
  return Status::OK();
}

std::vector<double> SpanSeconds(const Tracer& tracer, const char* name) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == name) {
      out.push_back((s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

double TotalSeconds(const Tracer& tracer, const char* name) {
  double total = 0;
  for (double s : SpanSeconds(tracer, name)) total += s;
  return total;
}

std::vector<Metric> LayerShares(const Tracer& tracer,
                                const std::vector<std::string>& layers) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self_ns;
  double request_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t self = s.end_ns - s.start_ns - child_ns[i];
    std::string_view name(s.name);
    self_ns[std::string(name.substr(0, name.find('.')))] += self;
    if (s.parent < 0) request_ns += s.end_ns - s.start_ns;
  }
  std::vector<Metric> out;
  for (const std::string& layer : layers) {
    double share = request_ns > 0 ? self_ns[layer] / request_ns : 0;
    out.push_back({layer + ".share", "ratio", share});
  }
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  uint64_t state = seed;
  for (size_t i = n; i > 1; --i) {
    state = Mix(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

Result<Instance> DrawInstance(char cls, WorkloadKind kind,
                              ExperimentTopology topology, size_t operations,
                              uint64_t seed, size_t trial) {
  ExperimentConfig config;
  switch (cls) {
    case 'a':
      config = MakeClassAConfig(kind);
      break;
    case 'b':
      config = MakeClassBConfig(kind);
      break;
    default:
      config = MakeClassCConfig(kind);
      break;
  }
  config.num_operations = operations;
  config.topology = topology;
  config.seed = seed;
  WSFLOW_ASSIGN_OR_RETURN(TrialInstance drawn, DrawTrial(config, trial));
  Instance inst;
  inst.label = std::string(1, static_cast<char>(cls - 'a' + 'A')) + "/" +
               std::string(WorkloadKindToString(kind)) + "/" +
               std::string(ExperimentTopologyToString(topology)) +
               "/M=" + std::to_string(operations);
  inst.workflow = std::move(drawn.workflow);
  inst.network = std::move(drawn.network);
  inst.profile = std::move(drawn.profile);
  inst.workflow_xml = WorkflowToXmlString(inst.workflow);
  inst.network_xml = NetworkToXmlString(inst.network);
  return inst;
}

void Checks::Record(const std::string& problem) {
  ++attempted_;
  if (problem.empty()) return;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(problem);
}

std::string CheckMappingShape(const Mapping& m, const Workflow& w,
                              const Network& n) {
  if (m.num_operations() != w.num_operations() || !m.IsTotal()) {
    return "mapping is not total";
  }
  for (uint32_t op = 0; op < m.num_operations(); ++op) {
    if (m.ServerOf(OperationId(op)).value >= n.num_servers()) {
      return "mapping uses an unknown server";
    }
  }
  return "";
}

std::string CheckAvoidsDown(const Mapping& m, const ServerMask& mask) {
  if (mask.trivial()) return "";
  for (uint32_t op = 0; op < m.num_operations(); ++op) {
    if (!mask.alive(m.ServerOf(OperationId(op)))) {
      return "answer places an operation on a down server";
    }
  }
  return "";
}

Mapping RoundRobinMapping(const Workflow& w, const Network& n,
                          const ServerMask& mask) {
  std::vector<ServerId> alive;
  for (uint32_t s = 0; s < n.num_servers(); ++s) {
    if (mask.alive(ServerId(s))) alive.push_back(ServerId(s));
  }
  Mapping m(w.num_operations());
  for (uint32_t op = 0; op < w.num_operations(); ++op) {
    m.Assign(OperationId(op), alive[op % alive.size()]);
  }
  return m;
}

Result<double> CostRatio(const Workflow& w, const Network& n,
                         const ExecutionProfile* profile, const Mapping& m,
                         const ServerMask& mask) {
  const CostOptions options;
  WSFLOW_ASSIGN_OR_RETURN(CostBreakdown got,
                          CostModel(w, n, profile).Evaluate(m, options, mask));
  WSFLOW_ASSIGN_OR_RETURN(
      CostBreakdown rr, CostModel(w, n, profile)
                            .Evaluate(RoundRobinMapping(w, n, mask), options,
                                      mask));
  if (!(rr.combined > 0) || !std::isfinite(got.combined)) {
    return Status::Internal("cost ratio undefined");
  }
  return got.combined / rr.combined;
}

Result<double> CostRatio(const Instance& inst, const Mapping& m,
                         const ServerMask& mask) {
  return CostRatio(inst.workflow, inst.network, inst.profile_ptr(), m, mask);
}

}  // namespace wsflow::perfbench
