// perfbench: end-to-end benchmark of the wsflow library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out DIR]
//
// Runs one workload (deploy_cold, deploy_search, serve_churn, sim_replay)
// as a closed loop for S seconds after its set-up and an untimed
// verification pass, checks every answer, prints a human-readable report
// and, as the last line of standard output, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
// other slice of the timed phase is traced and the metrics are the per-layer
// ones (only those the workload computes; run.py fills in the rest of
// BENCHMARK.json's list). --seed fixes the order requests are sent in; the
// pool they are drawn from is fixed (kPoolSeed), so quality figures and
// counts repeat exactly across seeds. Exits 1 when any check failed, 2 on
// bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace wsflow::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// Timed requests a run needs: 10 beyond p95.
constexpr size_t kMinSamples = 200;

const std::vector<std::string> kLayers = {"workflow", "network", "cost",
                                          "deploy",   "serve",   "sim"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "deploy_cold|deploy_search|serve_churn|sim_replay --seed N "
               "--seconds S --trace 0|1 [--trace-out DIR]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--trace-out") {
      args->trace_out = value;
      continue;
    }
    if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--trace") {
      args->trace = std::strtoull(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Peak resident set of this process image, from /proc/self/status
/// (VmHWM, in KiB). getrusage's ru_maxrss is not used: Linux carries it
/// across execve, so it would report the launching process's peak.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
  return buf;
}

void PrintMetric(const Metric& m, const std::string& note = "") {
  std::printf("  %-28s %.6g %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
              note.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  std::unique_ptr<Workload> workload;
  if (args.workload == "deploy_cold") {
    workload = MakeDeployCold(args.seed);
  } else if (args.workload == "deploy_search") {
    workload = MakeDeploySearch(args.seed);
  } else if (args.workload == "serve_churn") {
    workload = MakeServeChurn(args.seed);
  } else if (args.workload == "sim_replay") {
    workload = MakeSimReplay(args.seed);
  } else {
    return Usage("unknown workload");
  }

  std::printf("workload %s  seed %llu  pool-seed %llu  seconds %g  trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kPoolSeed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: nproc %u, build %s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
  std::printf("shape: %s\n", workload->Shape().c_str());

  // Set-up, timed once before the verification pass and again after every
  // slice of the timed phase; the latest one serves the next slice.
  std::vector<double> setup_s;
  auto timed_setup = [&]() {
    const Clock::time_point t0 = Clock::now();
    Status st = workload->Setup();
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    }
    return st.ok();
  };
  if (!timed_setup()) return 1;

  Checks verify;
  Exact exact;
  Status st = workload->Verify(&verify, &exact);
  if (!st.ok()) {
    std::fprintf(stderr, "verification failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Peak memory is read after the set-up and one verification pass over
  // the whole pool, before the timed phase. In the timed phase the latency
  // records (8 bytes a request) and serve_churn's first-time cache entries
  // grow with the number of requests a run completes, so a peak read at
  // the end would rise whenever the program or the host got faster.
  const double peak_rss_mb = PeakRssMb();

  // The timed phase. A traced run gives every other slice to the tracer.
  Phase phase, traced;
  std::optional<Tracer> tracer;
  if (args.trace) tracer.emplace();
  for (size_t k = 0; k < kSlices; ++k) {
    const bool trace_slice = args.trace && k % 2 == 1;
    workload->RunSlice(args.seconds / kSlices, trace_slice ? &*tracer : nullptr,
                       trace_slice ? &traced : &phase);
    if (!timed_setup()) return 1;
  }
  std::printf("setup: %s, median of %zu:", workload->SetupSize().c_str(),
              setup_s.size());
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf(" s\n");

  size_t attempted =
      verify.attempted() + phase.checks.attempted() + traced.checks.attempted();
  size_t failed =
      verify.failed() + phase.checks.failed() + traced.checks.failed();
  std::vector<std::string> problems = verify.messages();
  for (const Phase* p : {&phase, &traced}) {
    problems.insert(problems.end(), p->checks.messages().begin(),
                    p->checks.messages().end());
  }

  std::vector<Metric> metrics;
  // Percentiles over whole passes of the pool only: the run's last pass is
  // cut short at a point that depends on the host's speed, and the pool
  // requests it holds would otherwise weigh more than the rest. Throughput
  // counts every request, so it is taken before the cut.
  const size_t sent = phase.latencies_s.size();
  const double throughput = phase.Throughput();
  std::vector<double>& whole = phase.latencies_s;
  const size_t pass = workload->PassSize();
  if (whole.size() >= pass) whole.resize(whole.size() / pass * pass);
  const size_t n = whole.size();
  // A reported p95 needs at least 10 samples beyond it; a shorter untraced
  // phase is a failed check, since its tail would rest on too few requests.
  if (!args.trace) ++attempted;
  if (!args.trace && n < kMinSamples) {
    ++failed;
    problems.push_back("only " + std::to_string(n) +
                       " timed requests in whole passes; p95 needs " +
                       std::to_string(kMinSamples));
  }
  const double p50_ms = Percentile(whole, 0.50) * 1e3;
  const double p95_ms = Percentile(whole, 0.95) * 1e3;
  std::printf("end-to-end (untraced, %zu requests in %.3f s; percentiles "
              "over the %zu in whole passes of %zu):\n",
              sent, phase.elapsed_s, n, pass);
  std::vector<Metric> e2e = {
      {"setup_s", "s", Percentile(setup_s, 0.5)},
      {"p50_ms", "ms", p50_ms},
      {"p95_ms", "ms", p95_ms},
      {"throughput", "1/s", throughput},
      {"cost_ratio", "ratio", exact.cost_ratio},
      {"completion_rate", "ratio", exact.completion_rate},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
  for (const Metric& m : e2e) {
    std::string note;
    if (m.name == "p50_ms" || m.name == "p95_ms") {
      note = " (n=" + std::to_string(n) + ")";
    }
    PrintMetric(m, note);
  }
  PrintMetric({"fail_share", "ratio",
               static_cast<double>(failed) / attempted});
  std::printf("exact figures (one verification pass over the pool):\n");
  for (const Metric& m : exact.figures) PrintMetric(m);

  if (!args.trace) {
    metrics = e2e;
  } else {
    for (const std::vector<Metric>& group :
         {workload->LayerMetrics(*tracer), LayerShares(*tracer, kLayers),
          exact.figures}) {
      metrics.insert(metrics.end(), group.begin(), group.end());
    }
    const double traced_tp = traced.Throughput();
    metrics.push_back({"trace.overhead", "ratio",
                       traced_tp > 0 ? throughput / traced_tp - 1
                                     : 0});
    std::printf("per-layer (traced, %zu requests in %.3f s, %zu spans):\n",
                traced.latencies_s.size(), traced.elapsed_s,
                tracer->spans().size());
    for (const Metric& m : metrics) PrintMetric(m);
    if (!args.trace_out.empty()) {
      const std::string path = args.trace_out + "/" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".csv";
      Status written = tracer->WriteCsv(path);
      std::printf("spans -> %s%s\n", path.c_str(),
                  written.ok() ? "" : " (write failed)");
    }
  }

  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wsflow::perfbench

int main(int argc, char** argv) {
  return wsflow::perfbench::Main(argc, argv);
}
