// Extension: sharded parallel cluster engine at fleet scale.
//
// Not a paper artifact: this bench measures the cluster simulator against
// itself and writes the numbers to BENCH_cluster_scale.json so CI can track
// them. Two legs:
//
//   scale200  — a 200-replica fleet serving a steady fixed-shape load,
//               simulated with --jobs=1 and --jobs=N. Both runs carry the
//               invariant checker and must produce byte-identical telemetry
//               (results_match, enforced unconditionally); the speedup
//               target (>= 3x at 8 workers) is only judged on hosts with at
//               least 4 cores ("checked" records whether it was). The
//               checker-on runs are timed too (checked_serial_s and
//               checked_parallel_s), next to the checker-off timings.
//   megafleet — a 1000-replica fleet ceiling serving a full diurnal day of
//               >= 1M requests under the metrics-driven autoscaler. The
//               point is absolute wall clock: a fleet-day simulates in
//               seconds, so capacity planning sweeps are interactive.
//
// Perf targets are reported in the JSON but only fail the process under
// --selfcheck; a *correctness* divergence (parallel run changing any result)
// exits nonzero regardless.
//
// Flags: --quick (reduced scale, for CI), --selfcheck (enforce speedup /
// scale / checker assertions), --jobs=N (default 0 = all cores),
// --out=FILE (default BENCH_cluster_scale.json)

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/simulator/cluster_simulator.h"
#include "src/simulator/telemetry.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/diurnal.h"
#include "src/workload/trace.h"

using namespace sarathi;

namespace {

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

std::string FlagValue(int argc, char** argv, const char* flag) {
  std::string prefix = std::string("--") + flag + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

double WallS(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Full telemetry byte stream: the strongest equality we can ask of two runs.
std::string Fingerprint(const SimResult& result) {
  std::ostringstream out;
  WriteRequestMetricsCsv(result, out);
  WriteAggregateCsv(result, out);
  WriteIterationLogCsv(result, out);
  WriteTbtSamplesCsv(result, out);
  return out.str();
}

ClusterOptions FleetOptions(int replicas) {
  Deployment deployment = MistralOnA100();
  ClusterOptions options;
  options.replica.model = deployment.model;
  options.replica.cluster = deployment.cluster;
  options.replica.parallel = deployment.parallel;
  options.replica.scheduler = SarathiConfig(512);
  options.num_replicas = replicas;
  options.routing = RoutingPolicy::kRoundRobin;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("Cluster scale: sharded parallel engine + autoscaled megafleet",
                "(not a paper figure) 200 replicas serial vs parallel must match "
                "byte-for-byte; a 1000-replica diurnal fleet-day must simulate in "
                "seconds.");

  bool quick = HasFlag(argc, argv, "--quick");
  bool selfcheck = HasFlag(argc, argv, "--selfcheck");
  int jobs = 0;  // All cores.
  std::string jobs_flag = FlagValue(argc, argv, "jobs");
  if (!jobs_flag.empty()) jobs = std::stoi(jobs_flag);
  std::string out_path = FlagValue(argc, argv, "out");
  if (out_path.empty()) out_path = "BENCH_cluster_scale.json";
  int resolved_jobs = ResolveJobs(jobs);
  unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  // ---- scale200: serial vs parallel, byte-identical, checker on ----
  const int scale_replicas = quick ? 40 : 200;
  const int64_t scale_requests = quick ? 4000 : 20000;
  // Steady saturating-ish load spread round-robin: every replica gets an
  // equal slice, so shards stay balanced and the speedup ceiling is the
  // worker count.
  Trace scale_trace = UniformTrace(scale_requests, 256, 32, 0.01);

  auto run_fleet = [&](int run_jobs, InvariantChecker* checker) {
    ClusterOptions options = FleetOptions(scale_replicas);
    options.jobs = run_jobs;
    options.replica.checker = checker;
    ClusterSimulator simulator(options);
    return simulator.Run(scale_trace);
  };

  // Times one checker-on run and keeps only its fingerprint.
  auto run_checked = [&](int run_jobs, InvariantChecker* checker, std::string* print) {
    SimResult result;
    double seconds = WallS([&] { result = run_fleet(run_jobs, checker); });
    *print = Fingerprint(result);
    return seconds;
  };
  InvariantChecker serial_checker;
  InvariantChecker parallel_checker;
  std::string serial_print;
  std::string parallel_print;
  double checked_serial_s = run_checked(1, &serial_checker, &serial_print);
  double checked_parallel_s = run_checked(resolved_jobs, &parallel_checker, &parallel_print);
  bool results_match = serial_print == parallel_print;
  bool checker_clean = serial_checker.ok() && parallel_checker.ok() &&
                       parallel_checker.iterations_checked() > 0;

  double serial_s = WallS([&] { run_fleet(1, nullptr); });
  // On a single-core host the parallel leg inlines onto the identical serial
  // path; re-timing it would only measure noise (see bench_perf_selfcheck).
  double parallel_s =
      RunsInline(resolved_jobs) ? serial_s : WallS([&] { run_fleet(resolved_jobs, nullptr); });
  double speedup = serial_s / parallel_s;
  bool speedup_checked = cores >= 4 && resolved_jobs >= 2;
  bool speedup_pass = !speedup_checked || speedup >= 3.0;

  std::cout << "\nscale" << scale_replicas << " (" << scale_requests
            << " requests): --jobs=1 " << Table::Num(serial_s, 2) << " s, --jobs="
            << resolved_jobs << " " << Table::Num(parallel_s, 2) << " s -> "
            << Table::Num(speedup, 2) << "x "
            << (speedup_checked ? "(target 3x)" : "(target 3x skipped: too few cores)")
            << (results_match ? "" : "  RESULTS DIVERGED")
            << (checker_clean ? "" : "  CHECKER VIOLATIONS") << "\n"
            << "  checker on: --jobs=1 " << Table::Num(checked_serial_s, 2) << " s, --jobs="
            << resolved_jobs << " " << Table::Num(checked_parallel_s, 2) << " s\n";

  // ---- megafleet: a 1000-replica diurnal day under the autoscaler ----
  const int mega_replicas = quick ? 200 : 1000;
  DiurnalOptions day;
  day.mean_qps = 12.0;
  day.duration_s = quick ? 8640.0 : 86400.0;
  day.period_s = day.duration_s;
  day.peak_at_s = day.duration_s / 2.0;
  day.peak_to_trough = 6.0;
  day.seed = 42;
  Trace mega_trace = UniformDiurnalTrace(day, 512, 64);

  ClusterOptions mega = FleetOptions(mega_replicas);
  mega.jobs = jobs;
  mega.autoscale.min_replicas = 4;
  mega.autoscale.scale_out_queue_s = 0.25;
  mega.autoscale.scale_in_queue_s = 0.05;
  mega.autoscale.provisioning_lag_s = 10.0;
  mega.autoscale.eval_interval_s = 5.0;
  mega.autoscale.cooldown_s = 10.0;
  SimResult mega_result;
  double mega_wall_s =
      WallS([&] { mega_result = ClusterSimulator(mega).Run(mega_trace); });
  bool mega_scaled = mega_result.autoscale_out > 0 &&
                     mega_result.peak_provisioned_replicas > mega.autoscale.min_replicas;

  std::cout << "megafleet (" << mega_replicas << " replicas, " << mega_trace.size()
            << " requests, " << Table::Num(day.duration_s / 3600.0, 1)
            << " h diurnal): " << Table::Num(mega_wall_s, 2) << " s wall, peak "
            << mega_result.peak_provisioned_replicas << " provisioned, "
            << mega_result.autoscale_out << "/" << mega_result.autoscale_in
            << " scale out/in, " << Table::Num(mega_result.replica_seconds_provisioned, 0)
            << " replica-s (" << Table::Num(mega_result.autoscale_cost_gpu_s, 0)
            << " GPU-s cost proxy)\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"cores\": " << cores << ",\n"
      << "  \"scale\": {\"replicas\": " << scale_replicas
      << ", \"requests\": " << scale_requests << ", \"jobs\": " << resolved_jobs
      << ", \"serial_s\": " << serial_s << ", \"parallel_s\": " << parallel_s
      << ", \"speedup\": " << speedup << ", \"checked_serial_s\": " << checked_serial_s
      << ", \"checked_parallel_s\": " << checked_parallel_s
      << ", \"target\": 3.0, \"checked\": "
      << (speedup_checked ? "true" : "false") << ", \"pass\": "
      << (speedup_pass ? "true" : "false") << ", \"results_match\": "
      << (results_match ? "true" : "false") << ", \"checker_clean\": "
      << (checker_clean ? "true" : "false") << "},\n"
      << "  \"megafleet\": {\"replicas\": " << mega_replicas
      << ", \"requests\": " << mega_trace.size() << ", \"duration_s\": " << day.duration_s
      << ", \"wall_s\": " << mega_wall_s << ", \"peak_provisioned\": "
      << mega_result.peak_provisioned_replicas << ", \"scale_out\": "
      << mega_result.autoscale_out << ", \"scale_in\": " << mega_result.autoscale_in
      << ", \"replica_seconds_provisioned\": " << mega_result.replica_seconds_provisioned
      << ", \"cost_gpu_s\": " << mega_result.autoscale_cost_gpu_s << "}\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";

  if (!results_match) {
    std::cerr << "FAIL: parallel cluster run changed simulation results\n";
    return 1;
  }
  if (selfcheck) {
    if (!checker_clean) {
      std::cerr << "FAIL: invariant checker reported violations\n"
                << serial_checker.Report() << parallel_checker.Report();
      return 1;
    }
    if (!speedup_pass) {
      std::cerr << "FAIL: parallel speedup " << speedup << " below 3x target\n";
      return 1;
    }
    if (!mega_scaled) {
      std::cerr << "FAIL: megafleet autoscaler never scaled out\n";
      return 1;
    }
    if (!quick && mega_trace.size() < 1000000) {
      std::cerr << "FAIL: megafleet day below 1M requests\n";
      return 1;
    }
  }
  return 0;
}
