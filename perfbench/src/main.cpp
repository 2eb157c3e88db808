// perfbench: one workload per invocation.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --state-dir=DIR [--corrupt-digest=1]
//
// Sets the workload up kSetupReps times (set-up time is their median),
// measures the last launch for S seconds, checks the outputs, and prints
// one JSON line last: the end-to-end metrics untraced, the per-layer
// metrics traced. --corrupt-digest flips a byte of the digest under check, which
// must turn the run into failed operations (the negative check).
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "perfbench.hpp"

namespace {

using perfbench::Metrics;
using perfbench::QuantileOf;

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> m;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    size_t eq = a.find('=');
    if (eq != std::string::npos) {
      m[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      m[a.substr(2)] = argv[++i];
    }
  }
  return m;
}

// Set-up is short and jittery (thread spawns, fork), so it is repeated.
constexpr int kSetupReps = 15;

double Median(const std::vector<double>& v) { return QuantileOf(v, 0.5); }

bool Has(const std::string& s, const char* part) {
  return s.find(part) != std::string::npos;
}

// Units follow the metric names (BENCHMARK.json lists the same pairs).
const char* UnitOf(const std::string& n) {
  if (Has(n, "_mb_s")) return "MB/s";
  if (Has(n, "_frames_s")) return "1/s";
  if (Has(n, "_recs_per_s")) return "recs/s";
  if (Has(n, "cpu_s_per_mrec")) return "s/Mrec";
  if (Has(n, "_us_")) return "us";
  if (Has(n, "_ns")) return "ns";
  if (Has(n, "_ms")) return "ms";
  if (Has(n, "_mb")) return "MB";
  if (n == "setup_s") return "s";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  auto get = [&](const char* k, const char* def) {
    auto it = args.find(k);
    return it == args.end() ? std::string(def) : it->second;
  };
  const perfbench::WorkloadSpec* spec =
      perfbench::FindWorkload(get("workload", ""));
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown --workload; one of:");
    for (const auto& s : perfbench::AllWorkloads()) {
      std::fprintf(stderr, " %s", s.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  perfbench::RunOptions opt;
  opt.seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
  opt.seconds = std::strtod(get("seconds", "10").c_str(), nullptr);
  opt.trace = get("trace", "0") == "1";
  opt.state_dir = get("state-dir", "");
  const bool corrupt = get("corrupt-digest", "0") == "1";
  if (opt.state_dir.empty() || opt.seconds <= 0) {
    std::fprintf(stderr, "--state-dir and --seconds > 0 are required\n");
    return 2;
  }
  std::filesystem::create_directories(opt.state_dir);
  ::alarm(175);  // a wedged run dies instead of hanging its caller

  // ---- Set-up repetitions, then the measured launch. --------------------
  std::vector<double> setups;
  std::vector<std::string> problems;
  perfbench::RunOptions setup_opt = opt;
  setup_opt.setup_only = true;
  for (int r = 0; r + 1 < kSetupReps; ++r) {
    perfbench::RunOutcome s = perfbench::RunWorkload(*spec, setup_opt);
    setups.push_back(s.setup_s);
    for (auto& p : s.problems) problems.push_back("set-up: " + p);
  }
  perfbench::RunOutcome run = perfbench::RunWorkload(*spec, opt);
  setups.push_back(run.setup_s);
  for (auto& p : run.problems) problems.push_back(p);

  // ---- Correctness outside the timed interval. ---------------------------
  std::string digest =
      perfbench::DigestCheck(*spec, opt.seed, opt.state_dir, corrupt);
  if (!digest.empty()) problems.push_back("digest check: " + digest);

  // ---- Operations. ---------------------------------------------------------
  // Closed loop: records. Open loop: epochs and migrations.
  const uint64_t attempted =
      run.total.closed_sent + run.epochs + run.migrations;
  uint64_t failed = (run.epochs - std::min(run.epochs, run.epochs_done)) +
                    (run.migrations - run.migrations_installed);
  if (run.steady_lat_ms.empty()) problems.push_back("no steady epochs");
  if (run.mig_max_ms.empty()) problems.push_back("no migration installed");
  if (!problems.empty()) failed = attempted;
  const bool correct = problems.empty() && failed == 0;

  const double p50 = perfbench::MedianOfSeconds(run.steady_by_second, 0.5);
  const double p90 = perfbench::MedianOfSeconds(run.steady_by_second, 0.9);
  const double p99 = QuantileOf(run.steady_lat_ms, 0.99);  // pooled
  const double mig_max = Median(run.mig_max_ms);
  const double mig_dur = Median(run.mig_dur_ms);
  const double gen_lag_ms = static_cast<double>(run.total.gen_lag_ns) * 1e-6;

  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              spec->name.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  std::printf("# records=%" PRIu64 " (closed %" PRIu64 ", open %" PRIu64
              ") epochs=%" PRIu64 "/%" PRIu64 " migrations=%" PRIu64
              "/%" PRIu64 " steady_epochs=%zu\n",
              run.records, run.total.closed_sent, run.total.open_sent,
              run.epochs_done, run.epochs, run.migrations_installed,
              run.migrations, run.steady_lat_ms.size());
  std::printf("# closed-loop segment throughput recs/s:");
  for (double t : run.seg_throughput) std::printf(" %.4g", t);
  std::printf("\n# steady latency ms: p50 %.4f p90 %.4f (medians over "
              "seconds), pooled p99 %.4f\n", p50, p90, p99);
  std::printf("# setup_s reps:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n# per-migration max latency ms:");
  for (double m : run.mig_max_ms) std::printf(" %.2f", m);
  std::printf("\n# per-migration duration ms:");
  for (double m : run.mig_dur_ms) std::printf(" %.2f", m);
  std::printf("\n# context: harness.generator_lag_ms=%.3f "
              "os.invol_ctx_switches=%" PRIu64
              " os.cpu_s=%.2f os.steal_pct=%.2f\n",
              gen_lag_ms, run.total.invol_cs, run.total.cpu_s,
              run.total.steal_pct);
  for (const auto& p : problems) std::printf("# PROBLEM: %s\n", p.c_str());

  Metrics m;
  if (!opt.trace) {
    m.emplace_back("throughput_recs_per_s", run.throughput);
    m.emplace_back("mig_max_latency_ms", mig_max);
    m.emplace_back("mig_duration_ms", mig_dur);
    m.emplace_back("peak_rss_mb", run.peak_rss_mb);
    m.emplace_back("setup_s", Median(setups));
  } else {
    const perfbench::ProcReport& t = run.total;
    m.emplace_back("timely.step_us_p50",
                   static_cast<double>(run.steps.Quantile(0.5)) * 1e-3);
    m.emplace_back("timely.step_us_p99",
                   static_cast<double>(run.steps.Quantile(0.99)) * 1e-3);
    m.emplace_back("timely.send_ns_per_rec",
                   t.send_recs ? static_cast<double>(t.send_ns) /
                                     static_cast<double>(t.send_recs)
                               : 0.0);
    m.emplace_back("timely.drain_ms", run.drain_ms);
    std::vector<double> stall_ms, steps;
    for (uint64_t k = 0; k < run.migrations && k < perfbench::kMaxMigrations;
         ++k) {
      stall_ms.push_back(static_cast<double>(t.mig_step_max_ns[k]) * 1e-6);
    }
    for (uint64_t s : run.mig_steps) steps.push_back(static_cast<double>(s));
    m.emplace_back("megaphone.mig_step_ms_max", Median(stall_ms));
    m.emplace_back("megaphone.mig_steps", Median(steps));
    m.emplace_back("megaphone.mig_chunk_frames",
                   run.migrations ? static_cast<double>(t.chunk_frames) /
                                        static_cast<double>(run.migrations)
                                  : 0.0);
    perfbench::RunLedger(opt.state_dir, opt.seed, &m);
    m.emplace_back("harness.generator_lag_ms", gen_lag_ms);
    m.emplace_back("harness.latency_p50_ms", p50);
    m.emplace_back("harness.latency_p90_ms", p90);
    m.emplace_back("harness.latency_p99_ms", p99);
    const double mrec = static_cast<double>(run.records) / 1e6;
    m.emplace_back("os.cpu_s_per_mrec", mrec > 0 ? t.cpu_s / mrec : 0.0);
    m.emplace_back("os.invol_ctx_switches", static_cast<double>(t.invol_cs));
    m.emplace_back("os.disk_read_mb", static_cast<double>(t.read_bytes) / 1e6);
    m.emplace_back("os.disk_write_mb",
                   static_cast<double>(t.write_bytes) / 1e6);
    // The end-to-end figures of this traced run; against the untraced
    // run's they give the tracing overhead.
    m.emplace_back("traced.throughput_recs_per_s", run.throughput);
    m.emplace_back("traced.mig_max_latency_ms", mig_max);
    m.emplace_back("traced.mig_duration_ms", mig_dur);
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m[i].first.c_str(), m[i].second,
                UnitOf(m[i].first));
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
