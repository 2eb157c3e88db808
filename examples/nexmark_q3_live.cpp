// NEXMark Q3 with live migration: runs the incremental person⋈auction
// join under an open-loop event stream, rebalances its state twice with
// the batched strategy, and prints the latency timeline — a miniature of
// the paper's Figure 7 experiment, as a library user would run it.
//
// With --processes=P the binary self-forks into a P-process TCP mesh:
// join state migrates across OS processes mid-stream and each process
// contributes its own latency shard to the printed (merged) timeline.
//
//   build/example_nexmark_q3_live [--rate N] [--duration_ms N]
//                                 [--processes P] [--workers W]
#include <cstdio>

#include "harness/launcher.hpp"
#include "harness/nexmark_workload.hpp"
#include "harness/report.hpp"

using namespace megaphone;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint32_t processes =
      static_cast<uint32_t>(flags.GetInt("processes", 1));
  const uint32_t workers = static_cast<uint32_t>(flags.GetInt("workers",
                                                              4));
  NexmarkBenchConfig cfg;
  cfg.query = 3;
  cfg.use_megaphone = true;
  cfg.workers = processes * workers;
  cfg.rate = flags.GetDouble("rate", 40'000);
  cfg.duration_ms = flags.GetInt("duration_ms", 4000);
  cfg.qcfg.num_bins = static_cast<uint32_t>(flags.GetInt("bins", 256));
  cfg.strategy = MigrationStrategy::kBatched;
  cfg.batch_size = 16;

  auto imbalanced =
      MakeImbalancedAssignment(cfg.qcfg.num_bins, cfg.workers);
  auto balanced = MakeInitialAssignment(cfg.qcfg.num_bins, cfg.workers);
  cfg.schedule = {{cfg.duration_ms * 2 / 5, imbalanced},
                  {cfg.duration_ms * 7 / 10, balanced}};

  std::printf("NEXMark Q3 (megaphone) at %.0f events/s on %u workers "
              "(%u process(es));\n"
              "batched migrations at %llu ms (25%% of bins out) and %llu ms "
              "(back).\n\n",
              cfg.rate, cfg.workers, processes,
              static_cast<unsigned long long>(cfg.schedule[0].first),
              static_cast<unsigned long long>(cfg.schedule[1].first));

  auto r = RunForked(processes, workers, [&](const timely::Config& tc) {
    return RunNexmarkBench(cfg, tc);
  });
  PrintTimeline("q3-live", r.timeline);
  std::printf("\nquery produced %llu join results (events from %zu "
              "process shards); %zu migrations:\n",
              static_cast<unsigned long long>(r.outputs), r.shards.size(),
              r.migrations.size());
  for (size_t i = 0; i < r.migrations.size(); ++i) {
    std::printf("  migration %zu: %.2fs..%.2fs (%zu batches), max latency "
                "%.2f ms\n",
                i, r.migrations[i].start_sec, r.migrations[i].end_sec,
                r.migrations[i].batches, r.migrations[i].max_ms);
  }
  std::printf("\nthe join kept answering throughout: no pause, no restart.\n");
  return 0;
}
