// The unified figure-bench driver behind `megabench`: one flag surface
// (--fig/--query/--strategy/--workers/--processes/--records/--out), one
// distributed launch path, one merged JSON report schema.
//
// Every figure of the paper's evaluation runs through here. With
// --processes=P the driver forks a fresh P-process group per variant run
// (fresh kernel-assigned ports, fresh TCP mesh), each process measures
// its own latency shard, and the shards merge on process 0 — so the
// numbers include the serialization and wire costs the paper is about.
// Manual mode (--process-index, for multi-terminal or multi-machine
// runs) skips the fork: every process must be started with identical
// flags and runs the same variant sequence in lockstep.
//
// A figure is its variant table, its config block and its own keys.
// Every count figure builds its base config with CountConfigFromFlags
// (workers, bins, domain, rate, run length and the chunk bound over the
// figure's defaults), and every open-loop figure (1, 5-20, 22, 24, 25)
// runs and reports its variants through one VariantRunner.
//
// Reports: text tables print to stdout, and one merged JSON report is
// written to --out (default megabench_figN.json). VariantRunner writes
// one common block per variant, BeginVariant below: label, strategy,
// processes_reporting, records or events sent, steady percentiles,
// migration windows with max_latency_during_migration_ms, latency
// timeline rows and RSS; a figure adds only its own keys. README.md
// lists the schema.
#pragma once

#include <stdlib.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <system_error>
#include <tuple>
#include <type_traits>
#include <vector>

#include "fault/fault.hpp"
#include "harness/count_workload.hpp"
#include "harness/launcher.hpp"
#include "harness/nexmark_workload.hpp"
#include "harness/report.hpp"
#include "harness/steady_workload.hpp"

namespace megaphone {

/// Figure id used for Table 1 (NEXMark LOC comparison).
constexpr int kFigTable1 = 21;
/// Figure id of the chunked-vs-monolithic large-state migration bench
/// (the fig. 15 large-state scenario, measured under migration).
constexpr int kFigChunk = 22;
/// Figure id of the fault drill: kill one process mid-run, recover from
/// the latest checkpoint, report recovery time and digest equality.
constexpr int kFigRecovery = 23;
/// Figure id of the hot-key-flip drill: uniform load flips mid-run onto
/// one worker's bins; the closed-loop adaptive controller must detect
/// the skew and rebalance without any fixed migration schedule.
constexpr int kFigAdaptive = 24;
/// Figure id of the spill drill: an RSS-bounded count run whose total
/// state exceeds the memory cap several times over — the spill-to-disk
/// LogState backend must complete it (chunked migration included) under
/// the cap, where the in-memory MapState baseline cannot.
constexpr int kFigSpill = 25;

// ---------------------------------------------------------------- procs

/// Process topology for bench runs, parsed from the common flags. Owns
/// the launch policy: fork-per-run (fresh ports and mesh each time) or
/// manual lockstep.
class BenchProcs {
 public:
  explicit BenchProcs(const Flags& flags, uint32_t default_workers = 4)
      : processes_(static_cast<uint32_t>(flags.GetInt("processes", 1))),
        workers_(static_cast<uint32_t>(
            flags.GetInt("workers", default_workers))),
        manual_(flags.Has("process-index")),
        fault_(fault::FaultSpec::Parse(flags.GetStr("fault", ""))) {
    MEGA_CHECK_GE(processes_, 1u);
    if (manual_) {
      manual_cfg_ = SetupProcessesFromFlags(flags, default_workers).config;
      manual_cfg_.fault = fault_;
    }
  }

  uint32_t processes() const { return processes_; }
  uint32_t workers_per_process() const { return workers_; }
  uint32_t total_workers() const { return processes_ * workers_; }
  /// True when this process owns the report (fork mode: always — forked
  /// children never return; manual mode: process 0 only).
  bool IsRoot() const { return !manual_ || manual_cfg_.process_index == 0; }

  /// Runs one open-loop variant (a CountBenchConfig or a
  /// NexmarkBenchConfig) under this topology.
  template <typename Cfg>
  auto Run(const Cfg& cfg) {
    MEGA_CHECK_EQ(cfg.workers, total_workers());
    TrimHeap();
    auto run = [&](const timely::Config& tc) {
      if constexpr (std::is_same_v<Cfg, CountBenchConfig>) {
        return RunCountBench(cfg, tc);
      } else {
        return RunNexmarkBench(cfg, tc);
      }
    };
    if (manual_) return run(manual_cfg_);
    if (processes_ <= 1) return run(timely::Config{cfg.workers});
    return RunForked(processes_, workers_, [&](timely::Config tc) {
      tc.fault = fault_;
      return run(tc);
    });
  }

 private:
  /// The driver process is worker 0 of every forked run, so one
  /// variant's allocator high-water would pollute the next variant's
  /// RSS samples (glibc keeps freed pages resident). Return them to the
  /// OS before each run; decisive for the fig-25 RSS-cap comparison.
  static void TrimHeap() {
#if defined(__GLIBC__)
    ::malloc_trim(0);
#endif
  }

  uint32_t processes_;
  uint32_t workers_;
  bool manual_;
  timely::Config manual_cfg_;
  fault::FaultSpec fault_;
};

namespace benchjson {

inline void Timeline_(JsonWriter& j, const Timeline& tl) {
  j.Key("timeline").BeginArray();
  for (const auto& r : tl.Rows()) {
    j.BeginObject();
    j.Key("t_sec").Value(r.t_sec);
    j.Key("max_ms").Value(r.max_ms);
    j.Key("p99_ms").Value(r.p99_ms);
    j.Key("p50_ms").Value(r.p50_ms);
    j.Key("p25_ms").Value(r.p25_ms);
    j.Key("samples").Value(r.samples);
    j.EndObject();
  }
  j.EndArray();
}

inline void HistSummary(JsonWriter& j, const char* key, const Histogram& h) {
  j.Key(key).BeginObject();
  j.Key("p50_ms").Value(static_cast<double>(h.Quantile(0.50)) * 1e-6);
  j.Key("p90_ms").Value(static_cast<double>(h.Quantile(0.90)) * 1e-6);
  j.Key("p99_ms").Value(static_cast<double>(h.Quantile(0.99)) * 1e-6);
  j.Key("p9999_ms").Value(static_cast<double>(h.Quantile(0.9999)) * 1e-6);
  j.Key("max_ms").Value(static_cast<double>(h.max()) * 1e-6);
  j.Key("samples").Value(h.total());
  j.EndObject();
}

inline void Ccdf_(JsonWriter& j, const Histogram& h) {
  j.Key("ccdf").BeginArray();
  for (const auto& [ns, frac] : h.Ccdf()) {
    j.BeginArray();
    j.Value(static_cast<double>(ns) * 1e-6);
    j.Value(frac);
    j.EndArray();
  }
  j.EndArray();
}

/// Migration windows plus the headline number: the maximum latency
/// observed (across every process) during any migration window.
inline void Migrations(JsonWriter& j,
                       const std::vector<MigrationStats>& migs) {
  j.Key("migrations").BeginArray();
  for (const auto& m : migs) {
    j.BeginObject();
    j.Key("start_sec").Value(m.start_sec);
    j.Key("end_sec").Value(m.end_sec);
    j.Key("duration_sec").Value(m.duration_sec());
    j.Key("max_latency_ms").Value(m.max_ms);
    j.Key("batches").Value(static_cast<uint64_t>(m.batches));
    j.Key("chunk_frames").Value(m.chunk_frames);
    j.Key("chunk_bytes").Value(m.chunk_bytes);
    j.EndObject();
  }
  j.EndArray();
  j.Key("max_latency_during_migration_ms").Value(MaxDuringMigration(migs));
}

/// Per-process RSS samples pooled on one time axis, plus the peak. Every
/// figure report carries memory now, not just the paper's Fig. 20 — the
/// spill backend's RSS-bound gate reads `peak_rss_bytes`.
inline void Rss_(JsonWriter& j, const std::vector<RssSample>& rss) {
  uint64_t peak = 0;
  j.Key("rss").BeginArray();
  for (const auto& [t, bytes] : rss) {
    j.BeginArray();
    j.Value(t);
    j.Value(bytes);
    j.EndArray();
    peak = std::max(peak, bytes);
  }
  j.EndArray();
  j.Key("peak_rss_bytes").Value(peak);
}

/// Opens one open-loop variant's report object with the keys every such
/// figure shares: label, strategy, processes_reporting, what was sent
/// (count: records_sent and achieved_rate_per_s; NEXMark: events_sent
/// and outputs), the steady summary, the migration windows (skipped
/// without a strategy: the native panel cannot migrate), the timeline
/// and RSS. The caller adds its own keys and closes the object.
template <typename Result>
void BeginVariant(JsonWriter& j, const char* label,
                  std::optional<MigrationStrategy> strategy,
                  const Result& r) {
  j.BeginObject();
  j.Key("label").Value(label);
  j.Key("strategy").Value(strategy ? StrategyName(*strategy) : "none");
  j.Key("processes_reporting").Value(static_cast<uint64_t>(r.shards.size()));
  if constexpr (std::is_same_v<Result, CountBenchResult>) {
    j.Key("records_sent").Value(r.records_sent);
    j.Key("achieved_rate_per_s")
        .Value(r.duration_sec > 0
                   ? static_cast<double>(r.records_sent) / r.duration_sec
                   : 0.0);
  } else {
    j.Key("events_sent").Value(r.records_sent);
    j.Key("outputs").Value(r.outputs);
  }
  HistSummary(j, "steady", r.steady);
  if (strategy) Migrations(j, r.migrations);
  Timeline_(j, r.timeline);
  Rss_(j, r.rss_samples);
}

}  // namespace benchjson

// ---------------------------------------------------------------- flags

/// Resolves the run length: --records (total injected records at --rate)
/// wins over --duration_ms; floor of 250 ms so the timeline has at least
/// one bucket.
inline uint64_t DurationMsFromFlags(const Flags& flags, double rate,
                                    uint64_t dflt_ms) {
  if (flags.Has("records")) {
    uint64_t records = flags.GetInt("records", 0);
    uint64_t ms = static_cast<uint64_t>(
        static_cast<double>(records) * 1000.0 / rate);
    return std::max<uint64_t>(ms, 250);
  }
  return flags.GetInt("duration_ms", dflt_ms);
}

/// A count figure's base config: every worker of `procs`, key-count, and
/// --bins, --domain, --rate, the run length (DurationMsFromFlags) and
/// --chunk-bytes (0 = monolithic single-frame migration) over the
/// figure's defaults.
inline CountBenchConfig CountConfigFromFlags(
    const BenchProcs& procs, const Flags& flags, uint32_t bins,
    uint64_t domain, double rate, uint64_t duration_ms,
    uint64_t chunk_bytes = 0) {
  CountBenchConfig c;
  c.workers = procs.total_workers();
  c.num_bins = static_cast<uint32_t>(flags.GetInt("bins", bins));
  c.domain = flags.GetInt("domain", domain);
  c.rate = flags.GetDouble("rate", rate);
  c.duration_ms = DurationMsFromFlags(flags, c.rate, duration_ms);
  c.chunk_bytes = flags.GetInt("chunk-bytes", chunk_bytes);
  return c;
}

/// Opens a count figure's "config" object with the keys most share; the
/// figure adds its own and closes it.
inline void BeginCountConfig(JsonWriter& j, const char* workload,
                             const CountBenchConfig& c) {
  j.Key("config").BeginObject();
  j.Key("workload").Value(workload);
  j.Key("domain").Value(c.domain);
  j.Key("rate").Value(c.rate);
  j.Key("duration_ms").Value(c.duration_ms);
}

/// --strategy=LABEL filters the variant set; "all" (default) keeps every
/// variant. Matches the variant label or the StrategyName.
inline bool VariantEnabled(const Flags& flags, const char* label,
                           MigrationStrategy strategy) {
  std::string want = flags.GetStr("strategy", "all");
  return want == "all" || want == label || want == StrategyName(strategy);
}

/// The native (non-Megaphone) panel has no migration strategy; it runs
/// only when unfiltered or explicitly requested.
inline bool NativeEnabled(const Flags& flags) {
  std::string want = flags.GetStr("strategy", "all");
  return want == "all" || want == "native";
}

// ------------------------------------------------------ variant report

/// The open-loop figures' variant runner (figs 1, 5-20, 22, 24 and 25).
/// It opens the report's "variants" array; each Run runs one variant and,
/// on the root, prints its timeline, its migration summary and its steady
/// p99 / max-during-migration line (a variant without a strategy, such as
/// the native panel or an overhead row, has no migrations), then writes
/// the shared JSON block (benchjson::BeginVariant), lets `extra(r)` write
/// the figure's own keys and print-outs, and closes the variant. End
/// closes the array.
class VariantRunner {
 public:
  VariantRunner(BenchProcs& procs, JsonWriter& j) : procs_(procs), j_(j) {
    j_.Key("variants").BeginArray();
  }

  template <typename Cfg, typename Extra>
  void Run(const char* label, const Cfg& cfg,
           std::optional<MigrationStrategy> strategy, Extra&& extra) {
    auto r = procs_.Run(cfg);
    if (!r.root) return;
    PrintTimeline(label, r.timeline);
    const double p99 = static_cast<double>(r.steady.Quantile(0.99)) * 1e-6;
    if (strategy) {
      uint64_t bins;
      if constexpr (std::is_same_v<Cfg, CountBenchConfig>) {
        bins = cfg.num_bins;
      } else {
        bins = cfg.qcfg.num_bins;
      }
      PrintMigrationSummary(label, bins, "bins", r.migrations);
      max_ms_.emplace_back(label, MaxDuringMigration(r.migrations));
      std::printf("# %s: steady p99 = %.3f ms, max during migration = "
                  "%.3f ms\n",
                  label, p99, max_ms_.back().second);
    } else {
      std::printf("# %s: steady p99 = %.3f ms\n", label, p99);
    }
    benchjson::BeginVariant(j_, label, strategy, r);
    extra(r);
    j_.EndObject();
    std::printf("\n");
  }

  /// Closes the array; returns every reported migrating variant's
  /// (label, max latency during migration), in run order.
  const std::vector<std::pair<const char*, double>>& End() {
    j_.EndArray();
    return max_ms_;
  }

 private:
  BenchProcs& procs_;
  JsonWriter& j_;
  std::vector<std::pair<const char*, double>> max_ms_;
};

// -------------------------------------------------- count timeline figs

/// Figure 1: migration latency timelines on the key-count workload,
/// all-at-once vs fluid vs optimized.
inline void RunFig01(BenchProcs& procs, const Flags& flags, JsonWriter& j) {
  CountBenchConfig base =
      CountConfigFromFlags(procs, flags, 1024, 1 << 23, 400'000, 6000);
  base.batch_size = flags.GetInt("batch_size", 64);
  const uint64_t migrate_at =
      flags.GetInt("migrate_at_ms", base.duration_ms / 3);
  base.schedule = {
      {migrate_at, MakeImbalancedAssignment(base.num_bins, base.workers)}};

  std::printf(
      "# Figure 1: migration latency timelines, key-count, domain=%llu "
      "rate=%.0f workers=%u bins=%u processes=%u\n",
      static_cast<unsigned long long>(base.domain), base.rate, base.workers,
      base.num_bins, procs.processes());

  BeginCountConfig(j, "key-count", base);
  j.Key("bins").Value(static_cast<uint64_t>(base.num_bins));
  j.Key("migrate_at_ms").Value(migrate_at);
  j.Key("chunk_bytes").Value(base.chunk_bytes);
  j.EndObject();

  VariantRunner runner(procs, j);
  for (auto strategy :
       {MigrationStrategy::kAllAtOnce, MigrationStrategy::kFluid,
        MigrationStrategy::kOptimized}) {
    const char* label = StrategyName(strategy);
    if (!VariantEnabled(flags, label, strategy)) continue;
    CountBenchConfig cfg = base;
    cfg.strategy = strategy;
    runner.Run(label, cfg, strategy, [](const CountBenchResult&) {});
  }
  PrintMaxSummary(runner.End());
}

// -------------------------------------------------------- nexmark figs

/// Figures 5-12: NEXMark query latency timelines with two
/// reconfigurations — all-at-once vs Megaphone-batched (+ a native panel
/// for Fig. 7 / Q3).
inline void RunNexmarkFig(BenchProcs& procs, const Flags& flags, int q,
                          bool with_native, JsonWriter& j) {
  NexmarkBenchConfig base;
  base.query = q;
  base.workers = procs.total_workers();
  base.rate = flags.GetDouble("rate", 50'000);
  base.duration_ms = DurationMsFromFlags(flags, base.rate, 5000);
  base.qcfg.num_bins = static_cast<uint32_t>(flags.GetInt("bins", 256));
  base.qcfg.chunk_bytes = flags.GetInt("chunk-bytes", 0);
  base.batch_size = flags.GetInt("batch_size", 16);
  base.gcfg.auction_duration_ms = flags.GetInt("auction_ms", 1000);
  base.qcfg.q5_slide_ms = flags.GetInt("q5_slide_ms", 250);
  base.qcfg.q5_slices = flags.GetInt("q5_slices", 8);
  base.qcfg.q7_window_ms = flags.GetInt("q7_window_ms", 1000);
  base.qcfg.q8_window_ms = flags.GetInt("q8_window_ms", 2000);
  const uint64_t mig1 =
      flags.GetInt("migrate_at_ms", base.duration_ms * 2 / 5);
  const uint64_t mig2 =
      flags.GetInt("migrate2_at_ms", base.duration_ms * 7 / 10);

  std::printf(
      "# NEXMark Q%d: rate=%.0f events/s, workers=%u, bins=%u, "
      "processes=%u, migrations at %llu ms and %llu ms\n",
      q, base.rate, base.workers, base.qcfg.num_bins, procs.processes(),
      static_cast<unsigned long long>(mig1),
      static_cast<unsigned long long>(mig2));

  j.Key("config").BeginObject();
  j.Key("workload").Value("nexmark");
  j.Key("query").Value(q);
  j.Key("rate").Value(base.rate);
  j.Key("duration_ms").Value(base.duration_ms);
  j.Key("bins").Value(static_cast<uint64_t>(base.qcfg.num_bins));
  j.Key("migrate_at_ms").Value(mig1);
  j.Key("migrate2_at_ms").Value(mig2);
  j.EndObject();

  auto print_outputs = [](const NexmarkBenchResult& r) {
    std::printf("# outputs=%llu\n",
                static_cast<unsigned long long>(r.outputs));
  };
  VariantRunner runner(procs, j);
  for (auto [label, strategy] :
       {std::pair{"all-at-once", MigrationStrategy::kAllAtOnce},
        std::pair{"megaphone-batched", MigrationStrategy::kBatched}}) {
    if (!VariantEnabled(flags, label, strategy)) continue;
    NexmarkBenchConfig cfg = base;
    cfg.strategy = strategy;
    cfg.schedule = {
        {mig1, MakeImbalancedAssignment(base.qcfg.num_bins, base.workers)},
        {mig2, MakeInitialAssignment(base.qcfg.num_bins, base.workers)}};
    runner.Run(label, cfg, strategy, print_outputs);
  }
  if (with_native && NativeEnabled(flags)) {
    NexmarkBenchConfig cfg = base;
    cfg.use_megaphone = false;
    runner.Run("native", cfg, std::nullopt, print_outputs);
  }
  const auto& max_ms = runner.End();
  if (max_ms.size() >= 2) {
    std::printf("# summary Q%d: max latency during migration: "
                "%s=%.3f ms, %s=%.3f ms\n",
                q, max_ms[0].first, max_ms[0].second, max_ms[1].first,
                max_ms[1].second);
  }
}

// ------------------------------------------------------- overhead figs

/// Figures 13-15: steady-state overhead of the Megaphone interface —
/// per-record latency CCDF and percentile table per bin count, against
/// the native implementation. No migration occurs.
inline void RunOverheadFig(BenchProcs& procs, const Flags& flags, int fig,
                           JsonWriter& j) {
  // Each Megaphone row sets its own bin count; the native row keeps 256.
  CountBenchConfig base = CountConfigFromFlags(
      procs, flags, 256, fig == 15 ? 1 << 23 : 1 << 20, 100'000, 2000);
  base.mode = fig == 13 ? CountMode::kHashCount : CountMode::kKeyCount;
  const CountMode native_mode =
      fig == 13 ? CountMode::kNativeHash : CountMode::kNativeKey;

  std::vector<uint32_t> log_bins = fig == 15
                                       ? std::vector<uint32_t>{4, 8, 12, 16, 20}
                                       : std::vector<uint32_t>{4, 8, 12, 16, 18};
  if (flags.GetBool("full", false)) {
    log_bins = {4, 6, 8, 10, 12, 14, 16, 18, 20};
  }

  std::printf("# Figure %d: %s overhead, domain=%llu rate=%.0f\n", fig,
              CountModeName(base.mode),
              static_cast<unsigned long long>(base.domain), base.rate);

  BeginCountConfig(j, CountModeName(base.mode), base);
  j.EndObject();

  std::vector<std::pair<std::string, Histogram>> rows;  // name, per_record
  VariantRunner runner(procs, j);
  auto run = [&](const std::string& name, uint64_t bins,
                 const CountBenchConfig& cfg) {
    runner.Run(name.c_str(), cfg, std::nullopt,
               [&](const CountBenchResult& r) {
                 if (bins > 0) j.Key("bins").Value(bins);
                 benchjson::HistSummary(j, "per_record", r.per_record);
                 benchjson::Ccdf_(j, r.per_record);
                 rows.emplace_back(name, r.per_record);
               });
  };
  for (uint32_t lb : log_bins) {
    CountBenchConfig cfg = base;
    cfg.num_bins = 1u << lb;
    if (cfg.num_bins <= cfg.domain) run(std::to_string(lb), cfg.num_bins, cfg);
  }
  if (NativeEnabled(flags)) {
    CountBenchConfig cfg = base;
    cfg.mode = native_mode;
    run("Native", 0, cfg);
  }
  runner.End();

  PrintPercentileHeader();
  for (const auto& [name, hist] : rows) PrintPercentileRow(name, hist);
  std::printf("\n");
  if (flags.GetBool("ccdf", fig != 15)) {
    for (const auto& [name, hist] : rows) PrintCcdf(name.c_str(), hist);
  }
}

// ---------------------------------------------------------- sweep figs

/// Figures 16-18: migration max-latency vs duration sweeps (bins, key
/// domain, and proportional growth).
inline void RunSweepFig(BenchProcs& procs, const Flags& flags, int fig,
                        JsonWriter& j) {
  CountBenchConfig base =
      CountConfigFromFlags(procs, flags, 1024, 1 << 22, 150'000, 4000);
  base.gap_ms = flags.GetInt("gap", 0);
  const uint64_t migrate_at =
      flags.GetInt("migrate_at_ms", base.duration_ms / 5);
  const uint64_t keys_per_bin = flags.GetInt("keys_per_bin", 1 << 12);

  const char* sweep_name =
      fig == 16 ? "bins" : (fig == 17 ? "domain" : "bins-proportional");
  std::printf("# Figure %d: latency vs duration sweep over %s, rate=%.0f\n",
              fig, sweep_name, base.rate);

  j.Key("config").BeginObject();
  j.Key("workload").Value("key-count");
  j.Key("sweep").Value(sweep_name);
  j.Key("rate").Value(base.rate);
  j.Key("duration_ms").Value(base.duration_ms);
  j.Key("migrate_at_ms").Value(migrate_at);
  j.EndObject();

  const bool full = flags.GetBool("full", false);
  std::vector<uint64_t> params;
  if (fig == 16) {
    params = full ? std::vector<uint64_t>{16, 64, 256, 1024, 4096, 16384}
                  : std::vector<uint64_t>{16, 256, 4096};
  } else if (fig == 17) {
    params = full ? std::vector<uint64_t>{1 << 20, 1 << 21, 1 << 22,
                                          1 << 23, 1 << 24, 1 << 25}
                  : std::vector<uint64_t>{1 << 20, 1 << 22, 1 << 24};
  } else {
    params = full ? std::vector<uint64_t>{64, 256, 1024, 4096, 8192}
                  : std::vector<uint64_t>{256, 1024, 4096};
  }

  VariantRunner runner(procs, j);
  for (auto strat : {MigrationStrategy::kAllAtOnce, MigrationStrategy::kFluid,
                     MigrationStrategy::kBatched}) {
    if (!VariantEnabled(flags, StrategyName(strat), strat)) continue;
    for (uint64_t p : params) {
      CountBenchConfig cfg = base;
      cfg.strategy = strat;
      if (fig == 16) {
        cfg.num_bins = static_cast<uint32_t>(p);
        cfg.batch_size = p / 16 == 0 ? 1 : p / 16;
      } else if (fig == 17) {
        cfg.domain = p;
        cfg.batch_size = flags.GetInt("batch_size", 64);
      } else {
        cfg.num_bins = static_cast<uint32_t>(p);
        cfg.domain = keys_per_bin * p;
        cfg.batch_size = 16;
      }
      cfg.schedule = {
          {migrate_at, MakeImbalancedAssignment(cfg.num_bins, cfg.workers)}};
      runner.Run(StrategyName(strat), cfg, strat,
                 [&](const CountBenchResult& r) {
                   if (fig == 17) {
                     PrintMigrationSummary(StrategyName(strat), p, "domain",
                                           r.migrations);
                   }
                   j.Key(fig == 17 ? "domain" : "bins").Value(p);
                 });
    }
  }
  runner.End();
}

// ------------------------------------------------------- fig 19 and 20

/// Figure 19: offered load vs maximum latency for the four
/// configurations (non-migrating, all-at-once, batched, fluid).
inline void RunFig19(BenchProcs& procs, const Flags& flags, JsonWriter& j) {
  CountBenchConfig base =
      CountConfigFromFlags(procs, flags, 1024, 1 << 22, 50'000, 2500);
  // Each row runs at its own rate, which also sets its length under
  // --records; the base length is the --duration_ms one.
  base.duration_ms = flags.GetInt("duration_ms", 2500);
  base.batch_size = 64;

  std::vector<double> rates = {50'000, 100'000, 200'000, 400'000};
  if (flags.GetBool("full", false)) {
    rates = {25'000, 50'000, 100'000, 200'000, 400'000, 800'000, 1'600'000};
  }

  std::printf("# Figure 19: offered load vs max latency; domain=%llu bins=%u\n",
              static_cast<unsigned long long>(base.domain), base.num_bins);

  j.Key("config").BeginObject();
  j.Key("workload").Value("key-count");
  j.Key("domain").Value(base.domain);
  j.Key("bins").Value(static_cast<uint64_t>(base.num_bins));
  j.Key("duration_ms").Value(base.duration_ms);
  j.EndObject();

  using V = std::tuple<const char*, bool, MigrationStrategy>;
  std::vector<std::tuple<const char*, double, double>> table;
  VariantRunner runner(procs, j);
  for (auto [label, migrate, strategy] :
       {V{"non-migrating", false, MigrationStrategy::kAllAtOnce},
        V{"all-at-once", true, MigrationStrategy::kAllAtOnce},
        V{"batched", true, MigrationStrategy::kBatched},
        V{"fluid", true, MigrationStrategy::kFluid}}) {
    if (!VariantEnabled(flags, label, strategy)) continue;
    for (double rate : rates) {
      CountBenchConfig cfg = base;
      cfg.rate = rate;
      // --records bounds each row's run by its own rate; the migration
      // point scales with the row's duration.
      cfg.duration_ms = DurationMsFromFlags(flags, rate, base.duration_ms);
      if (migrate) {
        cfg.schedule = {{flags.GetInt("migrate_at_ms", cfg.duration_ms / 4),
                         MakeImbalancedAssignment(cfg.num_bins, cfg.workers)}};
      }
      cfg.strategy = strategy;
      runner.Run(label, cfg,
                 migrate ? std::optional{strategy} : std::nullopt,
                 [&](const CountBenchResult& r) {
                   const double max_s =
                       r.timeline.MaxIn(0, ~uint64_t{0}) * 1e-9;
                   j.Key("rate").Value(rate);
                   j.Key("max_latency_s").Value(max_s);
                   table.emplace_back(label, rate, max_s);
                 });
    }
  }
  runner.End();
  std::printf("%12s %14s %14s\n", "strategy", "rate_per_s", "max_latency_s");
  for (const auto& [label, rate, max_s] : table) {
    std::printf("%12s %14.0f %14.4f\n", label, rate, max_s);
  }
}

/// Figure 20: resident set size over time per migration strategy (RSS is
/// sampled in process 0).
inline void RunFig20(BenchProcs& procs, const Flags& flags, JsonWriter& j) {
  CountBenchConfig base =
      CountConfigFromFlags(procs, flags, 1024, 1 << 24, 100'000, 4000);
  base.batch_size = 64;
  base.state_bytes_per_sec = flags.GetInt("state_bw", 64ull << 20);
  base.schedule = {
      {base.duration_ms / 4,
       MakeImbalancedAssignment(base.num_bins, base.workers)},
      {base.duration_ms * 5 / 8,
       MakeInitialAssignment(base.num_bins, base.workers)}};

  std::printf("# Figure 20: RSS over time; domain=%llu (~%llu MB state), "
              "state_bw=%llu MB/s\n",
              static_cast<unsigned long long>(base.domain),
              static_cast<unsigned long long>(base.domain * 8 >> 20),
              static_cast<unsigned long long>(base.state_bytes_per_sec >> 20));

  BeginCountConfig(j, "key-count", base);
  j.Key("state_bytes_per_sec").Value(base.state_bytes_per_sec);
  j.EndObject();

  VariantRunner runner(procs, j);
  for (auto strat : {MigrationStrategy::kAllAtOnce, MigrationStrategy::kBatched,
                     MigrationStrategy::kFluid}) {
    const char* label = StrategyName(strat);
    if (!VariantEnabled(flags, label, strat)) continue;
    CountBenchConfig cfg = base;
    cfg.strategy = strat;
    runner.Run(label, cfg, strat, [&](const CountBenchResult& r) {
      std::printf("# rss %s\n%10s %14s\n", label, "time_s", "rss_mb");
      uint64_t peak = 0, baseline = 0;
      for (const auto& [t, rss] : r.rss_samples) {
        std::printf("%10.2f %14.1f\n", t,
                    static_cast<double>(rss) / 1048576.0);
        peak = std::max(peak, rss);
        if (baseline == 0) baseline = rss;
      }
      j.Key("baseline_mb").Value(baseline / 1048576.0);
      j.Key("peak_mb").Value(peak / 1048576.0);
      j.Key("spike_mb").Value((peak - baseline) / 1048576.0);
      std::printf("# %s: baseline=%.1f MB peak=%.1f MB spike=%.1f MB\n",
                  label, baseline / 1048576.0, peak / 1048576.0,
                  (peak - baseline) / 1048576.0);
    });
  }
  runner.End();
}

// ------------------------------------------------- fig 22 (chunked mig)

/// Figure 22: the fig. 15 large-state scenario measured *under
/// migration* — few bins over a large key domain (multi-megabyte dense
/// bins), one all-at-once reconfiguration, chunked vs monolithic state
/// movement at the same offered load. The headline comparison: chunked
/// migration's per-migration max latency must sit below the monolithic
/// single-frame path at equal steady throughput (tools/bench_check.py
/// --max-latency gates exactly this).
inline void RunFig22(BenchProcs& procs, const Flags& flags, JsonWriter& j) {
  CountBenchConfig base = CountConfigFromFlags(
      procs, flags, 16, 1 << 22, 200'000, 4000, /*chunk_bytes=*/64 << 10);
  base.strategy = MigrationStrategy::kAllAtOnce;
  const uint64_t migrate_at =
      flags.GetInt("migrate_at_ms", base.duration_ms / 3);
  base.schedule = {
      {migrate_at, MakeImbalancedAssignment(base.num_bins, base.workers)}};
  const uint64_t chunk = base.chunk_bytes;

  std::printf(
      "# Figure 22: chunked vs monolithic migration, key-count, "
      "domain=%llu (%llu KB/bin) bins=%u rate=%.0f chunk=%llu KB\n",
      static_cast<unsigned long long>(base.domain),
      static_cast<unsigned long long>(base.domain / base.num_bins * 8 >> 10),
      base.num_bins, base.rate, static_cast<unsigned long long>(chunk >> 10));

  BeginCountConfig(j, "key-count", base);
  j.Key("bins").Value(static_cast<uint64_t>(base.num_bins));
  j.Key("migrate_at_ms").Value(migrate_at);
  j.Key("chunk_bytes").Value(chunk);
  j.EndObject();

  VariantRunner runner(procs, j);
  for (auto [label, chunk_bytes] :
       {std::pair{"monolithic", uint64_t{0}}, std::pair{"chunked", chunk}}) {
    if (!VariantEnabled(flags, label, base.strategy)) continue;
    CountBenchConfig cfg = base;
    cfg.chunk_bytes = chunk_bytes;
    runner.Run(label, cfg, cfg.strategy, [&](const CountBenchResult&) {
      j.Key("chunk_bytes").Value(chunk_bytes);
    });
  }
  PrintMaxSummary(runner.End());
}

// ---------------------------------------------- fig 24 (adaptive drill)

/// Figure 24 (not in the paper — the closed-loop drill): key-count under
/// uniform load until --flip_at_ms, when --flip-pct percent of records
/// flip onto bins initially owned by worker 0 (a hot-key event). With
/// --controller=adaptive the per-bin stats channel feeds worker 0's
/// AdaptivePolicy, which detects the skew and rebalances on its own; the
/// report carries the reaction time (flip -> first autonomously issued
/// plan) and the post-rebalance p99, which must return to within 1.5x of
/// the pre-flip p99 (tools/bench_check.py --adaptive gates exactly
/// this). --controller=static runs the same flip with no controller, as
/// the unmitigated baseline; --controller=all runs both.
inline void RunFig24(BenchProcs& procs, const Flags& flags, JsonWriter& j) {
  CountBenchConfig base =
      CountConfigFromFlags(procs, flags, 256, 1 << 22, 200'000, 6000);
  base.strategy = MigrationStrategy::kFluid;
  base.batch_size = flags.GetInt("batch_size", 16);
  base.flip_at_ms = flags.GetInt("flip_at_ms", base.duration_ms * 2 / 5);
  base.flip_worker = static_cast<uint32_t>(flags.GetInt("flip_worker", 0));
  base.flip_prob_pct = static_cast<uint32_t>(flags.GetInt("flip-pct", 90));
  base.stats_every = flags.GetInt("stats-every", 50);  // 50 ms cadence
  base.adaptive_opts.imbalance_threshold =
      flags.GetDouble("imbalance", 1.25);
  base.adaptive_opts.hysteresis = flags.GetDouble("hysteresis", 0.05);
  // Cooldown is counted in epochs (the bench passes real epoch numbers):
  // 4 decision intervals.
  base.adaptive_opts.cooldown_epochs =
      flags.GetInt("cooldown-epochs", 4 * base.stats_every);
  // 0 keeps load-only scoring; >0 makes the policy weigh a bin's
  // resident bytes against its load before shipping it (the spill
  // backend makes bins far larger than their traffic justifies moving).
  base.adaptive_opts.move_cost_per_byte =
      flags.GetDouble("move-cost-per-byte", 0.0);

  std::printf(
      "# Figure 24: hot-key flip drill, key-count, domain=%llu rate=%.0f "
      "workers=%u bins=%u flip_at=%llu ms (%u%% onto worker %u's bins)\n",
      static_cast<unsigned long long>(base.domain), base.rate, base.workers,
      base.num_bins, static_cast<unsigned long long>(base.flip_at_ms),
      base.flip_prob_pct, base.flip_worker);

  BeginCountConfig(j, "key-count", base);
  j.Key("bins").Value(static_cast<uint64_t>(base.num_bins));
  j.Key("flip_at_ms").Value(base.flip_at_ms);
  j.Key("flip_prob_pct").Value(static_cast<uint64_t>(base.flip_prob_pct));
  j.Key("stats_every_epochs").Value(base.stats_every);
  j.Key("imbalance_threshold").Value(base.adaptive_opts.imbalance_threshold);
  j.EndObject();

  // Pools the fully-contained timeline buckets of [from_ns, to_ns) into
  // one histogram — the pre/post-flip p99s come from the merged timeline,
  // so every process's samples count.
  auto pool = [](const Timeline& tl, uint64_t from_ns, uint64_t to_ns) {
    Histogram h;
    const auto& bk = tl.buckets();
    for (size_t i = 0; i < bk.size(); ++i) {
      uint64_t b0 = i * tl.bucket_ns();
      if (b0 >= from_ns && b0 + tl.bucket_ns() <= to_ns) h.Merge(bk[i]);
    }
    return h;
  };

  const std::string want = flags.GetStr("controller", "adaptive");
  VariantRunner runner(procs, j);
  for (auto [label, adaptive] :
       {std::pair{"adaptive", true}, std::pair{"static", false}}) {
    if (want != "all" && want != label) continue;
    CountBenchConfig cfg = base;
    cfg.adaptive = adaptive;
    runner.Run(label, cfg, cfg.strategy, [&](const CountBenchResult& r) {
      const uint64_t flip_ns = cfg.flip_at_ms * 1'000'000;
      Histogram pre = pool(r.timeline, 0, flip_ns);
      // Post-rebalance window: after the last policy-issued migration
      // drained (static variant: right after the flip, unmitigated).
      const uint64_t post_from =
          r.rebalanced_sec > 0 ? static_cast<uint64_t>(r.rebalanced_sec * 1e9)
                               : flip_ns;
      Histogram post = pool(r.timeline, post_from, ~uint64_t{0});
      std::printf("# plans=%zu reaction=%.1f ms pre-flip p99=%.3f ms "
                  "post p99=%.3f ms\n",
                  r.plans_issued, r.reaction_ms,
                  static_cast<double>(pre.Quantile(0.99)) * 1e-6,
                  static_cast<double>(post.Quantile(0.99)) * 1e-6);
      j.Key("plans_issued").Value(static_cast<uint64_t>(r.plans_issued));
      j.Key("reaction_ms").Value(r.reaction_ms);
      j.Key("flip_sec").Value(r.flip_sec);
      j.Key("rebalanced_sec").Value(r.rebalanced_sec);
      benchjson::HistSummary(j, "pre_flip", pre);
      benchjson::HistSummary(j, "post_rebalance", post);
    });
  }
  runner.End();
}

// -------------------------------------------------- fig 25 (spill drill)

/// Figure 25 (not in the paper — the spill drill): a count run whose
/// per-key values carry a byte pad sized so the total state is several
/// times the RSS cap, with one chunked migration mid-run. Two variants:
/// the in-memory MapState baseline ("map-state") and the log-structured
/// spill-to-disk backend ("log-state"), whose peak RSS must stay under
/// the cap — segments stream during migration, so no bin is ever
/// materialized in memory (tools/bench_check.py --rss-bound gates peak
/// RSS and the cross-backend digest). The digest equivalence itself is
/// established on the deterministic harness (open-loop digests are
/// timing-dependent): a MapState and a LogState run of the same schedule
/// must agree byte-for-byte.
inline void RunFig25(BenchProcs& procs, const Flags& flags, JsonWriter& j) {
  CountBenchConfig base = CountConfigFromFlags(
      procs, flags, 64, 1 << 14, 50'000, 4000, /*chunk_bytes=*/256 << 10);
  base.value_pad_bytes = flags.GetInt("pad", 1 << 14);
  base.strategy = MigrationStrategy::kFluid;
  base.batch_size = flags.GetInt("batch_size", 16);
  // The memtable bound is per bin: it must sit well under the per-bin
  // state share (total_state / bins) or nothing ever spills and the
  // "bounded RSS" claim is vacuous. 64 KB x 64 bins = 4 MB resident
  // write-back budget per process at the default sizing.
  base.spill_memtable_bytes = flags.GetInt("spill-memtable-bytes", 64 << 10);
  const uint64_t migrate_at =
      flags.GetInt("migrate_at_ms", base.duration_ms / 3);
  base.schedule = {
      {migrate_at, MakeImbalancedAssignment(base.num_bins, base.workers)}};
  // Total state ~= every key's pad + count, ignoring container overhead
  // (which only makes the in-memory baseline worse).
  const uint64_t total_state = base.domain * (base.value_pad_bytes + 8);
  const uint64_t rss_cap = flags.GetInt("rss-cap-bytes", total_state / 4);

  char tmpl[] = "/tmp/mega_spill_XXXXXX";
  const char* spill_dir = ::mkdtemp(tmpl);
  MEGA_CHECK(spill_dir != nullptr) << "mkdtemp failed";

  std::printf(
      "# Figure 25: spill-to-disk drill, pad-count, domain=%llu pad=%llu "
      "(~%llu MB state, rss cap %llu MB) rate=%.0f chunk=%llu KB\n",
      static_cast<unsigned long long>(base.domain),
      static_cast<unsigned long long>(base.value_pad_bytes),
      static_cast<unsigned long long>(total_state >> 20),
      static_cast<unsigned long long>(rss_cap >> 20), base.rate,
      static_cast<unsigned long long>(base.chunk_bytes >> 10));

  BeginCountConfig(j, "pad-count", base);
  j.Key("value_pad_bytes").Value(base.value_pad_bytes);
  j.Key("total_state_bytes").Value(total_state);
  j.Key("rss_cap_bytes").Value(rss_cap);
  j.Key("bins").Value(static_cast<uint64_t>(base.num_bins));
  j.Key("migrate_at_ms").Value(migrate_at);
  j.Key("chunk_bytes").Value(base.chunk_bytes);
  j.Key("spill_memtable_bytes").Value(base.spill_memtable_bytes);
  j.EndObject();

  VariantRunner runner(procs, j);
  for (auto [label, mode] : {std::pair{"map-state", CountMode::kPadCount},
                             std::pair{"log-state", CountMode::kSpillCount}}) {
    if (!VariantEnabled(flags, label, base.strategy)) continue;
    CountBenchConfig cfg = base;
    cfg.mode = mode;
    if (mode == CountMode::kSpillCount) cfg.state_dir = spill_dir;
    runner.Run(label, cfg, cfg.strategy, [&](const CountBenchResult& r) {
      uint64_t peak = 0;
      for (const auto& [t, bytes] : r.rss_samples) {
        peak = std::max(peak, bytes);
      }
      std::printf("# peak rss = %llu MB (cap %llu MB%s)\n",
                  static_cast<unsigned long long>(peak >> 20),
                  static_cast<unsigned long long>(rss_cap >> 20),
                  mode == CountMode::kSpillCount
                      ? (peak <= rss_cap ? ", UNDER" : ", OVER")
                      : "");
      j.Key("under_rss_cap").Value(peak <= rss_cap);
    });
  }
  runner.End();

  // Backend equivalence: the deterministic harness run twice — MapState
  // vs LogState with a memtable small enough to force real segment
  // traffic — must produce byte-identical digests through a chunked
  // migration.
  bool digest_match = false;
  if (procs.IsRoot()) {
    DetCountConfig dc;
    dc.total_workers = 4;
    dc.num_bins = 32;
    dc.domain = 1 << 10;
    dc.records_per_epoch = 2048;
    dc.epochs = 6;
    dc.migrate_at_epoch = 2;
    dc.strategy = MigrationStrategy::kFluid;
    dc.chunk_bytes = 4096;
    const timely::Config single{dc.total_workers};
    DetCountResult ref = RunDeterministicCount(dc, single);
    DetCountConfig dl = dc;
    dl.backend = DetCountConfig::Backend::kLog;
    dl.state_dir = spill_dir;
    dl.spill_memtable_bytes = 256;
    DetCountResult lg = RunDeterministicCount(dl, single);
    digest_match = ref.root && lg.root && !ref.digest.empty() &&
                   ref.digest == lg.digest;
    std::printf("# digest_match=%d (map vs log, deterministic harness)\n",
                digest_match ? 1 : 0);
  }
  j.Key("digest_match").Value(digest_match);

  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

// ------------------------------------------------- fig 23 (fault drill)

/// Figure 23 (not in the paper — the fault drill): run the deterministic
/// count workload on a 2x2 mesh, SIGKILL process 1 mid-run, then relaunch
/// with restore=true from the latest complete checkpoint and time the
/// recovery. The run passes iff the survivor aborted with a clean
/// PeerDownError (no hang) and the post-recovery digest is byte-identical
/// to a fault-free single-process reference.
inline void RunRecovery(const Flags& flags, JsonWriter& j) {
  DetCountConfig base;
  base.total_workers = 4;
  base.num_bins = static_cast<uint32_t>(flags.GetInt("bins", 32));
  base.domain = flags.GetInt("domain", 1 << 10);
  base.records_per_epoch = flags.GetInt("records_per_epoch", 2048);
  base.epochs = flags.GetInt("epochs", 8);
  base.migrate_at_epoch = 2;
  base.strategy = MigrationStrategy::kBatched;
  base.batch_size = base.num_bins;  // whole plan in one batch
  // --state=log runs the whole drill on the spill-to-disk backend: bin
  // checkpoints become segment manifests + memtable deltas, and recovery
  // must relink the manifest segments byte-for-byte.
  const bool log_backend = flags.GetStr("state", "map") == "log";
  if (log_backend) {
    base.backend = DetCountConfig::Backend::kLog;
    base.spill_memtable_bytes = flags.GetInt("spill-memtable-bytes", 256);
  }
  const uint64_t die_at = flags.GetInt("die_at_epoch", 5);

  std::printf("# Figure 23: kill-one-process recovery drill; epochs=%llu "
              "die_at=%llu state=%s\n",
              static_cast<unsigned long long>(base.epochs),
              static_cast<unsigned long long>(die_at),
              log_backend ? "log" : "map");

  DetCountResult ref =
      RunDeterministicCount(base, timely::Config{base.total_workers});
  MEGA_CHECK(ref.root);

  char tmpl[] = "/tmp/mega_recovery_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  MEGA_CHECK(dir != nullptr) << "mkdtemp failed";
  DetCountConfig cfg = base;
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every = flags.GetInt("checkpoint_every", 2);
  if (log_backend) cfg.state_dir = std::string(dir) + "/spill";

  // Crash run: process 1 SIGKILLs itself at the top of epoch `die_at`;
  // the surviving root must abort via PeerDownError, not hang.
  bool aborted_cleanly = false;
  {
    DetCountConfig crash = cfg;
    crash.die_at_epoch = die_at;
    crash.die_process = 1;
    MultiProcess mp = LaunchLoopbackProcesses(2, 2);
    mp.config.heartbeat_ms = flags.GetInt("heartbeat_ms", 50);
    mp.config.peer_deadline_ms = flags.GetInt("peer_deadline_ms", 2000);
    if (!mp.IsRoot()) {
      RunDeterministicCount(crash, mp.config);
      ::_exit(9);  // unreachable: the child dies inside the epoch loop
    }
    try {
      RunDeterministicCount(crash, mp.config);
    } catch (const timely::PeerDownError&) {
      aborted_cleanly = true;
    }
    WaitForChildren(mp.children);  // nonzero by design: the child was killed
  }

  const uint64_t latest = state::LatestCompleteEpoch(cfg.checkpoint_dir, 2);

  // Timed recovery: fresh 2x2 launch, restore from the latest checkpoint,
  // replay the tail. recovery_ms covers launch + restore + replay.
  DetCountConfig rec = cfg;
  rec.restore = true;
  auto t0 = std::chrono::steady_clock::now();
  DetCountResult out = RunForked(2, 2, [&](const timely::Config& tc) {
    return RunDeterministicCount(rec, tc);
  });
  double recovery_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  const bool digest_match = out.root && out.digest == ref.digest;

  std::printf("# aborted_cleanly=%d checkpoint_epoch=%llu recovery_ms=%.1f "
              "digest_match=%d\n",
              aborted_cleanly ? 1 : 0,
              static_cast<unsigned long long>(latest), recovery_ms,
              digest_match ? 1 : 0);

  j.Key("config").BeginObject();
  j.Key("workload").Value("det-count");
  j.Key("state_backend").Value(log_backend ? "log" : "map");
  j.Key("epochs").Value(base.epochs);
  j.Key("records_per_epoch").Value(base.records_per_epoch);
  j.Key("die_at_epoch").Value(die_at);
  j.Key("checkpoint_every").Value(cfg.checkpoint_every);
  j.EndObject();
  j.Key("variants").BeginArray();
  j.BeginObject();
  j.Key("label").Value("recovery");
  j.Key("aborted_cleanly").Value(aborted_cleanly);
  j.Key("checkpoint_epoch").Value(latest);
  j.Key("recovery_ms").Value(recovery_ms);
  j.Key("resumed_at_epoch").Value(out.start_epoch);
  j.Key("digest_match").Value(digest_match);
  j.EndObject();
  j.EndArray();
}

// -------------------------------------------------------------- table 1

#ifndef MEGA_SOURCE_DIR
#define MEGA_SOURCE_DIR "."
#endif

namespace detail {

/// Non-blank lines between the `begin` and `end` markers of `path`.
inline int CountLocRegion(const std::string& path, const std::string& begin,
                          const std::string& end) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return -1;
  }
  std::string line;
  bool in_region = false;
  int count = 0;
  while (std::getline(f, line)) {
    if (line.find(begin) != std::string::npos) {
      in_region = true;
      continue;
    }
    if (line.find(end) != std::string::npos) in_region = false;
    if (!in_region) continue;
    if (line.find_first_not_of(" \t") != std::string::npos) count++;
  }
  return count;
}

}  // namespace detail

/// Table 1: lines of code of the NEXMark query implementations, native
/// vs Megaphone, counted from the marked regions of the query headers.
inline void RunTable01(const Flags& flags, JsonWriter& j) {
  const std::string dir =
      flags.GetStr("source_dir", MEGA_SOURCE_DIR) + "/src/nexmark/";
  const std::string native = dir + "queries_native.hpp";
  const std::string mega = dir + "queries_megaphone.hpp";

  int shared_native = detail::CountLocRegion(
      native, "[ClosedAuctions-native-begin]", "[ClosedAuctions-native-end]");
  int shared_mega = detail::CountLocRegion(
      mega, "[ClosedAuctions-mega-begin]", "[ClosedAuctions-mega-end]");

  std::printf("# Table 1: NEXMark query implementations, lines of code\n");
  std::printf("# (Q4/Q6 include the shared closed-auctions sub-plan, as in "
              "the paper)\n");
  std::printf("%8s %8s %10s\n", "query", "native", "megaphone");
  j.Key("config").BeginObject();
  j.Key("workload").Value("loc");
  j.EndObject();
  j.Key("variants").BeginArray();
  for (int q = 1; q <= 8; ++q) {
    std::string qs = std::to_string(q);
    int n = detail::CountLocRegion(native, "[Q" + qs + "-native-begin]",
                                   "[Q" + qs + "-native-end]");
    int m = detail::CountLocRegion(mega, "[Q" + qs + "-mega-begin]",
                                   "[Q" + qs + "-mega-end]");
    if (q == 4 || q == 6) {
      n += shared_native;
      m += shared_mega;
    }
    std::printf("%8s %8d %10d\n", ("Q" + qs).c_str(), n, m);
    j.BeginObject();
    j.Key("label").Value("Q" + qs);
    j.Key("native_loc").Value(static_cast<int64_t>(n));
    j.Key("megaphone_loc").Value(static_cast<int64_t>(m));
    j.EndObject();
  }
  j.EndArray();
}

// ----------------------------------------------------------------- main

inline void BenchDriverUsage() {
  std::fprintf(
      stderr,
      "megabench: unified paper-figure bench driver\n"
      "  --fig=N           figure to run (1, 5-20; 21 = Table 1;\n"
      "                    22 = chunked vs monolithic migration;\n"
      "                    23 = kill-one-process recovery drill;\n"
      "                    24 = hot-key-flip adaptive-controller drill;\n"
      "                    25 = spill-to-disk RSS-bound drill)\n"
      "  --controller=C    fig 24 variant: adaptive (default), static\n"
      "                    (no controller), or all\n"
      "  --flip_at_ms=T    fig 24: when the hot-key flip hits\n"
      "  --state=S         fig 23 backend: map (default) or log\n"
      "  --pad=N           fig 25: per-key value pad bytes\n"
      "  --rss-cap-bytes=N fig 25 cap (default: total state / 4)\n"
      "  --spill-memtable-bytes=N  LogState memtable flush threshold\n"
      "  --move-cost-per-byte=C    fig 24: adaptive migration cost per\n"
      "                    resident state byte (default 0)\n"
      "  --query=N         NEXMark query 1-8 (same as --fig=N+4)\n"
      "  --steady          closed-loop steady-throughput suite\n"
      "  --strategy=S      only run variant S (default: all)\n"
      "  --workers=W       worker threads per process (default 4)\n"
      "  --processes=P     processes; P>1 forks a TCP mesh per run\n"
      "  --records=N       total records (overrides --duration_ms)\n"
      "  --rate=R          records/second offered load\n"
      "  --chunk-bytes=N   state-chunk frame bound; 0 = monolithic\n"
      "                    single-frame migration (fig 22 default 64K)\n"
      "  --out=PATH        merged JSON report path\n"
      "                    (default megabench_figN.json)\n"
      "  --process-index=I manual multi-process mode (no fork); every\n"
      "                    process must run identical flags\n");
}

/// megabench's main() body: --steady, or the figure --fig/--query names.
inline int BenchDriverMain(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    BenchDriverUsage();
    return 0;
  }
  if (flags.GetBool("steady", false)) {
    return RunSteadySuite(flags);
  }

  int fig = static_cast<int>(flags.GetInt("fig", 0));
  if (fig == 0 && flags.Has("query")) {
    fig = static_cast<int>(flags.GetInt("query", 3)) + 4;
  }
  const bool known = fig == 1 || (fig >= 5 && fig <= 20) ||
                     fig == kFigTable1 || fig == kFigChunk ||
                     fig == kFigRecovery || fig == kFigAdaptive ||
                     fig == kFigSpill;
  if (!known) {
    BenchDriverUsage();
    return 2;
  }

  BenchProcs procs(flags);

  JsonWriter j;
  j.BeginObject();
  j.Key("bench").Value(fig == kFigTable1
                           ? std::string("table01")
                           : "fig" + std::string(fig < 10 ? "0" : "") +
                                 std::to_string(fig));
  j.Key("fig").Value(static_cast<int64_t>(fig));
  j.Key("processes").Value(static_cast<uint64_t>(procs.processes()));
  j.Key("workers_per_process")
      .Value(static_cast<uint64_t>(procs.workers_per_process()));
  j.Key("total_workers").Value(static_cast<uint64_t>(procs.total_workers()));

  if (fig == 1) {
    RunFig01(procs, flags, j);
  } else if (fig >= 5 && fig <= 12) {
    RunNexmarkFig(procs, flags, fig - 4, /*with_native=*/fig == 7, j);
  } else if (fig >= 13 && fig <= 15) {
    RunOverheadFig(procs, flags, fig, j);
  } else if (fig >= 16 && fig <= 18) {
    RunSweepFig(procs, flags, fig, j);
  } else if (fig == 19) {
    RunFig19(procs, flags, j);
  } else if (fig == 20) {
    RunFig20(procs, flags, j);
  } else if (fig == kFigChunk) {
    RunFig22(procs, flags, j);
  } else if (fig == kFigRecovery) {
    RunRecovery(flags, j);
  } else if (fig == kFigAdaptive) {
    RunFig24(procs, flags, j);
  } else if (fig == kFigSpill) {
    RunFig25(procs, flags, j);
  } else {
    RunTable01(flags, j);
  }
  j.EndObject();

  if (!procs.IsRoot()) return 0;  // manual-mode peers: workers only

  std::string out = flags.GetStr(
      "out", fig == kFigTable1
                 ? std::string("megabench_table01.json")
                 : "megabench_fig" + std::to_string(fig) + ".json");
  if (out == "none") return 0;
  if (!WriteJsonFile(out, j)) return 1;
  std::printf("# report written to %s\n", out.c_str());
  return 0;
}

}  // namespace megaphone
