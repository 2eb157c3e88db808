// The counting workload (paper §5.2, §5.3): a stream of uniformly random
// 64-bit identifiers whose per-identifier occurrence counts are operator
// state. Three drivers run it:
//   * RunCountBench, the open-loop figure driver (below);
//   * RunDeterministicCount, the lockstep multi-process correctness
//     harness (further below);
//   * RunSteadyThroughput, the closed-loop throughput suite
//     (steady_workload.hpp).
//
// The count operator of every mode is built in one place,
// detail::BuildCountOperator:
//   * kHashCount — Megaphone operator, bins hold hash maps ("hash count");
//   * kKeyCount  — Megaphone operator, bins hold dense arrays ("key count");
//   * kNativeHash / kNativeKey — hand-tuned timely operators without
//     migration support, the paper's "Native" baselines;
//   * kPadCount / kSpillCount — counts carrying a configurable byte pad
//     per key, held in the in-memory MapState vs. the spill-to-disk
//     LogState: the fig. 25 memory-bound pair.
// The deterministic harness keeps its own fold, which emits every
// running count to a collector: that is its digest oracle. Both count
// drivers pick record keys with detail::KeyGen and walk their migrations
// with MigrationSchedule (migration_schedule.hpp).
//
// The open-loop driver injects records at their scheduled wall deadline
// regardless of system responsiveness, and observes per-epoch completion
// through a probe on the operator output. What counts as a latency
// sample, a migration window and steady state is defined once, in
// harness/open_loop.hpp, which the NEXMark driver shares.
#pragma once

#include <atomic>
#include <barrier>
#include <csignal>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rate_limiter.hpp"
#include "common/time_util.hpp"
#include "harness/bench_shard.hpp"
#include "harness/migration_schedule.hpp"
#include "harness/open_loop.hpp"
#include "megaphone/megaphone.hpp"
#include "state/checkpoint.hpp"
#include "timely/timely.hpp"

namespace megaphone {

enum class CountMode {
  kHashCount,
  kKeyCount,
  kNativeHash,
  kNativeKey,
  kPadCount,
  kSpillCount,
};

inline const char* CountModeName(CountMode m) {
  switch (m) {
    case CountMode::kHashCount: return "hash-count";
    case CountMode::kKeyCount: return "key-count";
    case CountMode::kNativeHash: return "native-hash";
    case CountMode::kNativeKey: return "native-key";
    case CountMode::kPadCount: return "map-state";
    case CountMode::kSpillCount: return "log-state";
  }
  return "?";
}

/// Count plus a configurable byte payload: the value type of the
/// kPadCount / kSpillCount modes, whose point is state *volume* (fig. 25
/// sizes total state well past the RSS cap). The pad is written once, on
/// the key's first touch, so a preload materializes the full footprint
/// before measurement starts.
struct PadCount {
  uint64_t count = 0;
  std::vector<uint8_t> pad;
  MEGA_SERDE_FIELDS(PadCount, count, pad)
};

/// The open-loop count bench's epoch length: 1 ms.
constexpr uint64_t kCountEpochNs = 1'000'000;

struct CountBenchConfig {
  /// Total workers across all processes of the run.
  uint32_t workers = 4;
  uint32_t num_bins = 1 << 8;
  uint64_t domain = 1 << 20;  // distinct keys; power of two
  double rate = 500'000;      // records/second, all workers combined
  uint64_t duration_ms = 3000;
  CountMode mode = CountMode::kKeyCount;
  uint64_t state_bytes_per_sec = 0;
  /// State-chunk frame bound (megaphone::Config::chunk_bytes; 0 =
  /// monolithic single-frame migration).
  uint64_t chunk_bytes = 0;

  /// Migrations, at ms since the measurement start.
  MigrationPlan schedule;
  MigrationStrategy strategy = MigrationStrategy::kBatched;
  size_t batch_size = 16;
  uint64_t gap_ms = 0;

  uint64_t seed = 1;

  /// Byte payload each key's value carries (kPadCount / kSpillCount).
  uint64_t value_pad_bytes = 0;
  /// Spill backend knobs (kSpillCount): segment directory and memtable
  /// bound. Empty / 0 keep the process-global defaults.
  std::string state_dir;
  uint64_t spill_memtable_bytes = 0;

  /// Closed-loop adaptive control (megaphone modes only): every
  /// `stats_every` epochs each worker ships its per-bin statistics to
  /// global worker 0, which runs AdaptivePolicy and schedules the plans
  /// it accepts — no fixed migration schedule required.
  bool adaptive = false;
  AdaptiveOptions adaptive_opts;
  uint64_t stats_every = 50;  // epochs between reports/decisions
  /// Hot-key flip drill: from `flip_at_ms` (0 = off), `flip_prob_pct`% of
  /// injected records target bins initially owned by `flip_worker`.
  uint64_t flip_at_ms = 0;
  uint32_t flip_worker = 0;
  uint32_t flip_prob_pct = 90;
};

struct CountBenchResult : OpenLoopResult {
  /// Adaptive-controller outcome (root only; -1 = not observed). The
  /// reaction time runs from the hot-key flip to the first autonomously
  /// scheduled plan; `rebalanced_sec` is the end of the last migration
  /// window, once the policy has issued a plan.
  double reaction_ms = -1;
  double flip_sec = -1;
  double rebalanced_sec = -1;
  size_t plans_issued = 0;
};

namespace detail {

inline uint64_t CountKey(uint64_t seed, uint64_t idx, uint64_t domain) {
  return HashMix64(seed ^ (idx * 0x9e3779b97f4a7c15ULL)) & (domain - 1);
}

inline int Log2(uint64_t v) { return 63 - __builtin_clzll(v); }

/// Deterministically decides whether record `idx` is part of the hot-key
/// skew (`pct` percent are, once the skew is active). Independent of the
/// key hash so flipping the skew on never changes the cold keys.
inline bool SkewedRecord(uint64_t seed, uint64_t idx, uint32_t pct) {
  return HashMix64(~seed ^ (idx * 0xbf58476d1ce4e5b9ULL)) % 100 < pct;
}

/// A deterministic hot key for record `idx`: a key whose *hash* bin (the
/// kHashCount / deterministic-harness routing, BinOf ∘ HashMix64) is
/// initially owned by `hot_worker`. Rejection-sampled over reseeded
/// CountKeys — 1/workers of draws hit, so 64 tries miss with probability
/// (1-1/W)^64, negligible for any sane worker count; the last draw is
/// kept regardless so the function stays total.
inline uint64_t HotHashKey(uint64_t seed, uint64_t idx, uint64_t domain,
                           uint32_t num_bins, uint32_t workers,
                           uint32_t hot_worker) {
  uint64_t k = 0;
  for (uint64_t j = 0; j < 64; ++j) {
    k = CountKey(seed ^ ((j + 1) * 0x94d049bb133111ebULL), idx, domain);
    if (BinOf(HashMix64(k), num_bins) % workers == hot_worker) break;
  }
  return k;
}

/// A deterministic hot key for record `idx` under *key-range* binning
/// (kKeyCount: bin = key / keys_per_bin): picks one of `hot_worker`'s
/// initial bins and a uniform slot inside it. Exact, no rejection.
inline uint64_t HotRangeKey(uint64_t seed, uint64_t idx, uint64_t domain,
                            uint32_t num_bins, uint32_t workers,
                            uint32_t hot_worker) {
  uint64_t h = HashMix64(seed ^ (idx * 0x2545f4914f6cdd1dULL));
  uint64_t keys_per_bin = domain / num_bins;
  uint64_t n_hot = (num_bins - 1 - hot_worker) / workers + 1;
  uint64_t bin = hot_worker + workers * (h % n_hot);
  return bin * keys_per_bin + (h >> 32) % keys_per_bin;
}

/// The key of every count driver's record `idx`. While `skew` holds, the
/// SkewedRecord share of records gets a hot key on `hot_worker`'s initial
/// bins (HotHashKey under hash binning, HotRangeKey under key-range
/// binning); every other record gets the uniform CountKey.
struct KeyGen {
  uint64_t seed;
  uint64_t domain;
  uint32_t num_bins;
  uint32_t workers;
  uint32_t hot_worker;
  uint32_t hot_pct;
  bool hash_bins;

  uint64_t operator()(uint64_t idx, bool skew) const {
    if (!skew || !SkewedRecord(seed, idx, hot_pct)) {
      return CountKey(seed, idx, domain);
    }
    return hash_bins
               ? HotHashKey(seed, idx, domain, num_bins, workers, hot_worker)
               : HotRangeKey(seed, idx, domain, num_bins, workers, hot_worker);
  }
};

/// A built count operator: its output probe and, in the Megaphone modes,
/// the per-bin statistics hook the adaptive controller reads.
template <typename T>
struct CountOperator {
  timely::ProbeHandle<T> probe;
  std::function<void(BinStats&)> take_stats;
};

/// Builds the count operator of `cfg.mode` over `data`; the Megaphone
/// modes also read `ctrl`. Every count driver's operator comes from here
/// but the deterministic harness's, whose fold feeds its digest.
template <typename T>
CountOperator<T> BuildCountOperator(const CountBenchConfig& cfg,
                                    timely::Stream<ControlInst, T> ctrl,
                                    timely::Stream<uint64_t, T> data) {
  MEGA_CHECK((cfg.domain & (cfg.domain - 1)) == 0) << "domain: power of two";
  MEGA_CHECK_GE(cfg.domain, cfg.num_bins);
  Config mcfg;
  mcfg.num_bins = cfg.num_bins;
  mcfg.state_bytes_per_sec = cfg.state_bytes_per_sec;
  mcfg.chunk_bytes = cfg.chunk_bytes;
  mcfg.name = CountModeName(cfg.mode);
  auto mega = [](auto out) {
    return CountOperator<T>{out.probe, out.take_bin_stats};
  };
  auto hash_key = [](const uint64_t& k) { return HashMix64(k); };
  switch (cfg.mode) {
    case CountMode::kHashCount: {
      using S = state::MapState<uint64_t, uint64_t>;
      return mega(Unary<S, uint64_t>(
          ctrl, data, hash_key,
          [](const T&, S& state, std::vector<uint64_t>& recs, auto, auto&) {
            for (uint64_t k : recs) state[k]++;
          },
          mcfg));
    }
    case CountMode::kKeyCount: {
      using S = state::DenseState<uint64_t>;
      const int shift = 64 - Log2(cfg.domain);
      const uint64_t keys_per_bin = cfg.domain / cfg.num_bins;
      const uint64_t slot_mask = keys_per_bin - 1;
      return mega(Unary<S, uint64_t>(
          ctrl, data, [shift](const uint64_t& k) { return k << shift; },
          [keys_per_bin, slot_mask](const T&, S& state,
                                    std::vector<uint64_t>& recs, auto,
                                    auto&) {
            if (state.empty()) state.resize(keys_per_bin);
            for (uint64_t k : recs) state[k & slot_mask]++;
          },
          mcfg));
    }
    case CountMode::kPadCount:
    case CountMode::kSpillCount: {
      // One fold, two backends: the bin layer treats a ChunkableState
      // type as its own backend, so the map/log pair differs only in the
      // declared state type.
      auto fold = [pad = cfg.value_pad_bytes](const T&, auto& state,
                                              std::vector<uint64_t>& recs,
                                              auto, auto&) {
        for (uint64_t k : recs) {
          PadCount& v = state[k];
          if (pad != 0 && v.pad.empty()) v.pad.assign(pad, 0xa5);
          v.count++;
        }
      };
      if (cfg.mode == CountMode::kPadCount) {
        return mega(Unary<state::MapState<uint64_t, PadCount>, uint64_t>(
            ctrl, data, hash_key, fold, mcfg));
      }
      return mega(Unary<state::LogState<uint64_t, PadCount>, uint64_t>(
          ctrl, data, hash_key, fold, mcfg));
    }
    case CountMode::kNativeHash: {
      using S = std::unordered_map<uint64_t, uint64_t>;
      return {timely::Probe(timely::StatefulUnary<S, uint64_t>(
                  data, "NativeHashCount", hash_key,
                  [](const T&, std::vector<uint64_t>& recs, S& state,
                     timely::OpCtx<T>&, timely::OutputHandle<uint64_t, T>&) {
                    for (uint64_t k : recs) state[k]++;
                  })),
              {}};
    }
    case CountMode::kNativeKey: {
      struct S {
        std::vector<uint64_t> counts;
      };
      const uint32_t workers = data.scope()->peers();
      return {timely::Probe(timely::StatefulUnary<S, uint64_t>(
                  data, "NativeKeyCount",
                  [](const uint64_t& k) { return k; },  // worker = key % W
                  [workers, domain = cfg.domain](
                      const T&, std::vector<uint64_t>& recs, S& state,
                      timely::OpCtx<T>&, timely::OutputHandle<uint64_t, T>&) {
                    if (state.counts.empty()) {
                      state.counts.resize(domain / workers + 1);
                    }
                    for (uint64_t k : recs) state.counts[k / workers]++;
                  })),
              {}};
    }
  }
  MEGA_CHECK(false) << "unknown count mode";
  return {};
}

}  // namespace detail

/// Runs the counting workload; see CountBenchConfig. Each process's local
/// root worker records its own latency shard (against the process's
/// tracker replica, so wire delay is measured where it occurs); the
/// shards are shipped to global worker 0 and merged into the result.
/// `tcfg.workers * tcfg.processes` must equal `cfg.workers`.
inline CountBenchResult RunCountBench(const CountBenchConfig& cfg,
                                      const timely::Config& tcfg) {
  using T = uint64_t;
  MEGA_CHECK_EQ(tcfg.workers * std::max(1u, tcfg.processes), cfg.workers);

  CountBenchResult result;
  OpenLoopRun run;
  const bool is_native = cfg.mode == CountMode::kNativeHash ||
                         cfg.mode == CountMode::kNativeKey;
  const bool adaptive = cfg.adaptive && !is_native;

  // LogState backends are default-constructed inside bins and snapshot
  // the process-global options at construction, so the spill knobs must
  // be published before any worker thread builds a dataflow.
  if (cfg.mode == CountMode::kSpillCount) {
    state::PublishLogStateOptions(cfg.state_dir, cfg.spill_memtable_bytes);
  }

  timely::Execute(tcfg, [&](timely::Worker& w) {
    auto [ctrl_in, data_in, rep, stats, op] =
        w.Dataflow<T>([&](timely::Scope<T>& s) {
          auto [ctrl, ctrl_stream] = timely::NewInput<ControlInst>(s);
          auto [data, data_stream] = timely::NewInput<uint64_t>(s);
          auto shards = AddSideChannel<BenchShard>(s, "BenchShards");
          SideChannel<BinStatsReport, T> reports;  // adaptive runs only
          if (adaptive) {
            reports = AddSideChannel<BinStatsReport>(s, "BinStats");
          }
          return std::tuple{
              ctrl, data, std::move(shards), std::move(reports),
              detail::BuildCountOperator(cfg, ctrl_stream, data_stream)};
        });
    // Epochs are 1 ms by default, so the gap is in ms.
    MigrationController<T> controller(
        ctrl_in, op.probe, w.index(),
        {cfg.strategy, cfg.batch_size, cfg.gap_ms});

    // ---- Preload: touch every key once at epoch 0, then wait. ----------
    std::vector<uint64_t> batch;
    for (uint64_t k = w.index(); k < cfg.domain; k += cfg.workers) {
      batch.push_back(k);
      if (batch.size() == 4096) {
        data_in->SendBatch(std::move(batch));
        batch.clear();
        w.Step();
        std::this_thread::yield();
      }
    }
    data_in->SendBatch(std::move(batch));
    if (!is_native) controller.Advance(0, 1);
    data_in->AdvanceTo(1);
    w.StepUntil([&] { return !op.probe.LessThan(1); });

    // ---- Measurement origin, shared across workers. --------------------
    const uint64_t start = run.Start();
    const uint64_t end = start + cfg.duration_ms * 1'000'000;
    OpenLoopPacer pacer(cfg.rate, start);
    MigrationSchedule schedule(
        cfg.schedule, MakeInitialAssignment(cfg.num_bins, cfg.workers));

    // Closed loop: reports land on (and plans come from) global worker 0.
    std::optional<AdaptiveController<T>> actrl;
    if (adaptive && w.index() == 0) {
      actrl.emplace(&controller, cfg.workers, schedule.current(),
                    stats.inbox, cfg.adaptive_opts);
    }
    uint64_t next_stats = cfg.stats_every;
    const uint64_t flip_ns =
        cfg.flip_at_ms ? start + cfg.flip_at_ms * 1'000'000 : UINT64_MAX;
    const detail::KeyGen key{cfg.seed, cfg.domain, cfg.num_bins, cfg.workers,
                             cfg.flip_worker, cfg.flip_prob_pct,
                             cfg.mode != CountMode::kKeyCount &&
                                 cfg.mode != CountMode::kNativeKey};

    // Each sample stands for one epoch's worth of records.
    OpenLoopRecorder rec(
        start, kCountEpochNs,
        std::max<uint64_t>(1, static_cast<uint64_t>(cfg.rate * 1e-9 *
                                                    kCountEpochNs)));

    uint64_t cur_epoch = 1;
    uint64_t sent = w.index();  // global record index, strided by worker
    while (true) {
      uint64_t now = NowNanos();
      if (now >= end) break;
      uint64_t e = 1 + (now - start) / kCountEpochNs;
      if (e > cur_epoch) {
        schedule.IssueDue((now - start) / 1'000'000, controller);
        if (adaptive && e >= next_stats) {
          // Only worker 0 has actrl, so only it writes the result.
          if (actrl && actrl->Step(e) && result.reaction_ms < 0 &&
              now >= flip_ns) {
            result.reaction_ms = static_cast<double>(now - flip_ns) * 1e-6;
          }
          BinStats bs;
          op.take_stats(bs);
          stats.Send(BinStatsReport::From(w.index(), e, std::move(bs)));
          next_stats += cfg.stats_every;
        }
        if (!is_native) controller.Advance(e, e + 1);
        data_in->AdvanceTo(e);
        if (adaptive) stats.in->AdvanceTo(e);
        cur_epoch = e;
      }
      // Open loop: inject everything due by now, regardless of backlog.
      const uint64_t due = pacer.RecordsDueBy(now);
      const bool flipped = now >= flip_ns;
      for (uint64_t injected = 0; sent < due && injected < 65536;
           ++injected, sent += cfg.workers) {
        data_in->Send(key(sent, flipped));
      }
      w.Step();
      // With more worker threads than cores the OS must round-robin the
      // workers; yielding after each step keeps the rotation at loop
      // granularity rather than scheduler quanta (which would otherwise
      // put a multi-millisecond floor under every latency).
      std::this_thread::yield();

      if (w.IsLocalRoot()) {
        rec.Observe(
            now, cur_epoch, [&](uint64_t e) { return !op.probe.LessEqual(e); },
            controller.progress());
      }
    }

    run.Finish(
        w, tcfg.process_index, (sent - w.index()) / cfg.workers, cur_epoch,
        controller,
        [&] {
          data_in->Close();
          if (adaptive) stats.in->Close();
        },
        op.probe, rec, rep);
    if (actrl) {
      result.flip_sec = flip_ns == UINT64_MAX
                            ? -1
                            : static_cast<double>(flip_ns - start) * 1e-9;
      result.plans_issued = actrl->plans().size();
    }
  });

  if (run.Merge(&result) && result.plans_issued > 0 &&
      !result.migrations.empty()) {
    result.rebalanced_sec = result.migrations.back().end_sec;
  }
  return result;
}

/// Single-process convenience overload: `cfg.workers` worker threads.
inline CountBenchResult RunCountBench(const CountBenchConfig& cfg) {
  return RunCountBench(cfg, timely::Config{cfg.workers});
}

// ---------------------------------------------------------------------------
// Deterministic count workload: the multi-process correctness harness.
//
// Unlike the open-loop bench above, every quantity here is independent of
// wall time: a fixed record set (CountKey over a dense global index
// space, strided by global worker), a fixed epoch schedule driven in
// lockstep (each epoch waits for the probe before the next), and a
// migration issued at a fixed epoch. Any run with the same
// (total_workers, bins, records, epochs, migration) — whatever its
// process split — must produce byte-identical final counts and the same
// number of completed migration batches, which is exactly what the
// multi-process integration test asserts.

struct DetCountConfig {
  uint32_t total_workers = 4;
  uint32_t num_bins = 64;
  uint64_t domain = 1 << 12;        // distinct keys; power of two
  uint64_t records_per_epoch = 4096;  // all workers combined
  uint64_t epochs = 8;
  /// Epoch at which every worker schedules the initial->imbalanced
  /// migration; >= epochs disables migration. Ignored when `schedule` is
  /// nonempty.
  uint64_t migrate_at_epoch = 3;
  /// Optional explicit migration schedule: (epoch, target assignment)
  /// pairs in nondecreasing epoch order, overriding migrate_at_epoch —
  /// how the property tests drive *random* reconfiguration sequences.
  MigrationPlan schedule;
  MigrationStrategy strategy = MigrationStrategy::kFluid;
  size_t batch_size = 1;
  /// State-chunk frame bound (0 = monolithic). The final digest must be
  /// byte-identical at every setting.
  uint64_t chunk_bytes = 0;
  uint64_t seed = 1;

  /// Operator state backend: the in-memory MapState or the spill-to-disk
  /// LogState. The final digest must be byte-identical across backends —
  /// the property tests assert it — and checkpoints of a kLog run store
  /// segment manifests instead of inline values.
  enum class Backend { kMap, kLog };
  Backend backend = Backend::kMap;
  /// Spill knobs (kLog): segment directory and memtable bound. A small
  /// memtable (e.g. 256 bytes) forces real segment traffic even at this
  /// harness's toy state sizes. Empty / 0 keep the global defaults.
  std::string state_dir;
  uint64_t spill_memtable_bytes = 0;

  /// Checkpoint/restore (fault drills). When `checkpoint_dir` is set the
  /// run writes one frontier-aligned checkpoint segment per process every
  /// `checkpoint_every` epochs (skipping boundaries inside a migration);
  /// with `restore` it resumes from the latest *complete* checkpoint in
  /// the directory instead of epoch 0.
  std::string checkpoint_dir;
  uint64_t checkpoint_every = 2;
  bool restore = false;
  /// Deterministic crash: process `die_process` raises SIGKILL at the top
  /// of epoch `die_at_epoch` (multi-process runs only; >= epochs
  /// disables). Used by the recovery tests and the recovery bench figure.
  uint64_t die_at_epoch = UINT64_MAX;
  uint32_t die_process = 1;

  /// Closed-loop adaptive control: every epoch each worker ships its
  /// per-bin stats to global worker 0, which runs AdaptivePolicy and
  /// schedules the plans it accepts — instead of any fixed schedule
  /// (`schedule` must be empty; migrate_at_epoch is ignored). The epoch
  /// lockstep extends to the stats channel, so decisions — and therefore
  /// the emitted control records and the digest — are identical at every
  /// process split.
  bool adaptive = false;
  AdaptiveOptions adaptive_opts;
  /// Deterministic hot-key skew: from `skew_from_epoch` on,
  /// `skew_prob_pct`% of records target bins initially owned by
  /// `skew_worker` (hash binning, like all records here).
  uint64_t skew_from_epoch = UINT64_MAX;
  uint32_t skew_worker = 0;
  uint32_t skew_prob_pct = 90;
};

struct DetCountResult {
  /// Serialized sorted (key -> final count) map; filled only in the
  /// process hosting global worker 0.
  std::vector<uint8_t> digest;
  uint64_t distinct_keys = 0;
  size_t completed_batches = 0;
  /// True iff this process hosted global worker 0 (owns digest/batches).
  bool root = false;
  /// Records injected by this process's workers.
  uint64_t records_sent = 0;
  /// Epoch the run resumed from (0 = fresh run / no usable checkpoint).
  uint64_t start_epoch = 0;
  /// Plans the adaptive controller emitted, in epoch order (root only).
  /// Replaying them as `schedule` must reproduce `digest` byte-for-byte.
  MigrationPlan emitted_plans;
  /// Final bin->worker assignment the adaptive controller converged to
  /// (root only; the initial assignment when no plan was emitted).
  Assignment final_assignment;
};

/// Runs the deterministic count workload under `tcfg` (whose
/// workers * processes must equal cfg.total_workers).
inline DetCountResult RunDeterministicCount(const DetCountConfig& cfg,
                                            const timely::Config& tcfg) {
  using T = uint64_t;
  using KV = std::pair<uint64_t, uint64_t>;

  const uint32_t W = cfg.total_workers;
  MEGA_CHECK_EQ(tcfg.workers * std::max(1u, tcfg.processes), W);
  MEGA_CHECK((cfg.domain & (cfg.domain - 1)) == 0) << "domain: power of two";
  MEGA_CHECK(!cfg.adaptive || cfg.schedule.empty())
      << "adaptive and a fixed schedule are mutually exclusive";
  MEGA_CHECK(!cfg.adaptive || cfg.checkpoint_dir.empty())
      << "adaptive + checkpoint/restore is not supported";

  DetCountResult result;
  std::shared_ptr<std::map<uint64_t, uint64_t>> root_counts;
  std::atomic<uint64_t> total_sent{0};

  // Checkpoint/restore plumbing. The segment is loaded once, before the
  // worker threads spawn, and shared read-only with every build closure.
  const bool ck_enabled = !cfg.checkpoint_dir.empty();
  state::CheckpointSegment seg;
  uint64_t start_epoch = 0;
  if (ck_enabled && cfg.restore &&
      state::LoadLatestSegment(cfg.checkpoint_dir,
                               std::max(1u, tcfg.processes),
                               tcfg.process_index, &seg)) {
    start_epoch = seg.epoch;
  }
  result.start_epoch = start_epoch;

  // Spill backend plumbing. LogState bins are default-constructed and
  // snapshot the process-global options, so publish the knobs before any
  // worker spawns; the checkpoint scope keys LogState::Serialize into
  // manifest mode for the whole run (set here on the harness thread —
  // workers only ever read it).
  std::optional<state::CheckpointDirScope> ck_scope;
  if (cfg.backend == DetCountConfig::Backend::kLog) {
    state::PublishLogStateOptions(cfg.state_dir, cfg.spill_memtable_bytes);
    if (ck_enabled) ck_scope.emplace(cfg.checkpoint_dir);
  }

  // Capture rendezvous for this process's workers: each stages its bins,
  // the local root writes the segment, and nobody proceeds into the next
  // epoch until the file is published (temp + rename).
  struct CkShared {
    explicit CkShared(uint32_t n) : barrier(n), staging(n) {}
    std::barrier<> barrier;
    std::vector<state::BinSnapshot> staging;
  };
  auto ck = ck_enabled ? std::make_shared<CkShared>(tcfg.workers) : nullptr;

  timely::Execute(tcfg, [&](timely::Worker& w) {
    auto [ctrl_in, data_in, probe, cprobe, counts, capture, stats,
          take_stats] = w.Dataflow<T>([&](timely::Scope<T>& s) {
      auto [ctrl, ctrl_stream] = timely::NewInput<ControlInst>(s);
      auto [data, data_stream] = timely::NewInput<uint64_t>(s);
      Config mcfg;
      mcfg.num_bins = cfg.num_bins;
      mcfg.chunk_bytes = cfg.chunk_bytes;
      mcfg.name = "DetCount";
      if (start_epoch > 0) mcfg.initial_owner = seg.assignment;
      // Every record emits its key's running count; the collector below
      // keeps the maximum per key, which equals the final count. One
      // fold, two interchangeable backends — StatefulOutput depends only
      // on the record type, so both instantiations share a type.
      auto build = [&]<typename BinState>() {
        auto out = Unary<BinState, KV>(
            ctrl_stream, data_stream,
            [](const uint64_t& k) { return HashMix64(k); },
            [](const T&, BinState& state, std::vector<uint64_t>& recs,
               auto emit, auto&) {
              for (uint64_t k : recs) emit(KV{k, ++state[k]});
            },
            mcfg);
        // Restore this worker's share of the checkpoint: bins staged
        // into the operator (installed at S's first schedule).
        if (start_epoch > 0) {
          auto it = seg.workers.find(s.worker());
          if (it != seg.workers.end()) out.restore_bins(it->second);
        }
        return out;
      };
      auto out =
          cfg.backend == DetCountConfig::Backend::kLog
              ? build.template
                operator()<state::LogState<uint64_t, uint64_t>>()
              : build.template
                operator()<state::MapState<uint64_t, uint64_t>>();

      // Collector on global worker 0: the single point of truth any
      // process split must agree with. Its probe sees its *consumption*:
      // the S-output probe alone cannot see records still in flight to
      // worker 0's Collect input (sibling ports do not constrain each
      // other), and a checkpoint must capture an exact collector.
      auto collected = std::make_shared<std::map<uint64_t, uint64_t>>();
      if (start_epoch > 0 && s.worker() == 0 && !seg.collector.empty()) {
        *collected =
            DecodeFromBytes<std::map<uint64_t, uint64_t>>(seg.collector);
      }
      auto cprobe = timely::Probe(
          out.stream, "Collect",
          timely::Pact<KV>::Exchange([](const KV&) { return uint64_t{0}; }),
          [collected](const T&, std::vector<KV>& recs) {
            for (auto& kc : recs) {
              uint64_t& slot = (*collected)[kc.first];
              if (kc.second > slot) slot = kc.second;
            }
          });
      SideChannel<BinStatsReport, T> reports;  // adaptive runs only
      if (cfg.adaptive) {
        reports = AddSideChannel<BinStatsReport>(s, "BinStats");
      }
      return std::tuple{ctrl, data, out.probe, cprobe, collected,
                        out.capture_bins, std::move(reports),
                        out.take_bin_stats};
    });

    MigrationController<T> controller(ctrl_in, probe, w.index(),
                                      {cfg.strategy, cfg.batch_size, 0});

    // The effective migration schedule: either the explicit one or the
    // classic single initial->imbalanced step. Adaptive runs schedule
    // nothing up front — worker 0's policy decides as the run unfolds.
    MigrationPlan plan = cfg.schedule;
    if (!cfg.adaptive && plan.empty() && cfg.migrate_at_epoch < cfg.epochs) {
      plan.emplace_back(cfg.migrate_at_epoch,
                        MakeImbalancedAssignment(cfg.num_bins, W));
    }
    MigrationSchedule schedule(plan, MakeInitialAssignment(cfg.num_bins, W));
    std::optional<AdaptiveController<T>> actrl;
    if (cfg.adaptive && w.index() == 0) {
      actrl.emplace(&controller, W, schedule.current(), stats.inbox,
                    cfg.adaptive_opts);
    }
    // Resuming from a checkpoint: migrations before the checkpoint epoch
    // are already reflected in the restored routing table — skip them,
    // and cross-check the replayed schedule against the checkpointed
    // assignment.
    schedule.SkipBefore(start_epoch);
    if (start_epoch > 0) {
      MEGA_CHECK(schedule.current() == seg.assignment)
          << "checkpoint assignment diverges from the replayed schedule";
      data_in->AdvanceTo(start_epoch);
    }
    const uint32_t me = w.index();
    const detail::KeyGen key{cfg.seed, cfg.domain, cfg.num_bins, W,
                             cfg.skew_worker, cfg.skew_prob_pct,
                             /*hash_bins=*/true};
    uint64_t sent = 0;
    std::vector<uint64_t> batch;

    // Lockstep epochs: inject, advance, and wait for global completion of
    // the epoch. The wait makes every worker's controller observe the
    // same probe state at the same epoch, so batch issue/completion — and
    // therefore completed_batches() — is deterministic. The collector
    // probe rides along so an epoch boundary is fully quiescent: exactly
    // the property a frontier-aligned checkpoint needs.
    for (uint64_t e = start_epoch; e < cfg.epochs; ++e) {
      if (e == cfg.die_at_epoch && tcfg.processes > 1 &&
          tcfg.process_index == cfg.die_process) {
        std::raise(SIGKILL);  // deterministic crash for the fault drills
      }
      schedule.IssueDue(e, controller);
      // Worker 0 decides on stats through epoch e-1 (all arrived — the
      // stats-probe wait below ran before this epoch). Other workers
      // schedule nothing: the control records they observe all originate
      // from worker 0, which is what makes replaying the emitted plans
      // as a fixed schedule byte-identical.
      if (actrl) actrl->Step(e);
      controller.Advance(e, e + 1);
      batch.clear();
      for (uint64_t idx = e * cfg.records_per_epoch;
           idx < (e + 1) * cfg.records_per_epoch; ++idx) {
        if (idx % W == me) {
          batch.push_back(key(idx, e >= cfg.skew_from_epoch));
        }
      }
      sent += batch.size();
      data_in->SendBatch(std::move(batch));
      batch.clear();
      data_in->AdvanceTo(e + 1);
      w.StepUntil([&] {
        return !probe.LessThan(e + 1) && !cprobe.LessThan(e + 1);
      });

      // Frontier-aligned capture: every record at times < e+1 is in the
      // bins (probe) and the collector (cprobe), nothing is stashed for
      // later times, and no migration is in flight — so the segment is an
      // exact cut of the job at epoch e+1.
      if (ck != nullptr && e + 1 < cfg.epochs &&
          (e + 1) % cfg.checkpoint_every == 0 && !controller.Migrating()) {
        state::BinSnapshot snap;
        capture(snap);
        ck->staging[me % tcfg.workers] = std::move(snap);
        ck->barrier.arrive_and_wait();  // all local workers staged
        if (w.IsLocalRoot()) {
          state::CheckpointSegment out_seg;
          out_seg.epoch = e + 1;
          out_seg.assignment = schedule.current();
          const uint32_t local_begin = tcfg.process_index * tcfg.workers;
          for (uint32_t i = 0; i < tcfg.workers; ++i) {
            out_seg.workers[local_begin + i] = std::move(ck->staging[i]);
          }
          if (me == 0) out_seg.collector = EncodeToBytes(*counts);
          state::WriteSegment(cfg.checkpoint_dir, tcfg.process_index,
                              out_seg);
        }
        // The segment is published before anyone enters the next epoch.
        ck->barrier.arrive_and_wait();
      }

      // Stats phase: every worker ships its epoch-e bin stats, then waits
      // until worker 0's collector has consumed all of epoch e — so the
      // decision at e+1 sees exactly W reports, at every process split.
      if (cfg.adaptive) {
        BinStats bs;
        take_stats(bs);
        stats.Send(BinStatsReport::From(me, e, std::move(bs)));
        stats.in->AdvanceTo(e + 1);
        w.StepUntil([&] { return !stats.probe.LessThan(e + 1); });
      }
    }

    const size_t completed = DrainAndCloseLockstep(
        w, controller, probe, cfg.epochs,
        [&](uint64_t t) { data_in->AdvanceTo(t); });
    data_in->Close();
    if (cfg.adaptive) stats.in->Close();

    total_sent += sent;
    if (me == 0) {
      root_counts = counts;  // final after Execute's post-closure drain
      result.completed_batches = completed;
      result.root = true;
      if (actrl) {
        result.emitted_plans = actrl->plans();
        result.final_assignment = actrl->current();
      }
    }
  });

  result.records_sent = total_sent.load();
  if (root_counts) {
    Writer w;
    Encode(w, *root_counts);
    result.digest = w.Take();
    result.distinct_keys = root_counts->size();
  }
  return result;
}

}  // namespace megaphone
