// The open-loop measurement policy (paper §5): how a bench run turns
// epoch completions into latency samples, where a migration window opens
// and closes, which samples count as steady state, and how every
// process's observations merge into one result. The count and NEXMark
// harnesses differ only in their dataflow and injection loop; both feed
// an OpenLoopRecorder, end with OpenLoopRun::Finish and return an
// OpenLoopResult.
//
//   * A latency sample is one epoch's completion: epoch e's deadline is
//     start + e * epoch_ns, and its latency is how long after the
//     deadline the probe first showed e complete.
//   * A migration window runs from the first observation at which the
//     controller reports Migrating() to the first at which it does not.
//     Its max_ms is the timeline's max over [start, end + 500 ms): the
//     backlog a migration builds drains after the last batch completes.
//   * "steady" holds the samples acked while no window was open;
//     "per_record" holds every sample.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/time_util.hpp"
#include "harness/bench_shard.hpp"
#include "harness/histogram.hpp"
#include "harness/rss.hpp"
#include "megaphone/controller.hpp"
#include "megaphone/stateful.hpp"
#include "timely/timely.hpp"

namespace megaphone {

/// Latency tail a migration window's max_ms covers past its end.
constexpr uint64_t kWindowTailNs = 500'000'000;

/// The maximum latency `tl` saw in [start, end + kWindowTailNs) of `ms`.
inline double WindowMaxMs(const Timeline& tl, const MigrationStats& ms) {
  return static_cast<double>(
             tl.MaxIn(static_cast<uint64_t>(ms.start_sec * 1e9),
                      static_cast<uint64_t>(ms.end_sec * 1e9) +
                          kWindowTailNs)) *
         1e-6;
}

/// The paper's headline number: the largest max_ms over all windows.
inline double MaxDuringMigration(const std::vector<MigrationStats>& migs) {
  double m = 0;
  for (const auto& ms : migs) m = std::max(m, ms.max_ms);
  return m;
}

/// The merged measurements of one open-loop run, pooled on global worker
/// 0 over every process's shard.
struct OpenLoopResult {
  Timeline timeline{250'000'000};
  Histogram per_record;  // every sample, weighted by records per epoch
  Histogram steady;      // the samples acked outside migration windows
  std::vector<MigrationStats> migrations;
  /// (t_sec, bytes) RSS samples pooled over every process's shard.
  std::vector<RssSample> rss_samples;
  uint64_t records_sent = 0;  // records (NEXMark: events) injected
  uint64_t outputs = 0;       // records the query emitted (NEXMark)
  double duration_sec = 0;    // the longest process's measured span
  /// True iff this process hosts global worker 0; only then are the
  /// merged metrics above populated.
  bool root = true;
  /// Per-process shards the merged metrics were pooled from (root only).
  std::vector<BenchShard> shards;
};

namespace detail {

/// Pools per-process shards into `out` and keeps them, sorted by process
/// index, in `out->shards`. Timelines and histograms merge
/// sample-by-sample; records and outputs sum; the duration is the max
/// across processes. Migration windows come from process 0 (every
/// process runs the same controller schedule) with each window's chunk
/// traffic summed over all shards and its max latency recomputed over
/// the *merged* timeline, so a spike seen only by a remote process still
/// registers.
inline void MergeShardsInto(std::vector<BenchShard> shards,
                            OpenLoopResult* out) {
  std::sort(shards.begin(), shards.end(),
            [](const BenchShard& a, const BenchShard& b) {
              return a.process_index < b.process_index;
            });
  for (const auto& s : shards) {
    out->timeline.Merge(s.timeline);
    out->per_record.Merge(s.per_record);
    out->steady.Merge(s.steady);
    out->records_sent += s.records_sent;
    out->outputs += s.outputs;
    out->duration_sec = std::max(out->duration_sec, s.duration_sec);
    out->rss_samples.insert(out->rss_samples.end(), s.rss.begin(),
                            s.rss.end());
    if (s.process_index == 0) {
      out->migrations = s.migrations;  // sorted first
      continue;
    }
    for (size_t i = 0; i < out->migrations.size() && i < s.migrations.size();
         ++i) {
      out->migrations[i].chunk_frames += s.migrations[i].chunk_frames;
      out->migrations[i].chunk_bytes += s.migrations[i].chunk_bytes;
    }
  }
  // All processes' samples on one time axis (per-process RSS,
  // interleaved). Stable so equal timestamps keep process order.
  std::stable_sort(out->rss_samples.begin(), out->rss_samples.end(),
                   [](const RssSample& a, const RssSample& b) {
                     return a.first < b.first;
                   });
  for (auto& ms : out->migrations) ms.max_ms = WindowMaxMs(out->timeline, ms);
  out->shards = std::move(shards);
}

}  // namespace detail

/// One process's latency record, kept by its local root worker. It takes
/// plain values per observation, so it runs without a dataflow: the
/// harnesses call Observe after every worker step and Finish after the
/// final drain.
class OpenLoopRecorder {
 public:
  /// `start_ns` is the measurement origin, `epoch_ns` the epoch length
  /// and `weight` the records each epoch's sample stands for.
  OpenLoopRecorder(uint64_t start_ns, uint64_t epoch_ns, uint64_t weight)
      : start_(start_ns), epoch_ns_(epoch_ns), weight_(weight) {}

  /// Observes the run at wall time `now`: epochs below `cur_epoch` are
  /// closed, `acked(e)` tells whether epoch e has completed, `migrating`
  /// is the controller's Migrating() and `completed_batches` its batch
  /// count. Every 250 ms it also samples RSS and the oldest outstanding
  /// epoch's lateness, so a stall shows while it lasts.
  template <typename Acked>
  void Observe(uint64_t now, uint64_t cur_epoch, Acked&& acked,
               bool migrating, size_t completed_batches) {
    while (next_ack_ < cur_epoch && acked(next_ack_)) {
      uint64_t lat = now > Deadline(next_ack_) ? now - Deadline(next_ack_) : 0;
      timeline_.Add(now - start_, lat, 1);
      per_record_.Add(lat, weight_);
      if (!migrating) steady_.Add(lat, weight_);
      next_ack_++;
    }
    if (now - start_ >= next_tick_) {
      if (next_ack_ < cur_epoch && now > Deadline(next_ack_)) {
        timeline_.Add(now - start_, now - Deadline(next_ack_), 1);
      }
      rss_.emplace_back(Sec(now), CurrentRssBytes());
      next_tick_ += 250'000'000;
    }
    if (migrating && !window_open_) {
      MigrationStats ms;
      ms.start_sec = Sec(now);
      windows_.push_back(ms);
      frames_before_ = chunk_counters().frames.load();
      bytes_before_ = chunk_counters().bytes.load();
    } else if (!migrating && window_open_) {
      CloseWindow(now, completed_batches);
    }
    window_open_ = migrating;
  }

  /// Ends the record at `now`, after the final drain: epochs through
  /// `last_epoch` still unacked are sampled at their lateness now, a
  /// window the drain completed closes at `now`, and every window gets
  /// its max_ms. The caller fills in process_index, records_sent and
  /// outputs.
  BenchShard Finish(uint64_t now, uint64_t last_epoch,
                    size_t completed_batches) {
    for (; next_ack_ <= last_epoch; ++next_ack_) {
      if (now > Deadline(next_ack_)) {
        timeline_.Add(now - start_, now - Deadline(next_ack_), 1);
        per_record_.Add(now - Deadline(next_ack_), weight_);
      }
    }
    if (window_open_) CloseWindow(now, completed_batches);
    for (auto& ms : windows_) ms.max_ms = WindowMaxMs(timeline_, ms);
    BenchShard shard;
    shard.timeline = std::move(timeline_);
    shard.per_record = std::move(per_record_);
    shard.steady = std::move(steady_);
    shard.migrations = std::move(windows_);
    shard.duration_sec = Sec(now);
    shard.rss = std::move(rss_);
    return shard;
  }

 private:
  uint64_t Deadline(uint64_t epoch) const {
    return start_ + epoch * epoch_ns_;
  }
  double Sec(uint64_t now) const {
    return static_cast<double>(now - start_) * 1e-9;
  }
  void CloseWindow(uint64_t now, size_t completed_batches) {
    MigrationStats& ms = windows_.back();
    ms.end_sec = Sec(now);
    ms.batches = completed_batches - batches_before_;
    batches_before_ = completed_batches;
    ms.chunk_frames = chunk_counters().frames.load() - frames_before_;
    ms.chunk_bytes = chunk_counters().bytes.load() - bytes_before_;
  }

  uint64_t start_;
  uint64_t epoch_ns_;
  uint64_t weight_;
  Timeline timeline_{250'000'000};
  Histogram per_record_, steady_;
  std::vector<MigrationStats> windows_;
  std::vector<RssSample> rss_;
  bool window_open_ = false;
  size_t batches_before_ = 0;  // completed_batches() at the last close
  uint64_t frames_before_ = 0;  // chunk_counters() at the window's open
  uint64_t bytes_before_ = 0;
  uint64_t next_ack_ = 1;   // next epoch awaiting completion
  uint64_t next_tick_ = 0;  // next 250 ms observation boundary
};

/// What an open-loop run's worker threads share: the measurement origin,
/// the records injected and query outputs counted in this process, and
/// the shards global worker 0 collects.
struct OpenLoopRun {
  std::atomic<uint64_t> t0{0};
  std::atomic<uint64_t> records_sent{0};
  std::atomic<uint64_t> outputs{0};  // NEXMark: the counting probe's total
  std::shared_ptr<std::vector<BenchShard>> root_shards;  // worker 0 sets it

  /// The measurement origin: the first calling worker's clock.
  uint64_t Start() {
    uint64_t expected = 0;
    t0.compare_exchange_strong(expected, NowNanos());
    return t0.load();
  }

  /// A worker's end of run, after its injection loop: adds its `sent`
  /// records, closes the controller past `last_epoch` and the inputs
  /// (`close_inputs()`). Each process's local root then drains to
  /// probe.Done(), finishes `rec` into the process's shard and ships it to
  /// global worker 0, which keeps the shards for Merge. probe.Done()
  /// needs every process's inputs closed, so by then every local worker
  /// has added its records and every issued batch has completed: the
  /// shard counts the batch in flight and the queued ones Close flushes.
  template <typename T, typename CloseInputs>
  void Finish(timely::Worker& w, uint32_t process_index, uint64_t sent,
              uint64_t last_epoch, MigrationController<T>& ctrl,
              CloseInputs&& close_inputs, const timely::ProbeHandle<T>& probe,
              OpenLoopRecorder& rec, SideChannel<BenchShard, T>& rep) {
    records_sent += sent;
    const size_t batches = ctrl.completed_batches() + ctrl.queued_batches() +
                           (ctrl.in_flight_time() ? 1 : 0);
    ctrl.Close(last_epoch + 1);
    close_inputs();
    if (w.IsLocalRoot()) {
      w.StepUntil([&] { return probe.Done(); });
      BenchShard shard = rec.Finish(NowNanos(), last_epoch, batches);
      shard.process_index = process_index;
      shard.records_sent = records_sent.load();
      shard.outputs = outputs.load();
      rep.Send(shard);
      if (w.index() == 0) root_shards = rep.inbox;
    }
    rep.in->Close();
  }

  /// After Execute: pools the collected shards into `out` in the process
  /// hosting global worker 0, and marks `out` non-root elsewhere. Returns
  /// out->root.
  bool Merge(OpenLoopResult* out) {
    out->root = root_shards != nullptr;
    if (out->root) detail::MergeShardsInto(std::move(*root_shards), out);
    return out->root;
  }
};

}  // namespace megaphone
