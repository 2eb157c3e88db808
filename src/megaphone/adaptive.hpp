// The closed-loop adaptive migration controller.
//
// Megaphone externalizes *when* to migrate (paper §4.4: "DS2, Dhalion, or
// Chi could supply the control stream"); until now this repository only
// migrated on fixed benchmark schedules. This header closes the loop:
//
//   * every worker's S instance counts records applied per bin and knows
//     which bins it hosts (StatefulOutput::take_bin_stats, stateful.hpp);
//   * each worker periodically ships those counters to global worker 0 as
//     a BinStatsReport over a side channel (the harness's SideChannel,
//     which also carries the bench shards);
//   * worker 0 runs a DS2/Dhalion-style policy (AdaptivePolicy): per-bin
//     EWMA load, skew detection against an imbalance threshold, greedy
//     rebalance to a new bin→worker Assignment, hysteresis and a cooldown
//     so plans don't thrash;
//   * accepted plans drive the existing MigrationController::MigrateTo
//     with fluid batches (AdaptiveController).
//
// Only worker 0 runs the policy — emitted control records depend on no
// other worker's controller state, so a run replaying the emitted plans as
// a fixed schedule produces byte-identical output (adaptive_test proves
// it, at one and two processes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "megaphone/controller.hpp"
#include "megaphone/stateful.hpp"
#include "megaphone/strategies.hpp"

namespace megaphone {

/// One worker's per-bin statistics for one reporting interval, shipped to
/// worker 0 over the stats channel. Aggregation across workers is purely
/// additive (records sum; only the hosting worker reports a bin's bytes
/// and residency), so arrival order cannot affect the policy.
struct BinStatsReport {
  uint32_t worker = 0;
  uint64_t epoch = 0;
  std::vector<uint64_t> records;      // records applied per bin
  std::vector<uint64_t> state_bytes;  // approx bytes per resident bin
  std::vector<uint8_t> resident;      // 1 if the bin is hosted there

  MEGA_SERDE_FIELDS(BinStatsReport, worker, epoch, records, state_bytes,
                    resident)

  /// Builds a report from a worker's BinStats snapshot.
  static BinStatsReport From(uint32_t worker, uint64_t epoch, BinStats&& s) {
    BinStatsReport rep;
    rep.worker = worker;
    rep.epoch = epoch;
    rep.records = std::move(s.records);
    rep.state_bytes = std::move(s.state_bytes);
    rep.resident = std::move(s.resident);
    return rep;
  }
};

/// Policy thresholds. Defaults suit epoch-granularity decisions; the
/// open-loop bench stretches them over its stats cadence.
struct AdaptiveOptions {
  /// A plan is considered once max worker load > threshold * average.
  double imbalance_threshold = 1.25;
  /// A plan is accepted only if it shrinks the max worker load by at
  /// least this fraction — rejecting churn that would barely help.
  double hysteresis = 0.05;
  /// Epochs to wait after an accepted plan before the next one,
  /// letting the migration finish and the EWMA re-converge.
  uint64_t cooldown_epochs = 4;
  /// Cost charged against a bin's load for every reported state byte when
  /// picking which bin to move ("To Migrate or not to Migrate": migration
  /// cost scales with state volume). A bin is only a candidate while
  /// load - move_cost_per_byte * state_bytes > 0, so huge cold bins stop
  /// being proposed even when they would balance the load. 0 (default)
  /// keeps the pure load-greedy behavior.
  double move_cost_per_byte = 0.0;
};

/// The skew-detection / rebalance policy. Deterministic: ties in worker
/// and bin selection break toward the lowest index, and ingestion is
/// additive, so any report arrival order yields the same plans.
class AdaptivePolicy {
 public:
  AdaptivePolicy(uint32_t num_bins, uint32_t workers,
                 AdaptiveOptions opts = {})
      : opts_(opts), workers_(workers), load_(num_bins, 0.0),
        window_(num_bins, 0), bytes_(num_bins, 0) {}

  /// Folds one worker's report into the current observation window.
  void Ingest(const BinStatsReport& rep) {
    size_t n = std::min(window_.size(), rep.records.size());
    for (size_t b = 0; b < n; ++b) window_[b] += rep.records[b];
    size_t m = std::min(bytes_.size(), rep.state_bytes.size());
    for (size_t b = 0; b < m; ++b) {
      if (b < rep.resident.size() && rep.resident[b]) {
        bytes_[b] = rep.state_bytes[b];
      }
    }
  }

  /// Closes the window at `epoch` (folding it into the EWMA) and returns
  /// a rebalanced assignment if the load is skewed enough to justify one.
  std::optional<Assignment> Decide(uint64_t epoch,
                                   const Assignment& current) {
    double total = 0;
    for (size_t b = 0; b < load_.size(); ++b) {
      load_[b] = kEwmaAlpha * static_cast<double>(window_[b]) +
                 (1.0 - kEwmaAlpha) * load_[b];
      window_[b] = 0;
      total += load_[b];
    }
    if (total <= 0 || workers_ < 2) return std::nullopt;
    if (planned_ && epoch < last_plan_epoch_ + opts_.cooldown_epochs) {
      return std::nullopt;
    }

    std::vector<double> wl(workers_, 0.0);
    for (size_t b = 0; b < current.size(); ++b) wl[current[b]] += load_[b];
    double old_max = *std::max_element(wl.begin(), wl.end());
    double avg = total / static_cast<double>(workers_);
    if (old_max <= opts_.imbalance_threshold * avg) return std::nullopt;

    // Greedy rebalance: repeatedly move the hottest bin of the most
    // loaded worker to the least loaded one, while the move strictly
    // shrinks that pair's spread. argmax/argmin and the bin scan all
    // break ties toward the lowest index — determinism over elegance.
    Assignment plan = current;
    for (size_t iter = 0; iter < load_.size(); ++iter) {
      uint32_t src = static_cast<uint32_t>(
          std::max_element(wl.begin(), wl.end()) - wl.begin());
      uint32_t dst = static_cast<uint32_t>(
          std::min_element(wl.begin(), wl.end()) - wl.begin());
      if (src == dst) break;
      double spread = wl[src] - wl[dst];
      int64_t best = -1;
      double best_load = 0;
      double best_score = 0;
      for (size_t b = 0; b < plan.size(); ++b) {
        if (plan[b] != src) continue;
        double l = load_[b];
        if (l >= spread) continue;
        // Net benefit of moving the bin: its load minus the byte-weighted
        // migration cost. With move_cost_per_byte == 0 the score is the
        // load itself, reproducing the original selection exactly.
        double score =
            l - opts_.move_cost_per_byte * static_cast<double>(bytes_[b]);
        if (score > best_score && score > 0) {
          best = static_cast<int64_t>(b);
          best_load = l;
          best_score = score;
        }
      }
      if (best < 0) break;
      plan[static_cast<size_t>(best)] = dst;
      wl[src] -= best_load;
      wl[dst] += best_load;
    }
    if (plan == current) return std::nullopt;
    double new_max = *std::max_element(wl.begin(), wl.end());
    if (new_max > (1.0 - opts_.hysteresis) * old_max) return std::nullopt;

    planned_ = true;
    last_plan_epoch_ = epoch;
    return plan;
  }

  const std::vector<double>& loads() const { return load_; }
  const std::vector<uint64_t>& state_bytes() const { return bytes_; }

 private:
  /// EWMA weight of the newest window.
  static constexpr double kEwmaAlpha = 0.5;

  AdaptiveOptions opts_;
  uint32_t workers_;
  std::vector<double> load_;      // per-bin EWMA
  std::vector<uint64_t> window_;  // per-bin records since last Decide
  std::vector<uint64_t> bytes_;   // last reported bytes per bin
  bool planned_ = false;
  uint64_t last_plan_epoch_ = 0;
};

/// Worker 0's closed loop: owns the authoritative assignment, runs the
/// policy over the reports arriving in `reports` (the stats channel's
/// inbox), and drives the migration controller with the plans it accepts.
/// Records every emitted plan so a verification run can replay them as a
/// fixed schedule.
template <typename T>
class AdaptiveController {
 public:
  AdaptiveController(MigrationController<T>* ctrl, uint32_t workers,
                     Assignment initial,
                     std::shared_ptr<const std::vector<BinStatsReport>> reports,
                     AdaptiveOptions opts = {})
      : ctrl_(ctrl), reports_(std::move(reports)),
        reports_per_worker_(workers, 0),
        current_(std::move(initial)),
        policy_(static_cast<uint32_t>(current_.size()), workers, opts) {}

  /// Folds every stats round completed since the last step into the
  /// policy and, if there was one, decides at `epoch`; on an accepted plan
  /// schedules the migration and returns true. Call before
  /// MigrationController::Advance for the epoch.
  ///
  /// A worker's n-th report belongs to round n, and a round is folded
  /// only once all W of its reports are in: while other workers' reports
  /// are still in flight, a partial window would look skewed.
  bool Step(uint64_t epoch) {
    const size_t workers = reports_per_worker_.size();
    for (; read_ < reports_->size(); ++read_) {
      uint32_t w = (*reports_)[read_].worker;
      MEGA_CHECK_LT(w, workers);
      size_t round = reports_per_worker_[w]++ - rounds_folded_;
      if (open_rounds_.size() <= round) open_rounds_.resize(round + 1);
      open_rounds_[round].push_back(read_);
    }
    bool folded = false;
    while (!open_rounds_.empty() && open_rounds_.front().size() == workers) {
      for (size_t i : open_rounds_.front()) policy_.Ingest((*reports_)[i]);
      open_rounds_.pop_front();
      ++rounds_folded_;
      folded = true;
    }
    if (!folded) return false;
    auto plan = policy_.Decide(epoch, current_);
    if (!plan) return false;
    ctrl_->MigrateTo(current_, *plan);
    plans_.emplace_back(epoch, *plan);
    current_ = std::move(*plan);
    return true;
  }

  const Assignment& current() const { return current_; }
  const std::vector<std::pair<uint64_t, Assignment>>& plans() const {
    return plans_;
  }
  AdaptivePolicy& policy() { return policy_; }

 private:
  MigrationController<T>* ctrl_;
  std::shared_ptr<const std::vector<BinStatsReport>> reports_;
  size_t read_ = 0;  // reports sorted into rounds so far
  std::vector<uint64_t> reports_per_worker_;
  uint64_t rounds_folded_ = 0;
  // Rounds not yet complete, oldest first: indices into `reports_`.
  std::deque<std::vector<size_t>> open_rounds_;
  Assignment current_;
  AdaptivePolicy policy_;
  std::vector<std::pair<uint64_t, Assignment>> plans_;
};

}  // namespace megaphone
