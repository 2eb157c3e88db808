// The migration controller: an external driver of the control stream.
//
// Megaphone deliberately leaves *when* to migrate to an external
// controller (paper §4.4 — DS2, Dhalion, or Chi could supply the stream).
// This controller implements the paper's evaluation protocol: it issues a
// strategy's batches one at a time, awaiting completion of each batch
// (the S output frontier passing the batch's timestamp) before issuing the
// next, optionally inserting a drain gap between batches (§4.4).
//
// Every worker owns one controller instance and calls Advance() once per
// driver round; this keeps the control input's frontier ahead of the data
// frontier on every worker (a requirement for routing to proceed — see
// stateful.hpp). Only worker 0 actually emits the control records.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "megaphone/strategies.hpp"
#include "timely/input.hpp"
#include "timely/probe.hpp"

namespace megaphone {

/// What the open-loop recorder reads of a controller after every step.
struct MigrationProgress {
  bool migrating = false;        // batches queued or in flight
  size_t completed_batches = 0;  // batches whose S frontier has passed
  size_t completed_plans = 0;    // plans (Migrate calls) fully completed
};

/// Drives one control input for one worker. `T` must be an integral epoch
/// type (the evaluation uses nanoseconds or round counters).
template <typename T>
class MigrationController {
 public:
  struct Options {
    MigrationStrategy strategy = MigrationStrategy::kBatched;
    /// Bins per batch (kBatched only).
    size_t batch_size = 64;
    /// Epochs to wait after a batch completes before issuing the next one,
    /// letting the system drain enqueued records (paper §4.4). The gap is
    /// in timestamp units.
    T gap = 0;
  };

  MigrationController(timely::Input<ControlInst, T> control,
                      timely::ProbeHandle<T> probe, uint32_t worker,
                      Options options)
      : control_(std::move(control)), probe_(std::move(probe)),
        worker_(worker), options_(options) {}

  /// Schedules a migration plan described by its batch sequence; an
  /// empty plan schedules nothing. All workers must schedule identical
  /// migrations in the same order.
  void Migrate(std::deque<std::vector<ControlInst>> batches) {
    if (batches.empty()) return;
    plan_batches_left_.push_back(batches.size());
    for (auto& b : batches) pending_batches_.push_back(std::move(b));
  }

  /// Convenience: plan and schedule the diff from `from` to `to` with the
  /// configured strategy.
  void MigrateTo(const Assignment& from, const Assignment& to) {
    Migrate(PlanBatches(options_.strategy, DiffAssignments(from, to), from,
                        options_.batch_size));
  }

  /// Called once per driver round, before data for epoch `now` is sent.
  /// Issues a due batch at `now` and advances the control epoch to `next`
  /// (which must satisfy now < next) so records at `now` can be routed.
  void Advance(const T& now, const T& next) {
    MEGA_CHECK_LT(now, next);
    control_->AdvanceTo(std::max(control_->epoch(), now));

    if (Poll()) not_before_ = SaturatingAdd(now, options_.gap);

    if (issued_.empty() && !pending_batches_.empty() && now >= not_before_) {
      if (worker_ == 0) {
        std::vector<ControlInst> batch = pending_batches_.front();
        control_->SendBatch(std::move(batch));
      }
      issued_.push_back(now);
      pending_batches_.pop_front();
    }

    control_->AdvanceTo(next);
  }

  /// Flushes all queued batches and closes the control input; call when
  /// the driver is done. Remaining batches are issued immediately at the
  /// final epoch (they will complete as the dataflow drains; Poll counts
  /// them).
  void Close(const T& now) {
    const T at = std::max(control_->epoch(), now);
    control_->AdvanceTo(at);
    for (auto& batch : pending_batches_) {
      if (worker_ == 0) control_->SendBatch(std::move(batch));
      issued_.push_back(at);
    }
    pending_batches_.clear();
    control_->Close();
  }

  /// Counts the issued batches whose timestamp the S output frontier has
  /// passed, oldest first, and the plans they complete; returns whether
  /// any completed. Advance calls it; after Close, a driver draining the
  /// dataflow calls it to follow the batches still in flight.
  bool Poll() {
    bool any = false;
    while (!issued_.empty() && !probe_.LessEqual(issued_.front())) {
      issued_.pop_front();
      any = true;
      completed_batches_++;
      if (--plan_batches_left_.front() == 0) {
        plan_batches_left_.pop_front();
        completed_plans_++;
      }
    }
    return any;
  }

  /// True while batches remain queued or in flight.
  bool Migrating() const {
    return !issued_.empty() || !pending_batches_.empty();
  }
  size_t completed_batches() const { return completed_batches_; }
  MigrationProgress progress() const {
    return {Migrating(), completed_batches_, completed_plans_};
  }
  size_t queued_batches() const { return pending_batches_.size(); }
  /// The oldest batch in flight's timestamp.
  std::optional<T> in_flight_time() const {
    if (issued_.empty()) return std::nullopt;
    return issued_.front();
  }

 private:
  timely::Input<ControlInst, T> control_;
  timely::ProbeHandle<T> probe_;
  uint32_t worker_;
  Options options_;

  std::deque<std::vector<ControlInst>> pending_batches_;
  /// Batches not yet completed of each scheduled plan, oldest first.
  std::deque<size_t> plan_batches_left_;
  /// Timestamps of the batches issued and not yet completed: at most one
  /// before Close, which adds every queued batch.
  std::deque<T> issued_;
  T not_before_ = TimestampTraits_Minimum();
  size_t completed_batches_ = 0;
  size_t completed_plans_ = 0;

  static T TimestampTraits_Minimum() {
    return timely::TimestampTraits<T>::Minimum();
  }

  /// `now + gap` with saturation: a gap near the epoch type's max must pin
  /// `not_before_` at max ("never again"), not wrap around and issue the
  /// next batch immediately.
  static T SaturatingAdd(const T& now, const T& gap) {
    if (now > std::numeric_limits<T>::max() - gap) {
      return std::numeric_limits<T>::max();
    }
    return now + gap;
  }
};

}  // namespace megaphone
