// How every bench driver issues its migrations: a fixed schedule of
// reconfigurations walked by one cursor, and the lockstep drivers' end of
// run, which drains empty epochs until the last batch has completed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "megaphone/controller.hpp"
#include "megaphone/strategies.hpp"
#include "timely/timely.hpp"

namespace megaphone {

/// (time, target assignment) pairs in nondecreasing time order: the form
/// every bench config's schedule and AdaptiveController::plans() share.
/// The time unit is the driver's: ms since the measurement start for the
/// open-loop drivers, epochs for the lockstep ones.
using MigrationPlan = std::vector<std::pair<uint64_t, Assignment>>;

/// A cursor over a MigrationPlan. It tracks the assignment the entries
/// passed so far lead to, starting from `initial`.
class MigrationSchedule {
 public:
  /// `plan` must outlive the schedule.
  MigrationSchedule(const MigrationPlan& plan, Assignment initial)
      : plan_(plan), current_(std::move(initial)) {}
  MigrationSchedule(MigrationPlan&&, Assignment) = delete;

  /// Issues every remaining entry due at `t` (time <= t), in order, as
  /// `ctrl.MigrateTo(from, to)`.
  template <typename Ctrl>
  void IssueDue(uint64_t t, Ctrl& ctrl) {
    for (; next_ < plan_.size() && plan_[next_].first <= t; ++next_) {
      ctrl.MigrateTo(current_, plan_[next_].second);
      current_ = plan_[next_].second;
    }
  }

  /// Passes over every remaining entry before `t` without issuing it: a
  /// run restored at `t` already routes by them.
  void SkipBefore(uint64_t t) {
    for (; next_ < plan_.size() && plan_[next_].first < t; ++next_) {
      current_ = plan_[next_].second;
    }
  }

  const Assignment& current() const { return current_; }

 private:
  const MigrationPlan& plan_;
  Assignment current_;
  size_t next_ = 0;
};

/// The lockstep drivers' end of run: advances empty epochs from `e`
/// (`advance_to(e + 1)` moves the data inputs) until no batch is queued
/// or in flight, then closes the controller. Returns the completed
/// batches, which now cover the whole plan.
template <typename T, typename AdvanceTo>
size_t DrainAndCloseLockstep(timely::Worker& w, MigrationController<T>& ctrl,
                             const timely::ProbeHandle<T>& probe, uint64_t e,
                             AdvanceTo&& advance_to) {
  for (; ctrl.Migrating(); ++e) {
    ctrl.Advance(e, e + 1);
    advance_to(e + 1);
    w.StepUntil([&] { return !probe.LessThan(e + 1); });
  }
  const size_t completed = ctrl.completed_batches();
  ctrl.Close(e + 1);
  return completed;
}

}  // namespace megaphone
