// Edge cases of the MigrationController protocol: a stalled probe must
// never double-issue the in-flight batch, the configured gap must be
// enforced between batches, Close with batches still queued must flush
// every remaining batch into the control stream, and completed plans are
// counted one by one, also after Close.
//
// The probe is simulated: it watches an auxiliary input stream whose
// epoch the test advances by hand, which is exactly what the controller
// sees from the S output frontier in a real dataflow.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "megaphone/megaphone.hpp"
#include "timely/timely.hpp"

namespace megaphone {
namespace {

using timely::OpCtx;
using timely::Pact;
using timely::Scope;
using timely::Worker;
using T = uint64_t;

struct Rig {
  timely::Input<ControlInst, T> ctrl;
  timely::Input<uint64_t, T> sim;  // drives the simulated S frontier
  timely::ProbeHandle<T> probe;
  std::shared_ptr<uint64_t> ctrl_records;  // records seen on ctrl stream
};

Rig BuildRig(Scope<T>& s) {
  auto [ctrl_in, ctrl_stream] = timely::NewInput<ControlInst>(s);
  auto [sim_in, sim_stream] = timely::NewInput<uint64_t>(s);
  auto probe = timely::Probe(sim_stream);
  auto seen = std::make_shared<uint64_t>(0);
  timely::OperatorBuilder<T> b(s, "CtrlSink");
  auto* in = b.AddInput(ctrl_stream, Pact<ControlInst>::Pipeline());
  b.Build([in, seen](OpCtx<T>&) {
    in->ForEach([&](const T&, std::vector<ControlInst>& us) {
      *seen += us.size();
    });
  });
  return Rig{ctrl_in, sim_in, probe, seen};
}

std::deque<std::vector<ControlInst>> FluidBatches(size_t n) {
  std::deque<std::vector<ControlInst>> batches;
  for (size_t i = 0; i < n; ++i) {
    batches.push_back({ControlInst{static_cast<BinId>(i), 0}});
  }
  return batches;
}

TEST(ControllerEdge, StalledProbeNeverDoubleIssues) {
  std::shared_ptr<uint64_t> seen;  // read after Execute fully drains
  timely::Execute(timely::Config{1}, [&](Worker& w) {
    auto rig = w.Dataflow<T>(BuildRig);
    MigrationController<T> controller(rig.ctrl, rig.probe, w.index(), {});
    controller.Migrate(FluidBatches(2));

    controller.Advance(0, 1);  // issues batch 0 at time 0
    EXPECT_EQ(controller.queued_batches(), 1u);
    ASSERT_TRUE(controller.in_flight_time().has_value());
    EXPECT_EQ(*controller.in_flight_time(), 0u);

    // The probe never moves: many more rounds must not issue anything.
    for (uint64_t e = 1; e <= 20; ++e) {
      controller.Advance(e, e + 1);
      w.Step();
      EXPECT_EQ(controller.queued_batches(), 1u);
      EXPECT_EQ(controller.completed_batches(), 0u);
      ASSERT_TRUE(controller.in_flight_time().has_value());
      EXPECT_EQ(*controller.in_flight_time(), 0u);  // the original issue
    }

    // Unstall: the batch completes, and the next one is issued.
    rig.sim->AdvanceTo(1);
    controller.Advance(21, 22);
    EXPECT_EQ(controller.completed_batches(), 1u);
    EXPECT_EQ(controller.queued_batches(), 0u);
    ASSERT_TRUE(controller.in_flight_time().has_value());
    EXPECT_EQ(*controller.in_flight_time(), 21u);

    rig.sim->AdvanceTo(22);
    controller.Advance(22, 23);
    EXPECT_EQ(controller.completed_batches(), 2u);
    EXPECT_FALSE(controller.Migrating());

    controller.Close(23);
    rig.sim->Close();
    seen = rig.ctrl_records;
  });
  EXPECT_EQ(*seen, 2u);  // each batch's single record, sent once
}

// A plan completes with its last batch; a plan queued behind another
// counts separately, and an empty plan schedules nothing.
TEST(ControllerEdge, CountsCompletedPlans) {
  timely::Execute(timely::Config{1}, [&](Worker& w) {
    auto rig = w.Dataflow<T>(BuildRig);
    MigrationController<T> controller(rig.ctrl, rig.probe, w.index(), {});
    controller.Migrate(FluidBatches(2));
    controller.Migrate({});
    controller.Migrate(FluidBatches(1));
    auto progress = [&] {
      const MigrationProgress p = controller.progress();
      return std::vector<size_t>{p.migrating, p.completed_batches,
                                 p.completed_plans};
    };
    EXPECT_EQ(progress(), (std::vector<size_t>{1, 0, 0}));

    controller.Advance(0, 1);  // plan 1, batch 0
    rig.sim->AdvanceTo(1);
    controller.Advance(1, 2);  // batch 0 done; plan 1, batch 1 issued
    EXPECT_EQ(progress(), (std::vector<size_t>{1, 1, 0}));
    rig.sim->AdvanceTo(2);
    controller.Advance(2, 3);  // plan 1 done; plan 2's batch issued
    EXPECT_EQ(progress(), (std::vector<size_t>{1, 2, 1}));
    rig.sim->AdvanceTo(3);
    controller.Advance(3, 4);  // plan 2 done
    EXPECT_EQ(progress(), (std::vector<size_t>{0, 3, 2}));

    // Close flushes plan 3's second batch while its first is in flight;
    // Poll follows both as the frontier passes them.
    controller.Migrate(FluidBatches(2));
    controller.Advance(4, 5);  // plan 3, batch 0 at 4
    controller.Close(6);       // plan 3, batch 1 at 6
    EXPECT_EQ(progress(), (std::vector<size_t>{1, 3, 2}));
    rig.sim->AdvanceTo(5);
    EXPECT_TRUE(controller.Poll());
    EXPECT_EQ(progress(), (std::vector<size_t>{1, 4, 2}));
    EXPECT_EQ(controller.in_flight_time(), std::optional<T>(6));
    rig.sim->AdvanceTo(7);
    EXPECT_TRUE(controller.Poll());
    EXPECT_EQ(progress(), (std::vector<size_t>{0, 5, 3}));
    EXPECT_FALSE(controller.Poll());
    rig.sim->Close();
  });
}

TEST(ControllerEdge, GapIsEnforcedBetweenBatches) {
  timely::Execute(timely::Config{1}, [&](Worker& w) {
    typename MigrationController<T>::Options opts;
    opts.gap = 3;
    auto rig = w.Dataflow<T>(BuildRig);
    MigrationController<T> controller(rig.ctrl, rig.probe, w.index(), opts);
    controller.Migrate(FluidBatches(2));

    controller.Advance(0, 1);  // issues batch 0
    EXPECT_EQ(controller.queued_batches(), 1u);

    rig.sim->AdvanceTo(1);     // batch 0 completes...
    controller.Advance(1, 2);  // ...detected here; not_before_ = 1 + 3
    EXPECT_EQ(controller.completed_batches(), 1u);
    EXPECT_EQ(controller.queued_batches(), 1u) << "issued inside the gap";
    EXPECT_FALSE(controller.in_flight_time().has_value());

    for (uint64_t e = 2; e < 4; ++e) {  // still inside the gap
      controller.Advance(e, e + 1);
      w.Step();
      EXPECT_EQ(controller.queued_batches(), 1u) << "issued at epoch " << e;
      EXPECT_FALSE(controller.in_flight_time().has_value());
    }

    controller.Advance(4, 5);  // gap over: 4 >= 1 + 3
    EXPECT_EQ(controller.queued_batches(), 0u);
    ASSERT_TRUE(controller.in_flight_time().has_value());
    EXPECT_EQ(*controller.in_flight_time(), 4u);

    rig.sim->AdvanceTo(5);
    controller.Advance(5, 6);
    EXPECT_EQ(controller.completed_batches(), 2u);
    controller.Close(6);
    rig.sim->Close();
  });
}

TEST(ControllerEdge, HugeGapSaturatesInsteadOfWrapping) {
  // A gap near the epoch type's max must pin not_before_ at max — the old
  // `now + gap` wrapped around, making the next batch due immediately.
  std::shared_ptr<uint64_t> seen;  // read after Execute fully drains
  timely::Execute(timely::Config{1}, [&](Worker& w) {
    typename MigrationController<T>::Options opts;
    opts.gap = std::numeric_limits<T>::max() - 1;
    auto rig = w.Dataflow<T>(BuildRig);
    MigrationController<T> controller(rig.ctrl, rig.probe, w.index(), opts);
    controller.Migrate(FluidBatches(2));

    controller.Advance(0, 1);  // issues batch 0
    EXPECT_EQ(controller.queued_batches(), 1u);

    rig.sim->AdvanceTo(3);     // batch 0 completes...
    controller.Advance(3, 4);  // ...3 + (max-1) must saturate, not wrap
    EXPECT_EQ(controller.completed_batches(), 1u);
    EXPECT_EQ(controller.queued_batches(), 1u);
    EXPECT_FALSE(controller.in_flight_time().has_value());

    for (uint64_t e = 4; e <= 24; ++e) {  // the gap never elapses
      controller.Advance(e, e + 1);
      w.Step();
      EXPECT_EQ(controller.queued_batches(), 1u)
          << "gap wrapped: batch issued at epoch " << e;
      EXPECT_FALSE(controller.in_flight_time().has_value());
    }

    controller.Close(25);  // the held-back batch still flushes on Close
    EXPECT_EQ(controller.queued_batches(), 0u);
    rig.sim->Close();
    seen = rig.ctrl_records;
  });
  EXPECT_EQ(*seen, 2u);
}

TEST(ControllerEdge, CloseFlushesQueuedBatches) {
  std::shared_ptr<uint64_t> seen;  // read after Execute fully drains
  timely::Execute(timely::Config{1}, [&](Worker& w) {
    auto rig = w.Dataflow<T>(BuildRig);
    MigrationController<T> controller(rig.ctrl, rig.probe, w.index(), {});
    controller.Migrate(FluidBatches(3));

    controller.Advance(0, 1);  // issues batch 0; probe stalls forever
    EXPECT_EQ(controller.queued_batches(), 2u);

    // Close with two batches still queued: they are all flushed into the
    // control stream at the final epoch.
    controller.Close(1);
    EXPECT_EQ(controller.queued_batches(), 0u);

    rig.sim->Close();
    seen = rig.ctrl_records;
  });
  // All three batches' records reached the control stream exactly once.
  EXPECT_EQ(*seen, 3u);
}

}  // namespace
}  // namespace megaphone
