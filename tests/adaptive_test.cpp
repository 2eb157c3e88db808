// The closed-loop adaptive controller, proven deterministic.
//
// Three properties anchor the design (see megaphone/adaptive.hpp):
//   1. Convergence — under a seeded hot-key skew the policy emits at
//      least one plan, and the final assignment carries strictly less
//      load on the hottest worker than the initial one (checked against
//      an independent replay of the harness keygen).
//   2. Replay equivalence — the plans the controller emitted, replayed
//      as a fixed schedule, reproduce the digest byte-for-byte; and the
//      same adaptive run split across two processes emits the same plans
//      and the same digest. (The P=2 case forks; this test runs
//      RUN_SERIAL under ctest, like the other forking tests.)
//   3. Stability — hysteresis and the cooldown keep the policy from
//      thrashing: within the cooldown even heavy skew must not replan,
//      and oscillation inside the imbalance threshold never replans,
//      while a genuine reversed skew after the cooldown still does.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "harness/count_workload.hpp"
#include "harness/launcher.hpp"

namespace megaphone {
namespace {

DetCountConfig SkewedConfig() {
  DetCountConfig cfg;
  cfg.total_workers = 4;
  cfg.num_bins = 32;
  cfg.domain = 1 << 11;
  cfg.records_per_epoch = 2048;
  cfg.epochs = 12;
  cfg.adaptive = true;
  cfg.adaptive_opts.cooldown_epochs = 3;
  cfg.skew_from_epoch = 2;
  cfg.skew_worker = 0;
  cfg.skew_prob_pct = 90;
  return cfg;
}

// Independent replay of the harness keygen: per-bin record counts over
// the skewed phase, the load the policy was reacting to.
std::vector<uint64_t> SkewedBinLoads(const DetCountConfig& cfg) {
  std::vector<uint64_t> loads(cfg.num_bins, 0);
  for (uint64_t idx = cfg.skew_from_epoch * cfg.records_per_epoch;
       idx < cfg.epochs * cfg.records_per_epoch; ++idx) {
    uint64_t k =
        detail::SkewedRecord(cfg.seed, idx, cfg.skew_prob_pct)
            ? detail::HotHashKey(cfg.seed, idx, cfg.domain, cfg.num_bins,
                                 cfg.total_workers, cfg.skew_worker)
            : detail::CountKey(cfg.seed, idx, cfg.domain);
    loads[BinOf(HashMix64(k), cfg.num_bins)]++;
  }
  return loads;
}

uint64_t MaxWorkerLoad(const std::vector<uint64_t>& loads,
                       const Assignment& a, uint32_t workers) {
  std::vector<uint64_t> wl(workers, 0);
  for (size_t b = 0; b < a.size(); ++b) wl[a[b]] += loads[b];
  return *std::max_element(wl.begin(), wl.end());
}

TEST(Adaptive, ConvergesUnderSeededSkew) {
  DetCountConfig cfg = SkewedConfig();
  timely::Config tcfg;
  tcfg.workers = cfg.total_workers;
  DetCountResult r = RunDeterministicCount(cfg, tcfg);
  ASSERT_TRUE(r.root);
  ASSERT_FALSE(r.emitted_plans.empty()) << "policy never reacted to skew";

  auto loads = SkewedBinLoads(cfg);
  uint64_t total = std::accumulate(loads.begin(), loads.end(), uint64_t{0});
  auto initial = MakeInitialAssignment(cfg.num_bins, cfg.total_workers);
  uint64_t before = MaxWorkerLoad(loads, initial, cfg.total_workers);
  uint64_t after =
      MaxWorkerLoad(loads, r.final_assignment, cfg.total_workers);
  EXPECT_LT(after, before) << "rebalance did not reduce the hot worker";
  // 90% of traffic targeted one of four workers; the final assignment
  // must spread it well below a majority share (perfect split = 25%).
  EXPECT_LE(after * 100, total * 55)
      << "final assignment still concentrates the load";
}

TEST(Adaptive, ReplayingEmittedPlansReproducesDigest) {
  DetCountConfig cfg = SkewedConfig();
  timely::Config tcfg;
  tcfg.workers = cfg.total_workers;
  DetCountResult live = RunDeterministicCount(cfg, tcfg);
  ASSERT_TRUE(live.root);
  ASSERT_FALSE(live.emitted_plans.empty());

  DetCountConfig replay = cfg;
  replay.adaptive = false;
  replay.skew_from_epoch = cfg.skew_from_epoch;  // identical input stream
  replay.schedule = live.emitted_plans;
  DetCountResult rep = RunDeterministicCount(replay, tcfg);
  ASSERT_TRUE(rep.root);
  EXPECT_EQ(rep.digest, live.digest)
      << "replaying the emitted plans diverged from the live run";
  EXPECT_EQ(rep.distinct_keys, live.distinct_keys);
  EXPECT_EQ(rep.completed_batches, live.completed_batches);
}

// (The fork pattern follows multiprocess_test: the peer exits before
// gtest's epilogue; RUN_SERIAL under ctest.)
TEST(Adaptive, PlansAndDigestIdenticalAcrossTwoProcesses) {
  DetCountConfig cfg = SkewedConfig();
  timely::Config single;
  single.workers = cfg.total_workers;
  DetCountResult ref = RunDeterministicCount(cfg, single);
  ASSERT_TRUE(ref.root);
  ASSERT_FALSE(ref.emitted_plans.empty());

  MultiProcess mp = LaunchLoopbackProcesses(/*processes=*/2,
                                            /*workers_per_process=*/2);
  if (!mp.IsRoot()) {
    RunDeterministicCount(cfg, mp.config);
    _exit(0);
  }
  DetCountResult dist = RunDeterministicCount(cfg, mp.config);
  EXPECT_EQ(WaitForChildren(mp.children), 0) << "peer process failed";
  ASSERT_TRUE(dist.root);
  EXPECT_EQ(dist.emitted_plans, ref.emitted_plans)
      << "the policy decided differently across the process split";
  EXPECT_EQ(dist.digest, ref.digest);
  EXPECT_EQ(dist.completed_batches, ref.completed_batches);
}

// ------------------------------------------------------- policy (unit)

void Feed(AdaptivePolicy& p, std::vector<uint64_t> records) {
  BinStatsReport rep;
  rep.records = std::move(records);
  p.Ingest(rep);
}

TEST(Adaptive, HysteresisAndCooldownPreventThrash) {
  AdaptiveOptions opts;
  opts.cooldown_epochs = 2;
  AdaptivePolicy p(4, 2, opts);
  Assignment cur{0, 0, 1, 1};

  // Sustained skew onto worker 0's bins: exactly one plan.
  Feed(p, {50, 50, 1, 1});
  auto plan = p.Decide(1, cur);
  ASSERT_TRUE(plan.has_value());
  Assignment a = *plan;
  EXPECT_NE(a, cur);

  // Within the cooldown even heavy skew must not replan.
  Feed(p, {50, 50, 1, 1});
  EXPECT_FALSE(p.Decide(2, a).has_value());

  // Mild oscillation inside the imbalance threshold: never replans.
  for (uint64_t e = 3; e < 10; ++e) {
    if (e % 2 == 0) {
      Feed(p, {26, 25, 25, 26});
    } else {
      Feed(p, {25, 26, 26, 25});
    }
    EXPECT_FALSE(p.Decide(e, a).has_value())
        << "thrashed at epoch " << e;
  }

  // A genuine reversed skew after the cooldown still replans.
  Feed(p, {50, 1, 1, 50});
  Feed(p, {50, 1, 1, 50});
  EXPECT_TRUE(p.Decide(10, a).has_value());
}

TEST(Adaptive, IngestIsAdditiveAcrossSplitReports) {
  AdaptiveOptions opts;
  AdaptivePolicy whole(4, 2, opts);
  AdaptivePolicy split(4, 2, opts);
  Assignment cur{0, 0, 1, 1};

  Feed(whole, {40, 40, 2, 2});
  Feed(split, {40, 0, 2, 0});   // the same totals, split across two
  Feed(split, {0, 40, 0, 2});   // reports arriving in any order
  auto a = whole.Decide(1, cur);
  auto b = split.Decide(1, cur);
  ASSERT_EQ(a.has_value(), b.has_value());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, *b);
}

TEST(Adaptive, BalancedLoadNeverPlans) {
  AdaptivePolicy p(4, 2, {});
  Assignment cur{0, 1, 0, 1};
  for (uint64_t e = 1; e < 6; ++e) {
    Feed(p, {25, 25, 25, 25});
    EXPECT_FALSE(p.Decide(e, cur).has_value());
  }
  // And no traffic at all never plans either.
  AdaptivePolicy idle(4, 2, {});
  EXPECT_FALSE(idle.Decide(1, cur).has_value());
}

// The move-cost knob: pricing a bin's migration at move_cost_per_byte
// per byte of resident state vetoes shipping huge bins whose load gain
// cannot pay for the transfer, without muting the policy entirely.
TEST(Adaptive, MoveCostVetoesExpensiveBins) {
  // Bins {0,1} carry the load and both sit on worker 0; either one
  // moving rebalances, so the knob decides which. (Bin 0 must not be so
  // dominant that moving it only swaps the hot worker — hysteresis would
  // then veto every plan regardless of cost.)
  auto feed = [](AdaptivePolicy& p, std::vector<uint64_t> state_bytes) {
    BinStatsReport rep;
    rep.records = {50, 40, 1, 1};
    rep.state_bytes = std::move(state_bytes);
    rep.resident = {1, 1, 1, 1};
    p.Ingest(rep);
  };
  Assignment cur{0, 0, 1, 1};
  const uint64_t kHuge = 1ull << 30;  // cost 1e-6/byte prices this at ~1073

  // Cost off (the default): the heavy bin moves, as always.
  AdaptivePolicy free_policy(4, 2, {});
  feed(free_policy, {kHuge, 64, 64, 64});
  auto plan = free_policy.Decide(1, cur);
  ASSERT_TRUE(plan.has_value());
  EXPECT_NE((*plan)[0], cur[0]) << "the hot bin should have moved";

  // With a cost, the gigabyte bin stays put — its ~25 units of smoothed
  // load cannot pay ~1073 units of transfer — but rebalancing continues
  // with the cheap bin 1 on the overloaded worker.
  AdaptiveOptions priced;
  priced.move_cost_per_byte = 1e-6;
  AdaptivePolicy costly(4, 2, priced);
  feed(costly, {kHuge, 64, 64, 64});
  auto capped = costly.Decide(1, cur);
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ((*capped)[0], cur[0]) << "the priced-out bin moved anyway";
  EXPECT_NE(*capped, cur) << "no cheap bin moved at all";

  // When every bin is that expensive, no move is worth it: silence.
  AdaptivePolicy muted(4, 2, priced);
  feed(muted, {kHuge, kHuge, kHuge, kHuge});
  EXPECT_FALSE(muted.Decide(1, cur).has_value());
}

// The controller decides only on complete stats rounds. In the open loop
// a window holding worker 0's report but not worker 1's (still in flight)
// looks skewed; folding it would plan a migration the whole round does
// not justify.
TEST(Adaptive, ControllerDecidesOnlyOnCompleteRounds) {
  // MigrateTo only queues batches; no plan may reach it here anyway.
  MigrationController<uint64_t> ctrl(nullptr, {}, 0, {});
  auto inbox = std::make_shared<std::vector<BinStatsReport>>();
  AdaptiveController<uint64_t> actrl(&ctrl, 2, Assignment{0, 0, 1, 1},
                                     inbox);
  auto report = [](uint32_t worker, std::vector<uint64_t> records) {
    BinStatsReport rep;
    rep.worker = worker;
    rep.records = std::move(records);
    return rep;
  };

  // W-1 reports of round 0: worker 0's bins look hot, yet nothing is
  // folded and nothing is planned.
  inbox->push_back(report(0, {50, 50, 0, 0}));
  EXPECT_FALSE(actrl.Step(1));
  EXPECT_EQ(actrl.policy().loads(), (std::vector<double>{0, 0, 0, 0}));

  // The last report completes the round: the decision sees the whole,
  // balanced window and keeps the assignment.
  inbox->push_back(report(1, {0, 0, 50, 50}));
  EXPECT_FALSE(actrl.Step(2));
  EXPECT_EQ(actrl.policy().loads(), (std::vector<double>{25, 25, 25, 25}));
  EXPECT_TRUE(actrl.plans().empty());
  EXPECT_EQ(actrl.current(), (Assignment{0, 0, 1, 1}));

  // A worker running a round ahead does not open a decision either; its
  // report waits for the rest of its round.
  inbox->push_back(report(1, {0, 0, 0, 0}));
  inbox->push_back(report(1, {0, 0, 0, 0}));
  EXPECT_FALSE(actrl.Step(3));
  EXPECT_EQ(actrl.policy().loads(), (std::vector<double>{25, 25, 25, 25}));
}

TEST(Adaptive, BinStatsReportRoundTrips) {
  BinStatsReport rep;
  rep.worker = 3;
  rep.epoch = 17;
  rep.records = {5, 0, 9};
  rep.state_bytes = {40, 0, 72};
  rep.resident = {1, 0, 1};
  auto back = DecodeFromBytes<BinStatsReport>(EncodeToBytes(rep));
  EXPECT_EQ(back.worker, rep.worker);
  EXPECT_EQ(back.epoch, rep.epoch);
  EXPECT_EQ(back.records, rep.records);
  EXPECT_EQ(back.state_bytes, rep.state_bytes);
  EXPECT_EQ(back.resident, rep.resident);
}

}  // namespace
}  // namespace megaphone
