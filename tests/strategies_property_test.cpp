// Property tests for the migration strategies (paper §3.3, §4.4): for
// random reconfigurations, every strategy's batch sequence covers every
// move exactly once, kOptimized batches never repeat a source or
// destination worker, and an empty diff yields zero batches.
//
// Plus the end-to-end property of the chunked state path: for RANDOM
// migration schedules (random strategies, epochs, and target
// assignments), the deterministic count workload must produce
// byte-identical output digests at every --chunk-bytes setting —
// monolithic and chunked, single-process and across a 2-process TCP mesh.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <set>
#include <system_error>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "harness/harness.hpp"
#include "harness/launcher.hpp"
#include "megaphone/strategies.hpp"

namespace megaphone {
namespace {

constexpr MigrationStrategy kAllStrategies[] = {
    MigrationStrategy::kAllAtOnce,
    MigrationStrategy::kFluid,
    MigrationStrategy::kBatched,
    MigrationStrategy::kOptimized,
};

Assignment RandomAssignment(Xoshiro256& rng, uint32_t num_bins,
                            uint32_t workers) {
  Assignment a(num_bins);
  for (auto& w : a) w = static_cast<uint32_t>(rng.NextBelow(workers));
  return a;
}

// Canonical form for "covers every move exactly once": moves are unique
// per bin, so sorting by bin suffices.
std::vector<ControlInst> SortedByBin(std::vector<ControlInst> moves) {
  std::sort(moves.begin(), moves.end(),
            [](const ControlInst& a, const ControlInst& b) {
              return a.bin < b.bin;
            });
  return moves;
}

std::vector<ControlInst> Flatten(
    const std::deque<std::vector<ControlInst>>& batches) {
  std::vector<ControlInst> flat;
  for (const auto& b : batches) {
    flat.insert(flat.end(), b.begin(), b.end());
  }
  return flat;
}

TEST(StrategiesProperty, EveryMoveExactlyOnce) {
  Xoshiro256 rng(21);
  for (int round = 0; round < 50; ++round) {
    uint32_t workers = 2 + static_cast<uint32_t>(rng.NextBelow(7));
    uint32_t num_bins = 1u << (2 + rng.NextBelow(7));  // 4..512
    Assignment from = RandomAssignment(rng, num_bins, workers);
    Assignment to = RandomAssignment(rng, num_bins, workers);
    auto moves = DiffAssignments(from, to);
    size_t batch_size = 1 + rng.NextBelow(32);

    for (MigrationStrategy s : kAllStrategies) {
      auto batches = PlanBatches(s, moves, from, batch_size);
      EXPECT_EQ(SortedByBin(Flatten(batches)), SortedByBin(moves))
          << StrategyName(s) << " bins=" << num_bins << " W=" << workers;
      // No strategy emits a batch with nothing in it.
      for (const auto& b : batches) {
        EXPECT_FALSE(b.empty()) << StrategyName(s);
      }
    }
  }
}

TEST(StrategiesProperty, EmptyDiffYieldsZeroBatches) {
  Xoshiro256 rng(22);
  for (int round = 0; round < 10; ++round) {
    uint32_t workers = 2 + static_cast<uint32_t>(rng.NextBelow(7));
    uint32_t num_bins = 1u << (2 + rng.NextBelow(7));
    Assignment from = RandomAssignment(rng, num_bins, workers);
    auto moves = DiffAssignments(from, from);
    EXPECT_TRUE(moves.empty());
    for (MigrationStrategy s : kAllStrategies) {
      EXPECT_TRUE(PlanBatches(s, moves, from, 8).empty()) << StrategyName(s);
    }
  }
}

TEST(StrategiesProperty, BatchSizesMatchStrategy) {
  Xoshiro256 rng(23);
  for (int round = 0; round < 20; ++round) {
    uint32_t workers = 2 + static_cast<uint32_t>(rng.NextBelow(7));
    uint32_t num_bins = 1u << (3 + rng.NextBelow(6));
    Assignment from = RandomAssignment(rng, num_bins, workers);
    Assignment to = RandomAssignment(rng, num_bins, workers);
    auto moves = DiffAssignments(from, to);
    if (moves.empty()) continue;
    size_t batch_size = 1 + rng.NextBelow(16);

    auto all = PlanBatches(MigrationStrategy::kAllAtOnce, moves, from, 0);
    EXPECT_EQ(all.size(), 1u);

    auto fluid = PlanBatches(MigrationStrategy::kFluid, moves, from, 0);
    EXPECT_EQ(fluid.size(), moves.size());
    for (const auto& b : fluid) EXPECT_EQ(b.size(), 1u);

    auto batched =
        PlanBatches(MigrationStrategy::kBatched, moves, from, batch_size);
    EXPECT_EQ(batched.size(),
              (moves.size() + batch_size - 1) / batch_size);
    for (size_t i = 0; i < batched.size(); ++i) {
      if (i + 1 < batched.size()) {
        EXPECT_EQ(batched[i].size(), batch_size);
      } else {
        EXPECT_LE(batched[i].size(), batch_size);
      }
    }
  }
}

// kOptimized invariant (§4.4): within one batch no worker appears twice
// as a source or twice as a destination — sources computed against the
// assignment as it stands when the batch is issued.
TEST(StrategiesProperty, OptimizedBatchesNeverRepeatSourceOrDestination) {
  Xoshiro256 rng(24);
  for (int round = 0; round < 50; ++round) {
    uint32_t workers = 2 + static_cast<uint32_t>(rng.NextBelow(15));
    uint32_t num_bins = 1u << (2 + rng.NextBelow(8));
    Assignment from = RandomAssignment(rng, num_bins, workers);
    Assignment to = RandomAssignment(rng, num_bins, workers);
    auto moves = DiffAssignments(from, to);

    auto batches = PlanBatches(MigrationStrategy::kOptimized, moves, from, 0);
    Assignment current = from;
    for (const auto& batch : batches) {
      std::set<uint32_t> sources;
      std::set<uint32_t> destinations;
      for (const auto& m : batch) {
        uint32_t src = current[m.bin];
        EXPECT_TRUE(sources.insert(src).second)
            << "batch repeats source worker " << src;
        EXPECT_TRUE(destinations.insert(m.worker).second)
            << "batch repeats destination worker " << m.worker;
      }
      for (const auto& m : batch) current[m.bin] = m.worker;
    }
    EXPECT_EQ(current, to);
  }
}

// ---------------------------------------------------------------------
// Chunked ≡ monolithic digest equality under random migration schedules.

constexpr MigrationStrategy kScheduleStrategies[] = {
    MigrationStrategy::kAllAtOnce,
    MigrationStrategy::kFluid,
    MigrationStrategy::kBatched,
    MigrationStrategy::kOptimized,
};

/// A random migration schedule: 1-3 reconfigurations at distinct random
/// epochs, each to a uniformly random assignment.
std::vector<std::pair<uint64_t, Assignment>> RandomSchedule(
    Xoshiro256& rng, uint32_t num_bins, uint32_t workers, uint64_t epochs) {
  std::set<uint64_t> at;
  size_t n = 1 + rng.NextBelow(3);
  while (at.size() < n) at.insert(1 + rng.NextBelow(epochs - 1));
  std::vector<std::pair<uint64_t, Assignment>> schedule;
  for (uint64_t e : at) {
    schedule.emplace_back(e, RandomAssignment(rng, num_bins, workers));
  }
  return schedule;
}

DetCountConfig RandomScheduleConfig(Xoshiro256& rng) {
  DetCountConfig cfg;
  cfg.total_workers = 4;
  cfg.num_bins = 32;
  cfg.domain = 1 << 10;
  cfg.records_per_epoch = 1024;
  cfg.epochs = 8;
  cfg.strategy = kScheduleStrategies[rng.NextBelow(4)];
  cfg.batch_size = 1 + rng.NextBelow(8);
  cfg.seed = rng.Next();
  cfg.schedule =
      RandomSchedule(rng, cfg.num_bins, cfg.total_workers, cfg.epochs);
  return cfg;
}

TEST(StrategiesProperty, ChunkedDigestsMatchMonolithicUnderRandomSchedules) {
  Xoshiro256 rng(31);
  timely::Config single;
  single.workers = 4;
  for (int round = 0; round < 4; ++round) {
    DetCountConfig cfg = RandomScheduleConfig(rng);
    cfg.chunk_bytes = 0;  // monolithic reference
    DetCountResult ref = RunDeterministicCount(cfg, single);
    ASSERT_TRUE(ref.root);
    ASSERT_FALSE(ref.digest.empty());

    for (uint64_t chunk_bytes : {48ull, 256ull, 4096ull}) {
      DetCountConfig chunked = cfg;
      chunked.chunk_bytes = chunk_bytes;
      DetCountResult r = RunDeterministicCount(chunked, single);
      ASSERT_TRUE(r.root);
      EXPECT_EQ(r.digest, ref.digest)
          << "round " << round << " strategy " << StrategyName(cfg.strategy)
          << " chunk_bytes " << chunk_bytes;
      EXPECT_EQ(r.completed_batches, ref.completed_batches);
    }
  }
}

// The spill backend joins the same matrix: under random schedules the
// log-structured LogState bins — with a memtable small enough that most
// state lives in segment files and migration streams from disk — must
// produce digests byte-identical to the in-memory reference at every
// chunk bound, monolithic included.
TEST(StrategiesProperty, LogStateDigestsMatchMapStateUnderRandomSchedules) {
  Xoshiro256 rng(35);
  timely::Config single;
  single.workers = 4;
  char tmpl[] = "/tmp/mega_lsprop_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  for (int round = 0; round < 2; ++round) {
    DetCountConfig cfg = RandomScheduleConfig(rng);
    cfg.chunk_bytes = 0;  // in-memory monolithic reference
    DetCountResult ref = RunDeterministicCount(cfg, single);
    ASSERT_TRUE(ref.root);
    ASSERT_FALSE(ref.digest.empty());

    for (uint64_t chunk_bytes : {0ull, 48ull, 256ull, 4096ull}) {
      DetCountConfig lg = cfg;
      lg.backend = DetCountConfig::Backend::kLog;
      lg.state_dir = tmpl;
      lg.spill_memtable_bytes = 256;  // force segment traffic
      lg.chunk_bytes = chunk_bytes;
      DetCountResult r = RunDeterministicCount(lg, single);
      ASSERT_TRUE(r.root);
      EXPECT_EQ(r.digest, ref.digest)
          << "round " << round << " strategy " << StrategyName(cfg.strategy)
          << " chunk_bytes " << chunk_bytes;
      EXPECT_EQ(r.completed_batches, ref.completed_batches);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(tmpl, ec);
}

// The same digest equality must hold when the chunked run is distributed:
// 2 processes x 2 workers over the TCP mesh, chunk frames crossing the
// wire, against the single-process monolithic reference. (The fork
// pattern follows multiprocess_test: the peer exits before gtest's
// epilogue; this test runs RUN_SERIAL under ctest.)
TEST(StrategiesProperty, ChunkedDigestsMatchAcrossTwoProcesses) {
  Xoshiro256 rng(33);
  DetCountConfig cfg = RandomScheduleConfig(rng);

  timely::Config single;
  single.workers = 4;
  cfg.chunk_bytes = 0;
  DetCountResult ref = RunDeterministicCount(cfg, single);
  ASSERT_TRUE(ref.root);

  cfg.chunk_bytes = 64;
  MultiProcess mp = LaunchLoopbackProcesses(/*processes=*/2,
                                            /*workers_per_process=*/2);
  if (!mp.IsRoot()) {
    RunDeterministicCount(cfg, mp.config);
    _exit(0);
  }
  DetCountResult dist = RunDeterministicCount(cfg, mp.config);
  EXPECT_EQ(WaitForChildren(mp.children), 0) << "peer process failed";
  ASSERT_TRUE(dist.root);
  EXPECT_EQ(dist.digest, ref.digest)
      << "distributed chunked run diverged from monolithic reference";
  EXPECT_EQ(dist.completed_batches, ref.completed_batches);
}

// The paper's evaluation reconfiguration keeps its defining shape.
TEST(StrategiesProperty, ImbalancedAssignmentMovesQuarterOfBins) {
  for (uint32_t workers : {2u, 4u, 8u}) {
    uint32_t num_bins = 256;
    auto from = MakeInitialAssignment(num_bins, workers);
    auto to = MakeImbalancedAssignment(num_bins, workers);
    auto moves = DiffAssignments(from, to);
    EXPECT_EQ(moves.size(), num_bins / 4);  // 25% of state moves
    for (const auto& m : moves) {
      EXPECT_LT(from[m.bin], workers / 2);          // from lower half
      EXPECT_EQ(m.worker, from[m.bin] + workers / 2);  // to its counterpart
    }
  }
}

}  // namespace
}  // namespace megaphone
