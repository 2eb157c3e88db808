// Tests for control-plane pieces: bin mapping, the time-versioned routing
// table, assignment planning, and strategy batch generation.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "megaphone/control.hpp"
#include "megaphone/strategies.hpp"

namespace megaphone {
namespace {

TEST(BinOf, UsesMostSignificantBits) {
  EXPECT_EQ(BinOf(0, 1), 0u);
  EXPECT_EQ(BinOf(~uint64_t{0}, 1), 0u);
  // With 4 bins, the top 2 bits select the bin.
  EXPECT_EQ(BinOf(0x0000000000000000ULL, 4), 0u);
  EXPECT_EQ(BinOf(0x4000000000000000ULL, 4), 1u);
  EXPECT_EQ(BinOf(0x8000000000000000ULL, 4), 2u);
  EXPECT_EQ(BinOf(0xC000000000000000ULL, 4), 3u);
  EXPECT_EQ(BinOf(0xFFFFFFFFFFFFFFFFULL, 4), 3u);
}

TEST(BinOf, CoversAllBinsUnderMixedHash) {
  std::set<BinId> seen;
  for (uint64_t k = 0; k < 4096; ++k) seen.insert(BinOf(HashMix64(k), 64));
  EXPECT_EQ(seen.size(), 64u);
}

TEST(RoutingTable, InitialAssignmentIsModulo) {
  RoutingTable<uint64_t> rt(8, 4);
  for (BinId b = 0; b < 8; ++b) {
    EXPECT_EQ(rt.WorkerAt(0, b), b % 4);
    EXPECT_EQ(rt.WorkerAt(1000, b), b % 4);
  }
}

TEST(RoutingTable, VersionsTakeEffectAtTheirTime) {
  RoutingTable<uint64_t> rt(4, 2);
  rt.Apply(10, 1, 0);  // bin 1: worker 1 -> worker 0 at t=10
  EXPECT_EQ(rt.WorkerAt(9, 1), 1u);
  EXPECT_EQ(rt.WorkerAt(10, 1), 0u);
  EXPECT_EQ(rt.WorkerAt(11, 1), 0u);
  rt.Apply(20, 1, 1);
  EXPECT_EQ(rt.WorkerAt(15, 1), 0u);
  EXPECT_EQ(rt.WorkerAt(20, 1), 1u);
}

TEST(RoutingTable, OwnerBeforeIsStrict) {
  RoutingTable<uint64_t> rt(4, 2);
  rt.Apply(10, 1, 0);
  EXPECT_EQ(rt.OwnerBefore(10, 1), 1u);  // before the t=10 update
  EXPECT_EQ(rt.OwnerBefore(11, 1), 0u);
  rt.Apply(20, 1, 1);
  EXPECT_EQ(rt.OwnerBefore(20, 1), 0u);
}

TEST(RoutingTable, LastUpdateAtSameTimeWins) {
  RoutingTable<uint64_t> rt(4, 4);
  rt.Apply(10, 2, 0);
  rt.Apply(10, 2, 3);
  EXPECT_EQ(rt.WorkerAt(10, 2), 3u);
}

// Two plans' batches flushed at one time can update a bin twice at t: the
// old owner must move it once, to the last-named owner (where routing
// sends the bin's records from t on), not once per update.
TEST(ControlState, BinUpdatedTwiceAtOneTimeMovesOnceToItsLastOwner) {
  timely::OpCtx<uint64_t> ctx(nullptr, "F");
  ctx.NoteInputTime(0);
  ControlState<uint64_t> cs(/*num_bins=*/4, /*workers=*/3, /*my_worker=*/0);
  // Bin 0 starts on worker 0, bin 3 on worker 0 too (bin % 3).
  std::vector<ControlInst> updates{{0, 1}, {3, 2}, {0, 2}, {3, 0}};
  cs.Enqueue(ctx, 5, updates);
  cs.IntegrateFinal(ctx, timely::Antichain<uint64_t>({6}));
  EXPECT_EQ(cs.routing().WorkerAt(5, 0), 2u);
  EXPECT_EQ(cs.routing().WorkerAt(5, 3), 0u);
  // Every resident bin is empty here: one empty final frame each.
  struct EmptyBin final : FrameCursor {
    size_t NextFrame(Writer&, size_t) override {
      sent = true;
      return 0;
    }
    bool done() const override { return sent; }
    bool sent = false;
  };
  cs.RunReadyMigrations(
      ctx, [](const uint64_t&) { return true; },
      [](const uint64_t&, BinId) { return std::make_unique<EmptyBin>(); });
  std::vector<std::pair<BinId, uint32_t>> moves;
  cs.FlushChunks(ctx, 0, 0, [&](const uint64_t&, BinChunk&& c) {
    ForEachSegment(c, [&](BinId bin, uint32_t, bool, Reader&) {
      moves.emplace_back(bin, c.target);
    });
  });
  // Bin 0 moves once (to 2); bin 3 ends where it started, so it stays.
  EXPECT_EQ(moves, (std::vector<std::pair<BinId, uint32_t>>{{0, 2}}));
  EXPECT_FALSE(ctx.HasCap(5)) << "released with the last frame at t";
}

TEST(RoutingTable, FlatFastPathDisabledForIncomparableVersionTimes) {
  // With a partially ordered timestamp, versions on different bins can be
  // applied at mutually incomparable times; no single time then bounds
  // every version, so the flat owner array must not answer queries that
  // are ≥ one version but not the other (regression: the fast path used
  // to return bin 0's (2,0) owner for a query at (1,3)).
  using P = timely::Product<uint64_t, uint64_t>;
  RoutingTable<P> rt(4, 2);
  rt.Apply(P{2, 0}, 0, 1);  // bin 0: new owner at (2,0)
  rt.Apply(P{0, 3}, 1, 0);  // bin 1: incomparable version time (0,3)
  // (1,3) is ≥ (0,3) but NOT ≥ (2,0): bin 0 must still answer with its
  // initial owner, bin 1 with its new one.
  EXPECT_EQ(rt.WorkerAt(P{1, 3}, 0), 0u);
  EXPECT_EQ(rt.WorkerAt(P{1, 3}, 1), 0u);
  EXPECT_EQ(rt.FlatOwnersAt(P{9, 9}), nullptr);
  // A query past both versions still answers correctly via history.
  EXPECT_EQ(rt.WorkerAt(P{9, 9}, 0), 1u);
  EXPECT_EQ(rt.WorkerAt(P{9, 9}, 1), 0u);
}

TEST(RoutingTable, FlatFastPathServesSteadyStateQueries) {
  RoutingTable<uint64_t> rt(4, 2);
  EXPECT_NE(rt.FlatOwnersAt(0), nullptr);  // initial assignment is flat
  rt.Apply(10, 1, 0);
  EXPECT_EQ(rt.FlatOwnersAt(9), nullptr);   // 9 predates the t=10 version
  const uint32_t* flat = rt.FlatOwnersAt(10);
  ASSERT_NE(flat, nullptr);
  for (BinId b = 0; b < 4; ++b) EXPECT_EQ(flat[b], rt.WorkerAt(10, b));
}

TEST(RoutingTable, OutOfOrderVersionsRejected) {
  RoutingTable<uint64_t> rt(4, 2);
  rt.Apply(10, 1, 0);
  EXPECT_DEATH(rt.Apply(5, 1, 1), "time order");
}

TEST(RoutingTable, CompactKeepsQueryableHistory) {
  RoutingTable<uint64_t> rt(2, 2);
  rt.Apply(10, 0, 1);
  rt.Apply(20, 0, 0);
  rt.Apply(30, 0, 1);
  EXPECT_EQ(rt.TotalVersions(), 5u);  // 2 initial + 3
  rt.Compact(25);                     // frontier passed 25
  // Queries at times >= 25 still answer correctly.
  EXPECT_EQ(rt.WorkerAt(25, 0), 0u);
  EXPECT_EQ(rt.WorkerAt(30, 0), 1u);
  EXPECT_EQ(rt.WorkerAt(40, 0), 1u);
  EXPECT_LT(rt.TotalVersions(), 5u);
}

TEST(RoutingTable, NonPowerOfTwoBinsRejected) {
  EXPECT_DEATH(RoutingTable<uint64_t>(3, 2), "power of two");
}

TEST(Assignments, ImbalancedMovesQuarterOfBins) {
  const uint32_t bins = 64, workers = 4;
  auto init = MakeInitialAssignment(bins, workers);
  auto imb = MakeImbalancedAssignment(bins, workers);
  auto moves = DiffAssignments(init, imb);
  // Half of the bins of half of the workers move: 25% of all bins.
  EXPECT_EQ(moves.size(), bins / 4);
  for (const auto& m : moves) {
    EXPECT_LT(init[m.bin], workers / 2);       // source in lower half
    EXPECT_GE(m.worker, workers / 2);          // destination in upper half
    EXPECT_EQ(m.worker, init[m.bin] + workers / 2);
  }
}

TEST(Assignments, DiffIsEmptyForIdenticalAssignments) {
  auto a = MakeInitialAssignment(16, 4);
  EXPECT_TRUE(DiffAssignments(a, a).empty());
}

TEST(Strategies, AllAtOnceIsOneBatch) {
  auto from = MakeInitialAssignment(16, 4);
  auto to = MakeImbalancedAssignment(16, 4);
  auto moves = DiffAssignments(from, to);
  auto batches = PlanBatches(MigrationStrategy::kAllAtOnce, moves, from, 0);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), moves.size());
}

TEST(Strategies, FluidIsOneBinPerBatch) {
  auto from = MakeInitialAssignment(16, 4);
  auto to = MakeImbalancedAssignment(16, 4);
  auto moves = DiffAssignments(from, to);
  auto batches = PlanBatches(MigrationStrategy::kFluid, moves, from, 0);
  EXPECT_EQ(batches.size(), moves.size());
  for (const auto& b : batches) EXPECT_EQ(b.size(), 1u);
}

TEST(Strategies, BatchedRespectsBatchSize) {
  auto from = MakeInitialAssignment(64, 4);
  auto to = MakeImbalancedAssignment(64, 4);
  auto moves = DiffAssignments(from, to);  // 16 moves
  auto batches = PlanBatches(MigrationStrategy::kBatched, moves, from, 5);
  ASSERT_EQ(batches.size(), 4u);  // ceil(16/5)
  size_t total = 0;
  for (const auto& b : batches) {
    EXPECT_LE(b.size(), 5u);
    total += b.size();
  }
  EXPECT_EQ(total, moves.size());
}

TEST(Strategies, OptimizedBatchesNeverShareEndpoints) {
  // Scatter bins across 8 workers, then rebalance to a rotation; verify
  // that within each optimized batch no worker is used twice as source or
  // destination, and that every move is emitted exactly once.
  const uint32_t bins = 64, workers = 8;
  auto from = MakeInitialAssignment(bins, workers);
  Assignment to = from;
  for (uint32_t b = 0; b < bins; ++b) to[b] = (from[b] + 1 + b % 3) % workers;
  auto moves = DiffAssignments(from, to);
  auto batches = PlanBatches(MigrationStrategy::kOptimized, moves, from, 0);

  Assignment current = from;
  size_t total = 0;
  for (const auto& batch : batches) {
    std::set<uint32_t> srcs, dsts;
    for (const auto& m : batch) {
      EXPECT_TRUE(srcs.insert(current[m.bin]).second)
          << "source worker reused within a batch";
      EXPECT_TRUE(dsts.insert(m.worker).second)
          << "destination worker reused within a batch";
    }
    for (const auto& m : batch) current[m.bin] = m.worker;
    total += batch.size();
  }
  EXPECT_EQ(total, moves.size());
  EXPECT_EQ(current, to);
  // Matching should need far fewer steps than fluid.
  EXPECT_LT(batches.size(), moves.size());
}

}  // namespace
}  // namespace megaphone
