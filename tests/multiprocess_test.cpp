// Multi-process integration: the deterministic count workload, run as
// 2 processes x 2 workers over the TCP mesh, must agree byte-for-byte
// with the same workload run as 1 process x 4 worker threads — the same
// final per-key counts and the same number of completed migration
// batches — while a fluid migration moves a quarter of the bins
// mid-stream (so routed records, migrating two-input bins, and
// progress batches all genuinely cross the wire).
//
// The test forks: LaunchLoopbackProcesses binds kernel-assigned loopback
// listeners, forks the peer before any thread exists, and the child
// _exits straight after its workers finish (it must not run the gtest
// epilogue). Worker 0 lives in the parent, which owns all assertions.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <vector>

#include "harness/harness.hpp"
#include "harness/launcher.hpp"

namespace megaphone {
namespace {

DetCountConfig TestConfig() {
  DetCountConfig cfg;
  cfg.total_workers = 4;
  cfg.num_bins = 32;
  cfg.domain = 1 << 10;
  cfg.records_per_epoch = 2048;
  cfg.epochs = 6;
  cfg.migrate_at_epoch = 2;
  cfg.strategy = MigrationStrategy::kFluid;
  cfg.seed = 42;
  return cfg;
}

TEST(MultiProcess, TwoByTwoMatchesSingleProcessExactly) {
  DetCountConfig cfg = TestConfig();

  // Reference: 1 process x 4 workers, the classic thread runtime.
  timely::Config single;
  single.workers = 4;
  DetCountResult ref = RunDeterministicCount(cfg, single);
  ASSERT_TRUE(ref.root);
  ASSERT_FALSE(ref.digest.empty());
  ASSERT_GT(ref.completed_batches, 0u) << "migration never ran";
  // A fluid migration issues one batch per moved bin: 25% of the bins.
  EXPECT_EQ(ref.completed_batches, cfg.num_bins / 4);

  // Same workload, 2 processes x 2 workers over TCP. Fork happens while
  // this process is single-threaded (the reference run's threads joined
  // inside Execute).
  MultiProcess mp = LaunchLoopbackProcesses(/*processes=*/2,
                                            /*workers_per_process=*/2);
  if (!mp.IsRoot()) {
    // Child: run workers, then leave without touching gtest state. A
    // failed CHECK aborts with nonzero status, which the parent surfaces
    // through WaitForChildren.
    RunDeterministicCount(cfg, mp.config);
    _exit(0);
  }
  DetCountResult dist = RunDeterministicCount(cfg, mp.config);
  EXPECT_EQ(WaitForChildren(mp.children), 0) << "peer process failed";

  ASSERT_TRUE(dist.root);
  EXPECT_EQ(dist.distinct_keys, ref.distinct_keys);
  EXPECT_EQ(dist.completed_batches, ref.completed_batches);
  EXPECT_EQ(dist.digest, ref.digest)
      << "distributed run diverged from the single-process run";
}

// The split dimension itself must not matter: 4 processes x 1 worker
// agrees with the reference too (every F->S hop crosses the wire).
TEST(MultiProcess, FourByOneMatchesSingleProcessExactly) {
  DetCountConfig cfg = TestConfig();

  timely::Config single;
  single.workers = 4;
  DetCountResult ref = RunDeterministicCount(cfg, single);
  ASSERT_TRUE(ref.root);

  MultiProcess mp = LaunchLoopbackProcesses(/*processes=*/4,
                                            /*workers_per_process=*/1);
  if (!mp.IsRoot()) {
    RunDeterministicCount(cfg, mp.config);
    _exit(0);
  }
  DetCountResult dist = RunDeterministicCount(cfg, mp.config);
  EXPECT_EQ(WaitForChildren(mp.children), 0) << "peer process failed";

  ASSERT_TRUE(dist.root);
  EXPECT_EQ(dist.completed_batches, ref.completed_batches);
  EXPECT_EQ(dist.digest, ref.digest);
}

// The open-loop bench harness over the mesh: a short 2x2 key-count run
// with a mid-run batched migration must merge a report shard from BOTH
// processes (wire serde for timelines/histograms plus the shard channel)
// into one timeline, and the per-window migration stats must be present.
TEST(MultiProcess, CountBenchMergesShardsFromBothProcesses) {
  CountBenchConfig cfg;
  cfg.workers = 4;
  cfg.num_bins = 32;
  cfg.domain = 1 << 12;
  cfg.rate = 40'000;
  cfg.duration_ms = 600;
  cfg.mode = CountMode::kKeyCount;
  cfg.strategy = MigrationStrategy::kBatched;
  cfg.batch_size = 4;
  cfg.migrations.push_back({200, MakeImbalancedAssignment(32, 4)});

  MultiProcess mp = LaunchLoopbackProcesses(/*processes=*/2,
                                            /*workers_per_process=*/2);
  if (!mp.IsRoot()) {
    CountBenchResult r = RunCountBench(cfg, mp.config);
    // Peers run workers only; their result must say so.
    if (r.root) _exit(7);
    _exit(0);
  }
  CountBenchResult r = RunCountBench(cfg, mp.config);
  EXPECT_EQ(WaitForChildren(mp.children), 0) << "peer process failed";

  ASSERT_TRUE(r.root);
  ASSERT_EQ(r.shards.size(), 2u) << "expected one shard per process";
  EXPECT_EQ(r.shards[0].process_index, 0u);
  EXPECT_EQ(r.shards[1].process_index, 1u);
  EXPECT_GT(r.records_sent, 0u);
  // Both processes' local roots recorded epoch acks; the merged timeline
  // must hold the sum of their samples.
  uint64_t merged_samples = 0;
  for (const auto& row : r.timeline.Rows()) merged_samples += row.samples;
  uint64_t shard_samples = 0;
  for (const auto& s : r.shards) {
    for (const auto& row : s.timeline.Rows()) shard_samples += row.samples;
  }
  EXPECT_GT(merged_samples, 0u);
  EXPECT_EQ(merged_samples, shard_samples);
  ASSERT_FALSE(r.migrations.empty()) << "migration never observed";
  EXPECT_GT(r.migrations[0].batches, 0u);
}

// Without any migration the distributed exchange path alone must already
// be exact (isolates transport bugs from migration bugs).
TEST(MultiProcess, NoMigrationStillExact) {
  DetCountConfig cfg = TestConfig();
  cfg.migrate_at_epoch = cfg.epochs;  // disables migration
  cfg.epochs = 4;

  timely::Config single;
  single.workers = 4;
  DetCountResult ref = RunDeterministicCount(cfg, single);
  ASSERT_TRUE(ref.root);
  EXPECT_EQ(ref.completed_batches, 0u);

  MultiProcess mp = LaunchLoopbackProcesses(2, 2);
  if (!mp.IsRoot()) {
    RunDeterministicCount(cfg, mp.config);
    _exit(0);
  }
  DetCountResult dist = RunDeterministicCount(cfg, mp.config);
  EXPECT_EQ(WaitForChildren(mp.children), 0) << "peer process failed";
  EXPECT_EQ(dist.completed_batches, 0u);
  EXPECT_EQ(dist.digest, ref.digest);
}

}  // namespace
}  // namespace megaphone
