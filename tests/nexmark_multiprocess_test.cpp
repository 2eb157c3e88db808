// Distributed NEXMark correctness: the deterministic Q3 harness, run as
// 2 processes x 2 workers over the TCP mesh with a fluid reconfiguration
// issued mid-run, must produce exactly the same multiset of join outputs
// as the 1-process x 4-worker run — person/auction events, routed
// records, migrating join-state bins, and control instructions all
// genuinely cross the wire.
//
// Same forking pattern as multiprocess_test: listeners are bound before
// the fork, the child runs its workers and _exits without touching gtest
// state, and the parent (process 0, hosting global worker 0) owns all
// assertions.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <vector>

#include "harness/harness.hpp"
#include "harness/launcher.hpp"
#include "harness/nexmark_workload.hpp"

namespace megaphone {
namespace {

DetNexmarkConfig TestConfig() {
  DetNexmarkConfig cfg;
  cfg.total_workers = 4;
  cfg.num_bins = 32;
  cfg.events_per_epoch = 2500;
  cfg.epochs = 6;
  cfg.migrate_at_epoch = 2;
  cfg.strategy = MigrationStrategy::kFluid;
  cfg.batch_size = 1;
  return cfg;
}

TEST(NexmarkMultiProcess, Q3FluidMigrationMatchesSingleProcess) {
  DetNexmarkConfig cfg = TestConfig();

  // Reference: 1 process x 4 workers, the classic thread runtime.
  timely::Config single;
  single.workers = 4;
  DetNexmarkResult ref = RunDeterministicNexmarkQ3(cfg, single);
  ASSERT_TRUE(ref.root);
  ASSERT_FALSE(ref.digest.empty());
  ASSERT_GT(ref.outputs, 0u) << "Q3 never joined";
  ASSERT_GT(ref.completed_batches, 0u) << "migration never ran";
  // A fluid migration issues one batch per moved bin: 25% of the bins.
  EXPECT_EQ(ref.completed_batches, cfg.num_bins / 4);

  // Same workload, 2 processes x 2 workers over TCP. Fork happens while
  // this process is single-threaded (the reference run's threads joined
  // inside Execute).
  MultiProcess mp = LaunchLoopbackProcesses(/*processes=*/2,
                                            /*workers_per_process=*/2);
  if (!mp.IsRoot()) {
    RunDeterministicNexmarkQ3(cfg, mp.config);
    _exit(0);
  }
  DetNexmarkResult dist = RunDeterministicNexmarkQ3(cfg, mp.config);
  EXPECT_EQ(WaitForChildren(mp.children), 0) << "peer process failed";

  ASSERT_TRUE(dist.root);
  EXPECT_EQ(dist.outputs, ref.outputs);
  EXPECT_EQ(dist.completed_batches, ref.completed_batches);
  EXPECT_EQ(dist.digest, ref.digest)
      << "distributed Q3 run diverged from the single-process run";
}

// Chunked state movement over the wire: the same Q3 run with join-state
// bins shipped as small flow-controlled chunk frames (MapState entry runs
// crossing the TCP mesh) must agree byte-for-byte with the 1-process
// monolithic reference.
TEST(NexmarkMultiProcess, Q3ChunkedMigrationMatchesMonolithic) {
  DetNexmarkConfig cfg = TestConfig();

  timely::Config single;
  single.workers = 4;
  DetNexmarkResult ref = RunDeterministicNexmarkQ3(cfg, single);
  ASSERT_TRUE(ref.root);

  cfg.chunk_bytes = 128;
  MultiProcess mp = LaunchLoopbackProcesses(/*processes=*/2,
                                            /*workers_per_process=*/2);
  if (!mp.IsRoot()) {
    RunDeterministicNexmarkQ3(cfg, mp.config);
    _exit(0);
  }
  DetNexmarkResult dist = RunDeterministicNexmarkQ3(cfg, mp.config);
  EXPECT_EQ(WaitForChildren(mp.children), 0) << "peer process failed";

  ASSERT_TRUE(dist.root);
  EXPECT_EQ(dist.outputs, ref.outputs);
  EXPECT_EQ(dist.completed_batches, ref.completed_batches);
  EXPECT_EQ(dist.digest, ref.digest)
      << "chunked distributed Q3 diverged from the monolithic reference";
}

// Without the migration the distributed join alone must already agree
// (isolates transport bugs from migration bugs).
TEST(NexmarkMultiProcess, Q3NoMigrationStillExact) {
  DetNexmarkConfig cfg = TestConfig();
  cfg.migrate_at_epoch = cfg.epochs;  // disables migration
  cfg.epochs = 4;

  timely::Config single;
  single.workers = 4;
  DetNexmarkResult ref = RunDeterministicNexmarkQ3(cfg, single);
  ASSERT_TRUE(ref.root);
  EXPECT_EQ(ref.completed_batches, 0u);

  MultiProcess mp = LaunchLoopbackProcesses(2, 2);
  if (!mp.IsRoot()) {
    RunDeterministicNexmarkQ3(cfg, mp.config);
    _exit(0);
  }
  DetNexmarkResult dist = RunDeterministicNexmarkQ3(cfg, mp.config);
  EXPECT_EQ(WaitForChildren(mp.children), 0) << "peer process failed";
  EXPECT_EQ(dist.completed_batches, 0u);
  EXPECT_EQ(dist.digest, ref.digest);
}

}  // namespace
}  // namespace megaphone
